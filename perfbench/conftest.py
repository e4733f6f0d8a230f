"""Lets the benchmark's tests import the program from this checkout."""

import os
import sys

# The repository tracks a few compiled files under src/; importing the
# program must not rewrite them.
sys.dont_write_bytecode = True
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)
