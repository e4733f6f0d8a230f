"""Checks of the benchmark's own machinery, on small pools.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads
from repro.core.runtime import PowerDialRuntime
from repro.datacenter import engine as engine_module

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _scale(backend: str = "serial", workers=None):
    return workloads.ScaleWorkload("scale-small", backend, workers)


@pytest.mark.parametrize(
    "workload, inputs",
    [
        (_scale(), workloads.ScaleInputs.from_seed(3, machines=16)),
        (workloads.ChaosWorkload(), workloads.ChaosInputs.from_seed(3, machines=4)),
    ],
    ids=["scale", "journal-chaos"],
)
def test_tracer_keeps_digest_and_partitions_wall(workload, inputs, tmp_path):
    plain = workload.execute(workload.setup(inputs, str(tmp_path)))
    recorder = tracer.SpanRecorder()
    with tracer.installed(recorder):
        # Set up under the patches, as a traced repetition does, so the
        # request factories are wrapped too.
        prepared = workload.setup(inputs, str(tmp_path))
        traced = workload.execute(prepared, recorder.root)

    assert traced.digest == plain.digest
    assert recorder.self_ns_total() == recorder.wall_ns(("engine", "check"))
    assert recorder.calls("runtime.step") > 0
    assert recorder.calls("service.make_job") > 0
    assert recorder.calls("policy.decide") > 0


def test_tracer_restores_every_patched_name(tmp_path):
    step = PowerDialRuntime.__dict__["step"]
    compose_bill = engine_module.compose_bill
    with tracer.installed(tracer.SpanRecorder()):
        assert PowerDialRuntime.__dict__["step"] is not step
        assert engine_module.compose_bill is not compose_bill
    assert PowerDialRuntime.__dict__["step"] is step
    assert engine_module.compose_bill is compose_bill


def test_spans_outside_a_root_are_not_recorded():
    recorder = tracer.SpanRecorder()
    double = recorder.wrap("double", lambda value: 2 * value)
    assert double(2) == 4
    assert recorder.spans == {}
    with recorder.root("engine"):
        assert double(3) == 6
    assert recorder.calls("double") == 1
    assert recorder.self_ns_total() == recorder.wall_ns(("engine",))


def test_sharded_run_matches_serial_digest(tmp_path):
    inputs = workloads.ScaleInputs.from_seed(5, machines=8)
    # As in the benchmark: the serial reference runs in a forked child,
    # and each worker of the sharded run reports its own peak.
    serial = run.in_child(lambda: _scale().reference_digest(inputs, str(tmp_path)))
    sharded = _scale("sharded", 2)
    with run.worker_peaks(str(tmp_path)) as peaks:
        outcome = sharded.execute(sharded.setup(inputs, str(tmp_path)))
    assert outcome.digest == serial
    assert len(peaks) == 2 and min(peaks) > 0
    assert not list(tmp_path.glob("worker-*"))


def test_child_failure_is_raised_by_name():
    def fail():
        raise ValueError("no digest")

    with pytest.raises(RuntimeError, match="ValueError: no digest"):
        run.in_child(fail)


def test_pinned_digests_hold_invariant_two():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        digests = json.load(handle)["digests"]
    assert set(digests) == set(workloads.WORKLOADS)
    assert digests["scale-sharded2"] == digests["scale-serial"]


def test_seed_derives_every_input_seed():
    one = workloads.ChaosInputs.from_seed(1, machines=4)
    again = workloads.ChaosInputs.from_seed(1, machines=4)
    other = workloads.ChaosInputs.from_seed(2, machines=4)
    assert one == again
    assert [t.seed for t in one.tenants] != [t.seed for t in other.tenants]
    assert one.faults != other.faults
    scale = workloads.ScaleInputs.from_seed(1, machines=4)
    assert scale.request_seeds != workloads.ScaleInputs.from_seed(
        2, machines=4
    ).request_seeds


def test_benchmark_fails_without_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "-B", "perfbench/run.py", "--workload", "scale-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_resource_tracker_is_stopped_and_reaped():
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()
    pid = resource_tracker._resource_tracker._pid
    run.stop_resource_tracker()
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)
