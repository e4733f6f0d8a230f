"""Outside-in span recorder for the benchmark's traced runs.

The program has no in-process tracing yet, so the benchmark wraps the
public functions of each layer from the outside, with ``perf_counter_ns``
accumulators per span name: call count, total time and self time (total
minus the time of child spans that ran inside it).  Spans are kept in
memory and reported once, when the run ends.

Only calls made while a root span is open are recorded, so the roots
(the engine run, the replay, the benchmark's own result check) cover the
traced wall-clock, and the self times of all span names together add up
to exactly the summed root durations: the self times partition the
traced wall-clock.

Each wrapped name is patched where the engine looks it up.
``repro.datacenter.engine`` binds ``compose_bill``, ``enforce_caps``,
``capture_tenant_checkpoint`` and others into its own namespace, so
patching them in their defining modules would miss every engine call.
Forked shard workers inherit the patches but cannot return their spans;
on the sharded backend only the coordinator's spans are seen, and the
coordinator's wait for its workers is part of ``engine`` self time (the
engine's own ``barrier_stats`` break it out).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from time import perf_counter_ns
from typing import Any, Callable, Iterator

# (module, class or None, attribute, span name).  Methods are patched on
# the class; module-level names in the namespace that calls them.
TARGETS = (
    ("repro.core.runtime", "PowerDialRuntime", "step", "runtime.step"),
    ("repro.core.runtime", "PowerDialRuntime", "feed", "runtime.feed"),
    ("repro.hardware.machine", "Machine", "execute", "machine.execute"),
    ("repro.hardware.machine", "Machine", "execute_run", "machine.execute"),
    ("repro.hardware.machine", "Machine", "idle_until", "machine.idle_until"),
    ("repro.heartbeats.api", "HeartbeatMonitor", "heartbeat", "heartbeats"),
    ("repro.heartbeats.api", "HeartbeatMonitor", "commit_run", "heartbeats"),
    ("repro.datacenter.engine", "DatacenterEngine", "_decide_plan",
     "policy.decide"),
    ("repro.datacenter.engine", None, "plan_actions", "applier"),
    ("repro.datacenter.engine", None, "enforce_caps", "applier"),
    ("repro.datacenter.engine", None, "apply_failures", "applier"),
    ("repro.datacenter.engine", None, "migrate_instance", "applier"),
    ("repro.datacenter.engine", None, "capture_tenant_checkpoint",
     "checkpoint.capture"),
    ("repro.datacenter.engine", None, "capture_machine_checkpoint",
     "checkpoint.capture"),
    ("repro.datacenter.engine", None, "compose_bill", "billing"),
    ("repro.datacenter.engine", None, "merge_run_results", "billing"),
    ("repro.datacenter.tenants", "TenantStats", "record_completion",
     "billing"),
    ("repro.datacenter.engine", "DatacenterEngine", "_journal_barrier",
     "journal.write"),
    ("repro.datacenter.journal.writer", "JournalWriter", "write_record",
     "journal.write"),
    ("repro.datacenter.journal.replay", None, "read_journal",
     "journal.read"),
    ("repro.datacenter.journal.replay", None, "build_engine_from_header",
     "replay.build"),
    ("repro.datacenter.journal.replay", None, "result_payload",
     "result.payload"),
    # The sharded coordinator's own bindings.
    ("repro.datacenter.shard", None, "plan_actions", "applier"),
    ("repro.datacenter.shard", None, "plan_failures", "applier"),
    ("repro.datacenter.shard", None, "enforce_caps", "applier"),
    ("repro.datacenter.shard", None, "emigrate", "applier"),
    ("repro.datacenter.shard", None, "absorb", "applier"),
    ("repro.datacenter.shard", None, "capture_tenant_checkpoint",
     "checkpoint.capture"),
    ("repro.datacenter.shard", None, "capture_machine_checkpoint",
     "checkpoint.capture"),
    ("repro.datacenter.shard", None, "compose_bill", "billing"),
    ("repro.datacenter.shard", None, "merge_run_results", "billing"),
)

# Request factories are closures built per tenant, so the factory
# builders are wrapped to return a wrapped ``make_job``.
FACTORY_TARGETS = (
    ("repro.datacenter.service", "request_stream"),
    ("repro.experiments.datacenter", "request_stream"),
)


class SpanRecorder:
    """Per-name span accumulators: ``name -> [calls, total_ns, self_ns]``."""

    def __init__(self) -> None:
        self.spans: dict[str, list[int]] = {}
        # One entry per open span: nanoseconds spent in its children.
        self._open: list[list[int]] = []

    def _close(self, name: str, frame: list[int], elapsed: int) -> None:
        self._open.pop()
        if self._open:
            self._open[-1][0] += elapsed
        entry = self.spans.setdefault(name, [0, 0, 0])
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - frame[0]

    @contextlib.contextmanager
    def root(self, name: str) -> Iterator[None]:
        """Open a root span; nested wrapped calls record only inside one."""
        if self._open:
            raise RuntimeError(f"root span {name!r} opened inside a span")
        frame = [0]
        self._open.append(frame)
        started = perf_counter_ns()
        try:
            yield
        finally:
            self._close(name, frame, perf_counter_ns() - started)

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` timed as span ``name`` whenever a root is open."""
        open_spans = self._open
        close = self._close

        @functools.wraps(function)
        def spanned(*args: Any, **kwargs: Any) -> Any:
            if not open_spans:
                return function(*args, **kwargs)
            frame = [0]
            open_spans.append(frame)
            started = perf_counter_ns()
            try:
                return function(*args, **kwargs)
            finally:
                close(name, frame, perf_counter_ns() - started)

        return spanned

    def wall_ns(self, roots: tuple[str, ...]) -> int:
        """Summed duration of the named root spans."""
        return sum(self.spans.get(name, (0, 0, 0))[1] for name in roots)

    def self_ns_total(self) -> int:
        """Self time summed over every span name."""
        return sum(entry[2] for entry in self.spans.values())

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0, 0))[0]

    def self_seconds(self, name: str) -> float:
        return self.spans.get(name, (0, 0, 0))[2] / 1e9

    def format(self) -> str:
        """The span table, one line per name, largest self time first."""
        lines = [f"{'span':<22} {'calls':>9} {'total_s':>10} {'self_s':>10}"]
        for name, (calls, total, own) in sorted(
            self.spans.items(), key=lambda item: -item[1][2]
        ):
            lines.append(
                f"{name:<22} {calls:>9} {total / 1e9:>10.4f} {own / 1e9:>10.4f}"
            )
        return "\n".join(lines)


@contextlib.contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Patch every target to record into ``recorder``; restore on exit."""
    undo: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attribute: str, replacement: Any) -> None:
        undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    try:
        for module_name, class_name, attribute, span in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            patch(owner, attribute, recorder.wrap(span, getattr(owner, attribute)))
        for module_name, attribute in FACTORY_TARGETS:
            module = importlib.import_module(module_name)
            build = getattr(module, attribute)

            @functools.wraps(build)
            def traced_factory(*args: Any, _build=build, **kwargs: Any):
                return recorder.wrap("service.make_job", _build(*args, **kwargs))

            patch(module, attribute, traced_factory)
        yield recorder
    finally:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)
