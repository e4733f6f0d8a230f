"""Benchmark of the datacenter engine: three seeded workloads, checked results.

Run from the root of a checkout::

    python3 -B perfbench/run.py --workload scale-serial --seed 1 --seconds 30 --trace 0

Each invocation builds the workload's inputs from ``--seed``, computes
the reference digest in a forked child process, makes one untimed
warm-up repetition, then repeats set-up, run and check until
``--seconds`` of measurement have passed.  Before each untraced
repetition it also samples engine set-up for ``SETUP_SAMPLE_SECONDS``,
so the set-up samples are spread over the whole measurement, as the
runs are.

Timings are scaled to a reference host speed.  The speed of this kind
of shared host swings by a third within seconds, so every timed phase
is bracketed by a fixed, program-independent probe (``host_probe_s``)
and multiplied by ``probe_reference_s`` (``reference.json``) over the
mean of the two probe times.  A faster program still reads faster; a
faster host does not.  The raw probe time is reported as the per-layer
metric ``host.probe_s``.

``--trace 0`` reports the end-to-end metrics, medians over untraced
repetitions.  ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer metrics from the traced ones (see
``tracer.py``) plus the tracer's own overhead.  ``--workload all``
runs every workload in both modes, each in a process of its own, and
prints every metric.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (name ->
value and unit).

A repetition fails if it raises (a replay ``JournalError`` included),
fails the billing conservation audit, or produces a result digest other
than the reference.  The reference run of ``scale-sharded2`` is on the
serial backend, so every sharded run is checked against serial on the
same inputs.  For the default seed the reference must also equal the
digest pinned in ``reference.json``.
"""

from __future__ import annotations

import sys

# The repository tracks a few compiled files under src/; importing the
# program must not rewrite them.
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

DEFAULT_SEED = 1
SETUP_SAMPLE_SECONDS = 0.2
MIN_SETUP_SAMPLES = 2
MIN_REPETITIONS = 3
MIN_TRACED = 2
PROBE_CALLS = 12

ROOT_SPANS = ("engine", "check")


def load_program():
    """Import the program from this checkout's ``src/`` and the workloads.

    Exits with an error, printing no result, when the checkout holds no
    program source.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(
            f"perfbench: no program source at {SRC}; run from the root of "
            "a checkout of the repository"
        )
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(
            f"perfbench: imported repro from {repro.__file__}, not {SRC}"
        )
    import tracer
    import workloads

    return workloads, tracer


class Tally:
    """Attempted and failed runs, with each failure printed by name."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def attempt(self, label: str, action):
        """Run ``action``; count it, and report it if it fails."""
        self.attempted += 1
        try:
            return action()
        except Exception as error:  # a failed run is counted, not fatal
            self.failed += 1
            print(
                f"FAILED {label}: {type(error).__name__}: {error}",
                file=sys.stderr,
                flush=True,
            )
            return None


def shard_metrics(outcome) -> dict[str, float]:
    """Barrier-plane counters the engine exposes after a run."""
    stats = outcome.barrier_stats
    busy = outcome.shard_busy_seconds or []
    return {
        "shard.barriers": stats.get("barriers", 0),
        "shard.payload_bytes": stats.get("payload_bytes", 0),
        "shard.serialize_s": stats.get("serialize_seconds", 0.0),
        "shard.wait_s": stats.get("wait_seconds", 0.0),
        "shard.apply_s": stats.get("apply_seconds", 0.0),
        "shard.coordinator_cpu_s": outcome.coordinator_busy_seconds or 0.0,
        "shard.worker_cpu_s_max": max(busy, default=0.0),
        "shard.worker_cpu_s_sum": sum(busy),
    }


def span_metrics(recorder, outcome, units) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    A ``<span>.self_s`` metric is the self time of that span name.
    """
    steps = recorder.calls("runtime.step")
    metrics = {
        "runtime.step.calls": steps,
        "runtime.beats_per_step": outcome.heartbeats / steps if steps else 0.0,
        "service.make_job.calls": recorder.calls("service.make_job"),
        "machine.idle_until.calls": recorder.calls("machine.idle_until"),
        "policy.decide.calls": recorder.calls("policy.decide"),
        "applier.migrations": outcome.migrations,
        "checkpoint.capture.calls": recorder.calls("checkpoint.capture"),
        "journal.bytes": outcome.journal_bytes,
        "trace.wall_s": recorder.wall_ns(ROOT_SPANS) / 1e9,
    }
    for name in units:
        if name.endswith(".self_s"):
            metrics[name] = recorder.self_seconds(name[: -len(".self_s")])
    return metrics


def high_water_kb() -> int:
    """This process's peak resident set since start or the last reset."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def reset_high_water() -> None:
    """Lower this process's peak resident set to its current one."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


@contextlib.contextmanager
def worker_peaks(workdir: str):
    """Collect the peak resident set, in kB, of each shard worker forked meanwhile.

    The workers are forked by the program, which reaps them, so the
    benchmark wraps the worker entry point the sharded backend starts:
    each worker writes its own peak to ``workdir`` as it exits.
    """
    from repro.datacenter import shard

    original = shard._worker_main
    peaks: list[int] = []

    def reporting(*args, **kwargs):
        try:
            original(*args, **kwargs)
        finally:
            path = os.path.join(workdir, f"worker-{os.getpid()}.peak")
            with open(path, "w", encoding="ascii") as handle:
                handle.write(str(high_water_kb()))

    shard._worker_main = reporting
    try:
        yield peaks
    finally:
        shard._worker_main = original
        for entry in os.listdir(workdir):
            if entry.startswith("worker-") and entry.endswith(".peak"):
                path = os.path.join(workdir, entry)
                with open(path, encoding="ascii") as handle:
                    peaks.append(int(handle.read()))
                os.remove(path)


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {
        name: statistics.median(sample[name] for sample in samples)
        for name in samples[0]
    }


def host_probe_s() -> float:
    """Mean time of a fixed piece of Python work that never calls the program.

    Timed next to every phase, so that timings can be expressed at the
    host speed the probe had when ``reference.json`` pinned
    ``probe_reference_s``.  The collector is off while it runs, so the
    probe's time does not depend on how much the program keeps alive.
    The whole probe takes about 0.3 s: on a shared host, probes of a
    few milliseconds track the speed a multi-second phase ran at
    markedly worse than ones this long.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(PROBE_CALLS):
            started = time.perf_counter()
            total = 0
            for value in range(200_000):
                total += value * value
            table = {value: float(value) for value in range(10_000)}
            sorted(table.values(), key=lambda number: -number)
            times.append(time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return statistics.fmean(times)


def in_child(action):
    """The string ``action()`` returns, computed in a forked child process.

    The child's memory and CPU never count towards this process's.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        try:
            message = "ok " + action()
        except BaseException as error:
            message = f"{type(error).__name__}: {error}"
        with os.fdopen(write_end, "w", encoding="utf-8") as handle:
            handle.write(message)
        os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, encoding="utf-8") as handle:
        message = handle.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not message.startswith("ok "):
        raise RuntimeError(message or f"child exited with status {status}")
    return message[len("ok "):]


def warm_up(workload, inputs, workdir, name, seed, tally):
    """Compute the reference digest, then make the untimed warm-up repetition.

    The reference run is made in a forked child, so that it does not
    raise this process's peak resident set: on ``scale-sharded2`` it is a
    serial run of all 1024 machines.  Returns the reference digest.
    """
    reference = tally.attempt(
        f"{name} reference",
        lambda: in_child(lambda: workload.reference_digest(inputs, workdir)),
    )
    if reference is not None and seed == DEFAULT_SEED:
        pinned = load_reference()["digests"].get(name)
        if reference != pinned:
            tally.failed += 1
            print(
                f"FAILED {name} pinned digest: seed {seed} gives {reference}, "
                f"reference.json pins {pinned}",
                file=sys.stderr,
                flush=True,
            )
    outcome = tally.attempt(
        f"{name} warm-up",
        lambda: workload.execute(workload.setup(inputs, workdir)),
    )
    if outcome is not None and outcome.digest != reference:
        tally.failed += 1
        print(
            f"FAILED {name} warm-up: digest {outcome.digest} differs from "
            f"the reference {reference}",
            file=sys.stderr,
            flush=True,
        )
    return reference


def repetition(workloads, tracer, workload, inputs, workdir, reference,
               traced: bool, probes: list[float]):
    """Set up, run and check once; raise if the result is not the reference.

    Appends a host probe time after the run and after the check, so
    set-up and run lie between two probes and the check between the
    next two.
    """
    recorder = tracer.SpanRecorder() if traced else None
    # Set up under the patches too, so per-tenant request factories are
    # wrapped; set-up itself runs outside any root span.
    with tracer.installed(recorder) if traced else contextlib.nullcontext():
        started = time.perf_counter()
        prepared = workload.setup(inputs, workdir)
        setup_s = time.perf_counter() - started
        outcome = workload.execute(
            prepared,
            recorder.root if traced else None,
            lambda: probes.append(host_probe_s()),
        )
    if outcome.digest != reference:
        raise workloads.CheckFailure(
            f"digest {outcome.digest} differs from the reference {reference}"
        )
    if traced and recorder.self_ns_total() != recorder.wall_ns(ROOT_SPANS):
        raise workloads.CheckFailure(
            "span self times do not add up to the traced wall-clock"
        )
    return recorder, setup_s, outcome


def measure(workloads, tracer, name: str, seed: int, seconds: float,
            trace: bool, workdir: str) -> dict:
    """One benchmark invocation: warm up, set up, repeat, check, report.

    Each timed phase (set-up, run, check) is scaled by
    ``probe_reference_s`` over the mean of the host probe times taken
    just before and just after it; the set-ups sampled before a
    repetition share the probes of its set-up and run.
    """
    end_to_end, per_layer = metric_units()
    probe_reference_s = load_reference()["probe_reference_s"]

    def scale(before: float, after: float) -> float:
        return 2.0 * probe_reference_s / (before + after)

    workload = workloads.WORKLOADS[name]
    inputs = workload.inputs(seed)
    events = inputs.events()
    tally = Tally()
    reference = warm_up(workload, inputs, workdir, name, seed, tally)

    def sample_setups() -> list[float]:
        """Seconds of set-ups made and discarded for SETUP_SAMPLE_SECONDS."""
        samples: list[float] = []
        began = time.perf_counter()
        while (
            len(samples) < MIN_SETUP_SAMPLES
            or time.perf_counter() - began < SETUP_SAMPLE_SECONDS
        ):
            gc.collect()
            started = time.perf_counter()
            prepared = workload.setup(inputs, workdir)
            samples.append(time.perf_counter() - started)
            workload.discard(prepared)
            del prepared
        return samples

    probes = [host_probe_s()]
    setups: list[float] = []
    untraced: list[dict[str, float]] = []
    traced: list[dict[str, float]] = []
    rss_mb = None
    shards: list[dict[str, float]] = []
    began = time.perf_counter()
    lasted: list[float] = []
    count = 0
    # A repetition starts only if one of median length still fits in
    # the measuring time, so an invocation does not overrun ``seconds``;
    # past that, repetitions short of the minimum count are retried
    # until as many have failed.
    while (
        time.perf_counter() - began
        + (statistics.median(lasted) if lasted else 0.0) <= seconds
        or tally.failed < MIN_REPETITIONS
        and (
            len(untraced) < (MIN_TRACED if trace else MIN_REPETITIONS)
            or trace and len(traced) < MIN_TRACED
        )
    ):
        traced_rep = trace and count % 2 == 1
        label = f"{name} repetition {count}{' traced' if traced_rep else ''}"
        count += 1
        started = time.perf_counter()
        first = len(probes) - 1
        # peak_rss_mb is this process's peak over the first untimed
        # repetition that completes, plus the peak of each of its shard
        # workers (pages a worker shares with this process count in
        # both).  Later repetitions add only allocator fragmentation,
        # which varies run to run, as do set-ups sampled just before.
        peaking = rss_mb is None and not traced_rep
        # The sampled set-ups lie between the same two probes as the
        # repetition's own set-up and run.
        sampled = [] if trace or peaking else sample_setups()
        gc.collect()
        if peaking:
            reset_high_water()
        with worker_peaks(workdir) if peaking else contextlib.nullcontext(
            []
        ) as workers:
            done = tally.attempt(
                label,
                lambda: repetition(
                    workloads, tracer, workload, inputs, workdir, reference,
                    traced_rep, probes,
                ),
            )
        lasted.append(time.perf_counter() - started)
        if done is None:
            probes.append(host_probe_s())
            continue
        recorder, setup_s, outcome = done
        before, after_run, after_check = probes[first:]
        run_scale = scale(before, after_run)
        check_scale = scale(after_run, after_check)
        wall_s = outcome.run_s * run_scale + outcome.check_s * check_scale
        if recorder is None:
            setups.extend(
                seconds * run_scale for seconds in (*sampled, setup_s)
            )
            untraced.append(
                {
                    "events_per_s": events / (outcome.run_s * run_scale),
                    "check_s": outcome.check_s * check_scale,
                    "cpu_s": outcome.run_cpu_s * run_scale
                    + outcome.check_cpu_s * check_scale,
                    "wall_s": wall_s,
                }
            )
            shards.append(shard_metrics(outcome))
            if peaking:
                rss_mb = (high_water_kb() + sum(workers)) / 1024.0
        else:
            metrics = span_metrics(recorder, outcome, per_layer)
            metrics["trace.scaled_wall_s"] = wall_s
            traced.append(metrics)
            if len(traced) == 1:
                print(f"spans of {label}:\n{recorder.format()}", flush=True)

    if not untraced or (trace and not traced):
        raise SystemExit(f"perfbench: no repetition of {name} completed")
    summary = median_metrics(untraced)
    if trace:
        metrics = median_metrics(traced)
        metrics.update(median_metrics(shards))
        metrics["host.probe_s"] = statistics.median(probes)
        metrics["trace.overhead_frac"] = (
            metrics["trace.scaled_wall_s"] / summary["wall_s"] - 1.0
        )
        units = per_layer
    else:
        metrics = {
            "events_per_s": summary["events_per_s"],
            "check_s": summary["check_s"],
            "cpu_s": summary["cpu_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss_mb,
        }
        units = end_to_end
    print(
        f"{name} seed={seed} events={events} untraced={len(untraced)} "
        f"traced={len(traced)} setups={len(setups)} "
        f"host_probe_s={statistics.median(probes):.6f} "
        f"(reference {probe_reference_s})",
        flush=True,
    )
    for metric, unit in units.items():
        print(f"  {metric:<26} {metrics[metric]:>16.6f} {unit}", flush=True)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            metric: {"value": metrics[metric], "unit": unit}
            for metric, unit in units.items()
        },
    }


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metric units, by name, from BENCHMARK.json."""
    with open(BENCHMARK, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    return tuple(
        {metric["name"]: metric["unit"] for metric in benchmark[kind]}
        for kind in ("end_to_end", "per_layer")
    )


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload",
        choices=("scale-serial", "scale-sharded2", "journal-chaos", "all"),
        required=True,
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workloads, tracer = load_program()
    if args.workload == "all":
        return measure_all(workloads, args.seed, args.seconds)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        result = measure(
            workloads, tracer, args.workload, args.seed, args.seconds,
            bool(args.trace), workdir,
        )
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        stop_resource_tracker()


def stop_resource_tracker() -> None:
    """Stop the resource tracker process, if one was started, and wait for it.

    The sharded backend's shared-memory segments start the
    ``multiprocessing`` resource tracker, a process that otherwise
    outlives this one.  Stopping it closes its pipe and reaps it.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def measure_all(workloads, seed: int, seconds: float) -> int:
    """Every workload untraced and traced, each in a process of its own.

    A process of its own keeps ``peak_rss_mb`` per workload, as it is
    when one workload is measured.
    """
    results = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, "-B", os.path.abspath(__file__),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE,
                text=True,
                check=False,
            )
            *report, last = done.stdout.splitlines() or [""]
            print("\n".join(report), flush=True)
            if done.returncode != 0:
                raise SystemExit(
                    f"perfbench: {name} --trace {trace} exited with "
                    f"{done.returncode}"
                )
            results[f"{name}{' traced' if trace else ''}"] = json.loads(last)
    print(json.dumps(results), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
