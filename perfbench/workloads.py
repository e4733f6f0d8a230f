"""The benchmark's three workloads, built from a seed through public entry points.

Every workload is a pure function of one integer seed: the seed derives
all per-tenant trace seeds, the scale workloads' ``request_stream``
seeds, the ``TenantScenario`` seeds and the ``FaultPlan`` seed, and the
program only ever receives the generated inputs.  (``journal-chaos`` is
built through ``build_engine_from_config``, which seeds each tenant's
``request_stream`` from its index.)

Why these three (the sheet in ``reference.json`` records the measured
baseline next to the same reasons):

* ``scale-serial`` loads the step kernel, arrival dispatch and idle
  settlement; the control plane is small and there is no shard, journal
  or checkpoint work.
* ``scale-sharded2`` runs the *same* generated inputs on the sharded
  backend with two workers, so any difference from ``scale-serial`` is
  the barrier plane (``datacenter.shard`` and ``datacenter.deltas``).
* ``journal-chaos`` loads the control plane, checkpoint capture, journal
  writes (record) and journal reads (replay) under gray failures; it
  bypasses the batched kernel and the shard plane.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import resource
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.powerdial import measure_baseline_rate
from repro.core.runtime import PowerDialRuntime
from repro.datacenter import (
    CONSERVATION_TOLERANCE,
    DatacenterEngine,
    DatacenterResult,
    FaultPlan,
    InstanceBinding,
    LatencySLA,
    ServiceApp,
    TenantSpec,
    build_policy,
    poisson_trace,
    service_training_jobs,
)
from repro.datacenter import service
from repro.datacenter.journal import (
    JournalWriter,
    canonical_json,
    journaled_run,
    replay,
    result_payload,
)
from repro.experiments.common import experiment_machine
from repro.experiments.datacenter import (
    TenantScenario,
    build_engine_from_config,
    scenario_config,
)
from repro.experiments.registry import built_service_system

SCALE_MACHINES = 1024
SCALE_RATE = 0.1
SCALE_HORIZON = 120.0
SCALE_CONTROL_PERIOD = 10.0
SCALE_WATTS_PER_MACHINE = 200.0

CHAOS_MACHINES = 32
CHAOS_HORIZON = 120.0
CHAOS_CONTROL_PERIOD = 1.0
CHAOS_WATTS_PER_MACHINE = 205.0
# Trace shape and rate (peak rate for diurnal and burst) by tenant slot;
# the last slot of every four is knob-poor exact service (qos_cap=0).
CHAOS_MIX = (
    ("steady", 0.5, None),
    ("diurnal", 1.0, None),
    ("burst", 1.2, None),
    ("steady", 0.6, 0.0),
)
CHAOS_BUILDER = "datacenter-experiment"
CHAOS_BUILDER_MODULE = "repro.experiments.datacenter"


class CheckFailure(RuntimeError):
    """A run produced an output the benchmark's correctness gate rejects."""


def derived_seeds(seed: int, count: int) -> list[int]:
    """``count`` independent sub-seeds drawn from the workload seed."""
    rng = np.random.default_rng(seed)
    return [int(value) for value in rng.integers(0, 2**31 - 1, size=count)]


def result_digest(result: DatacenterResult) -> str:
    """SHA-256 over the canonical result payload: the run's fingerprint."""
    payload = canonical_json(result_payload(result))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def audit(result: DatacenterResult, label: str) -> str:
    """Run the conservation audit and return the result digest.

    Raises :class:`CheckFailure` naming the run when billed plus idle
    energy does not add up to the metered pool energy.
    """
    error = result.energy_conservation_rel_error()
    if not error <= CONSERVATION_TOLERANCE:
        raise CheckFailure(
            f"{label}: billing conservation error {error!r} exceeds "
            f"{CONSERVATION_TOLERANCE!r}"
        )
    return result_digest(result)


@dataclass
class Outcome:
    """What one timed repetition of a workload produced.

    ``run`` is the program's forward run (on ``journal-chaos``, the
    journaled record); ``check`` verifies its output (on
    ``journal-chaos``, the replay of the journal, which re-executes the
    run and byte-compares the result).  CPU seconds include reaped
    worker processes.
    """

    run_s: float
    run_cpu_s: float
    check_s: float
    check_cpu_s: float
    digest: str
    heartbeats: int
    migrations: int
    barrier_stats: dict[str, Any]
    shard_busy_seconds: list[float] | None
    coordinator_busy_seconds: float | None
    journal_bytes: int = 0


def _cpu_seconds() -> float:
    """CPU seconds of this process plus its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Phases:
    """Wall and CPU seconds of a repetition's ``run`` and ``check`` phases.

    ``between`` is called after each phase, outside its timing; the
    benchmark times its host probe there.
    """

    def __init__(self, between: Callable[[], None] | None) -> None:
        self.between = between
        self.wall = {"run": 0.0, "check": 0.0}
        self.cpu = {"run": 0.0, "check": 0.0}

    @contextlib.contextmanager
    def phase(self, name: str):
        cpu = _cpu_seconds()
        started = time.perf_counter()
        yield
        self.wall[name] += time.perf_counter() - started
        self.cpu[name] += _cpu_seconds() - cpu
        if self.between is not None:
            self.between()

    def timings(self) -> dict[str, float]:
        return {
            "run_s": self.wall["run"],
            "run_cpu_s": self.cpu["run"],
            "check_s": self.wall["check"],
            "check_cpu_s": self.cpu["check"],
        }


def _heartbeats(result: DatacenterResult) -> int:
    return sum(len(run.samples) for run in result.run_results.values())


# ----------------------------------------------------------------------
# scale-serial / scale-sharded2
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScaleInputs:
    """Generated inputs of the 1024-machine scale workloads."""

    trace_seeds: tuple[int, ...]
    request_seeds: tuple[int, ...]

    @classmethod
    def from_seed(cls, seed: int, machines: int = SCALE_MACHINES) -> "ScaleInputs":
        seeds = derived_seeds(seed, 2 * machines)
        return cls(
            trace_seeds=tuple(seeds[:machines]),
            request_seeds=tuple(seeds[machines:]),
        )

    def events(self) -> int:
        """Arrivals plus periodic control barriers."""
        arrivals = sum(
            poisson_trace(SCALE_RATE, SCALE_HORIZON, seed=seed).count
            for seed in self.trace_seeds
        )
        return arrivals + int(math.floor(SCALE_HORIZON / SCALE_CONTROL_PERIOD))


def build_scale_engine(
    inputs: ScaleInputs, backend: str, workers: int | None
) -> DatacenterEngine:
    """One ``ServiceApp`` tenant per machine under ``hier-arbitrated``."""
    count = len(inputs.trace_seeds)
    system = built_service_system()
    machines = [experiment_machine() for _ in range(count)]
    target = measure_baseline_rate(
        ServiceApp, service_training_jobs()[0], machines[0]
    )

    def make_runtime(machine):
        return PowerDialRuntime(
            app=ServiceApp(),
            table=system.table,
            machine=machine,
            target_rate=target,
        )

    bindings = []
    for index in range(count):
        spec = TenantSpec(
            name=f"tenant-{index}",
            trace=poisson_trace(
                SCALE_RATE, SCALE_HORIZON, seed=inputs.trace_seeds[index]
            ),
            sla=LatencySLA(latency_bound=1.0, attainment_target=0.9),
            # Looked up on the module so a tracer can wrap the factory.
            job_factory=service.request_stream(
                seed=inputs.request_seeds[index]
            ),
        )
        bindings.append(
            InstanceBinding(
                tenant=spec,
                runtime=make_runtime(machines[index]),
                machine_index=index,
                runtime_factory=make_runtime,
            )
        )
    policy = build_policy(
        "hier-arbitrated", SCALE_WATTS_PER_MACHINE * count, machines
    )
    return DatacenterEngine(
        machines,
        bindings,
        policy=policy,
        control_period=SCALE_CONTROL_PERIOD,
        backend=backend,
        workers=workers,
        step_mode="batched",
    )


class ScaleWorkload:
    """The 1024-machine Poisson workload on one backend."""

    def __init__(self, name: str, backend: str, workers: int | None) -> None:
        self.name = name
        self.backend = backend
        self.workers = workers

    def inputs(self, seed: int) -> ScaleInputs:
        return ScaleInputs.from_seed(seed)

    def setup(self, inputs: ScaleInputs, workdir: str) -> DatacenterEngine:
        return build_scale_engine(inputs, self.backend, self.workers)

    def discard(self, engine: DatacenterEngine) -> None:
        """Release a set-up engine that will not run."""

    def reference_digest(self, inputs: ScaleInputs, workdir: str) -> str:
        """Digest of an untimed serial run (the cross-backend reference)."""
        engine = build_scale_engine(inputs, "serial", None)
        return audit(engine.run(), f"{self.name} serial reference")

    def execute(
        self, engine: DatacenterEngine, roots=None, between=None
    ) -> Outcome:
        """Run and check one set-up engine, timing each phase."""
        phases = Phases(between)
        with phases.phase("run"), _root(roots, "engine"):
            result = engine.run()
        with phases.phase("check"), _root(roots, "check"):
            digest = audit(result, self.name)
        return Outcome(
            **phases.timings(),
            digest=digest,
            heartbeats=_heartbeats(result),
            migrations=len(result.migrations),
            barrier_stats=dict(engine.barrier_stats or {}),
            shard_busy_seconds=engine.shard_busy_seconds,
            coordinator_busy_seconds=engine.coordinator_busy_seconds,
        )


# ----------------------------------------------------------------------
# journal-chaos
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChaosInputs:
    """Generated inputs of the journaled gray-failure workload."""

    machines: int
    tenants: tuple[TenantScenario, ...]
    faults: FaultPlan

    @classmethod
    def from_seed(cls, seed: int, machines: int = CHAOS_MACHINES) -> "ChaosInputs":
        """Two tenants per machine, cycling through :data:`CHAOS_MIX`."""
        seeds = derived_seeds(seed, 2 * machines + 1)
        tenants = []
        for index in range(2 * machines):
            kind, rate, qos_cap = CHAOS_MIX[index % len(CHAOS_MIX)]
            tenants.append(
                TenantScenario(
                    name=f"tenant-{index}",
                    machine_index=index // 2,
                    trace_kind=kind,
                    rate=rate,
                    qos_cap=qos_cap,
                    weight=3.0 if qos_cap == 0.0 else 1.0,
                    seed=seeds[index],
                )
            )
        faults = FaultPlan.generate(
            horizon=CHAOS_HORIZON,
            machines=machines,
            seed=seeds[-1],
            kills=1,
            sensor_dropouts=2,
            actuator_drops=2,
            stragglers=1,
        )
        return cls(machines=machines, tenants=tuple(tenants), faults=faults)

    def config(self) -> dict[str, Any]:
        return scenario_config(
            self.tenants,
            self.machines,
            CHAOS_HORIZON,
            CHAOS_WATTS_PER_MACHINE * self.machines,
            "consolidating",
            control_period=CHAOS_CONTROL_PERIOD,
            faults=self.faults,
        )

    def events(self) -> int:
        """Arrivals plus periodic and fault-edge control barriers."""
        arrivals = sum(
            tenant.trace(CHAOS_HORIZON).count for tenant in self.tenants
        )
        periods = int(math.floor(CHAOS_HORIZON / CHAOS_CONTROL_PERIOD))
        ticks = {k * CHAOS_CONTROL_PERIOD for k in range(1, periods + 1)}
        ticks.update(self.faults.barrier_times(CHAOS_HORIZON))
        return arrivals + len(ticks)


@dataclass
class ChaosRun:
    """A set-up journal-chaos engine and the journal it records to."""

    engine: DatacenterEngine
    writer: JournalWriter


class ChaosWorkload:
    """Journaled consolidation under a seeded fault plan, then replay."""

    name = "journal-chaos"

    def inputs(self, seed: int) -> ChaosInputs:
        return ChaosInputs.from_seed(seed)

    def setup(self, inputs: ChaosInputs, workdir: str) -> ChaosRun:
        config = inputs.config()
        writer = JournalWriter(
            os.path.join(workdir, "journal-chaos.ndjson"),
            {
                "scenario": {
                    "builder": CHAOS_BUILDER,
                    "module": CHAOS_BUILDER_MODULE,
                    "config": config,
                },
                "backend": "serial",
                "workers": None,
                "initial_budget_watts": config["budget_watts"],
            },
        )
        try:
            engine = build_engine_from_config(config, journal=writer)
        except BaseException:
            writer.close()
            raise
        return ChaosRun(engine, writer)

    def discard(self, prepared: ChaosRun) -> None:
        """Close and delete the journal of a set-up run that will not run."""
        prepared.writer.close()
        os.remove(prepared.writer.path)

    def reference_digest(self, inputs: ChaosInputs, workdir: str) -> str:
        """Digest of an untimed journaled run of the same inputs."""
        prepared = self.setup(inputs, workdir)
        try:
            result = journaled_run(prepared.engine, prepared.writer)
        finally:
            self.discard(prepared)
        return audit(result, f"{self.name} reference")

    def execute(self, prepared: ChaosRun, roots=None, between=None) -> Outcome:
        """Record the journal, replay it, and check both results."""
        engine, writer = prepared.engine, prepared.writer
        phases = Phases(between)
        try:
            with phases.phase("run"):
                try:
                    with _root(roots, "engine"):
                        recorded = journaled_run(engine, writer)
                finally:
                    writer.close()
            journal_bytes = os.path.getsize(writer.path)
            with phases.phase("check"):
                with _root(roots, "engine"):
                    replayed = replay(writer.path)
                with _root(roots, "check"):
                    digest = audit(recorded, f"{self.name} record")
                    replay_digest = audit(replayed, f"{self.name} replay")
        finally:
            os.remove(writer.path)
        if replay_digest != digest:
            raise CheckFailure(
                f"{self.name}: replay digest {replay_digest} differs from "
                f"record digest {digest}"
            )
        return Outcome(
            **phases.timings(),
            digest=digest,
            heartbeats=_heartbeats(recorded) + _heartbeats(replayed),
            migrations=len(recorded.migrations),
            barrier_stats=dict(engine.barrier_stats or {}),
            shard_busy_seconds=engine.shard_busy_seconds,
            coordinator_busy_seconds=engine.coordinator_busy_seconds,
            journal_bytes=journal_bytes,
        )


def _root(roots: Callable | None, name: str):
    """A root span from the tracer, or nothing on an untraced run."""
    return contextlib.nullcontext() if roots is None else roots(name)


WORKLOADS = {
    "scale-serial": ScaleWorkload("scale-serial", "serial", None),
    "scale-sharded2": ScaleWorkload("scale-sharded2", "sharded", 2),
    "journal-chaos": ChaosWorkload(),
}
