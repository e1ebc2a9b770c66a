"""The execution-backend registry: one entry point for running schedules.

Symmetric to the planning side's :class:`~repro.core.strategy.PartitionStrategy`
registry: where ``plan()`` puts one facade in front of the partitioning
schemes, :func:`execute` puts one facade in front of the runtime's executors.
Every way of running a schedule is an :class:`ExecutionBackend` in a
registry, takes the same ``(program, schedule, params, store, ExecConfig)``
inputs and returns the same :class:`RunResult` (final store + per-phase
instance/worker/timing counters):

``serial``
    one process, phases in order, units shuffled inside each phase;
``threaded``
    a thread pool with phase barriers — correctness under true concurrency,
    GIL-bound for speed;
``process``
    the ``multiprocessing.shared_memory`` worker pool
    (:mod:`repro.runtime.process`): arrays live in one shared segment,
    workers attach once and receive strided row slices, phases end in real
    barriers — the backend that turns partition schedules into wall-clock
    speedups on multi-core hosts;
``simulated``
    the deterministic SMP cost model (no arrays are touched;
    ``RunResult.store`` is ``None`` and the speedup lands in ``meta``);
``compiled``
    a second name for ``serial`` (the run reports ``backend="compiled"``),
    kept for callers that still request it.

``serial``, ``threaded`` and ``process`` differ only in who runs which
units.  All three go through one phase loop (:func:`_run_phases`, which
times each phase into a :class:`PhaseStats` and builds the
:class:`RunResult`); each lowers a phase with
:func:`~repro.runtime.executor.lower_phase` and executes its share through
one :class:`~repro.runtime.executor.InstanceRunner`, which is what keeps
them bit-identical to each other and to the ``Fraction``-exact
:func:`~repro.runtime.executor.execute_sequential` oracle.  The runner runs
a race-free phase of the builtin semantics as lockstep vector steps and
everything else instance by instance.

:meth:`Plan.execute <repro.core.strategy.Plan.execute>` is a pass-through to
:func:`execute`.  Third-party executors (a GPU runner, a free-threaded pool)
plug in via :func:`register_backend` without touching any call site.
"""

from __future__ import annotations

import random
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..core.schedule import Schedule
from ..ir.program import LoopProgram
from .executor import ArrayStore, InstanceRunner, lower_phase, make_store, unit_order
from .simulator import CostModel, simulate_schedule

__all__ = [
    "ExecConfig",
    "PhaseStats",
    "RunResult",
    "ExecutionBackend",
    "BackendUnavailable",
    "register_backend",
    "get_backend",
    "backend_names",
    "backend_table",
    "execute",
]

_MP_CONTEXTS = (None, "fork", "spawn", "forkserver")


# ---------------------------------------------------------------------------
# configuration and result objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExecConfig:
    """Every knob of schedule execution, in one hashable object.

    The execution twin of :class:`~repro.core.strategy.PlanConfig`:

    ``backend``
        Registry name of the executor: ``"serial"``, ``"threaded"``,
        ``"process"``, ``"simulated"`` or ``"compiled"`` (an alias of
        ``"serial"``), plus anything registered later.  Every executing
        backend runs race-free phases of the builtin semantics as lockstep
        vector steps and the rest instance by instance
        (:class:`~repro.runtime.executor.InstanceRunner`).
    ``workers``
        Thread/process/processor count for the parallel backends; the serial
        backend ignores it.
    ``seed``
        Intra-phase shuffle seed (``None`` disables shuffling); the same
        default (``0``) for every backend.
    ``lock_free``
        Threaded backend only: ``False`` adds per-array locks around each
        instance (see :func:`_threaded_runner`) and so keeps every phase on
        the per-instance path.  The process backend
        rejects ``False`` (cross-process locking would serialise the pool;
        its schedules are race-free by construction).
    ``mp_context``
        Process backend: multiprocessing start method (``None`` = ``fork``
        where available, else ``spawn``).
    ``cost_model``
        Simulated backend: the :class:`~repro.runtime.simulator.CostModel`
        (``None`` = defaults).
    """

    backend: str = "serial"
    workers: int = 4
    seed: Optional[int] = 0
    lock_free: bool = True
    mp_context: Optional[str] = None
    cost_model: Optional[CostModel] = None

    def __post_init__(self):
        if not isinstance(self.backend, str) or not self.backend:
            raise ValueError("backend must be a non-empty registry name")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.mp_context not in _MP_CONTEXTS:
            raise ValueError(
                f"unknown mp_context {self.mp_context!r}; use one of {_MP_CONTEXTS}"
            )


@dataclass(frozen=True)
class PhaseStats:
    """Counters for one executed phase: size, distribution and wall-clock."""

    name: str
    instances: int
    units: int
    workers: int
    elapsed_s: float


@dataclass(frozen=True, eq=False)
class RunResult:
    """The unified result of executing a schedule through any backend.

    The final store plus per-phase instance/worker/timing counters, the
    same shape whether the run was serial, threaded, multi-process or
    simulated (a simulated run's ``store`` is ``None`` — nothing was
    executed).  ``elapsed_s`` is the wall time of the phase loop; set-up
    such as a pool start or the shared-memory copies falls outside it.
    Feed it to
    :func:`repro.runtime.metrics.run_metrics` /
    :func:`repro.runtime.metrics.measured_speedups` for reporting.
    """

    store: Optional[ArrayStore]
    backend: str
    workers: int
    phase_stats: Tuple[PhaseStats, ...]
    elapsed_s: float
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def phases_executed(self) -> int:
        return len(self.phase_stats)

    @property
    def instances_executed(self) -> int:
        return sum(p.instances for p in self.phase_stats)

    def phase_elapsed(self) -> Tuple[float, ...]:
        return tuple(p.elapsed_s for p in self.phase_stats)

    def __repr__(self) -> str:
        return (
            f"RunResult(backend={self.backend!r}, workers={self.workers}, "
            f"phases={self.phases_executed}, instances={self.instances_executed}, "
            f"elapsed={self.elapsed_s:.4f}s)"
        )


class BackendUnavailable(RuntimeError):
    """The selected backend cannot run in this environment (see ``reason``)."""


# ---------------------------------------------------------------------------
# backend protocol and registry
# ---------------------------------------------------------------------------

#: A backend runner: (program, schedule, params, store, config, rng) -> RunResult.
BackendRunner = Callable[
    [LoopProgram, Schedule, Dict[str, int], Optional[ArrayStore], ExecConfig, Optional[random.Random]],
    RunResult,
]


def _always_available() -> Optional[str]:
    return None


@dataclass(frozen=True)
class ExecutionBackend:
    """One way of executing schedules, behind the registry.

    ``available()`` returns ``None`` when the backend can run here or a
    human-readable reason when it cannot (surfaced by
    :class:`BackendUnavailable`); ``runner`` does the work and is only called
    after the availability probe passed.
    """

    name: str
    description: str
    runner: BackendRunner
    available: Callable[[], Optional[str]] = _always_available


_REGISTRY: "OrderedDict[str, ExecutionBackend]" = OrderedDict()


def register_backend(backend: ExecutionBackend) -> ExecutionBackend:
    """Add a backend to the registry.  Re-registering a name replaces the
    entry in place (so a plugin can refine a built-in)."""
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> ExecutionBackend:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; registered: {', '.join(_REGISTRY)}"
        ) from None


def backend_names() -> Tuple[str, ...]:
    """Registered backend names in registration order."""
    return tuple(_REGISTRY)


def backend_table() -> List[Dict[str, str]]:
    """The registry as rows (name / description / availability) for docs."""
    return [
        {
            "name": b.name,
            "description": b.description,
            "available": b.available() or "yes",
        }
        for b in _REGISTRY.values()
    ]


# ---------------------------------------------------------------------------
# the entry point
# ---------------------------------------------------------------------------


def execute(
    program: LoopProgram,
    schedule: Schedule,
    params: Optional[Mapping[str, int]] = None,
    store: Optional[ArrayStore] = None,
    config: Optional[ExecConfig] = None,
    rng: Optional[random.Random] = None,
    pool=None,
    **overrides,
) -> RunResult:
    """Run ``schedule`` through the configured backend; returns a
    :class:`RunResult`.

    ``config`` carries every knob (``None`` = defaults: serial, shuffle seed
    0); keyword ``overrides`` (``backend=``, ``workers=``, ``seed=``, ...)
    are applied on top via :func:`dataclasses.replace`, so one-off calls
    don't need to build a config — ``execute(prog, sched, backend="process",
    workers=4)``.  ``rng`` supplies a caller-owned shuffle generator
    (overrides ``seed``).

    ``pool`` injects a live :class:`~repro.runtime.process.ProcessPool`
    (``backend="process"`` only): the run attaches a fresh shared store to
    the already-running workers instead of forking a pool of its own — the
    serving daemon's warm path (:mod:`repro.serving`).  The pool must have
    been built for a structurally identical program; its worker count wins
    over ``config.workers``.

    Raises :class:`BackendUnavailable` when the backend's probe says it
    cannot run here (e.g. the process backend without ``/dev/shm``).
    """
    cfg = config if config is not None else ExecConfig()
    if overrides:
        cfg = replace(cfg, **overrides)
    backend = get_backend(cfg.backend)
    reason = backend.available()
    if reason is not None:
        raise BackendUnavailable(f"backend {cfg.backend!r} unavailable: {reason}")
    if pool is not None:
        if cfg.backend != "process":
            raise ValueError(
                f"an injected pool requires backend='process' "
                f"(got {cfg.backend!r})"
            )
        return backend.runner(
            program, schedule, dict(params or {}), store, cfg, rng, pool=pool
        )
    return backend.runner(program, schedule, dict(params or {}), store, cfg, rng)


def _resolve_rng(
    config: ExecConfig, rng: Optional[random.Random]
) -> Optional[random.Random]:
    """The shared seed/rng contract: an explicit ``rng`` wins, else ``seed``
    creates a private generator, and ``seed=None`` disables shuffling."""
    if rng is not None:
        return rng
    if config.seed is not None:
        return random.Random(config.seed)
    return None


# ---------------------------------------------------------------------------
# built-in backends
# ---------------------------------------------------------------------------


def _run_phases(
    schedule: Schedule,
    run_phase: Callable[[object], Tuple[int, int]],
    store: ArrayStore,
    backend: str,
    workers: int,
    meta: Optional[Dict[str, object]] = None,
) -> RunResult:
    """The phase loop of every executing backend: phases in order, each run
    by ``run_phase(phase) -> (instances, workers used)`` and timed into a
    :class:`PhaseStats`.  Returning from ``run_phase`` is the barrier."""
    stats: List[PhaseStats] = []
    t_run = time.perf_counter()
    for phase in schedule.phases:
        t0 = time.perf_counter()
        executed, used = run_phase(phase)
        stats.append(
            PhaseStats(phase.name, executed, len(phase), used, time.perf_counter() - t0)
        )
    return RunResult(
        store=store,
        backend=backend,
        workers=workers,
        phase_stats=tuple(stats),
        elapsed_s=time.perf_counter() - t_run,
        meta=meta or {},
    )


def _serial_runner(
    program: LoopProgram,
    schedule: Schedule,
    params: Dict[str, int],
    store: Optional[ArrayStore],
    config: ExecConfig,
    rng: Optional[random.Random],
) -> RunResult:
    """One process, phases in order, units shuffled; the run reports the
    backend name it was requested under (``serial`` or ``compiled``)."""
    store = store if store is not None else make_store(program)
    runner = InstanceRunner(program, store)
    rng = _resolve_rng(config, rng)

    def run_phase(phase):
        lowered = lower_phase(phase, runner.label_ids)
        return runner.run(lowered, unit_order(lowered.n_units, rng)), 1

    return _run_phases(schedule, run_phase, store, config.backend, 1)


def _threaded_runner(
    program: LoopProgram,
    schedule: Schedule,
    params: Dict[str, int],
    store: Optional[ArrayStore],
    config: ExecConfig,
    rng: Optional[random.Random],
) -> RunResult:
    """A thread pool over the shared arrays, a barrier between phases.

    Each phase's shuffled units are dealt round-robin to ``config.workers``
    threads: a deterministic distribution with an arbitrary interleaving, so
    a schedule that is only correct under some lucky intra-phase order is
    exposed.  The GIL serialises the instance loop, so this shows
    correctness under real concurrency, not speed (``process`` is the
    backend for wall-clock speedups).  The threads run their shares as
    lockstep vector steps only when the whole phase is race-free
    (:meth:`~repro.runtime.executor.InstanceRunner.vectorises`), else
    instance by instance.

    Lock order: execution is lock-free by default, since a partition-derived
    schedule is race-free inside a phase.  ``lock_free=False`` gives every
    array a lock; the runner holds all locks of an instance's arrays around
    it, acquired in sorted array-name order (so two instances can never
    deadlock) — for schedules of unvalidated provenance, at the cost of
    serialising most of the phase.
    """
    store = store if store is not None else make_store(program)
    locks = None if config.lock_free else {name: threading.Lock() for name in store}
    runner = InstanceRunner(program, store, locks)
    rng = _resolve_rng(config, rng)
    n_threads = config.workers

    with ThreadPoolExecutor(max_workers=n_threads) as pool:

        def run_phase(phase):
            lowered = lower_phase(phase, runner.label_ids)
            units = unit_order(lowered.n_units, rng)
            shares = min(n_threads, len(units))
            # Race-freedom is a property of the whole phase: a share that is
            # race-free on its own may still race with another thread's.
            lockstep = shares == 1 or runner.vectorises(lowered)
            futures = [
                pool.submit(runner.run, lowered, units[k::n_threads], lockstep)
                for k in range(shares)
            ]
            return sum(f.result() for f in futures), len(futures)

        return _run_phases(
            schedule, run_phase, store, "threaded", n_threads,
            {"lock_free": config.lock_free},
        )


def _process_runner(
    program: LoopProgram,
    schedule: Schedule,
    params: Dict[str, int],
    store: Optional[ArrayStore],
    config: ExecConfig,
    rng: Optional[random.Random],
    pool=None,
) -> RunResult:
    """Attach the store to a worker pool, run the phases, copy the shared
    arrays back into the caller's store and detach.

    ``pool`` is a caller-owned warm pool (the serving path); without one the
    run starts its own ``ProcessPool(program, workers=, mp_context=)`` and
    shuts it down afterwards.  Either way ``detach_store`` in a ``finally``
    destroys the per-run segment, even on a worker crash.
    """
    from .process import ProcessPool

    if not config.lock_free:
        raise ValueError(
            "the process backend is lock-free only: partition schedules are "
            "race-free inside a phase; use backend='threaded' for per-array "
            "locking of unvalidated schedules"
        )
    store = store if store is not None else make_store(program)
    rng = _resolve_rng(config, rng)
    owned = pool is None
    if owned:
        pool = ProcessPool(program, workers=config.workers, mp_context=config.mp_context)
    meta: Dict[str, object] = {"start_method": pool.start_method}
    if not owned:
        meta["pool"] = "injected"
    try:
        pool.attach_store(store)
        try:
            result = _run_phases(
                schedule, lambda phase: pool.run_phase(phase, rng),
                store, "process", pool.workers, meta,
            )
            # The shared segment is authoritative; fill the caller's store
            # so the mutate-in-place contract matches every other backend.
            pool.copy_out(store)
        finally:
            pool.detach_store()
    finally:
        if owned:
            pool.shutdown()
    return result


def _process_available() -> Optional[str]:
    try:
        from .process import process_unavailable_reason
    except Exception as exc:  # pragma: no cover - import is stdlib-only
        return f"process backend import failed: {exc}"
    return process_unavailable_reason()


def _simulated_runner(
    program: LoopProgram,
    schedule: Schedule,
    params: Dict[str, int],
    store: Optional[ArrayStore],
    config: ExecConfig,
    rng: Optional[random.Random],
) -> RunResult:
    """Wrap the deterministic SMP cost model: nothing is executed, the
    modelled per-phase makespans become the timing counters and the headline
    numbers land in ``meta``."""
    sim = simulate_schedule(
        schedule, processors=config.workers, cost_model=config.cost_model
    )
    stats = tuple(
        PhaseStats(ph.name, ph.work, len(ph), config.workers, float(t))
        for ph, t in zip(schedule.phases, sim.phase_times)
    )
    return RunResult(
        store=None,
        backend="simulated",
        workers=config.workers,
        phase_stats=stats,
        elapsed_s=float(sim.parallel_time),
        meta={
            "simulated": True,
            "speedup": sim.speedup,
            "sequential_time": sim.sequential_time,
            "efficiency": sim.efficiency,
            "utilization": sim.utilization,
        },
    )


register_backend(ExecutionBackend(
    name="serial",
    description="single process, phases in order, shuffled intra-phase order",
    runner=_serial_runner,
))
register_backend(ExecutionBackend(
    name="threaded",
    description="thread pool with phase barriers (correctness under the GIL)",
    runner=_threaded_runner,
))
register_backend(ExecutionBackend(
    name="process",
    description="shared-memory process pool (wall-clock speedup on multi-core)",
    runner=_process_runner,
    available=_process_available,
))
register_backend(ExecutionBackend(
    name="simulated",
    description="deterministic SMP cost model (no arrays touched)",
    runner=_simulated_runner,
))
register_backend(ExecutionBackend(
    name="compiled",
    description="alias of serial, kept for callers that request it",
    runner=_serial_runner,
))
