"""Real multi-threaded execution of partitioned schedules.

Besides the deterministic cost-model simulator, the package can execute a
schedule with an actual thread pool over shared numpy arrays — the closest a
pure-Python reproduction gets to the paper's OpenMP runs.  Each phase's units
are distributed over ``n_threads`` workers; a barrier separates phases, so the
synchronization structure is exactly the generated code's structure
(``DOALL ... nowait`` inside a phase, barriers at phase borders).

Because of the GIL this does not demonstrate wall-clock *speedups* — it
demonstrates *correctness under real concurrency*: arbitrary interleaving of
the units of a phase must still produce the sequential result.  For measured
wall-clock speedups use the ``process`` backend of the
:mod:`repro.runtime.backends` registry: it keeps the workload's
shared-mutable-array semantics by placing every array in one
``multiprocessing.shared_memory`` segment that all workers attach
(:mod:`repro.runtime.process`), so the memory behaviour being modelled is
preserved while the instance loop runs on real cores.  Each worker thread
runs its round-robin share of a phase's units through the same
:class:`~repro.runtime.executor.InstanceRunner` as the serial backend.  The
cost-model simulator (``simulated`` backend, DESIGN.md §2) remains the
deterministic speedup *model*.

Execution is lock-free by default: a partition-derived schedule is race-free
by construction (units of a phase never touch overlapping elements in a
conflicting way), so no synchronization beyond the phase barriers is needed.
``lock_free=False`` additionally serializes each instance's
read-compute-write against other instances touching the same arrays via
per-array locks (acquired in sorted name order, so no deadlocks; the
runner holds them around each instance) — useful
when executing schedules of unvalidated provenance, at the cost of
serializing most of the phase.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Optional

from ..core.schedule import Schedule
from ..ir.program import LoopProgram
from .executor import ArrayStore, InstanceRunner, lower_phase, make_store, unit_order

__all__ = ["ThreadedRun", "execute_schedule_threaded"]


@dataclass(frozen=True)
class ThreadedRun:
    """Result of a threaded execution: the store plus simple timing counters.

    Deprecated in favour of :class:`repro.runtime.backends.RunResult` — the
    unified result object every registered backend returns.  Kept (and still
    returned by the :func:`execute_schedule_threaded` shim) so historical
    callers keep working; new code should call
    ``execute(..., backend="threaded")`` and read the richer per-phase
    counters off the :class:`~repro.runtime.backends.RunResult`.
    """

    store: ArrayStore
    n_threads: int
    phases_executed: int
    instances_executed: int


def _run_schedule_threaded(
    program: LoopProgram,
    schedule: Schedule,
    params: Mapping[str, int],
    store: Optional[ArrayStore],
    config,
    rng: Optional[random.Random],
):
    """The ``threaded`` backend runner (see :mod:`repro.runtime.backends`):
    a real thread pool with barriers between phases, returning the unified
    :class:`~repro.runtime.backends.RunResult`."""
    from .backends import PhaseStats, RunResult, _resolve_rng

    n_threads = config.workers
    store = store if store is not None else make_store(program)
    locks = None if config.lock_free else {name: threading.Lock() for name in store}
    runner = InstanceRunner(program, store, locks)
    rng = _resolve_rng(config, rng)
    stats = []
    t_run = time.perf_counter()
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        for phase in schedule.phases:
            t0 = time.perf_counter()
            lowered = lower_phase(phase, runner.label_ids)
            units = unit_order(lowered.n_units, rng)
            # Round-robin the units across workers: deterministic
            # distribution, arbitrary execution interleaving.
            futures = [
                pool.submit(runner.run, lowered, units[k::n_threads])
                for k in range(min(n_threads, len(units)))
            ]
            # The implicit barrier: wait for every worker before the next phase.
            executed = 0
            for f in futures:
                executed += f.result()
            stats.append(
                PhaseStats(
                    phase.name, executed, len(phase), len(futures),
                    time.perf_counter() - t0,
                )
            )
    return RunResult(
        store=store,
        backend="threaded",
        workers=n_threads,
        phase_stats=tuple(stats),
        elapsed_s=time.perf_counter() - t_run,
        meta={"lock_free": config.lock_free},
    )


def execute_schedule_threaded(
    program: LoopProgram,
    schedule: Schedule,
    params: Mapping[str, int] | None = None,
    n_threads: int = 4,
    store: Optional[ArrayStore] = None,
    lock_free: bool = True,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> ThreadedRun:
    """Execute a schedule with a real thread pool and phase barriers.

    A thin shim over the ``threaded`` backend of the
    :mod:`repro.runtime.backends` registry, kept for its historical signature
    (``n_threads``, shuffle off by default) and :class:`ThreadedRun` return;
    new call sites should use :func:`repro.runtime.backends.execute`.

    ``lock_free=False`` guards every instance with the per-array locks
    described in the module docstring; the default trusts the schedule's
    phase structure (as the paper's generated OpenMP code does).

    ``seed``/``rng`` mirror :func:`~repro.runtime.executor.execute_schedule`:
    when either is given, each phase's units (or array rows) are shuffled
    with a private ``random.Random`` before the round-robin distribution, so
    the worker assignment — not just the interleaving — varies between runs.
    The default (both ``None``) keeps the historical deterministic
    distribution; ``Plan.execute(threads=…)`` passes its configured seed so
    both executors are driven uniformly.
    """
    from .backends import ExecConfig, execute

    result = execute(
        program, schedule, params, store=store,
        config=ExecConfig(
            backend="threaded", workers=n_threads, seed=seed, lock_free=lock_free
        ),
        rng=rng,
    )
    return ThreadedRun(
        store=result.store,
        n_threads=result.workers,
        phases_executed=result.phases_executed,
        instances_executed=result.instances_executed,
    )
