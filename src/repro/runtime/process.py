"""The shared-memory process pool behind the ``process`` execution backend.

Real wall-clock parallelism for the phase/barrier schedules.  The
``threaded`` backend proves *correctness* under concurrency but the GIL
serialises the Python instance loop; here each phase's work is executed by
a pool of **processes**
sharing the program's arrays through one ``multiprocessing.shared_memory``
segment (see :mod:`repro.runtime.shm`), so DOALL phases genuinely overlap on
multi-core hosts while keeping the shared-mutable-array semantics the paper's
OpenMP runs have.

Protocol (attach per store, barrier per phase):

1. the parent starts ``workers`` persistent processes, handing each only the
   program (statement contexts are rebuilt worker-side) — workers outlive any
   particular store, which is what lets a serving daemon keep one pool warm
   across many requests (:mod:`repro.serving`);
2. per store, the parent packs the arrays into a
   :class:`~repro.runtime.shm.SharedArrayStore` and broadcasts an ``attach``
   control message carrying only the segment *name* and the ``(name, shape,
   dtype, offset)`` descriptor table; each worker maps the segment **once**
   and builds numpy views onto the shared buffer (an internal barrier makes
   every worker consume exactly one control message);
3. per phase, the parent lowers the phase to its CSR form
   (:func:`~repro.runtime.executor.lower_phase`), shuffles and deals its
   units round-robin, and ships each worker its units re-packed as
   ``(stmt_ids, rows, unit_offsets)`` int64 arrays (slice-level messages,
   never per-point objects); the worker runs them through the same
   :class:`~repro.runtime.executor.InstanceRunner` as every other backend,
   built once per attached store;
4. the parent collects one acknowledgement per shipped task before moving to
   the next phase — exactly the barrier of the generated code — and finally
   copies the shared arrays back into the caller's store, broadcasts
   ``detach`` and unlinks the segment.  The attach/detach lifetime is wrapped
   in ``try/finally`` on the owner, so a worker crash mid-phase can never
   leak the segment.

Worker assignment within a phase is first-come-first-served off a single
queue; a partition-derived schedule is race-free inside a phase, so any
assignment produces the sequential result bit for bit.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_module
import time
import traceback
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..ir.program import LoopProgram
from .executor import InstanceRunner, LoweredPhase, lower_phase, unit_order
from .shm import SharedArrayStore

__all__ = ["ProcessPool", "default_mp_context", "process_unavailable_reason"]

#: Seconds between liveness checks while waiting on phase acknowledgements.
_POLL_S = 1.0


def default_mp_context(method: Optional[str] = None) -> mp.context.BaseContext:
    """The multiprocessing context the pool uses.

    ``fork`` is preferred (workers inherit the program — and any non-picklable
    statement semantics — for free); platforms without it fall back to
    ``spawn``, which requires the program to be picklable (module-level
    semantics callables, as all built-in semantics are).
    """
    if method is None:
        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    return mp.get_context(method)


def process_unavailable_reason() -> Optional[str]:
    """``None`` when the process backend can run here, else a human reason."""
    from .shm import shared_memory_unavailable_reason

    reason = shared_memory_unavailable_reason()
    if reason is not None:
        return reason
    if not mp.get_all_start_methods():  # pragma: no cover - cannot happen on CPython
        return "no multiprocessing start method available"
    return None


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


def _worker_main(
    worker_id: int,
    program: LoopProgram,
    tasks,
    results,
    barrier,
) -> None:
    """Worker loop: swap stores on ``attach``/``detach`` control messages,
    execute phase tasks against the current store, exit on the ``None``
    sentinel.

    Control messages are broadcast one-per-worker; the barrier holds every
    worker until all of them consumed theirs, so no worker can steal a
    sibling's attach off the shared queue.
    """
    store: Optional[SharedArrayStore] = None
    runner: Optional[InstanceRunner] = None
    try:
        while True:
            task = tasks.get()
            if task is None:
                break
            kind = task[0]
            if kind == "attach":
                runner = None  # drop its views before the mapping goes
                if store is not None:
                    store.close()
                store = SharedArrayStore.attach(task[1], task[2])
                runner = InstanceRunner(program, store.arrays)
                results.put(("ok", worker_id, 0, 0.0))
                barrier.wait()
                continue
            if kind == "detach":
                runner = None
                if store is not None:
                    store.close()
                    store = None
                results.put(("ok", worker_id, 0, 0.0))
                barrier.wait()
                continue
            try:
                t0 = time.perf_counter()
                if runner is None:
                    raise RuntimeError("phase task received with no store attached")
                executed = runner.run(LoweredPhase(*task[1:]))
                results.put(("ok", worker_id, executed, time.perf_counter() - t0))
            except Exception:
                results.put(("error", worker_id, traceback.format_exc(), 0.0))
    finally:
        if store is not None:
            store.close()


# ---------------------------------------------------------------------------
# the pool
# ---------------------------------------------------------------------------


def _drain_queue(q) -> None:
    """Discard everything buffered in an mp queue (best effort)."""
    try:
        while True:
            q.get_nowait()
    except Exception:
        pass


class ProcessPool:
    """A persistent pool of workers executing one program's schedules.

    Workers start once and outlive any particular store: per execution the
    parent :meth:`attach_store` packs the caller's arrays into a fresh shared
    segment and broadcasts only its descriptor table, so a serving daemon can
    keep one warm pool across many requests and pay per request only the
    segment pack + two control round-trips (never a worker fork).  Use as a
    context manager; :meth:`run_phase` blocks until every shipped task
    acknowledged — the phase barrier.

    A worker death or in-flight failure marks the pool :attr:`broken`
    (acknowledgements may be lost, so reuse would be unsound); every teardown
    path still closes and unlinks the owner's segment.
    """

    def __init__(
        self,
        program: LoopProgram,
        workers: int = 1,
        mp_context: Optional[str] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.program = program
        self._ctx = default_mp_context(mp_context)
        self.shared: Optional[SharedArrayStore] = None
        self._broken = False
        self._tasks = self._ctx.Queue()
        self._results = self._ctx.Queue()
        self._barrier = self._ctx.Barrier(workers)
        self._procs = []
        self._label_ids = {
            ctx.statement.label: i for i, ctx in enumerate(program.statement_contexts())
        }
        try:
            for wid in range(workers):
                p = self._ctx.Process(
                    target=_worker_main,
                    args=(wid, program, self._tasks, self._results, self._barrier),
                    daemon=True,
                )
                p.start()
                self._procs.append(p)
        except Exception:
            self.shutdown()
            raise

    @property
    def start_method(self) -> str:
        """The multiprocessing start method the pool's workers use."""
        return self._ctx.get_start_method()

    @property
    def broken(self) -> bool:
        """True once a worker died or failed mid-flight — reuse is unsound."""
        return self._broken or any(not p.is_alive() for p in self._procs)

    # -- per-store lifetime -----------------------------------------------------

    def attach_store(self, store: Dict[str, np.ndarray]) -> SharedArrayStore:
        """Pack ``store`` into a fresh shared segment and map it pool-wide.

        Ships each worker one ``("attach", shm_name, descriptors)`` control
        message — a few dozen bytes per array, never the data — and waits for
        every acknowledgement.  The segment is destroyed on the spot if the
        broadcast fails, so a half-attached store can never leak.
        """
        if self.shared is not None:
            raise RuntimeError(
                "a store is already attached; detach_store() it first"
            )
        if self.broken:
            raise RuntimeError("pool is broken (a worker died); start a new pool")
        shared = SharedArrayStore.from_store(store)
        try:
            self._broadcast(("attach", shared.shm_name, shared.descriptors))
        except Exception:
            shared.close()
            shared.unlink()
            raise
        self.shared = shared
        return shared

    def detach_store(self) -> None:
        """Unmap the current store pool-wide and destroy its segment.

        Always closes and unlinks the owner's segment — even when the pool is
        broken and the worker round-trip is skipped — so crash paths cannot
        leak ``/dev/shm`` entries.  No-op without an attached store.
        """
        shared, self.shared = self.shared, None
        if shared is None:
            return
        try:
            if not self.broken:
                self._broadcast(("detach",))
        finally:
            shared.close()
            shared.unlink()

    def _broadcast(self, msg: tuple) -> None:
        """Ship one control message per worker and collect every ack.

        The worker-side barrier guarantees each worker consumes exactly one
        message before any returns to the task loop.
        """
        for _ in self._procs:
            self._tasks.put(msg)
        for _ in self._procs:
            self._collect()

    # -- phase execution --------------------------------------------------------

    def phase_tasks(self, phase, rng=None) -> List[tuple]:
        """Encode one schedule phase into per-worker task messages: the
        lowered phase's units, shuffled by ``rng``, dealt round-robin and
        re-packed as ``("units", stmt_ids, rows, unit_offsets)`` int64
        arrays (slice-level messages, never per-point objects)."""
        lowered = lower_phase(phase, self._label_ids)
        units = unit_order(lowered.n_units, rng)
        tasks = []
        for k in range(min(self.workers, len(units))):
            part = lowered.take(units[k :: self.workers])
            tasks.append(("units", part.stmt_ids, part.rows, part.unit_offsets))
        return tasks

    def run_phase(self, phase, rng=None) -> Tuple[int, int]:
        """Execute one phase across the pool; returns (instances, tasks).

        Blocks until every shipped task has been acknowledged — the barrier
        between phases.  A worker exception is re-raised here with the remote
        traceback; a dead worker raises instead of hanging the barrier.
        """
        if self.shared is None:
            raise RuntimeError("no store attached; call attach_store() first")
        tasks = self.phase_tasks(phase, rng)
        for task in tasks:
            self._tasks.put(task)
        executed = 0
        for _ in range(len(tasks)):
            ack = self._collect()
            executed += ack
        return executed, len(tasks)

    def _collect(self) -> int:
        while True:
            try:
                msg = self._results.get(timeout=_POLL_S)
            except queue_module.Empty:
                dead = [p for p in self._procs if not p.is_alive()]
                if dead:
                    self._broken = True
                    raise RuntimeError(
                        f"process backend worker(s) died: "
                        f"{[p.exitcode for p in dead]}"
                    ) from None
                continue
            if msg[0] == "error":
                # Unacknowledged sibling tasks may still be in flight; reuse
                # would interleave their acks into the next phase's barrier.
                self._broken = True
                raise RuntimeError(
                    f"process backend worker {msg[1]} failed:\n{msg[2]}"
                )
            return msg[2]

    # -- results and lifetime ---------------------------------------------------

    def copy_out(self, into: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Copy the shared arrays back into the caller's store (in place)."""
        if self.shared is None:
            raise RuntimeError("no store attached; nothing to copy out")
        return self.shared.copy_out(into)

    def shutdown(self, join_timeout: float = 5.0, kill_timeout: float = 1.0) -> None:
        """Stop the workers, drop the queues, and destroy the segment.

        Escalates worker teardown — sentinel + ``join(join_timeout)``, then
        ``terminate()`` (SIGTERM), then ``kill()`` (SIGKILL, which a wedged or
        signal-ignoring worker cannot block).  The queues are drained and
        their feeder threads cancelled so a wedged worker cannot leak queue
        threads, and the ``finally`` always closes and unlinks the shared
        segment — shutdown never leaves a ``/dev/shm`` entry behind.
        """
        try:
            try:
                for _ in self._procs:
                    self._tasks.put(None)
            except Exception:  # pragma: no cover - queue feeder already gone
                pass
            for p in self._procs:
                p.join(timeout=join_timeout)
            stuck = [p for p in self._procs if p.is_alive()]
            for p in stuck:
                p.terminate()
            for p in stuck:
                p.join(timeout=kill_timeout)
            for p in stuck:
                if p.is_alive():
                    p.kill()
            for p in stuck:
                p.join(timeout=kill_timeout)
        finally:
            for q in (self._tasks, self._results):
                _drain_queue(q)
                q.close()
                q.cancel_join_thread()
            shared, self.shared = self.shared, None
            if shared is not None:
                try:
                    shared.close()
                finally:
                    shared.unlink()

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
