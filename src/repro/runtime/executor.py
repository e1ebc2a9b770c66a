"""Executing loop programs and schedules over concrete numpy arrays.

Two execution paths are provided, deliberately independent of each other:

* :func:`execute_sequential` — runs the program in original sequential order,
  one instance at a time, evaluating every subscript exactly with
  ``Fraction`` arithmetic (:func:`_execute_exact`).  This is the semantic
  ground truth; it never touches the integer kernels below, so it stays a
  real oracle for them.
* the schedule path — every executing backend (``serial``, ``threaded``,
  ``process``) runs its phases through the same three pieces:
  :func:`subscript_kernel` lowers each array reference's subscripts once to an
  int64 :class:`~repro.isl.affine.AffineKernel`; :func:`lower_phase` turns any
  phase kind into one CSR form, :class:`LoweredPhase` ``(stmt_ids, rows,
  unit_offsets)``; and :class:`InstanceRunner` walks that form in fixed-size
  blocks, computing a block's subscripts as one matrix product per
  reference.  Units inside a phase run in a deliberately shuffled order
  (:func:`unit_order`) to emulate concurrent execution: a schedule that is
  only correct under some lucky intra-phase ordering is exposed.  Instances
  inside a unit keep their order (a WHILE chain is sequential by
  construction).  :func:`repro.runtime.backends.execute` is the entry point
  that drives them.

Array stores are dictionaries ``name -> numpy int64 array``; statement
semantics are exact integer functions (see :mod:`repro.ir.semantics`), so
"schedule result == sequential result" is an exact equality check, performed
by :func:`validate_schedule`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.schedule import ArrayPhase, Schedule, UnifiedArrayPhase
from ..core.symbolic import CosetChainPhase, SymbolicDoallPhase
from ..ir.nodes import ArrayRef, Statement
from ..ir.program import LoopProgram
from ..ir.semantics import DEFAULT_SEMANTICS
from ..isl.affine import AffineKernel

__all__ = [
    "ArrayStore",
    "make_store",
    "execute_sequential",
    "validate_schedule",
    "ValidationReport",
]

ArrayStore = Dict[str, np.ndarray]


def make_store(program: LoopProgram, fill: str = "index", seed: int = 0) -> ArrayStore:
    """Allocate the arrays a program touches.

    ``fill='index'`` initialises each array with distinct small integers
    (deterministic), which maximises the chance that an ordering bug changes
    the final contents; ``fill='zeros'`` gives all-zero arrays;
    ``fill='random'`` draws seeded uniform integers in ``[1, 1009)`` —
    deterministic for a given ``seed``, used by the differential harness to
    vary the initial contents across examples (``seed`` is ignored by the
    other fill modes).
    """
    store: ArrayStore = {}
    rng = np.random.default_rng(seed) if fill == "random" else None
    for name, shape in program.array_shapes.items():
        size = int(np.prod(shape))
        if fill == "index":
            data = (np.arange(size, dtype=np.int64) % 1009) + 1
        elif fill == "zeros":
            data = np.zeros(size, dtype=np.int64)
        elif fill == "random":
            data = rng.integers(1, 1009, size=size, dtype=np.int64)
        else:
            raise ValueError(f"unknown fill mode {fill!r}")
        store[name] = data.reshape(shape)
    missing = [a for a in program.arrays() if a not in store]
    if missing:
        raise ValueError(
            f"program {program.name!r} references arrays without declared shapes: {missing}"
        )
    return store


def _execute_exact(stmt: Statement, env: Mapping[str, int], store: ArrayStore) -> None:
    """Run one statement instance exactly: evaluate every subscript with
    :meth:`~repro.ir.nodes.ArrayRef.evaluate` (``Fraction`` arithmetic),
    gather reads, compute, store through writes.

    The body of :func:`execute_sequential` (the oracle, which never touches
    the integer kernels) and the fallback of :class:`InstanceRunner` for
    blocks its kernels decline.
    """
    read_values = []
    for ref in stmt.reads:
        idx = ref.evaluate(env)
        read_values.append(int(store[ref.array][idx]))
    semantics = stmt.semantics or DEFAULT_SEMANTICS
    value = semantics(store, env, read_values)
    for ref in stmt.writes:
        idx = ref.evaluate(env)
        store[ref.array][idx] = int(value)


# ---------------------------------------------------------------------------
# the schedule path: subscript kernels, phase lowering, one instance loop
# ---------------------------------------------------------------------------

#: Instances per block of :meth:`InstanceRunner.run`: bounds the address
#: arrays and Python row lists alive at once, whatever the phase size.
_BLOCK = 4096


@lru_cache(maxsize=4096)
def subscript_kernel(ref: ArrayRef, index_names: Tuple[str, ...]) -> Optional[AffineKernel]:
    """The integer kernel of ``ref``'s subscripts over a statement's loop
    indices (``None`` when a subscript uses a symbol outside them)."""
    return AffineKernel.build(ref.subscripts, index_names)


@dataclass(frozen=True)
class LoweredPhase:
    """A phase as CSR instance arrays: unit ``u`` is the instances
    ``unit_offsets[u]:unit_offsets[u + 1]``, executed in order; ``stmt_ids``
    index the program's statement contexts and ``rows`` hold the iteration
    vectors, zero-padded to the widest."""

    stmt_ids: np.ndarray
    rows: np.ndarray
    unit_offsets: np.ndarray

    @property
    def n_units(self) -> int:
        return len(self.unit_offsets) - 1

    def instance_order(self, units: Optional[np.ndarray] = None) -> np.ndarray:
        """Instance indices of ``units`` (default: all in order) back to back."""
        if units is None:
            return np.arange(len(self.rows), dtype=np.int64)
        starts = self.unit_offsets[units]
        lens = self.unit_offsets[units + 1] - starts
        shift = starts - (np.cumsum(lens) - lens)  # unit start minus its output position
        return np.arange(lens.sum(), dtype=np.int64) + np.repeat(shift, lens)

    def take(self, units: np.ndarray) -> "LoweredPhase":
        """The sub-phase of ``units``, re-packed contiguously in that order."""
        idx = self.instance_order(units)
        lens = self.unit_offsets[units + 1] - self.unit_offsets[units]
        return LoweredPhase(
            self.stmt_ids[idx], self.rows[idx],
            np.concatenate(([0], np.cumsum(lens))).astype(np.int64),
        )


def _doall(stmt_ids: np.ndarray, rows: np.ndarray) -> LoweredPhase:
    return LoweredPhase(stmt_ids, rows, np.arange(len(rows) + 1, dtype=np.int64))


def lower_phase(phase, label_ids: Mapping[str, int]) -> LoweredPhase:
    """Lower any phase kind to its :class:`LoweredPhase`."""
    if isinstance(phase, (ArrayPhase, SymbolicDoallPhase)):
        points = phase.points if isinstance(phase, ArrayPhase) else phase.points_array()
        return _doall(np.full(len(points), label_ids[phase.label], dtype=np.int64), points)
    if isinstance(phase, UnifiedArrayPhase):
        # Unified rows are (s0, i1, s1, ..., il, sl, 0, ...): the iteration
        # vector is the odd columns up to the statement's depth.
        sids = np.array([label_ids[label] for label in phase.labels], dtype=np.int64)
        width = max(phase.depths, default=0)
        return _doall(sids[phase.stmt_ids], phase.rows[:, 1 : 2 * width : 2])
    if isinstance(phase, CosetChainPhase):
        starts, lens = phase.chains()
        offsets = np.concatenate(([0], np.cumsum(lens))).astype(np.int64)
        owner = np.repeat(np.arange(len(lens)), lens)
        steps = np.arange(offsets[-1], dtype=np.int64) - offsets[:-1][owner]
        rows = starts[owner] + steps[:, None] * np.asarray(phase.step, dtype=np.int64)
        ids = np.full(len(rows), label_ids[phase.label], dtype=np.int64)
        return LoweredPhase(ids, rows, offsets)
    ids: List[int] = []
    iterations: List[Sequence[int]] = []
    offsets = [0]
    for unit in phase.units:
        for label, iteration in unit.instances:
            ids.append(label_ids[label])
            iterations.append(iteration)
        offsets.append(len(ids))
    width = max(map(len, iterations), default=0)
    rows = [list(it) + [0] * (width - len(it)) for it in iterations]
    return LoweredPhase(
        np.asarray(ids, dtype=np.int64),
        np.asarray(rows, dtype=np.int64).reshape(len(ids), width),
        np.asarray(offsets, dtype=np.int64),
    )


def unit_order(units: int, rng: Optional[random.Random]) -> np.ndarray:
    """The shuffle contract: ``rng`` permutes a phase's units (``None``: keep
    them as built).  ``rng.shuffle`` draws depend only on the length, so the
    permutation is the one shuffling the units themselves would give."""
    if rng is None:
        return np.arange(units, dtype=np.int64)
    order = list(range(units))
    rng.shuffle(order)
    return np.asarray(order, dtype=np.int64)


class _StatementPlan:
    """One statement's precomputed execution state against one store."""

    def __init__(self, ctx, store: ArrayStore, locks):
        stmt = ctx.statement
        self.statement = stmt
        self.names = ctx.index_names
        self.semantics = stmt.semantics or DEFAULT_SEMANTICS
        self.n_reads = len(stmt.reads)
        refs = stmt.reads + stmt.writes
        self.locks = (
            [locks[a] for a in sorted({ref.array for ref in refs})] if locks else None
        )
        self.refs = None  # not lowerable: every instance runs exactly
        if all(ref.array in store and store[ref.array].ndim == ref.rank for ref in refs):
            kernels = [subscript_kernel(ref, self.names) for ref in refs]
            if all(k is not None for k in kernels):
                self.refs = [
                    (k, _c_strides(store[ref.array].shape)) for k, ref in zip(kernels, refs)
                ]
                self.getters = [store[ref.array].item for ref in stmt.reads]
                self.views = [_flat_view(store[ref.array]) for ref in stmt.writes]

    def addresses(self, rows: np.ndarray) -> Optional[list]:
        """Per row, the C-order flat address of every read then write, or
        ``None`` when the kernels decline the block or an index is out of
        range (the exact path then raises exactly as it always did)."""
        depth = len(self.names)
        if self.refs is None or rows.shape[1] < depth:
            return None
        points = rows[:, :depth]
        cols = []
        for kernel, (shape, strides) in self.refs:
            idx = kernel.apply(points)
            if idx is None or ((idx < -shape) | (idx >= shape)).any():
                return None
            cols.append((idx + (idx < 0) * shape) @ strides)  # NumPy's negative wrap
        return np.stack(cols, axis=1).tolist() if cols else [[]] * len(rows)


def _c_strides(shape: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """``(shape, element strides)`` of a C-ordered array of ``shape``."""
    strides = [1] * len(shape)
    for k in range(len(shape) - 2, -1, -1):
        strides[k] = strides[k + 1] * shape[k + 1]
    return np.asarray(shape, dtype=np.int64), np.asarray(strides, dtype=np.int64)


def _flat_view(arr: np.ndarray):
    """Something indexable by C-order flat address whose writes land in
    ``arr``: a 1-D view when ``arr`` is C-contiguous, else its flat iterator."""
    return arr.reshape(-1) if arr.flags.c_contiguous else arr.flat


class InstanceRunner:
    """The one execution path of every backend's phases.

    Built per (program, store): each statement's subscripts are lowered to
    :class:`~repro.isl.affine.AffineKernel` s (cached per statement context),
    and :meth:`run` walks a :class:`LoweredPhase` in blocks of
    :data:`_BLOCK` instances — all subscripts of a block are one matrix
    product per reference, then each instance gathers its reads through the
    flat addresses, calls ``semantics(store, env, read_values)`` and stores
    ``int(value)`` through each write.  ``locks`` (array name -> lock) holds
    every lock of an instance's arrays, in sorted name order, around it.
    """

    def __init__(self, program: LoopProgram, store: ArrayStore, locks=None):
        self.store = store
        contexts = program.statement_contexts()
        self.label_ids = {ctx.statement.label: i for i, ctx in enumerate(contexts)}
        self._plans = [_StatementPlan(ctx, store, locks) for ctx in contexts]

    def run(self, lowered: LoweredPhase, units: Optional[np.ndarray] = None) -> int:
        """Execute ``units`` of ``lowered`` (default: all, in order) back to
        back, order inside each unit kept; returns the instance count."""
        order = lowered.instance_order(units)
        for lo in range(0, len(order), _BLOCK):
            sel = order[lo : lo + _BLOCK]
            self._run_block(lowered.stmt_ids[sel], lowered.rows[sel])
        return len(order)

    def _run_block(self, stmt_ids: np.ndarray, rows: np.ndarray) -> None:
        plans, store = self._plans, self.store
        present = np.unique(stmt_ids).tolist()
        if len(present) == 1:
            addrs = plans[present[0]].addresses(rows) or [None] * len(rows)
        else:
            addrs = [None] * len(rows)
            for sid in present:
                where = np.flatnonzero(stmt_ids == sid)
                found = plans[sid].addresses(rows[where])
                if found is not None:
                    for k, a in zip(where.tolist(), found):
                        addrs[k] = a
        for sid, row, addr in zip(stmt_ids.tolist(), rows.tolist(), addrs):
            plan = plans[sid]
            env = dict(zip(plan.names, row))
            if plan.locks:
                for lock in plan.locks:
                    lock.acquire()
            try:
                if addr is None:
                    _execute_exact(plan.statement, env, store)
                    continue
                values = [int(get(a)) for get, a in zip(plan.getters, addr)]
                value = int(plan.semantics(store, env, values))
                k = plan.n_reads
                for view in plan.views:
                    view[addr[k]] = value
                    k += 1
            finally:
                if plan.locks:
                    for lock in reversed(plan.locks):
                        lock.release()


def execute_sequential(
    program: LoopProgram,
    params: Mapping[str, int],
    store: Optional[ArrayStore] = None,
) -> ArrayStore:
    """Run the program in its original sequential order; returns the final store."""
    store = store if store is not None else make_store(program)
    contexts = {ctx.statement.label: ctx for ctx in program.statement_contexts()}
    for label, iteration in program.sequential_iterations(params):
        ctx = contexts[label]
        _execute_exact(ctx.statement, dict(zip(ctx.index_names, iteration)), store)
    return store


@dataclass(frozen=True)
class ValidationReport:
    """Result of validating a schedule against the sequential execution."""

    program: str
    schedule: str
    covers_all_instances: bool
    respects_dependences: bool
    arrays_match: bool
    mismatched_arrays: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        # respects_dependences defaults to True when no dependences were
        # supplied, so including it here makes `ok` cover the dependence
        # check exactly when the caller asked for one — a schedule that
        # violates dependences but got lucky on the tested shuffles must
        # not report OK.
        return (
            self.covers_all_instances
            and self.respects_dependences
            and self.arrays_match
        )

    def __str__(self) -> str:
        status = "OK" if self.ok else "FAILED"
        return (
            f"[{status}] schedule {self.schedule!r} on {self.program!r}: "
            f"coverage={self.covers_all_instances}, deps={self.respects_dependences}, "
            f"arrays={self.arrays_match}"
            + (f" (mismatch in {', '.join(self.mismatched_arrays)})" if self.mismatched_arrays else "")
        )


def validate_schedule(
    program: LoopProgram,
    schedule: Schedule,
    params: Mapping[str, int] | None = None,
    dependences=None,
    seeds: Sequence[int] = (0, 1, 2),
) -> ValidationReport:
    """Check a schedule end to end: coverage, dependence safety, and semantics.

    The semantic check runs the schedule with several intra-phase shuffle seeds
    and compares every array against the sequential execution, exactly.
    """
    params = dict(params or {})
    expected_instances = [
        (label, tuple(it)) for label, it in program.sequential_iterations(params)
    ]
    covers = schedule.covers(expected_instances)
    respects = True
    if dependences is not None:
        respects = schedule.respects(dependences)

    reference = execute_sequential(program, params)
    arrays_match = True
    mismatched: List[str] = []
    from .backends import execute

    for seed in seeds:
        result = execute(program, schedule, params, seed=seed).store
        for name in reference:
            if not np.array_equal(reference[name], result[name]):
                arrays_match = False
                if name not in mismatched:
                    mismatched.append(name)
        if not arrays_match:
            break
    return ValidationReport(
        program=program.name,
        schedule=schedule.name,
        covers_all_instances=covers,
        respects_dependences=respects,
        arrays_match=arrays_match,
        mismatched_arrays=tuple(mismatched),
    )
