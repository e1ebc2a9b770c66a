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
  unit_offsets)``; and :class:`InstanceRunner` executes that form.  A
  race-free phase of the builtin semantics runs as lockstep vector steps
  (position k of every unit is one gather → compute → scatter); any other
  phase runs instance by instance, its units in a deliberately shuffled
  order (:func:`unit_order`) to emulate concurrent execution: a schedule
  that is only correct under some lucky intra-phase ordering is exposed.
  Instances inside a unit keep their order either way (a WHILE chain is
  sequential by construction).  :func:`repro.runtime.backends.execute` is
  the entry point that drives them.

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
from ..ir.semantics import (
    DEFAULT_SEMANTICS,
    MODULUS,
    order_sensitive_semantics,
    sum_semantics,
)
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
#: arrays and Python row lists of one per-instance block, and the gathered
#: values of one vector step.
_BLOCK = 4096

#: The statement semantics a vector step computes as int64 array arithmetic.
_VECTOR_KINDS = {order_sensitive_semantics: "order", sum_semantics: "sum"}

_INT64_MAX = int(np.iinfo(np.int64).max)


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

    def __init__(self, ctx, store: ArrayStore, locks, bases: Mapping[str, int]):
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
        self.kind = None  # vector-step semantics ("order" / "sum") over int64 arrays
        if all(ref.array in store and store[ref.array].ndim == ref.rank for ref in refs):
            kernels = [subscript_kernel(ref, self.names) for ref in refs]
            if all(k is not None for k in kernels):
                self.refs = [
                    _FlatAddress(k, store[ref.array].shape) for k, ref in zip(kernels, refs)
                ]
                self.getters = [store[ref.array].item for ref in stmt.reads]
                self.views = [_flat_view(store[ref.array]) for ref in stmt.writes]
                if all(store[ref.array].dtype == np.int64 for ref in refs):
                    self.kind = _VECTOR_KINDS.get(self.semantics)
        if self.kind is not None:
            self.read_views = [_flat_view(store[ref.array]) for ref in stmt.reads]
            self.bases = np.array([bases[ref.array] for ref in refs], dtype=np.int64)
            # order_sensitive_semantics mixes the indices in sorted-name order
            self.env_cols = [self.names.index(n) for n in sorted(self.names)]

    def address_matrix(self, rows: np.ndarray) -> Optional[np.ndarray]:
        """``(n, reads + writes)``: per row, the C-order flat address of
        every read then write, or ``None`` when the kernels decline the
        block or an index is out of range (the exact path then raises
        exactly as it always did)."""
        depth = len(self.names)
        if self.refs is None or rows.shape[1] < depth:
            return None
        points = rows[:, :depth]
        columns = [points[:, k] for k in range(depth)]
        box = [(int(c.min()), int(c.max())) for c in columns] if len(rows) else None
        out = np.empty((len(rows), len(self.refs)), dtype=np.int64)
        for j, ref in enumerate(self.refs):
            flat = ref.addresses(points, columns, box)
            if flat is None:
                return None
            out[:, j] = flat
        return out

    def addresses(self, rows: np.ndarray) -> Optional[list]:
        """:meth:`address_matrix` as one Python list per row."""
        found = self.address_matrix(rows)
        return None if found is None else found.tolist()

    def gather_compute(self, addr: np.ndarray, rows: np.ndarray):
        """The values one vector step writes: reads gathered through
        ``addr``, then the semantics as int64 array arithmetic.  ``None``
        when a ``sum`` step could pass int64 (the per-instance path then
        raises its ``OverflowError``).

        The order-sensitive chain reduces every read and iteration value mod
        :data:`~repro.ir.semantics.MODULUS` before multiplying, which keeps
        ``31 * x`` below 2**36 and is congruent to the exact chain, so the
        result is bit-identical."""
        reads = [view[addr[:, j]] for j, view in enumerate(self.read_views)]
        if self.kind == "sum":
            reach = sum(max(int(r.max()), -int(r.min())) for r in reads if r.size)
            if reach + 1 > _INT64_MAX:
                return None
            return sum(reads) + 1
        acc = 17
        for r in reads:
            acc = 31 * ((acc + r % MODULUS) % MODULUS) % MODULUS
        for k, col in enumerate(self.env_cols):
            acc = (acc + (k + 2) * (rows[:, col] % MODULUS)) % MODULUS
        return acc

    def scatter(self, addr: np.ndarray, values) -> None:
        for j, view in enumerate(self.views, start=self.n_reads):
            view[addr[:, j]] = values


class _FlatAddress:
    """One array reference's C-order flat address over a statement's loop
    indices: its subscript kernel and the array's shape and strides.

    Where the block's box proves the subscripts in range, the composed map
    costs about a fifth of apply + range check + wrap (36 vs 165 ms for the
    two references of a 10⁶-instance lockstep phase on a 2-vCPU x86 host);
    the general path stays for wrapping, non-integral and unproven blocks."""

    def __init__(self, kernel: AffineKernel, shape: Tuple[int, ...]):
        self.kernel = kernel
        self.shape = np.asarray(shape, dtype=np.int64)
        strides = [1] * len(shape)
        for k in range(len(shape) - 2, -1, -1):
            strides[k] = strides[k + 1] * shape[k + 1]
        self.strides = np.asarray(strides, dtype=np.int64)
        # per subscript: (coefficients, constant, extent), for interval bounds
        self.subscripts = list(zip(kernel.numer.T.tolist(), kernel.offset.tolist(), shape))
        # the composed map x -> x·numer·strides + offset·strides, which is the
        # flat address wherever every subscript is integral and in range
        self.coeffs = [sum(a * s for a, s in zip(row, strides)) for row in kernel.numer.tolist()]
        self.const = sum(o * s for o, s in zip(kernel.offset.tolist(), strides))
        self.weight = sum(map(abs, self.coeffs)) + abs(self.const)

    def in_range(self, box) -> bool:
        """Whether every subscript is integral and in range over the box
        ``[(min, max), ...]`` of the loop indices, by exact interval
        arithmetic, and the composed map cannot overflow int64 there."""
        if self.kernel.denom != 1:
            return False
        reach = max((max(-lo, hi) for lo, hi in box), default=0)
        if (reach + 1) * self.weight >= _INT64_MAX:
            return False
        for coeffs, const, extent in self.subscripts:
            lo = hi = const
            for a, (x_lo, x_hi) in zip(coeffs, box):
                lo += min(a * x_lo, a * x_hi)
                hi += max(a * x_lo, a * x_hi)
            if lo < 0 or hi >= extent:
                return False
        return True

    def addresses(self, points: np.ndarray, columns, box) -> Optional[np.ndarray]:
        """The flat address of each row of ``points`` (``columns`` are its
        columns, ``box`` their ``(min, max)``), or ``None`` when the kernel
        declines or an index is out of range.  Inside :meth:`in_range` the
        address is the composed map evaluated column by column; otherwise
        the subscripts are computed, range-checked and wrapped like NumPy's
        negative indices."""
        if box is not None and self.in_range(box):
            flat = np.full(len(points), self.const, dtype=np.int64)
            for a, column in zip(self.coeffs, columns):
                if a:
                    flat += a * column
            return flat
        idx = self.kernel.apply(points)
        if idx is None or ((idx < -self.shape) | (idx >= self.shape)).any():
            return None
        return (idx + (idx < 0) * self.shape) @ self.strides  # NumPy's negative wrap


def _flat_view(arr: np.ndarray):
    """Something indexable by C-order flat address whose writes land in
    ``arr``: a 1-D view when ``arr`` is C-contiguous, else its flat iterator."""
    return arr.reshape(-1) if arr.flags.c_contiguous else arr.flat


def _race_free(groups, n_units: int, size: int) -> bool:
    """Whether no store element written by one unit is read or written by
    another, by one sort in memory proportional to the phase.

    Every access packs to ``(key · U + unit) · 2 + is_write`` (``key`` =
    array base + flat address, below the store's ``size``; ``U`` the power
    of two above ``n_units``), so the sorted accesses come in key groups,
    units ascending inside each: a group races when its first and last
    units differ and it holds a write.  ``groups`` are
    :meth:`InstanceRunner._lockstep`'s per-statement ``(plan, addresses,
    rows, units, block starts)``.  Keys too wide to pack count as a race:
    the per-instance path is right for any phase."""
    shift = n_units.bit_length() + 1
    if size.bit_length() + shift > 62:
        return False
    packed = []
    for plan, addr, _, unit, _ in groups:
        keys = addr + plan.bases
        keys <<= shift
        keys |= (unit << 1)[:, None]
        keys[:, plan.n_reads :] |= 1
        packed.append(keys.ravel())
    v = np.concatenate(packed) if len(packed) > 1 else packed[0]
    if not v.size:
        return True
    v.sort()
    key = v >> shift
    first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    last = np.append(first[1:], len(v)) - 1
    # same key, so first ^ last > 1 exactly when the units differ
    mixed = (v[first] ^ v[last]) > 1
    return not (mixed & (np.bitwise_or.reduceat(v, first) & 1 == 1)).any()


class InstanceRunner:
    """The one execution path of every backend's phases.

    Built per (program, store): each statement's subscripts are lowered to
    :class:`~repro.isl.affine.AffineKernel` s (cached per statement
    context), and :meth:`run` executes a :class:`LoweredPhase` one of two
    ways.

    * **Lockstep vector steps** when the phase is race-free: position k of
      every selected unit is one step, cut into blocks of at most
      :data:`_BLOCK` instances, and each block is one gather → compute →
      scatter over the flat addresses the kernels produce.  Race-free means
      no address written by one unit is read or written by another, so every
      interleaving that keeps each unit's order — lockstep included — gives
      the same store.
    * **Instance by instance** otherwise: units one after another in the
      order given (the backends shuffle it), all subscripts of a block of
      :data:`_BLOCK` instances as one matrix product per reference, then
      each instance gathers its reads, calls ``semantics(store, env,
      read_values)`` and stores ``int(value)`` through each write.  This
      path serves racy phases, custom and ``compute_heavy`` semantics,
      phases whose blocks the kernels decline, and locked runs: ``locks``
      (array name -> lock) holds every lock of an instance's arrays, in
      sorted name order, around it.
    """

    def __init__(self, program: LoopProgram, store: ArrayStore, locks=None):
        self.store = store
        contexts = program.statement_contexts()
        self.label_ids = {ctx.statement.label: i for i, ctx in enumerate(contexts)}
        # every store element's key for the race check: array base + flat address
        sizes = {name: int(arr.size) for name, arr in store.items()}
        bases = dict(zip(sizes, np.cumsum([0, *sizes.values()]).tolist()))
        self._size = sum(sizes.values())
        self._plans = [_StatementPlan(ctx, store, locks, bases) for ctx in contexts]
        self._vector = not locks

    def run(
        self, lowered: LoweredPhase, units: Optional[np.ndarray] = None, lockstep: bool = True
    ) -> int:
        """Execute the distinct ``units`` of ``lowered`` (default: all, in
        order), order inside each unit kept; returns the instance count.
        ``lockstep=False`` keeps the phase instance by instance (a caller
        that found the whole phase racy while running a share of it)."""
        layout = self._lockstep(lowered, units) if lockstep else None
        if layout is None:
            rest = lowered.instance_order(units)
            executed = len(rest)
        else:
            executed, rest = self._run_lockstep(lowered, units, *layout)
        for lo in range(0, len(rest), _BLOCK):
            sel = rest[lo : lo + _BLOCK]
            self._run_block(lowered.stmt_ids[sel], lowered.rows[sel])
        return executed

    def vectorises(self, lowered: LoweredPhase) -> bool:
        """Whether :meth:`run` takes the whole of ``lowered`` as lockstep
        vector steps (builtin semantics, kernels accept, race-free)."""
        return self._lockstep(lowered, None) is not None

    def _lockstep(self, lowered: LoweredPhase, units: Optional[np.ndarray]):
        """The lockstep layout of the selected units, or ``None`` when the
        phase is declined: locks, other semantics, kernels that decline, or
        a race.  The layout is the instance permutation (``None``: as
        lowered), the block cuts, and per statement its plan, addresses,
        rows and where each block starts among them."""
        if not self._vector:
            return None
        # A race-free phase gives the same store in any unit order, so a
        # selection of every unit runs as lowered.
        whole = units is None or len(units) == lowered.n_units
        phase = lowered if whole else lowered.take(units)
        sids, n = phase.stmt_ids, len(phase.stmt_ids)
        if not n:
            return None
        present = [int(sids[0])] if sids.min() == sids.max() else np.unique(sids).tolist()
        plans = [self._plans[sid] for sid in present]
        if any(plan.kind is None for plan in plans):
            return None

        # Lockstep order: units longest first, so the units still running at
        # position k are a prefix and step k is the slice off[k]:off[k + 1];
        # an instance's rank inside its step names its unit.
        lens = np.diff(phase.unit_offsets)
        steps = int(lens.max())
        if steps > 1:
            alive = len(lens) - np.cumsum(np.bincount(lens, minlength=steps))[:steps]
            off = np.concatenate(([0], np.cumsum(alive))).tolist()
            step = np.repeat(np.arange(steps), alive)
            unit = np.arange(n) - np.repeat(off[:-1], alive)
            starts = phase.unit_offsets[np.argsort(-lens, kind="stable")]
            perm = starts[unit] + step
            rows = np.take(phase.rows, perm, axis=0)
            sids = sids[perm]
        else:
            off, unit, perm, rows = [0, n], np.arange(n), None, phase.rows
        cuts = [lo for k in range(steps) for lo in range(off[k], off[k + 1], _BLOCK)] + [n]

        groups = []
        for sid, plan in zip(present, plans):
            if len(present) == 1:
                where, at = slice(None), cuts
            else:
                where = np.flatnonzero(sids == sid)
                at = np.searchsorted(where, cuts).tolist()
            addr = plan.address_matrix(rows[where])
            if addr is None:
                return None
            groups.append((plan, addr, rows[where], unit[where], at))
        race_free = _race_free(groups, phase.n_units, self._size)
        return (perm, cuts, groups) if race_free else None

    @staticmethod
    def _run_lockstep(
        lowered: LoweredPhase, units: Optional[np.ndarray], perm, cuts, groups
    ) -> Tuple[int, np.ndarray]:
        """Run a :meth:`_lockstep` layout block by block; returns the
        instance count and the instances (indices into ``lowered``, in
        unit-major order) left for the per-instance loop: none, or the
        unexecuted rest when a ``sum`` step declines."""
        n = cuts[-1]
        for j in range(len(cuts) - 1):
            block = [
                (plan, addr[at[j] : at[j + 1]], grows[at[j] : at[j + 1]])
                for plan, addr, grows, _, at in groups
                if at[j] < at[j + 1]
            ]
            # No instance of a step reads what another writes: compute every
            # statement's values, then scatter them.
            values = [plan.gather_compute(addr, grows) for plan, addr, grows in block]
            if any(v is None for v in values):
                rest = np.arange(cuts[j], n) if perm is None else np.sort(perm[cuts[j] :])
                whole = units is None or len(units) == lowered.n_units
                return n, rest if whole else lowered.instance_order(units)[rest]
            for (plan, addr, _), v in zip(block, values):
                plan.scatter(addr, v)
        return n, np.empty(0, dtype=np.int64)

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
