"""Differential tests for the integer subscript kernels of the schedule path.

Every executing backend evaluates subscripts through
:func:`repro.runtime.executor.subscript_kernel` (an int64
:class:`~repro.isl.affine.AffineKernel` per array reference) and flat store
addresses, while :func:`~repro.runtime.executor.execute_sequential` keeps the
exact ``Fraction`` path of :meth:`ArrayRef.evaluate`.  These properties pin
the two together on random affine references: rational coefficients,
non-integral values, negative (wrapping) and out-of-range subscripts, and
coordinates near 2**62 where the overflow proof fails and the exact path must
take over.

:class:`TestLockstepAgainstExact` pins the runner's two paths against each
other: a race-free unit phase runs as lockstep vector steps, a racy one
instance by instance in the shuffled unit order, and either way the store is
the one the exact per-instance loop gives in that order.
"""

import random
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given

from repro.core import ArrayPhase, Schedule
from repro.core.schedule import ExecutionUnit, ParallelPhase
from repro.ir.builder import aref, assign, loop, parse_affine, program
from repro.ir.nodes import ArrayRef
from repro.ir.semantics import sum_semantics
from repro.isl.affine import AffineExpr, AffineKernel
from repro.runtime import execute, execute_sequential, make_store, validate_schedule
from repro.runtime import executor
from repro.runtime.executor import InstanceRunner, _execute_exact, subscript_kernel, unit_order
from repro.workloads.examples import figure1_loop

NAMES = ("i", "j")
SHAPE = (7, 5)
NEAR_2_62 = 2**62 - 3


@st.composite
def subscripts(draw):
    """``c_i·i + c_j·j + c0`` with denominators dividing 6; ``diff`` draws
    ``c·(i - j) + c0``, which stays small when both coordinates are huge."""
    frac = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 1, 1, 2, 3, 6]))
    ci = draw(frac)
    cj = -ci if draw(st.booleans()) else draw(frac)
    c0 = draw(st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 1, 2])))
    return AffineExpr.build({"i": ci, "j": cj}, c0)


refs = st.builds(lambda a, b: ArrayRef("a", (a, b)), subscripts(), subscripts())


@st.composite
def blocks(draw):
    """Iteration rows: small, multiples of 6 (integral rational results), or
    shifted by ~2**62 on both coordinates."""
    n = draw(st.integers(1, 6))
    scale = draw(st.sampled_from([1, 6]))
    shift = draw(st.sampled_from([0, 0, NEAR_2_62, -NEAR_2_62]))
    coord = st.integers(-2, 2).map(lambda c: c * scale + shift)
    return [[draw(coord), draw(coord)] for _ in range(n)]


def _exact(ref, row):
    return [s.evaluate(dict(zip(NAMES, row))) for s in ref.subscripts]


class TestAffineKernel:
    @given(ref=refs, rows=blocks())
    def test_kernel_matches_evaluate_or_declines(self, ref, rows):
        """The kernel returns exactly the Fraction values when every value is
        an integer and the block's bound proof holds, and declines otherwise."""
        kernel = subscript_kernel(ref, NAMES)
        exact = [_exact(ref, row) for row in rows]
        integral = all(v.denominator == 1 for vals in exact for v in vals)
        reach = max(abs(c) for row in rows for c in row)
        provable = reach * kernel.col_bound + kernel.offset_bound < 2**62
        got = kernel.apply(np.array(rows, dtype=np.int64))
        if integral and provable:
            assert got.tolist() == [[int(v) for v in vals] for vals in exact]
        else:
            assert got is None

    def test_near_2_62_declines(self):
        ref = ArrayRef("a", (AffineExpr.build({"i": 1, "j": -1}, 2), AffineExpr.build({}, 1)))
        rows = np.array([[NEAR_2_62 + 1, NEAR_2_62]], dtype=np.int64)
        assert subscript_kernel(ref, NAMES).apply(rows) is None

    def test_foreign_symbol_has_no_kernel(self):
        """A subscript over a parameter cannot be lowered over loop indices."""
        assert AffineKernel.build((AffineExpr.build({"N": 1}),), NAMES) is None

    def test_empty_and_depth_zero_blocks(self):
        kernel = AffineKernel.build((AffineExpr.build({}, 3),), ())
        assert kernel.apply(np.zeros((2, 0), dtype=np.int64)).tolist() == [[3], [3]]
        kernel = AffineKernel.build((AffineExpr.build({"i": 2}),), ("i",))
        assert kernel.apply(np.zeros((0, 1), dtype=np.int64)).shape == (0, 1)


def _layout(arr, layout):
    if layout == "fortran":
        return np.asfortranarray(arr)
    if layout == "sliced":
        big = np.zeros((arr.shape[0], 2 * arr.shape[1]), dtype=arr.dtype)
        big[:, ::2] = arr
        return big[:, ::2]
    return arr


def _outcome(fn, store):
    try:
        fn(store)
    except (IndexError, ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return {k: v.tolist() for k, v in store.items()}


def _ref(*subs):
    return ArrayRef("a", tuple(parse_affine(x) for x in subs))


N = NEAR_2_62


class TestInstanceLoopAgainstExact:
    @example(_ref("i-3", "0-1"), _ref("0-i", "j-2"), [[1, 1], [2, 0]], "c", "serial")
    @example(_ref("i-j", "1"), _ref("i-j+1", "2"), [[N + 1, N], [N, N]], "fortran", "serial")
    @example(_ref("i-j", "1"), _ref("i-j+1", "2"), [[N + 1, N], [N, N]], "sliced", "threaded")
    @example(_ref("i", "0"), _ref(Fraction(1, 2) * parse_affine("i"), "0"), [[1, 0]], "c", "serial")
    @example(_ref("i", "0"), _ref("i+10", "0"), [[0, 0]], "c", "threaded")
    @example(_ref("i", "j"), _ref("0", "j+4"), [[0, 0], [0, 1]], "c", "serial")
    @given(
        read=refs, write=refs, rows=blocks(),
        layout=st.sampled_from(["c", "fortran", "sliced"]),
        backend=st.sampled_from(["serial", "threaded"]),
    )
    def test_schedule_path_matches_exact_path(self, read, write, rows, layout, backend):
        """Running rows through the backends' instance loop gives the store,
        or raises the error (type and message), that the exact per-instance
        path gives: negative subscripts wrap, out-of-range ones raise
        IndexError, non-integral ones raise ValueError, and blocks near 2**62
        run exactly."""
        write = ArrayRef("a", write.subscripts)
        prog = program(
            "kernel-diff",
            loop("i", 0, 1, loop("j", 0, 1, assign("s", write, [read]))),
            array_shapes={"a": SHAPE},
        )
        stmt = prog.statement_contexts()[0].statement
        init = make_store(prog, fill="random", seed=len(rows))

        def exact(store):
            for row in rows:
                _execute_exact(stmt, dict(zip(NAMES, row)), store)

        def scheduled(store):
            sched = Schedule.from_phases("rows", [ArrayPhase("p", "s", np.array(rows))])
            result = execute(prog, sched, {}, store=store, backend=backend,
                             workers=1, seed=None)
            assert result.store is store

        want = _outcome(exact, {"a": init["a"].copy()})
        store = {"a": _layout(init["a"].copy(), layout)}
        assert _outcome(scheduled, store) == want


def _lockstep_program(semantics):
    """Two statements over ``a`` (6x6) and ``b`` (6): ``s1`` writes
    ``a[i, j]`` from ``a[i+1, j]``, ``s2`` writes ``b[j]`` from ``a[i, j+1]``
    and ``b[j]``; rows in [0, 3]^2 keep every subscript in range."""
    s1 = assign("s1", aref("a", "i", "j"), [aref("a", "i+1", "j")], semantics=semantics)
    s2 = assign("s2", aref("b", "j"), [aref("a", "i", "j+1"), aref("b", "j")],
                semantics=semantics)
    return program(
        "lockstep", loop("i", 0, 3, loop("j", 0, 3, s1, s2)),
        array_shapes={"a": (6, 6), "b": (6,)},
    )


_instance = st.tuples(
    st.sampled_from(["s1", "s2"]),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
)
unit_lists = st.lists(st.lists(_instance, min_size=1, max_size=4), min_size=1, max_size=6)


def _touched(stmt, iteration):
    env = dict(zip(("i", "j"), iteration))
    reads = {(r.array, tuple(int(v) for v in r.evaluate(env))) for r in stmt.reads}
    writes = {(r.array, tuple(int(v) for v in r.evaluate(env))) for r in stmt.writes}
    return reads, writes


def _racy(statements, units) -> bool:
    """Whether some unit writes an element another unit reads or writes."""
    per_unit = []
    for unit in units:
        reads, writes = set(), set()
        for label, it in unit:
            r, w = _touched(statements[label], it)
            reads |= r
            writes |= w
        per_unit.append((reads, writes))
    return any(
        w & (r2 | w2)
        for u, (_, w) in enumerate(per_unit)
        for v, (r2, w2) in enumerate(per_unit)
        if u != v
    )


class _CountingRunner:
    """Counts the per-instance blocks :class:`InstanceRunner` runs."""

    def __init__(self, monkeypatch):
        self.blocks = 0
        real = InstanceRunner._run_block

        def counting(runner, stmt_ids, rows):
            self.blocks += 1
            return real(runner, stmt_ids, rows)

        monkeypatch.setattr(InstanceRunner, "_run_block", counting)


class TestLockstepAgainstExact:
    @example(units=[[("s1", (0, 0))], [("s1", (1, 0))]], semantics=None)  # racy
    @example(units=[[("s1", (0, 0))], [("s1", (0, 0))]], semantics=None)  # write-write
    @example(units=[[("s1", (0, 0)), ("s2", (0, 0))], [("s1", (2, 2))]], semantics=None)
    @example(units=[[("s2", (0, 0)), ("s2", (1, 0))], [("s1", (3, 3))]], semantics=sum_semantics)
    @given(units=unit_lists, semantics=st.sampled_from([None, sum_semantics]))
    def test_unit_phase_matches_per_instance(self, units, semantics):
        """For every seed the serial run equals the exact per-instance loop
        over the units in the shuffled order; a race-free phase gets there
        as lockstep vector steps (no per-instance block), a racy one runs
        instance by instance."""
        prog = _lockstep_program(semantics)
        statements = {ctx.statement.label: ctx.statement for ctx in prog.statement_contexts()}
        phase = ParallelPhase("p", tuple(ExecutionUnit(tuple(u), "chain") for u in units))
        schedule = Schedule.from_phases("units", [phase])
        racy = _racy(statements, units)
        init = make_store(prog, fill="random", seed=len(units))
        with pytest.MonkeyPatch.context() as mp:
            counter = _CountingRunner(mp)
            for seed in (0, 1, 2, None):
                want = {k: v.copy() for k, v in init.items()}
                rng = random.Random(seed) if seed is not None else None
                for u in unit_order(len(units), rng).tolist():
                    for label, it in units[u]:
                        _execute_exact(statements[label], dict(zip(("i", "j"), it)), want)
                counter.blocks = 0
                got = execute(prog, schedule, {}, store={k: v.copy() for k, v in init.items()},
                              backend="serial", seed=seed).store
                assert all(np.array_equal(want[k], got[k]) for k in want), (seed, racy)
                assert (counter.blocks > 0) == racy

    def test_race_between_thread_shares_runs_per_instance(self, monkeypatch):
        """Two racing units dealt to two threads: each share is race-free
        on its own, but the threaded backend checks the whole phase, so
        both threads run their share instance by instance."""
        prog = _lockstep_program(None)
        units = [[("s1", (0, 0))], [("s1", (1, 0))]]  # s1(0,0) reads a[1,0]
        phase = ParallelPhase("p", tuple(ExecutionUnit(tuple(u), "chain") for u in units))
        schedule = Schedule.from_phases("units", [phase])
        counter = _CountingRunner(monkeypatch)
        execute(prog, schedule, {}, backend="threaded", workers=2, seed=None)
        assert counter.blocks == 2
        counter.blocks = 0
        execute(prog, Schedule.from_phases("free", [ParallelPhase("p", (
            ExecutionUnit((("s1", (0, 0)),), "chain"),
            ExecutionUnit((("s1", (2, 0)),), "chain"),
        ))]), {}, backend="threaded", workers=2, seed=None)
        assert counter.blocks == 0

    def test_sum_step_that_could_overflow_runs_per_instance(self, monkeypatch):
        """Reads of +-2**62 could pass int64 under ``sum_semantics``, so the
        step declines; the per-instance path then computes the exact sum."""
        prog = program(
            "cancel",
            loop("i", 0, 3, assign("s", aref("c", "i"), [aref("a", "i"), aref("b", "i")],
                                   semantics=sum_semantics)),
            array_shapes={"a": (4,), "b": (4,), "c": (4,)},
        )
        store = make_store(prog)
        store["a"][:] = 2**62
        store["b"][:] = -(2**62)
        counter = _CountingRunner(monkeypatch)
        schedule = Schedule.from_phases("one", [ArrayPhase("p", "s", np.arange(4)[:, None])])
        got = execute(prog, schedule, {}, store=store, seed=None).store
        assert got["c"].tolist() == [1, 1, 1, 1]
        assert counter.blocks == 1

    def test_non_int64_store_runs_per_instance(self, monkeypatch):
        """Vector steps compute in int64; a float store keeps the exact
        per-instance semantics (``int(v)`` of every read)."""
        prog = program(
            "floats",
            loop("i", 0, 3, assign("s", aref("a", "i"), [aref("a", "i")])),
            array_shapes={"a": (5,)},
        )
        init = {"a": np.array([1.5, 2.25, 3.75, 4.5, 5.125])}
        want = execute_sequential(prog, {}, store={"a": init["a"].copy()})
        counter = _CountingRunner(monkeypatch)
        schedule = Schedule.from_phases("one", [ArrayPhase("p", "s", np.arange(4)[:, None])])
        got = execute(prog, schedule, {}, store={"a": init["a"].copy()}, seed=None).store
        assert got["a"].tolist() == want["a"].tolist()
        assert counter.blocks == 1

    def test_sum_overflow_raises_like_the_exact_path(self):
        """A chain whose sums double every step overflows int64 part way:
        the schedule path raises the exact path's ``OverflowError``."""
        prog = program(
            "doubling",
            loop("i", 0, 69, assign("s", aref("a", "i+1"), [aref("a", "i"), aref("a", "i")],
                                    semantics=sum_semantics)),
            array_shapes={"a": (71,)},
        )
        with pytest.raises(OverflowError):
            execute_sequential(prog, {})
        chain = ExecutionUnit.chain("s", [(i,) for i in range(70)])
        schedule = Schedule.from_phases("chain", [ParallelPhase("p", (chain,))])
        with pytest.raises(OverflowError):
            execute(prog, schedule, {})


class TestOracleIndependence:
    def test_oracle_runs_without_kernels(self, monkeypatch):
        """With the kernel builder broken, execute_sequential and the
        reference side of validate_schedule still run and return the same
        stores; only the schedule side fails."""
        prog = figure1_loop(6, 6)
        expected = execute_sequential(prog, {})
        references = []
        real_sequential = executor.execute_sequential

        def recording_sequential(*args, **kwargs):
            references.append(real_sequential(*args, **kwargs))
            return references[-1]

        def broken(*args, **kwargs):
            raise RuntimeError("kernel builder disabled")

        subscript_kernel.cache_clear()
        monkeypatch.setattr(executor, "subscript_kernel", broken)
        monkeypatch.setattr(executor, "execute_sequential", recording_sequential)
        got = real_sequential(prog, {})
        assert all(np.array_equal(expected[a], got[a]) for a in expected)
        schedule = Schedule.from_phases(
            "one", [ArrayPhase("p", "s", np.array([[1, 1]]))]
        )
        with pytest.raises(RuntimeError, match="kernel builder disabled"):
            validate_schedule(prog, schedule, {})
        assert len(references) == 1
        assert all(np.array_equal(expected[a], references[0][a]) for a in expected)
