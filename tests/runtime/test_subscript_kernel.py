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
"""

from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given

from repro.core import ArrayPhase, Schedule
from repro.ir.builder import assign, loop, parse_affine, program
from repro.ir.nodes import ArrayRef
from repro.isl.affine import AffineExpr, AffineKernel
from repro.runtime import execute, execute_sequential, make_store, validate_schedule
from repro.runtime import executor
from repro.runtime.executor import _execute_exact, subscript_kernel
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
