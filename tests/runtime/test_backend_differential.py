"""Property-based differential tests for the execution-backend registry.

The planning side pins its schedules bit-identical to a tuple reference on
Hypothesis-generated programs (``tests/core/test_statement_differential.py``);
this module does the same for the runtime side: **every executing backend of
the registry — serial, threaded, process — must produce a final store
bit-identical to ``execute_sequential``** on the same generated program
stream, over *varied* initial stores (``make_store(fill="random", seed=...)``
— a schedule bug that only corrupts some initial contents still has to be
caught).

Each program is run under the schedule of **every strategy that applies to
it**, so every phase kind the backends lower goes through them: array and
statement-level DOALL phases (dataflow), unit phases (pdm, pl, unique-sets,
doacross, tiling, inner-parallel), WHILE recurrence chains, and the symbolic
``SymbolicDoallPhase``/``CosetChainPhase``.  The generated programs never
admit recurrence-chains or symbolic plans, so small instances of the paper's
loops run the same comparison too.  The process-backend property forks one
2-worker pool per example, so it runs a reduced example budget.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

from repro.core import PartitioningNotApplicable
from repro.core.partitioner import dataflow_branch
from repro.core.strategy import PlanConfig, plan, strategy_names
from repro.runtime import execute, execute_sequential, make_store
from repro.runtime.process import ProcessPool, process_unavailable_reason
from repro.workloads.examples import example2_loop, figure1_loop
from repro.workloads.synthetic import (
    large_cholesky_nest,
    large_triangular_loop,
    large_uniform_loop,
)
from strategies import loop_programs
from tuple_reference import ref_dataflow_branch

needs_process = pytest.mark.skipif(
    process_unavailable_reason() is not None,
    reason=f"process backend unavailable: {process_unavailable_reason()}",
)

PAPER_PROGRAMS = {
    "figure1": lambda: figure1_loop(8, 8),
    "example2": lambda: example2_loop(12),
    "triangular": lambda: large_triangular_loop(8),
    "cholesky-nest": lambda: large_cholesky_nest(8),
    "uniform": lambda: large_uniform_loop(8, 8),
}


def _strategy_schedules(prog):
    """``(name, schedule)`` for every registered strategy that applies."""
    out = []
    for name in strategy_names():
        try:
            p = plan(prog, {}, PlanConfig(strategies=(name,)), cache=False)
        except PartitioningNotApplicable:
            continue
        out.append((name, p.schedule))
    return out


def _copy(store):
    return {k: v.copy() for k, v in store.items()}


def _assert_all_match(prog, fill_seed, backend, pool=None, **overrides):
    """Every applicable strategy's schedule, run on ``backend``, equals
    ``execute_sequential`` bit for bit; returns the phase kinds it ran."""
    init = make_store(prog, fill="random", seed=fill_seed)
    ref = execute_sequential(prog, {}, store=_copy(init))
    kinds = set()
    for name, schedule in _strategy_schedules(prog):
        extra = {"pool": pool} if pool is not None else {}
        result = execute(prog, schedule, {}, store=_copy(init), backend=backend,
                         seed=fill_seed, **overrides, **extra)
        for array in ref:
            assert np.array_equal(ref[array], result.store[array]), (
                f"{backend} diverged from sequential on {array!r} "
                f"under the {name} schedule"
            )
        kinds |= {
            (type(ph).__name__, name if ph.span > 1 else "doall")
            for ph in schedule.phases
        }
    return kinds


class TestBackendDifferential:
    @given(prog=loop_programs(), fill_seed=st.integers(0, 2**16))
    def test_serial_backend_bit_identical(self, prog, fill_seed):
        _assert_all_match(prog, fill_seed, "serial")

    @given(prog=loop_programs(), fill_seed=st.integers(0, 2**16))
    def test_threaded_backend_bit_identical(self, prog, fill_seed):
        _assert_all_match(prog, fill_seed, "threaded", workers=2)

    @needs_process
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(prog=loop_programs(), fill_seed=st.integers(0, 2**16))
    def test_process_backend_bit_identical(self, prog, fill_seed):
        with ProcessPool(prog, workers=2) as pool:
            _assert_all_match(prog, fill_seed, "process", pool=pool)

    @given(prog=loop_programs(min_statements=2), fill_seed=st.integers(0, 2**16))
    def test_backends_agree_across_engines(self, prog, fill_seed):
        """The tuple-phase reference schedule and the array schedule of the
        same program execute to the same store through the registry (phase
        kind must not matter)."""
        set_schedule = ref_dataflow_branch(prog, {})
        vec_schedule = dataflow_branch(prog, {}).schedule
        init = make_store(prog, fill="random", seed=fill_seed)
        outs = []
        for schedule in (set_schedule, vec_schedule):
            store = {k: v.copy() for k, v in init.items()}
            outs.append(
                execute(prog, schedule, {}, store=store, backend="serial").store
            )
        for name in outs[0]:
            assert np.array_equal(outs[0][name], outs[1][name])


class TestPaperProgramsEveryStrategy:
    """Recurrence chains, pdm units and symbolic phases through every backend."""

    EXPECTED_KINDS = {
        ("ParallelPhase", "recurrence-chains"),  # WHILE chains
        ("ParallelPhase", "pdm"),
        ("CosetChainPhase", "symbolic"),
        ("SymbolicDoallPhase", "doall"),
        ("ArrayPhase", "doall"),
        ("UnifiedArrayPhase", "doall"),
    }

    @pytest.mark.parametrize("backend", ["serial", "threaded", "process"])
    def test_every_strategy_bit_identical(self, backend):
        if backend == "process" and process_unavailable_reason() is not None:
            pytest.skip(f"process backend unavailable: {process_unavailable_reason()}")
        kinds = set()
        for label, build in PAPER_PROGRAMS.items():
            prog = build()
            if backend == "process":
                with ProcessPool(prog, workers=2) as pool:
                    kinds |= _assert_all_match(prog, 11, backend, pool=pool)
            else:
                kinds |= _assert_all_match(prog, 11, backend, workers=2)
        assert self.EXPECTED_KINDS <= kinds


class TestNonContiguousStores:
    """Writes land in the caller's arrays whatever their memory layout."""

    @pytest.mark.parametrize("backend", ["serial", "threaded"])
    @pytest.mark.parametrize("layout", ["fortran", "sliced"])
    def test_non_contiguous_store(self, backend, layout):
        prog = large_uniform_loop(8, 8)
        init = make_store(prog, fill="random", seed=5)
        ref = execute_sequential(prog, {}, store=_copy(init))
        for name, schedule in _strategy_schedules(prog):
            store = {}
            for array, data in init.items():
                if layout == "fortran":
                    store[array] = np.asfortranarray(data)
                else:
                    backing = np.zeros((2 * data.shape[0],) + data.shape[1:], data.dtype)
                    backing[::2] = data
                    store[array] = backing[::2]
                assert not store[array].flags.c_contiguous
            views = dict(store)
            result = execute(prog, schedule, {}, store=store, backend=backend,
                             workers=2, seed=3)
            for array in ref:
                assert result.store[array] is views[array]
                assert np.array_equal(ref[array], views[array]), (name, array)
