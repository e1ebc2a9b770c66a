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
loops run the same comparison too, and a second Hypothesis stream of
symbolic-eligible programs runs on ``serial`` and ``compiled``.

Every schedule runs under each of :data:`SEMANTICS`, which pins both paths
of :class:`~repro.runtime.executor.InstanceRunner`: the builtin
order-sensitive and sum semantics run race-free phases as lockstep vector
steps, while ``compute_heavy_semantics`` and a custom function always run
instance by instance.  Where the sequential run overflows int64 under
``sum_semantics``, serial and threaded runs must raise the same
``OverflowError``; the process backend skips that program (a worker error
breaks its pool).  The process-backend property forks one 2-worker pool per
semantics per example, so it runs a reduced example budget.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

from repro.core import PartitioningNotApplicable
from repro.core.partitioner import dataflow_branch
from repro.core.strategy import PlanConfig, plan, strategy_names
from repro.ir.builder import aref, assign, loop, program
from repro.ir.nodes import Statement
from repro.ir.semantics import compute_heavy_semantics, sum_semantics
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


def _xor_semantics(arrays, env, read_values):
    """A custom semantics: the executor must run it instance by instance."""
    acc = 1
    for v in read_values:
        acc = (acc ^ int(v)) * 3 % 1_000_003
    return acc + sum(env.values())


#: Statement semantics every schedule is pinned under (``None`` keeps each
#: statement's own, the order-sensitive default).
SEMANTICS = {
    "default": None,
    "sum": sum_semantics,
    "heavy": compute_heavy_semantics,
    "custom": _xor_semantics,
}


def with_semantics(prog, fn):
    """``prog`` with every statement's semantics replaced by ``fn``."""
    if fn is None:
        return prog

    def rebuild(node):
        if isinstance(node, Statement):
            return replace(node, semantics=fn)
        return replace(node, body=tuple(map(rebuild, node.body)))

    return replace(prog, body=tuple(map(rebuild, prog.body)))


def _copy(store):
    return {k: v.copy() for k, v in store.items()}


def _run(prog, schedule, store, backend, **kwargs):
    """The final store, or the exception type the run raised."""
    try:
        return execute(prog, schedule, {}, store=store, backend=backend, **kwargs).store
    except OverflowError:
        return OverflowError


def _assert_all_match(prog, fill_seed, backend, **overrides):
    """Every applicable strategy's schedule, run on ``backend`` under every
    semantics of :data:`SEMANTICS`, equals ``execute_sequential`` bit for
    bit; returns the phase kinds it ran.  The process backend runs each
    semantics variant through one 2-worker pool."""
    init = make_store(prog, fill="random", seed=fill_seed)
    schedules = _strategy_schedules(prog)
    for label, fn in SEMANTICS.items():
        variant = with_semantics(prog, fn)
        try:
            ref = execute_sequential(variant, {}, store=_copy(init))
        except OverflowError:
            ref = OverflowError
        if backend != "process":
            _match_schedules(variant, schedules, init, ref, label, backend,
                             seed=fill_seed, **overrides)
        elif ref is not OverflowError:
            with ProcessPool(variant, workers=2) as pool:
                _match_schedules(variant, schedules, init, ref, label, backend,
                                 seed=fill_seed, pool=pool, **overrides)
    return {
        (type(ph).__name__, name if ph.span > 1 else "doall")
        for name, schedule in schedules
        for ph in schedule.phases
    }


def _match_schedules(prog, schedules, init, ref, label, backend, **kwargs):
    for name, schedule in schedules:
        got = _run(prog, schedule, _copy(init), backend, **kwargs)
        where = f"{backend} under the {name} schedule with {label} semantics"
        if ref is OverflowError:
            assert got is OverflowError, f"{where} did not overflow"
            continue
        assert got is not OverflowError, f"{where} overflowed"
        for array in ref:
            assert np.array_equal(ref[array], got[array]), (
                f"{where} diverged from sequential on {array!r}"
            )


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
        _assert_all_match(prog, fill_seed, "process")

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
            extra = {} if backend == "process" else {"workers": 2}
            kinds |= _assert_all_match(build(), 11, backend, **extra)
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


_SYMBOLIC_INDICES = ("I1", "I2", "I3")


@st.composite
def symbolic_programs(draw):
    """Random symbolic-eligible nests: a single statement over rectangular
    unit-stride bounds, rank-d identity-coefficient subscripts, and exactly
    one distinct nonzero uniform distance (drawn lex-positive, so it is a
    flow dependence), under any of :data:`SEMANTICS`.  An optional
    zero-distance read (same subscripts as the write) exercises the
    self-pair skip."""
    dim = draw(st.integers(1, 3))
    names = _SYMBOLIC_INDICES[:dim]
    bounds = [draw(st.integers(3, 6)) for _ in range(dim)]

    # Lex-positive distance u with |u_k| <= 2: zeros before the first
    # nonzero component, which is drawn positive.
    first = draw(st.integers(0, dim - 1))
    u = [0] * dim
    u[first] = draw(st.integers(1, 2))
    for k in range(first + 1, dim):
        u[k] = draw(st.integers(-2, 2))

    # Write offsets in [2, 4] keep every subscript non-negative (|u_k| <= 2).
    offs = [draw(st.integers(2, 4)) for _ in range(dim)]

    def subscript(base, delta):
        return "+".join(filter(None, [base, str(delta)])) if delta else base

    write = aref("x", *(subscript(n, a) for n, a in zip(names, offs)))
    reads = [aref("x", *(subscript(n, a - d) for n, a, d in zip(names, offs, u)))]
    if draw(st.booleans()):  # zero-distance self read: skipped by the gate
        reads.append(aref("x", *(subscript(n, a) for n, a in zip(names, offs))))

    semantics = SEMANTICS[draw(st.sampled_from(sorted(SEMANTICS)))]
    nest = assign("s", write, reads, semantics=semantics)
    for k in reversed(range(dim)):
        nest = loop(names[k], 1, bounds[k], nest)
    # subscripts reach bound + off + max(0, -u_k) <= bound + 4 + 2
    shape = tuple(b + 7 for b in bounds)
    return program("hypothesis-symbolic", nest, array_shapes={"x": shape})


SYMBOLIC = PlanConfig(strategies=("symbolic",))


class TestSymbolicPrograms:
    """Symbolic plans (box DOALLs and lattice-coset chains) through the
    ``serial`` backend and its ``compiled`` alias."""

    @given(prog=symbolic_programs(), fill_seed=st.integers(0, 2**16))
    def test_symbolic_stream_bit_identical(self, prog, fill_seed):
        p = plan(prog, config=SYMBOLIC, cache=False)
        assert p.strategy == "symbolic"
        init = make_store(prog, fill="random", seed=fill_seed)
        ref = execute_sequential(prog, {}, store=_copy(init))
        for backend in ("serial", "compiled"):
            result = execute(prog, p.schedule, {}, store=_copy(init), backend=backend,
                             seed=fill_seed)
            assert result.backend == backend
            assert set(ref) == set(result.store)
            assert all(np.array_equal(ref[k], result.store[k]) for k in ref)
            assert result.instances_executed == p.schedule.total_work
            assert result.phases_executed == p.schedule.num_phases

    def test_custom_semantics_symbolic_plan(self):
        """Eligibility is syntactic, so the symbolic plan succeeds under a
        custom semantics, whose phases then run instance by instance."""
        body = assign(
            "s", aref("x", "I1+1", "I2+1"), [aref("x", "I1", "I2")],
            semantics=_xor_semantics,
        )
        prog = program(
            "custom-sem",
            loop("I1", 1, 6, loop("I2", 1, 5, body)),
            array_shapes={"x": (8, 7)},
        )
        p = plan(prog, config=SYMBOLIC, cache=False)
        assert p.strategy == "symbolic"
        ref = execute_sequential(prog, {})
        for backend in ("serial", "compiled"):
            result = execute(prog, p.schedule, {}, backend=backend)
            assert all(np.array_equal(ref[k], result.store[k]) for k in ref)


class TestCompiledName:
    def test_compiled_runs_the_serial_path(self):
        """``compiled`` is a second registry name for ``serial``: the same
        store and counters on any plan, reported under its own name."""
        prog = figure1_loop(8, 8)
        p = plan(prog, cache=False)
        assert p.strategy != "symbolic"
        serial = execute(prog, p.schedule, {}, backend="serial")
        result = execute(prog, p.schedule, {}, backend="compiled")
        assert (serial.backend, result.backend) == ("serial", "compiled")
        assert result.meta == serial.meta == {}
        assert [(s.name, s.instances, s.units, s.workers) for s in result.phase_stats] == [
            (s.name, s.instances, s.units, s.workers) for s in serial.phase_stats
        ]
        ref = execute_sequential(prog, {})
        assert all(np.array_equal(ref[k], result.store[k]) for k in ref)
