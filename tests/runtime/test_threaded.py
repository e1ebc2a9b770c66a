"""Tests for the ``threaded`` backend: real thread-pool execution."""

import numpy as np
import pytest

from repro.core import PlanConfig, plan
from repro.runtime.backends import execute
from repro.runtime.executor import execute_sequential
from repro.workloads.examples import example2_loop, figure1_loop, figure2_loop

ALGORITHM1 = PlanConfig(strategies=("recurrence-chains", "dataflow"))


class TestThreadedExecution:
    @pytest.mark.parametrize("n_threads", [1, 2, 4])
    def test_matches_sequential(self, n_threads):
        prog = figure1_loop(10, 12)
        result = plan(prog, config=ALGORITHM1, cache=False)
        ref = execute_sequential(prog, {})
        run = execute(prog, result.schedule, {}, backend="threaded", workers=n_threads)
        assert np.array_equal(ref["a"], run.store["a"])
        assert run.workers == n_threads
        assert run.instances_executed == result.schedule.total_work
        assert run.phases_executed == result.schedule.num_phases

    def test_other_examples(self):
        for prog in (figure2_loop(20), example2_loop(12)):
            result = plan(prog, config=ALGORITHM1, cache=False)
            ref = execute_sequential(prog, {})
            run = execute(prog, result.schedule, {}, backend="threaded", workers=3)
            for name in ref:
                assert np.array_equal(ref[name], run.store[name]), prog.name

    def test_invalid_thread_count(self):
        prog = figure2_loop(10)
        result = plan(prog, config=ALGORITHM1, cache=False)
        with pytest.raises(ValueError):
            execute(prog, result.schedule, {}, backend="threaded", workers=0)

    def test_shuffled_distribution_matches_sequential(self):
        """seed/rng shuffle the worker distribution without changing the
        result."""
        import random

        prog = figure1_loop(10, 12)
        result = plan(prog, config=ALGORITHM1, cache=False)
        ref = execute_sequential(prog, {})
        for kwargs in ({"seed": 7}, {"rng": random.Random(123)}):
            run = execute(
                prog, result.schedule, {}, backend="threaded", workers=3, **kwargs
            )
            assert np.array_equal(ref["a"], run.store["a"]), kwargs
            assert run.instances_executed == result.schedule.total_work

    def test_shuffled_array_phase_matches_sequential(self):
        """ArrayPhase row permutation under seed keeps results exact."""
        from repro.core import ArrayPhase
        from repro.workloads.synthetic import large_uniform_loop

        prog = large_uniform_loop(12, 9)
        p = plan(
            prog,
            config=PlanConfig(strategies=("dataflow",)),
            cache=False,
        )
        assert any(isinstance(ph, ArrayPhase) for ph in p.schedule.phases)
        ref = execute_sequential(prog, {})
        run = execute(prog, p.schedule, {}, backend="threaded", workers=4, seed=1)
        assert np.array_equal(ref["x"], run.store["x"])

    @pytest.mark.parametrize("n_threads", [1, 4])
    def test_locked_execution_matches_sequential(self, n_threads):
        """lock_free=False serializes per-array but must not change results."""
        prog = figure1_loop(10, 12)
        result = plan(prog, config=ALGORITHM1, cache=False)
        ref = execute_sequential(prog, {})
        run = execute(
            prog, result.schedule, {}, backend="threaded", workers=n_threads,
            lock_free=False,
        )
        assert np.array_equal(ref["a"], run.store["a"])
        assert run.instances_executed == result.schedule.total_work


class TestLockedPhaseKinds:
    """lock_free=False exercises the instance loop's per-array locks on all
    three phase kinds: unit phases (above), ArrayPhase and UnifiedArrayPhase."""

    def test_locked_array_phase_matches_sequential(self):
        """ArrayPhase wavefronts under per-array locks still produce the
        sequential result."""
        from repro.core import ArrayPhase

        from repro.workloads.synthetic import large_uniform_loop

        prog = large_uniform_loop(10, 8)
        p = plan(
            prog,
            config=PlanConfig(strategies=("dataflow",)),
            cache=False,
        )
        assert all(isinstance(ph, ArrayPhase) for ph in p.schedule.phases)
        ref = execute_sequential(prog, {})
        run = execute(
            prog, p.schedule, {}, backend="threaded", workers=3, lock_free=False, seed=2
        )
        assert np.array_equal(ref["x"], run.store["x"])
        assert run.instances_executed == p.schedule.total_work

    def test_locked_unified_array_phase_matches_sequential(self):
        """Statement-level UnifiedArrayPhase wavefronts (multiple arrays per
        statement, sorted-lock acquisition) under per-array locks still
        produce the sequential result."""
        from repro.core import UnifiedArrayPhase

        from repro.workloads.synthetic import large_cholesky_nest

        prog = large_cholesky_nest(12)
        p = plan(
            prog,
            config=PlanConfig(strategies=("dataflow",)),
            cache=False,
        )
        assert all(isinstance(ph, UnifiedArrayPhase) for ph in p.schedule.phases)
        ref = execute_sequential(prog, {})
        run = execute(
            prog, p.schedule, {}, backend="threaded", workers=3, lock_free=False, seed=2
        )
        for name in ref:
            assert np.array_equal(ref[name], run.store[name])
        assert run.instances_executed == p.schedule.total_work

    def test_locked_unit_phase_multi_array(self):
        """Tuple unit phases under locks on an imperfect nest touching two
        arrays (locks acquired in sorted name order, no deadlock)."""
        from repro.workloads.examples import example3_loop

        from tuple_reference import ref_dataflow_branch

        prog = example3_loop(10)
        schedule = ref_dataflow_branch(prog, {})  # tuple block-unit phases
        ref = execute_sequential(prog, {})
        run = execute(
            prog, schedule, {}, backend="threaded", workers=4, lock_free=False, seed=5
        )
        for name in ref:
            assert np.array_equal(ref[name], run.store[name])

    def test_runner_holds_sorted_locks_around_each_instance(self):
        """Every instance takes the locks of all arrays its statement
        touches, in sorted name order, and releases them in reverse."""
        from repro.runtime.executor import InstanceRunner, lower_phase, make_store
        from repro.workloads.synthetic import large_cholesky_nest

        events = []

        class RecordingLock:
            def __init__(self, name):
                self.name = name

            def acquire(self):
                events.append(("+", self.name))

            def release(self):
                events.append(("-", self.name))

        prog = large_cholesky_nest(6)
        config = PlanConfig(strategies=("dataflow",))
        schedule = plan(prog, config=config, cache=False).schedule
        store = make_store(prog)
        runner = InstanceRunner(prog, store, {name: RecordingLock(name) for name in store})
        for phase in schedule.phases:
            runner.run(lower_phase(phase, runner.label_ids))
        touched = [
            sorted(set(ctx.statement.arrays())) for ctx in prog.statement_contexts()
        ]
        groups, k = [], 0
        while k < len(events):
            held = []
            while events[k][0] == "+":
                held.append(events[k][1])
                k += 1
            released = [name for _, name in events[k : k + len(held)]]
            assert held in touched and released == held[::-1]
            k += len(held)
            groups.append(held)
        assert len(groups) == schedule.total_work
        assert any(len(g) > 1 for g in groups)
