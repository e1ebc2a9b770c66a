"""The program → exact Rd → partition → schedule pipeline, as one call.

The pipeline-equivalence tests (``tests/core/test_array_pipeline.py``) and
the scaling benchmark (``benchmarks/bench_scale_partition.py``) both run the
same pipeline and compare it against the per-point tuple reference kept under
``tests/``.  Keeping the runner and the comparison here guarantees the bench
measures exactly the pipeline the tests verify.

The runner is the unified planning facade (:func:`repro.core.strategy.plan`
with the ``dataflow`` strategy pinned), so it exercises the exact code path a
``plan()`` consumer gets; the three-set partition — which the dataflow
schedule itself does not need — is computed alongside the plan so the
comparison still pins every component of eq. 5.  Caching is disabled: the
runner exists to *measure and compare* fresh pipeline runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core.partition import ThreeSetPartition, three_set_partition
from ..core.schedule import Schedule
from ..core.strategy import PlanConfig, plan
from ..dependence.analysis import DependenceAnalysis
from ..ir.program import LoopProgram
from ..isl.relations import FiniteRelation

__all__ = ["PipelineRun", "run_pipeline", "pipeline_mismatches"]


@dataclass(frozen=True)
class PipelineRun:
    """Everything one pipeline pass produced, for timing and comparison."""

    analysis: DependenceAnalysis
    rd: FiniteRelation
    partition: ThreeSetPartition
    schedule: Schedule


def run_pipeline(prog: LoopProgram) -> PipelineRun:
    """Sort join, array Rd, eq. 5 partition and the CSR wavefront schedule."""
    p = plan(prog, config=PlanConfig(strategies=("dataflow",)), cache=False)
    rd = p.analysis.iteration_dependences
    partition = three_set_partition(p.analysis.iteration_space_array, rd)
    return PipelineRun(p.analysis, rd, partition, p.schedule)


def pipeline_mismatches(reference: PipelineRun, run: PipelineRun) -> List[str]:
    """Differences between two pipeline passes (empty list == bit-identical).

    Compares the combined relation, every three-set component, and the
    schedules phase by phase (names and exact instance sequences).
    ``reference`` may be any object with the same four attributes whose
    partition exposes ``p1``/``p2``/``p3``/``w`` as point sets.
    """
    problems: List[str] = []
    if run.rd != reference.rd:
        problems.append("combined dependence relation differs")
    for name in ("p1", "p2", "p3", "w"):
        if getattr(run.partition, name) != getattr(reference.partition, name):
            problems.append(f"three-set component {name.upper()} differs")
    sched_a, sched_s = run.schedule, reference.schedule
    if sched_a.num_phases != sched_s.num_phases:
        problems.append(
            f"phase count differs: {sched_a.num_phases} != {sched_s.num_phases}"
        )
    else:
        for pa, ps in zip(sched_a.phases, sched_s.phases):
            if pa.name != ps.name:
                problems.append(f"phase name differs: {pa.name!r} != {ps.name!r}")
            if pa.instances() != ps.instances():
                problems.append(f"instances differ in phase {pa.name!r}")
    return problems
