"""The pseudo-distance-matrix (PDM) partitioning baseline (Yu & D'Hollander, ICPP 2000).

The PDM scheme uniformizes non-uniform dependences: it derives a small set of
lexicographically positive *pseudo distance vectors* whose integer
combinations cover every real dependence distance, and then partitions the
iteration space as if those vectors were real uniform distances.  Iterations
in different lattice cosets of the PDM are independent and run fully in
parallel (the outermost DOALL the scheme advertises); iterations within a
coset are executed sequentially in lexicographic order, which serializes both
the real dependences and the *artificial* ones the covering introduces — the
over-serialization the recurrence-chain paper improves on.

At statement level (imperfect nests / multiple statements) the scheme is
applied per uniformizable dimension group; this reproduction applies it to the
iteration vectors of perfect nests and, for imperfect programs such as the
Cholesky kernel, to each statement's iteration domain with the dependence
distances projected onto the shared outer loops — enough to reproduce the
paper's Example 4 comparison, where PDM parallelizes the outermost ``L`` /
``I`` loops and wins on load balance beyond 3 threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..core.partition import as_point_array
from ..core.schedule import ExecutionUnit, Instance, ParallelPhase, Schedule
from ..dependence.analysis import DependenceAnalysis
from ..ir.program import LoopProgram
from ..isl.relations import FiniteRelation
from .lattice import DistanceLattice, pseudo_distance_matrix

__all__ = ["PDMPartition", "pdm_partition", "pdm_schedule"]

Point = Tuple[int, ...]


@dataclass(frozen=True)
class PDMPartition:
    """The PDM partition: pseudo distance vectors and the resulting cosets.

    ``scheme`` names the uniformization scheme that produced the partition;
    the PL baseline's :class:`~repro.baselines.pl.PLPartition` subclass
    overrides it so registry diagnostics report the right scheme even though
    both schemes share the coset mechanics.
    """

    scheme: ClassVar[str] = "pdm"

    pdm: Tuple[Point, ...]
    cosets: Mapping[Point, List[Point]]
    lattice: DistanceLattice

    @property
    def num_parallel_sets(self) -> int:
        return len(self.cosets)

    @property
    def longest_chain(self) -> int:
        return max((len(c) for c in self.cosets.values()), default=0)

    def covers(self, distances) -> bool:
        return self.lattice.covers(distances)


def pdm_partition(
    space: Union[np.ndarray, Iterable[Point]], rd: FiniteRelation
) -> PDMPartition:
    """Build the PDM and the coset partition for a concrete iteration space.

    ``space`` may be an ``(n, dim)`` int array or an iterable of point tuples.
    """
    space = as_point_array(space, rd.dim_in)
    dim = space.shape[1]
    distances = sorted(rd.distances())
    pdm = pseudo_distance_matrix(distances, dim)
    lattice = DistanceLattice.from_vectors(pdm, dim)
    cosets = lattice.cosets(space)
    return PDMPartition(pdm=tuple(pdm), cosets=cosets, lattice=lattice)


def pdm_schedule(
    program: LoopProgram,
    params: Optional[Mapping[str, int]] = None,
    analysis: Optional[DependenceAnalysis] = None,
    partition: Optional[PDMPartition] = None,
) -> Schedule:
    """Schedule a perfect-nest program under the PDM scheme.

    The schedule is a single parallel phase (the outermost DOALL over cosets);
    each coset is one sequential unit in lexicographic order.  For programs
    with several statements the units carry every statement instance of the
    iterations in the coset, still in sequential program order.  A perfect
    nest's ``partition`` (from :func:`pdm_partition` on the same analysis)
    is reused instead of being rebuilt.
    """
    params = dict(params or {})
    analysis = analysis or DependenceAnalysis(program, params)

    contexts = program.statement_contexts()
    index_names = contexts[0].index_names if contexts else ()
    perfect = all(ctx.index_names == index_names for ctx in contexts)

    if perfect:
        labels = [s.label for s in program.statements()]
        if partition is None:
            partition = pdm_partition(
                analysis.iteration_space_array, analysis.iteration_dependences
            )
        units = []
        for key in sorted(partition.cosets):
            members = partition.cosets[key]
            instances: List[Instance] = []
            for point in members:
                for label in labels:
                    instances.append((label, point))
            units.append(ExecutionUnit.block(instances))
    else:
        # Statement-level PDM: uniformize over the unified statement index
        # vectors of §3.3, so instances whose unified difference lies in the
        # pseudo-distance lattice share a sequential unit and the remaining
        # (outermost) dimensions stay fully parallel — this is what the
        # paper's Example 4 PDM code achieves with its DOALL over L and I.
        from ..core.statement import build_statement_space

        stmt_space = build_statement_space(program, params, analysis)
        partition = pdm_partition(sorted(stmt_space.points), stmt_space.rd)
        back = stmt_space.instance_of()
        units = []
        for key in sorted(partition.cosets):
            members = partition.cosets[key]
            instances = []
            for point in members:
                instances.extend(back[point])
            units.append(ExecutionUnit.block(instances))

    phase = ParallelPhase("PDM cosets (outermost DOALL)", tuple(units))
    return Schedule.from_phases(
        f"{program.name}-PDM",
        [phase],
        scheme="pdm",
        pseudo_distance_matrix=[list(v) for v in partition.pdm],
        parallel_sets=partition.num_parallel_sets,
        longest_chain=partition.longest_chain,
    )
