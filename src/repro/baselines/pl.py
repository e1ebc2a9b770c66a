"""Partitioning & labeling / direction-vector uniformization baseline ("PL").

The PL curve of figure 3 corresponds to the classic uniform-dependence
machinery (D'Hollander '92 partitioning and labeling, Wolf & Lam unimodular
transformations): the non-uniform distances are abstracted into *direction
vectors*, which — as the paper's related-work section explains — is equivalent
to covering the dependences with the primitive (gcd-reduced) basis of the
vector space the distances span.  That lattice is denser than the PDM's, so
more artificial dependences are introduced, the sequential chains (labels)
inside each partition are longer, and there are fewer independent partitions —
which is why PL trails PDM and REC in figure 3.

Mechanically the scheme is the same coset construction as PDM with a different
generator set; see :mod:`repro.baselines.lattice`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, Mapping, Optional, Tuple

from ..core.partition import as_point_array
from ..core.schedule import ExecutionUnit, Instance, ParallelPhase, Schedule
from ..dependence.analysis import DependenceAnalysis
from ..ir.program import LoopProgram
from ..isl.relations import FiniteRelation
from .lattice import DistanceLattice, direction_basis
from .pdm import PDMPartition

__all__ = ["PLPartition", "pl_partition", "pl_schedule"]

Point = Tuple[int, ...]


@dataclass(frozen=True)
class PLPartition(PDMPartition):
    """The PL coset partition (direction-vector lattice).

    Structurally identical to :class:`~repro.baselines.pdm.PDMPartition` —
    the ``pdm`` field holds the primitive direction basis instead of the
    pseudo distance matrix — but carried as its own type so consumers (the
    strategy-registry diagnostics, reports) can tell the two uniformization
    schemes apart without inspecting which lattice generated the cosets.
    """

    scheme: ClassVar[str] = "pl"


def pl_partition(space, rd: FiniteRelation) -> PLPartition:
    """Coset partition under the primitive direction-vector lattice.

    ``space`` may be an ``(n, dim)`` int array or an iterable of point tuples.
    """
    space = as_point_array(space, rd.dim_in)
    dim = space.shape[1]
    basis = direction_basis(sorted(rd.distances()), dim)
    lattice = DistanceLattice.from_vectors(basis, dim)
    cosets = lattice.cosets(space)
    return PLPartition(pdm=tuple(basis), cosets=cosets, lattice=lattice)


def pl_schedule(
    program: LoopProgram,
    params: Optional[Mapping[str, int]] = None,
    analysis: Optional[DependenceAnalysis] = None,
) -> Schedule:
    """Schedule a perfect-nest program under the PL (direction vector) scheme."""
    params = dict(params or {})
    analysis = analysis or DependenceAnalysis(program, params)
    labels = [s.label for s in program.statements()]
    space = analysis.iteration_space_points
    rd = analysis.iteration_dependences
    partition = pl_partition(space, rd)

    units = []
    for key in sorted(partition.cosets):
        members = partition.cosets[key]
        instances: List[Instance] = []
        for point in members:
            for label in labels:
                instances.append((label, point))
        units.append(ExecutionUnit.block(instances))
    phase = ParallelPhase("PL partitions (labels executed in order)", (tuple(units)))
    return Schedule.from_phases(
        f"{program.name}-PL",
        [phase],
        scheme="pl",
        basis=[list(v) for v in partition.pdm],
        parallel_sets=partition.num_parallel_sets,
        longest_chain=partition.longest_chain,
    )
