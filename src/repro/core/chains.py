"""Monotonic recurrence chains in the intermediate set (Definition 1, §3.2).

A *monotonic dependence chain* is a lexicographically increasing sequence of
iterations in which each iteration directly depends on a unique immediate
predecessor.  For a single coupled reference pair with full-rank matrices,
Lemma 1 guarantees that inside the intermediate set P2 every iteration has
exactly one predecessor and one successor, so P2 decomposes into *disjoint*
monotonic chains; each chain is executed sequentially by a WHILE loop whose
start is the chain's first intermediate iteration (the set W) and whose
continuation condition is "the current iteration still has a successor inside
Φ" (``I ∈ Φ ∩ dom Rd``).

This module extracts chains in two independent ways:

* :func:`chains_from_relation` — purely graph-based, walking the exact finite
  relation restricted to P2 (works for any relation, used for validation and
  for the general multi-pair case),
* :func:`chains_from_recurrence` — following the affine map ``i ← i·T + u``
  from each W start (what the generated WHILE loop actually does),

and the test-suite checks they produce identical chains for the single-pair
programs, which is precisely the content of Lemma 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..isl.lexorder import lex_lt
from ..isl.relations import FiniteRelation, in_sorted, lex_keys
from .partition import ThreeSetPartition
from .recurrence import AffineRecurrence

__all__ = [
    "MonotonicChain",
    "split_into_monotonic_pairs",
    "chains_from_relation",
    "chains_from_recurrence",
    "verify_disjoint_chains",
    "chains_respect_relation",
]

Point = Tuple[int, ...]


@dataclass(frozen=True)
class MonotonicChain:
    """One lexicographically increasing chain of directly dependent iterations."""

    points: Tuple[Point, ...]

    def __post_init__(self):
        for a, b in zip(self.points, self.points[1:]):
            if not lex_lt(a, b):
                raise ValueError(
                    f"chain is not lexicographically increasing at {a} -> {b}"
                )

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def start(self) -> Point:
        return self.points[0]

    @property
    def end(self) -> Point:
        return self.points[-1]

    def __str__(self) -> str:
        return " -> ".join(str(p) for p in self.points)


def split_into_monotonic_pairs(relation: FiniteRelation) -> List[Tuple[Point, Point]]:
    """Split arbitrary dependence pairs into monotonic (earlier, later) pairs.

    This is the fig. 2 operation: the solution chain 6 → 9 → 3 → 15 of the
    recurrence is not monotonic, but each *pair* of directly dependent
    iterations, ordered lexicographically, is a (two-element) monotonic chain:
    6 → 9, 3 → 9, 3 → 15.
    """
    out = []
    for a, b in relation.pairs:
        if a == b:
            continue
        out.append((a, b) if lex_lt(a, b) else (b, a))
    return sorted(set(out))


def chains_from_relation(
    partition: ThreeSetPartition,
) -> List[MonotonicChain]:
    """Extract the maximal chains covering P2 by walking the exact relation.

    Only dependences internal to P2 shape the chains (dependences entering
    from P1 or leaving to P3 are handled by the phase ordering).  Every P2
    iteration belongs to at least one chain; when the internal relation is a
    union of simple paths (the Lemma 1 case) the chains are disjoint simple
    paths; otherwise (multiple coupled pairs) iterations may appear in more
    than one chain and the caller must fall back to dataflow partitioning.

    The walk runs on P2 indices: points become lexicographic keys
    (:func:`~repro.isl.relations.lex_keys`), P2's sorted keys index the
    points, and the P2-internal edges become a CSR successor list sorted by
    target — so "lexicographically smallest successor" is "first in the
    list", and no tuple is built until the chains are emitted.
    """
    p2_rows = partition.p2_array()
    src, dst = partition.rd.as_arrays()
    (p2_keys, src_keys, dst_keys), _ = lex_keys(p2_rows, src, dst)
    n = len(p2_keys)
    keep = in_sorted(src_keys, p2_keys) & in_sorted(dst_keys, p2_keys)
    src_idx = np.searchsorted(p2_keys, src_keys[keep])
    dst_idx = np.searchsorted(p2_keys, dst_keys[keep])
    order = np.lexsort((dst_idx, src_idx))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src_idx, minlength=n), out=offsets[1:])
    targets: List[int] = dst_idx[order].tolist()
    bounds: List[int] = offsets.tolist()
    has_pred = np.zeros(n, dtype=bool)
    has_pred[dst_idx] = True
    # Chain heads: P2 iterations with no predecessor inside P2, in lex order.
    heads: List[int] = np.flatnonzero(~has_pred).tolist()

    chains: List[List[int]] = []
    covered: Set[int] = set()

    def walk(start: int, skip_covered: bool) -> None:
        # Follow successors greedily; with a functional relation this is the
        # unique path, otherwise we take the lexicographically smallest branch
        # and additional branches start their own chains from their head.
        chain = [start]
        on_chain = {start}
        covered.add(start)
        current = start
        while True:
            nxt = next(
                (
                    q
                    for q in targets[bounds[current] : bounds[current + 1]]
                    if q not in on_chain and not (skip_covered and q in covered)
                ),
                None,
            )
            if nxt is None:
                break
            chain.append(nxt)
            on_chain.add(nxt)
            covered.add(nxt)
            current = nxt
        chains.append(chain)

    for head in heads:
        walk(head, skip_covered=False)
    # Any P2 iteration not reached from a head lies on a cycle or a branch;
    # start an extra chain there so coverage is complete.
    for p in range(n):
        if p not in covered:
            walk(p, skip_covered=True)
    points = [tuple(r) for r in p2_rows.tolist()]
    return [MonotonicChain(tuple(points[i] for i in chain)) for chain in chains]


def chains_from_recurrence(
    partition: ThreeSetPartition,
    recurrence: AffineRecurrence,
) -> List[MonotonicChain]:
    """Chains obtained by running the WHILE-loop recurrence from each W start.

    Mirrors the generated code of Algorithm 1: each start iteration in W is
    advanced by ``i ← i·T + u`` (or by the inverse map when that is the
    direction that moves lexicographically forward) while the next iteration
    stays inside the intermediate set.  The final iteration of the underlying
    recurrence chain is *not* included — it belongs to P3 and is executed by
    the final DOALL phase, exactly as in the paper.
    """
    p2 = set(partition.p2)
    inverse = recurrence.inverse()

    def forward_step(point: Point) -> Optional[Point]:
        """The unique lexicographically-forward dependence successor inside P2.

        Tries both the successor map and its inverse (the dependence equation
        of eq. 2 relates the two iterations symmetrically; which map moves
        forward depends on which reference the current iteration instantiates).
        Lemma 1 guarantees at most one candidate qualifies; if both ever did,
        we fail loudly because the single-pair precondition would be violated.
        """
        candidates = []
        for direction in (recurrence, inverse):
            nxt = direction.next_integer(point)
            if nxt is not None and tuple(nxt) in p2 and lex_lt(point, tuple(nxt)):
                candidates.append(tuple(nxt))
        unique = sorted(set(candidates))
        if len(unique) > 1:
            raise ValueError(
                f"iteration {point} has {len(unique)} forward successors in P2; "
                f"the single-coupled-pair precondition of Lemma 1 does not hold"
            )
        return unique[0] if unique else None

    chains: List[MonotonicChain] = []
    for start in sorted(partition.w):
        chain = [start]
        current = start
        while True:
            nxt = forward_step(current)
            if nxt is None or nxt in chain:
                break
            chain.append(nxt)
            current = nxt
        chains.append(MonotonicChain(tuple(chain)))
    return chains


def verify_disjoint_chains(chains: Sequence[MonotonicChain], p2: Iterable[Point]) -> bool:
    """Lemma 1 check: the chains are pairwise disjoint and exactly cover P2."""
    seen: Set[Point] = set()
    for chain in chains:
        for p in chain:
            if p in seen:
                return False
            seen.add(p)
    return seen == set(tuple(p) for p in p2)


def chains_respect_relation(
    chains: Sequence[MonotonicChain], partition: ThreeSetPartition
) -> bool:
    """Check every P2-internal dependence edge is honoured by the chains.

    The three-phase schedule runs the chains of P2 concurrently, each chain
    sequentially in order — so a dependence edge with *both* endpoints inside
    P2 is respected iff both endpoints sit on the *same* chain with the source
    strictly earlier.  The recurrence walk only follows the coupled pair's
    affine map; a second, uncoupled dependence (e.g. a constant-subscript
    reference rewritten every iteration) can thread through P2 without being
    on any chain, and this check is what catches that before the schedule is
    built.  Edges entering P2 from P1 or leaving it to P3 are ordered by the
    phase barriers and are not this function's concern.
    """
    position: Dict[Point, Tuple[int, int]] = {}
    for ci, chain in enumerate(chains):
        for pos, p in enumerate(chain):
            if p in position:
                return False  # overlapping chains would run an instance twice
            position[p] = (ci, pos)
    p2 = set(tuple(p) for p in partition.p2)
    if not p2 or not len(partition.rd):
        return True
    src, dst = partition.rd.as_arrays()
    for a, b in zip(map(tuple, src.tolist()), map(tuple, dst.tolist())):
        if a == b or a not in p2 or b not in p2:
            continue  # self-edges and edges ordered by the phase barriers
        pa = position.get(a)
        pb = position.get(b)
        if pa is None or pb is None:
            return False  # an internal endpoint is on no chain at all
        if pa[0] != pb[0] or pa[1] >= pb[1]:
            return False
    return True
