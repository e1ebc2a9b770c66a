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

Both run on arrays.  The recurrence walk lowers ``T`` and ``T⁻¹`` once to an
int64 :class:`~repro.isl.affine.AffineKernel` and advances all W starts in
lockstep, one matrix product per step (Theorem 1 keeps the number of steps
small); only a block whose overflow proof fails steps through exact
``Fraction`` arithmetic.  The checks :func:`verify_disjoint_chains` and
:func:`chains_respect_relation` compare :func:`~repro.isl.relations.lex_keys`
of the chain points, P2 and the relation's endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence, Set, Tuple, Union

import numpy as np

from ..isl.affine import AffineKernel
from ..isl.lexorder import lex_lt
from ..isl.relations import FiniteRelation, PointCodec, in_sorted, lex_keys
from .partition import ThreeSetPartition, as_point_array
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


def _p2_membership(p2_rows: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """``rows -> bool mask`` of membership in P2, for rows inside P2's box.

    P2's keys are encoded once with a :class:`PointCodec` over its box; when
    that box overflows int64, each query ranks its rows together with P2's
    through :func:`lex_keys` instead.
    """
    try:
        codec = PointCodec.for_arrays(p2_rows)
    except ValueError:
        return lambda rows: in_sorted(*lex_keys(rows, p2_rows)[0])
    p2_keys = codec.encode(p2_rows)
    return lambda rows: in_sorted(codec.encode(rows), p2_keys)


def _lex_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``a ≺ b`` for two ``(n, dim)`` arrays (no subtraction, so no
    overflow)."""
    first = (a != b).argmax(axis=1)  # column 0 for equal rows: not less
    rows = np.arange(len(a))
    return a[rows, first] < b[rows, first]


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

    Every W start advances in lockstep: one step maps all live rows through
    both directions with a single int64 :class:`AffineKernel` product (``T``
    and ``T⁻¹`` side by side over a common denominator).  A candidate is a
    successor when it is integral, inside P2's box, a member of P2 and
    lexicographically after the current point; Lemma 1 allows at most one
    such candidate per row.  Rows without one retire, so the number of steps
    is the longest chain (Theorem 1 bounds it by ``log_α(L) + 1``).  A block
    whose overflow proof fails takes the exact
    :meth:`AffineRecurrence.next_integer` per row instead.
    """
    p2 = partition.p2_array()
    heads = partition.w_array()
    if not len(heads):
        return []
    dim = p2.shape[1]
    inverse = recurrence.inverse()
    kernel = AffineKernel.from_matrix(
        [list(a) + list(b) for a, b in zip(recurrence.T.rows, inverse.T.rows)],
        list(recurrence.u) + list(inverse.u),
    )
    in_p2 = _p2_membership(p2)
    lo, hi = p2.min(axis=0), p2.max(axis=0)

    def exact_images(points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # Python-int images; a row outside P2's box is never a successor, so
        # only in-box (hence int64) images are kept.
        images = np.zeros((len(points), 2, dim), dtype=np.int64)
        ok = np.zeros((len(points), 2), dtype=bool)
        bounds = list(zip(lo.tolist(), hi.tolist()))
        for r, point in enumerate(points.tolist()):
            for d, direction in enumerate((recurrence, inverse)):
                nxt = direction.next_integer(point)
                if nxt is not None and all(a <= x <= b for x, (a, b) in zip(nxt, bounds)):
                    images[r, d] = nxt
                    ok[r, d] = True
        return images, ok

    def step_images(points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        values = kernel.numerators(points) if kernel is not None else None
        if values is None:
            return exact_images(points)
        values = values.reshape(len(points), 2, dim)
        ok = ~(values % kernel.denom).any(axis=2)
        images = values // kernel.denom
        ok &= ((images >= lo) & (images <= hi)).all(axis=2)
        return images, ok

    steps_ids = [np.arange(len(heads))]
    steps_rows = [heads]
    live, current = steps_ids[0], heads
    clashes: List[Tuple[int, List[int]]] = []  # (chain id, point)
    while len(live):
        images, ok = step_images(current)
        for d in range(2):
            cand = ok[:, d]
            cand[cand] = in_p2(images[cand, d])
            cand[cand] = _lex_less(current[cand], images[cand, d])
        clash = ok.all(axis=1) & (images[:, 0] != images[:, 1]).any(axis=1)
        clashes.extend(zip(live[clash].tolist(), current[clash].tolist()))
        ok[clash] = False
        moved = ok.any(axis=1)
        live = live[moved]
        current = np.where(ok[moved, 0:1], images[moved, 0], images[moved, 1])
        steps_ids.append(live)
        steps_rows.append(current)
    if clashes:
        # The first failing chain in W order, as a one-chain-at-a-time walk
        # would report it.
        _, point = min(clashes)
        raise ValueError(
            f"iteration {tuple(point)} has 2 forward successors in P2; "
            f"the single-coupled-pair precondition of Lemma 1 does not hold"
        )

    ids = np.concatenate(steps_ids)
    order = np.argsort(ids, kind="stable")  # per chain, in step order
    points = [tuple(r) for r in np.concatenate(steps_rows)[order].tolist()]
    bounds = np.cumsum(np.bincount(ids, minlength=len(heads))).tolist()
    return [
        MonotonicChain(tuple(points[a:b])) for a, b in zip([0] + bounds[:-1], bounds)
    ]


def _chain_arrays(
    chains: Sequence[MonotonicChain], dim: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, chain id, position)`` of every chain point, chains in order."""
    lengths = np.array([len(c) for c in chains], dtype=np.int64)
    total = int(lengths.sum())
    rows = np.array(
        [p for c in chains for p in c.points], dtype=np.int64
    ).reshape(total, dim)
    chain_id = np.repeat(np.arange(len(chains)), lengths)
    firsts = np.cumsum(lengths) - lengths
    position = np.arange(total) - np.repeat(firsts, lengths)
    return rows, chain_id, position


def verify_disjoint_chains(
    chains: Sequence[MonotonicChain], p2: Union[np.ndarray, Iterable[Point]]
) -> bool:
    """Lemma 1 check: the chains are pairwise disjoint and exactly cover P2.

    ``p2`` may be an ``(n, dim)`` int array or an iterable of point tuples;
    the check compares sorted :func:`lex_keys` of the chain points and P2.
    """
    first = next((c.start for c in chains if len(c)), None)
    p2_rows = as_point_array(p2, len(first) if first is not None else 0)
    if first is None:
        return not len(p2_rows)
    rows, _, _ = _chain_arrays(chains, len(first))
    if p2_rows.shape[1] != rows.shape[1]:
        return False
    (chain_keys, p2_keys), _ = lex_keys(rows, p2_rows)
    chain_keys = np.sort(chain_keys)
    if (chain_keys[1:] == chain_keys[:-1]).any():
        return False
    return np.array_equal(chain_keys, np.unique(p2_keys))


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

    The check runs on :func:`lex_keys`: every chain point becomes a
    ``(chain id, position)`` entry in key order, and each internal edge looks
    both endpoints up with one ``searchsorted``.
    """
    p2 = partition.p2_array()
    rows, chain_id, position = _chain_arrays(chains, p2.shape[1])
    src, dst = partition.rd.as_arrays()
    (chain_keys, p2_keys, src_keys, dst_keys), _ = lex_keys(rows, p2, src, dst)
    order = np.argsort(chain_keys, kind="stable")
    chain_keys = chain_keys[order]
    if (chain_keys[1:] == chain_keys[:-1]).any():
        return False  # overlapping chains would run an instance twice
    if not len(p2) or not len(partition.rd):
        return True
    # Self-edges and edges ordered by the phase barriers drop out.
    internal = (
        (src_keys != dst_keys) & in_sorted(src_keys, p2_keys) & in_sorted(dst_keys, p2_keys)
    )
    ends = []
    for keys in (src_keys[internal], dst_keys[internal]):
        if not in_sorted(keys, chain_keys).all():
            return False  # an internal endpoint is on no chain at all
        ends.append(order[np.searchsorted(chain_keys, keys)])
    a, b = ends
    return bool(((chain_id[a] == chain_id[b]) & (position[a] < position[b])).all())
