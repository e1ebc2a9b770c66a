"""A compact per-point tuple reference for the array partitioners.

The library partitions on int64 lexicographic keys only.  This module keeps
an independent implementation on Python tuples and frozensets so the
equivalence suites and ``benchmarks/bench_scale_partition.py`` compare the
array code against something that shares none of its machinery:

* :func:`ref_three_set` — eq. 5 by set algebra;
* :func:`ref_dataflow` — Algorithm 1's dataflow while-loop, executed
  literally (rebuild ``ran Rd``, peel, restrict);
* :func:`ref_chains` — the P2 chain walk over dict successor maps;
* :func:`ref_chains_from_recurrence` — Algorithm 1's WHILE loop, one
  ``Fraction`` step per point, with the per-point chain checks
  :func:`ref_verify_disjoint_chains` / :func:`ref_chains_respect_relation`;
* :func:`ref_coset_key` / :func:`ref_cosets` — lattice cosets with the
  Hermite form recomputed for every point;
* :func:`ref_rd` / :func:`ref_is_uniform` — the combined iteration-level Rd
  from the hash join plus a frozenset fold, and the per-point uniformity
  definition;
* :func:`ref_statement_space` — the §3.3 unified space built one instance at
  a time;
* :func:`ref_schedule` / :func:`ref_pipeline` — the same steps assembled into
  tuple-phase schedules.

It is a plain helper module (the tests directory is put on ``sys.path`` by
``tests/conftest.py``), not a test file.
"""

from types import SimpleNamespace
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.schedule import ExecutionUnit, ParallelPhase, Schedule
from repro.core.statement import StatementLevelSpace, UnifiedIndexMap
from repro.dependence.analysis import DependenceAnalysis
from repro.dependence.exact import exact_pair_dependences
from repro.isl.lexorder import lex_lt
from repro.isl.linalg import hermite_normal_form
from repro.isl.relations import FiniteRelation

Point = Tuple[int, ...]


def _points(space) -> FrozenSet[Point]:
    if isinstance(space, np.ndarray):
        space = space.tolist()
    return frozenset(tuple(p) for p in space)


def _orient(pairs: Iterable[Tuple[Point, Point]]) -> FrozenSet[Tuple[Point, Point]]:
    """Earlier ≺ later orientation, self-pairs dropped."""
    return frozenset(
        (a, b) if lex_lt(a, b) else (b, a) for a, b in pairs if a != b
    )


def ref_three_set(space, rd: FiniteRelation) -> SimpleNamespace:
    """Eq. 5 on frozensets: P1 = Φ \\ ran, P2 = ran ∩ dom, P3 = ran \\ dom."""
    phi = _points(space)
    relation = rd.restrict(domain=phi, rng=phi)
    dom, ran = relation.domain(), relation.range()
    p1 = frozenset(p for p in phi if p not in ran)
    p2 = ran & dom
    w = frozenset(dst for src, dst in relation.pairs if src in p1 and dst in p2)
    return SimpleNamespace(
        space=phi, rd=relation, p1=p1, p2=p2, p3=ran - dom, w=w
    )


def ref_dataflow(
    space, rd: FiniteRelation, max_steps: Optional[int] = None
) -> Tuple[FrozenSet[Point], ...]:
    """The dataflow while-loop of Algorithm 1, one set operation at a time."""
    remaining = set(_points(space))
    relation = rd.restrict(domain=remaining, rng=remaining)
    waves: List[FrozenSet[Point]] = []
    while remaining:
        if max_steps is not None and len(waves) >= max_steps:
            raise RuntimeError("dataflow partitioning did not terminate")
        ran = {dst for _, dst in relation.pairs}
        wave = frozenset(p for p in remaining if p not in ran)
        if not wave:
            raise RuntimeError("dataflow partitioning stalled")
        waves.append(wave)
        remaining -= wave
        relation = relation.restrict(domain=remaining, rng=remaining)
    return tuple(waves)


def ref_chains(p2: Iterable[Point], rd: FiniteRelation) -> List[Tuple[Point, ...]]:
    """Greedy chain walk over the P2-internal relation (dict successor maps)."""
    p2 = set(p2)
    internal = rd.restrict(domain=p2, rng=p2)
    succ, pred = internal.successor_map(), internal.predecessor_map()
    chains: List[Tuple[Point, ...]] = []
    covered = set()

    def walk(start: Point, skip_covered: bool) -> None:
        chain, on_chain, current = [start], {start}, start
        covered.add(start)
        while True:
            nxt = next(
                (
                    q
                    for q in succ.get(current, [])
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
        chains.append(tuple(chain))

    for head in sorted(p for p in p2 if not pred.get(p)):
        walk(head, skip_covered=False)
    for p in sorted(p2 - covered):
        walk(p, skip_covered=True)
    return chains


def ref_chains_from_recurrence(w: Iterable[Point], p2: Iterable[Point], recurrence) -> List[Tuple[Point, ...]]:
    """Algorithm 1's WHILE loop run from each W start, one point at a time.

    Each step tries ``i·T + u`` and the inverse map with exact ``Fraction``
    arithmetic and keeps the integral image that lies in P2 and is
    lexicographically later; two distinct such images raise ``ValueError``.
    """
    p2 = set(p2)
    inverse = recurrence.inverse()

    def forward_step(point: Point) -> Optional[Point]:
        candidates = set()
        for direction in (recurrence, inverse):
            nxt = direction.next_integer(point)
            if nxt is not None and tuple(nxt) in p2 and lex_lt(point, tuple(nxt)):
                candidates.add(tuple(nxt))
        if len(candidates) > 1:
            raise ValueError(
                f"iteration {point} has {len(candidates)} forward successors in P2; "
                f"the single-coupled-pair precondition of Lemma 1 does not hold"
            )
        return candidates.pop() if candidates else None

    chains: List[Tuple[Point, ...]] = []
    for start in sorted(w):
        chain = [start]
        while True:
            nxt = forward_step(chain[-1])
            if nxt is None or nxt in chain:
                break
            chain.append(nxt)
        chains.append(tuple(chain))
    return chains


def ref_verify_disjoint_chains(chains: Iterable[Sequence[Point]], p2: Iterable[Point]) -> bool:
    """Chains pairwise disjoint and exactly covering P2, on a Python set."""
    seen = set()
    for chain in chains:
        for p in chain:
            if p in seen:
                return False
            seen.add(p)
    return seen == set(tuple(p) for p in p2)


def ref_chains_respect_relation(
    chains: Iterable[Sequence[Point]], p2: Iterable[Point], rd: FiniteRelation
) -> bool:
    """Every P2-internal edge joins two points of one chain, source first."""
    position: Dict[Point, Tuple[int, int]] = {}
    for ci, chain in enumerate(chains):
        for pos, p in enumerate(chain):
            if p in position:
                return False
            position[p] = (ci, pos)
    p2 = set(p2)
    if not p2 or not rd.pairs:
        return True
    for a, b in rd.pairs:
        if a == b or a not in p2 or b not in p2:
            continue
        pa, pb = position.get(a), position.get(b)
        if pa is None or pb is None or pa[0] != pb[0] or pa[1] >= pb[1]:
            return False
    return True


def ref_coset_key(generators: Sequence[Point], point: Sequence[int]) -> Point:
    """The point reduced modulo the generators' Hermite form, recomputing the
    HNF for this one point (Python integers, floor division)."""
    residue = [int(x) for x in point]
    if not generators:
        return tuple(residue)
    H, _U = hermite_normal_form([list(g) for g in generators])
    for row in H:
        pivot_col = next((c for c, x in enumerate(row) if x != 0), None)
        if pivot_col is None:
            continue
        q = residue[pivot_col] // row[pivot_col]
        residue = [r - q * h for r, h in zip(residue, row)]
    return tuple(residue)


def ref_cosets(generators: Sequence[Point], points: Iterable[Point]) -> Dict[Point, List[Point]]:
    """Points grouped by :func:`ref_coset_key`, each group sorted."""
    groups: Dict[Point, List[Point]] = {}
    for p in points:
        groups.setdefault(ref_coset_key(generators, p), []).append(tuple(p))
    for members in groups.values():
        members.sort()
    return groups


def _hash_joined_pairs(prog, params: Mapping[str, int]):
    """``(source label, target label, pair set)`` of every reference pair."""
    for pair in DependenceAnalysis(prog, params).reference_pairs:
        rel = exact_pair_dependences(pair, params, prog.parameters, engine="hash")
        yield pair.source_ctx.statement.label, pair.target_ctx.statement.label, rel.pairs


def ref_rd(prog, params: Optional[Mapping[str, int]] = None) -> FiniteRelation:
    """Combined iteration-level Rd: hash join per pair, frozenset fold, orient."""
    pairs = set()
    for _, _, joined in _hash_joined_pairs(prog, dict(params or {})):
        pairs |= joined
    depth = len(prog.statement_contexts()[0].index_names)
    return FiniteRelation(_orient(pairs), depth, depth)


def ref_is_uniform(relation: FiniteRelation, space) -> bool:
    """Definition check: for every distance d, each in-space (p, p+d) is a pair."""
    points = _points(space)
    for d in relation.distances():
        for p in points:
            q = tuple(x + y for x, y in zip(p, d))
            if q in points and (p, q) not in relation.pairs:
                return False
    return True


def ref_statement_space(prog, params: Optional[Mapping[str, int]] = None) -> StatementLevelSpace:
    """The §3.3 unified space built one statement instance at a time."""
    params = dict(params or {})
    index_map = UnifiedIndexMap.from_program(prog)
    labels = tuple(ctx.statement.label for ctx in prog.statement_contexts())
    instances = [(l, tuple(it)) for l, it in prog.sequential_iterations(params)]
    unified = [index_map.unify(l, it) for l, it in instances]
    pairs = [
        (index_map.unify(src_label, a), index_map.unify(dst_label, b))
        for src_label, dst_label, joined in _hash_joined_pairs(prog, params)
        for a, b in joined
    ]
    width = index_map.width
    space = StatementLevelSpace(
        program_name=prog.name,
        index_map=index_map,
        stmt_labels=labels,
        stmt_ids=np.asarray([labels.index(l) for l, _ in instances], dtype=np.int64),
        unified_array=np.asarray(unified, dtype=np.int64).reshape(len(unified), width),
        rd=FiniteRelation(_orient(pairs), width, width),
    )
    # Seed the tuple views from the per-instance walk, so comparing them
    # never goes through the library's row-to-instance decoding.
    space._instances = tuple(instances)
    space._unified = tuple(unified)
    return space


def ref_schedule(
    name: str,
    waves: Sequence[FrozenSet[Point]],
    label: str = "s",
    instances_of: Optional[Dict[Point, List]] = None,
) -> Schedule:
    """One tuple phase per wavefront, units in lexicographic order."""
    phases = []
    for level, wave in enumerate(waves):
        units = tuple(
            ExecutionUnit.block(list(instances_of[p]))
            if instances_of is not None
            else ExecutionUnit.single(label, p)
            for p in sorted(wave)
        )
        phases.append(ParallelPhase(f"wavefront-{level}", units))
    return Schedule.from_phases(name, phases, scheme="dataflow", num_steps=len(waves))


def ref_dataflow_branch(prog, params: Optional[Mapping[str, int]] = None) -> Schedule:
    """The dataflow branch of Algorithm 1 on the tuple reference."""
    name = f"{prog.name}-REC-dataflow"
    contexts = prog.statement_contexts()
    if len(contexts) == 1:
        space = DependenceAnalysis(prog, dict(params or {})).iteration_space_points
        waves = ref_dataflow(space, ref_rd(prog, params))
        return ref_schedule(name, waves, contexts[0].statement.label)
    space = ref_statement_space(prog, params)
    waves = ref_dataflow(space.unified, space.rd)
    return ref_schedule(name, waves, instances_of=space.instance_of())


def ref_pipeline(prog) -> SimpleNamespace:
    """Rd, eq. 5 partition and dataflow schedule of a perfect nest, on tuples."""
    rd = ref_rd(prog)
    space = DependenceAnalysis(prog, {}).iteration_space_points
    label = prog.statement_contexts()[0].statement.label
    waves = ref_dataflow(space, rd)
    return SimpleNamespace(
        rd=rd,
        partition=ref_three_set(space, rd),
        schedule=ref_schedule(f"{prog.name}-REC-dataflow", waves, label),
    )
