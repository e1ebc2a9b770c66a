"""Tests for repro.core.chains: monotonic chain extraction (Lemma 1).

The lockstep recurrence walk and the array chain checks are compared with
the per-point references in ``tests/tuple_reference.py``.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.chains import (
    MonotonicChain,
    chains_from_recurrence,
    chains_from_relation,
    chains_respect_relation,
    split_into_monotonic_pairs,
    verify_disjoint_chains,
)
from repro.core.partition import ThreeSetPartition, three_set_partition
from repro.core.recurrence import AffineRecurrence
from repro.dependence import DependenceAnalysis
from repro.isl.affine import AffineKernel
from repro.isl.linalg import RationalMatrix
from repro.isl.relations import FiniteRelation
from repro.workloads.examples import example2_loop, figure1_loop, figure2_loop
from tuple_reference import (
    ref_chains_from_recurrence,
    ref_chains_respect_relation,
    ref_verify_disjoint_chains,
)


def setup(prog):
    analysis = DependenceAnalysis(prog, {})
    partition = three_set_partition(
        analysis.iteration_space_points, analysis.iteration_dependences
    )
    recurrence = AffineRecurrence.from_pair(analysis.single_coupled_pair())
    return analysis, partition, recurrence


class TestMonotonicChain:
    def test_must_be_increasing(self):
        MonotonicChain(((1, 1), (2, 0)))
        with pytest.raises(ValueError):
            MonotonicChain(((2, 0), (1, 1)))

    def test_accessors(self):
        chain = MonotonicChain(((1,), (3,), (9,)))
        assert len(chain) == 3
        assert chain.start == (1,) and chain.end == (9,)
        assert str(chain) == "(1,) -> (3,) -> (9,)"


class TestFigure2Splitting:
    def test_paper_chain_split(self):
        """The solution chain 6 -> 9 -> 3 -> 15 splits into the monotonic pairs
        6 -> 9, 3 -> 9 and 3 -> 15 (figure 2)."""
        analysis = DependenceAnalysis(figure2_loop(20), {})
        pairs = split_into_monotonic_pairs(analysis.iteration_dependences)
        as_scalars = {(a[0], b[0]) for a, b in pairs}
        assert {(6, 9), (3, 9), (3, 15)} <= as_scalars
        # every pair is lexicographically forward
        assert all(a < b for a, b in pairs)


class TestChainExtraction:
    def test_figure1_recurrence_chains_cover_p2_disjointly(self):
        _, partition, recurrence = setup(figure1_loop(30, 40))
        chains = chains_from_recurrence(partition, recurrence)
        assert verify_disjoint_chains(chains, partition.p2)
        assert len(chains) == len(partition.w)

    def test_figure1_graph_chains_agree_with_recurrence_chains(self):
        _, partition, recurrence = setup(figure1_loop(30, 40))
        from_rec = {c.points for c in chains_from_recurrence(partition, recurrence)}
        from_rel = {c.points for c in chains_from_relation(partition)}
        assert from_rec == from_rel

    def test_example2_chains(self):
        _, partition, recurrence = setup(example2_loop(30))
        chains = chains_from_recurrence(partition, recurrence)
        assert verify_disjoint_chains(chains, partition.p2)
        # every chain starts at a W iteration
        assert {c.start for c in chains} == set(partition.w)

    def test_chain_steps_are_direct_dependences(self):
        analysis, partition, recurrence = setup(figure1_loop(40, 60))
        rel = analysis.iteration_dependences
        for chain in chains_from_recurrence(partition, recurrence):
            for a, b in zip(chain.points, chain.points[1:]):
                assert (a, b) in rel

    def test_empty_intermediate_set_gives_no_chains(self):
        _, partition, recurrence = setup(figure2_loop(20))
        assert partition.p2 == frozenset()
        assert chains_from_recurrence(partition, recurrence) == []
        assert chains_from_relation(partition) == []

    def test_verify_disjoint_chains_detects_overlap(self):
        chains = [MonotonicChain(((1,), (2,))), MonotonicChain(((2,), (3,)))]
        assert not verify_disjoint_chains(chains, {(1,), (2,), (3,)})

    def test_verify_disjoint_chains_detects_missing_point(self):
        chains = [MonotonicChain(((1,), (2,)))]
        assert not verify_disjoint_chains(chains, {(1,), (2,), (3,)})
        assert verify_disjoint_chains(chains, {(1,), (2,)})


class TestChainsRespectRelation:
    """The new dependence-coverage check behind the recurrence branch."""

    @staticmethod
    def _partition():
        # Φ = {1..4} with the chain relation 1→2→3→4: P1={1}, P2={2,3}, P3={4}.
        from repro.isl.relations import FiniteRelation

        rd = FiniteRelation.from_pairs([((1,), (2,)), ((2,), (3,)), ((3,), (4,))])
        return three_set_partition({(1,), (2,), (3,), (4,)}, rd)

    def test_single_chain_covering_p2_respects(self):
        from repro.core.chains import chains_respect_relation

        partition = self._partition()
        chains = [MonotonicChain(((2,), (3,)))]
        assert chains_respect_relation(chains, partition)

    def test_split_chains_break_internal_edge(self):
        from repro.core.chains import chains_respect_relation

        partition = self._partition()
        # 2 and 3 on *different* chains: the P2-internal edge 2→3 would run
        # concurrently, so the decomposition must be rejected.
        chains = [MonotonicChain(((2,),)), MonotonicChain(((3,),))]
        assert not chains_respect_relation(chains, partition)

    def test_uncovered_p2_endpoint_rejected(self):
        from repro.core.chains import chains_respect_relation

        partition = self._partition()
        chains = [MonotonicChain(((2,),))]  # (3,) on no chain at all
        assert not chains_respect_relation(chains, partition)

    def test_graph_walk_chains_always_respect_single_pair(self):
        from repro.core.chains import chains_respect_relation

        _, partition, recurrence = setup(figure1_loop(10, 10))
        for chains in (
            chains_from_recurrence(partition, recurrence),
            chains_from_relation(partition),
        ):
            assert chains_respect_relation(chains, partition)


# ---------------------------------------------------------------------------
# lockstep recurrence walk vs the per-point reference
# ---------------------------------------------------------------------------


def recurrence_partition(rec: AffineRecurrence, space):
    """Φ = ``space`` with Rd = every in-space step of ``rec``, oriented forward."""
    points = set(space)
    pairs = []
    for p in points:
        q = rec.next_integer(p)
        if q is not None and q != p and q in points:
            pairs.append((p, q) if p < q else (q, p))
    dim = rec.dim
    rd = FiniteRelation.from_pairs(pairs) if pairs else FiniteRelation(frozenset(), dim, dim)
    return three_set_partition(sorted(points), rd)


def walk_both(partition, rec):
    """``(outcome, reference outcome)``: the chains, or the ValueError text."""
    outcomes = []
    for walk in (
        lambda: [c.points for c in chains_from_recurrence(partition, rec)],
        lambda: ref_chains_from_recurrence(partition.w, partition.p2, rec),
    ):
        try:
            outcomes.append(walk())
        except ValueError as exc:
            outcomes.append(str(exc))
    return outcomes


def box(lo, hi):
    grids = np.meshgrid(*[np.arange(a, b + 1) for a, b in zip(lo, hi)], indexing="ij")
    return [tuple(p) for p in np.stack([g.ravel() for g in grids], axis=1).tolist()]


def rec_of(rows, u):
    return AffineRecurrence(RationalMatrix.from_rows(rows), tuple(Fraction(x) for x in u))


# Small rational entries, weighted so that images often stay integral and in
# the box (otherwise most draws would have an empty P2).
diagonal = st.sampled_from([Fraction(x) for x in (1, 1, -1, 2, -2, "3/2", "1/2", "-1/2")])
off_diagonal = st.sampled_from([Fraction(x) for x in (0, 0, 0, 0, 1, -1, "1/2")])
shift = st.sampled_from([Fraction(x) for x in (0, 0, 1, -1, 2, -3, "1/2")])


@st.composite
def recurrences_and_boxes(draw):
    dim = draw(st.integers(1, 3))
    rows = draw(
        st.lists(st.lists(off_diagonal, min_size=dim, max_size=dim), min_size=dim, max_size=dim)
    )
    for k in range(dim):
        rows[k][k] = draw(diagonal)
    if RationalMatrix.from_rows(rows).det() == 0:
        rows = [[Fraction(int(r == c)) for c in range(dim)] for r in range(dim)]
    u = draw(st.lists(shift, min_size=dim, max_size=dim))
    extent = {1: 60, 2: 12, 3: 6}[dim]
    lo = draw(st.lists(st.integers(-6, 6), min_size=dim, max_size=dim))
    hi = [a + draw(st.integers(extent // 3, extent)) for a in lo]
    return rec_of(rows, u), box(lo, hi)


class TestLockstepWalk:
    @given(recurrences_and_boxes())
    def test_matches_per_point_walk(self, case):
        rec, space = case
        got, ref = walk_both(recurrence_partition(rec, space), rec)
        assert got == ref

    @pytest.mark.parametrize("u", [(0, 0), (0, 2)], ids=["shear", "shear-shift"])
    def test_overflow_proof_declines_near_2_61(self, u):
        # (i, j) -> (i + j, j + u_j).  Near 2**61 the int64 kernel cannot
        # prove i·T + u < 2**62, so every step takes the exact per-row
        # fallback; the chains must still be those of the reference and,
        # shifted, those of the same box near the origin.  With u_j = 2 the
        # images leave the box in j, where an unchecked key would alias a
        # box point (key(i + 2, 4) == key(i + 3, 1)).
        rec = rec_of([[1, 0], [1, 1]], u)
        base = 2**61

        def whole_box(lo_i):
            rows = np.array(box((lo_i, 1), (lo_i + 12, 3)), dtype=np.int64)
            empty = np.zeros((0, 2), dtype=np.int64)
            return ThreeSetPartition(
                rows, FiniteRelation(frozenset(), 2, 2), empty, rows, empty, rows
            )

        far = whole_box(base)
        kernel = AffineKernel.from_matrix(
            [[1, 0, 1, 0], [1, 1, -1, 1]], list(u) + [u[1], -u[1]]
        )
        assert kernel.numerators(far.p2_array()) is None
        got, ref = walk_both(far, rec)
        assert got == ref and max(map(len, got)) >= 2
        shifted = [
            tuple((i + base, j) for i, j in c) for c in walk_both(whole_box(0), rec)[0]
        ]
        assert got == shifted

    def test_p2_box_past_int64_keys_uses_ranks(self):
        # Two blocks 2**60 apart: P2's box has ~2**120 cells, so membership
        # ranks rows instead of encoding them; the kernel proof still holds.
        rec = rec_of([[1, 0], [0, 1]], [0, 1])
        space = box((0, 0), (3, 3)) + box((2**60, 2**60), (2**60 + 3, 2**60 + 3))
        got, ref = walk_both(recurrence_partition(rec, space), rec)
        assert got == ref and len(got) == 8

    def test_non_integral_images_end_chains(self):
        # i -> 3i/2: from 3 the image 9/2 is not integral and from 9 the
        # image 27/2 is not, so both chains stop there.
        rec = rec_of([[Fraction(3, 2)]], [0])
        rows = np.array([[3], [6], [9]], dtype=np.int64)
        empty = np.zeros((0, 1), dtype=np.int64)
        partition = ThreeSetPartition(
            rows, FiniteRelation(frozenset(), 1, 1), empty, rows, empty, rows[:2]
        )
        got, ref = walk_both(partition, rec)
        assert got == ref == [((3,),), ((6,), (9,))]
        got, ref = walk_both(recurrence_partition(rec, box((1,), (40,))), rec)
        assert got == ref == [((6,),), ((12,), (18,)), ((24,),)]

    def test_two_forward_successors_raise(self):
        # From -4, i -> -2i gives 8 and the inverse i -> -i/2 gives 2: both
        # lie in P2 and are lexicographically later.
        rec = rec_of([[-2]], [0])
        rows = np.array([[-4], [2], [8]], dtype=np.int64)
        empty = np.zeros((0, 1), dtype=np.int64)
        partition = ThreeSetPartition(
            rows, FiniteRelation(frozenset(), 1, 1), empty, rows, empty, rows[:1]
        )
        with pytest.raises(ValueError, match=r"iteration \(-4,\) has 2 forward successors"):
            chains_from_recurrence(partition, rec)
        got, ref = walk_both(partition, rec)
        assert got == ref

    def test_first_failing_chain_in_w_order_is_reported(self):
        # Both heads fail; the lockstep walk reports the earlier W start,
        # as the one-chain-at-a-time walk does.
        rec = rec_of([[-2]], [0])
        rows = np.array([[-8], [-4], [2], [4], [8], [16]], dtype=np.int64)
        empty = np.zeros((0, 1), dtype=np.int64)
        partition = ThreeSetPartition(
            rows, FiniteRelation(frozenset(), 1, 1), empty, rows, empty, rows[:2]
        )
        got, ref = walk_both(partition, rec)
        assert got == ref and got.startswith("iteration (-8,)")

    def test_empty_p2_and_empty_w(self):
        rec = rec_of([[2]], [0])
        rows = np.array([[1], [2], [4]], dtype=np.int64)
        empty = np.zeros((0, 1), dtype=np.int64)
        rd = FiniteRelation(frozenset(), 1, 1)
        for p2, w in ((empty, empty), (rows, empty)):
            partition = ThreeSetPartition(rows, rd, rows, p2, empty, w)
            assert chains_from_recurrence(partition, rec) == []
            assert ref_chains_from_recurrence(partition.w, partition.p2, rec) == []

    @pytest.mark.parametrize("prog", [figure1_loop(30, 40), example2_loop(30)], ids=["figure1", "example2"])
    def test_paper_loops_equal_graph_walk(self, prog):
        _, partition, recurrence = setup(prog)
        from_rec = chains_from_recurrence(partition, recurrence)
        assert from_rec == chains_from_relation(partition)
        assert [c.points for c in from_rec] == ref_chains_from_recurrence(
            partition.w, partition.p2, recurrence
        )


def test_corpus_chain_plans_match_reference():
    """Every small-corpus program that plans to recurrence chains walks the
    same chains as the per-point reference."""
    from repro.core.strategy import plan
    from repro.workloads.corpus import selection_corpus

    checked = 0
    for entry in selection_corpus(size="small"):
        p = plan(entry.program, entry.params, cache=False)
        if p.strategy != "recurrence-chains":
            continue
        ref = ref_chains_from_recurrence(p.partition.w, p.partition.p2, p.recurrence)
        assert [c.points for c in p.chains] == ref, entry.name
        checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# array chain checks vs the per-point verdicts
# ---------------------------------------------------------------------------


def line_partition(n, edges):
    """Φ = {1..n} with the given (a, b) edges."""
    rd = FiniteRelation.from_pairs([((a,), (b,)) for a, b in edges])
    return three_set_partition([(i,) for i in range(1, n + 1)], rd)


def verdicts(chains, partition):
    mc = [MonotonicChain(tuple((x,) for x in c)) for c in chains]
    pts = [tuple((x,) for x in c) for c in chains]
    return (
        (chains_respect_relation(mc, partition), verify_disjoint_chains(mc, partition.p2_array())),
        (
            ref_chains_respect_relation(pts, partition.p2, partition.rd),
            ref_verify_disjoint_chains(pts, partition.p2),
        ),
    )


class TestArrayChainChecks:
    # Φ = 1..6 with 1→2→4→6 and 1→3→5→6: P1={1}, P2={2,3,4,5}, P3={6}.
    EDGES = [(1, 2), (2, 4), (4, 6), (1, 3), (3, 5), (5, 6)]

    def test_valid_decomposition_accepted(self):
        got, ref = verdicts([(2, 4), (3, 5)], line_partition(6, self.EDGES))
        assert got == ref == (True, True)

    def test_crossing_edge_rejected(self):
        # 2→5 joins two chains: their concurrent execution breaks it.
        got, ref = verdicts([(2, 4), (3, 5)], line_partition(6, self.EDGES + [(2, 5)]))
        assert got == ref == (False, True)

    def test_backward_position_rejected(self):
        got, ref = verdicts([(2, 4), (3, 5)], line_partition(6, self.EDGES + [(4, 2)]))
        assert got == ref and got[0] is False

    def test_overlapping_chains_rejected(self):
        got, ref = verdicts([(2, 4), (3, 4, 5)], line_partition(6, self.EDGES))
        assert got == ref == (False, False)

    def test_internal_endpoint_on_no_chain_rejected(self):
        got, ref = verdicts([(2, 4), (3,)], line_partition(6, self.EDGES))
        assert got == ref == (False, False)

    @given(
        st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)), max_size=14),
        st.lists(st.integers(0, 4), min_size=9, max_size=9),
    )
    def test_random_decompositions_match_reference(self, edges, labels):
        edges = [(a, b) for a, b in edges if a < b]
        partition = line_partition(9, edges)
        # Chain k holds the P2 points labelled k (label 0: on no chain),
        # plus one point of chain 1 repeated when label[0] == 4 (overlap).
        p2 = sorted(x for (x,) in partition.p2)
        chains = [tuple(x for x in p2 if labels[x - 1] == k) for k in (1, 2, 3)]
        if labels[0] == 4 and chains[0]:
            chains[1] = tuple(sorted(set(chains[1]) | {chains[0][0]}))
        chains = [c for c in chains if c]
        got, ref = verdicts(chains, partition)
        assert got == ref
