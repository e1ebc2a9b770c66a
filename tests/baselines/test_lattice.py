"""Tests for repro.baselines.lattice: PDM extraction and lattice cosets.

The one-HNF array reduction behind :meth:`DistanceLattice.cosets` and
:meth:`DistanceLattice.coset_key` is compared with the per-point reference
in ``tests/tuple_reference.py``, which recomputes the Hermite form for every
point.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.lattice import DistanceLattice, direction_basis, pseudo_distance_matrix
from repro.baselines.pdm import pdm_partition
from repro.baselines.pl import pl_partition
from repro.dependence import DependenceAnalysis
from repro.isl.lexorder import is_lex_positive
from repro.workloads.examples import example2_loop, figure1_loop
from tuple_reference import ref_coset_key, ref_cosets

small_vecs = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda v: v != (0, 0)),
    min_size=1,
    max_size=4,
)


class TestPseudoDistanceMatrix:
    def test_figure1_pdm(self):
        rel = DependenceAnalysis(figure1_loop(10, 10), {}).iteration_dependences
        pdm = pseudo_distance_matrix(sorted(rel.distances()), 2)
        # the distances (2,2),(4,4),(6,6) reduce to the single generator (2,2)
        assert pdm == [(2, 2)]

    def test_vectors_are_lex_positive(self):
        rel = DependenceAnalysis(example2_loop(20), {}).iteration_dependences
        for v in pseudo_distance_matrix(sorted(rel.distances()), 2):
            assert is_lex_positive(v)

    def test_empty_distances(self):
        assert pseudo_distance_matrix([], 2) == []

    @given(small_vecs)
    @settings(max_examples=40, deadline=None)
    def test_pdm_covers_all_distances(self, distances):
        pdm = pseudo_distance_matrix(distances, 2)
        lattice = DistanceLattice.from_vectors(pdm, 2)
        assert lattice.covers(distances)

    def test_direction_basis_is_primitive(self):
        from math import gcd

        rel = DependenceAnalysis(figure1_loop(10, 10), {}).iteration_dependences
        basis = direction_basis(sorted(rel.distances()), 2)
        assert basis == [(1, 1)]
        for v in basis:
            g = 0
            for x in v:
                g = gcd(g, abs(x))
            assert g == 1


class TestDistanceLattice:
    def test_contains(self):
        lattice = DistanceLattice.from_vectors([(2, 2)], 2)
        assert lattice.contains((0, 0))
        assert lattice.contains((4, 4))
        assert lattice.contains((-2, -2))
        assert not lattice.contains((2, 0))
        assert not lattice.contains((3, 3))

    def test_empty_lattice(self):
        lattice = DistanceLattice.from_vectors([], 2)
        assert lattice.contains((0, 0))
        assert not lattice.contains((1, 0))
        assert lattice.coset_key((3, 4)) == (3, 4)

    def test_coset_key_consistency(self):
        lattice = DistanceLattice.from_vectors([(2, 2), (0, 6)], 2)
        p = (3, 5)
        shifted = (3 + 2, 5 + 2 + 6)
        assert lattice.coset_key(p) == lattice.coset_key(shifted)
        assert lattice.coset_key(p) != lattice.coset_key((4, 5))

    @given(small_vecs, st.tuples(st.integers(-6, 6), st.integers(-6, 6)), st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_coset_key_invariant_under_lattice_shifts(self, gens, point, k1, k2):
        lattice = DistanceLattice.from_vectors(gens, 2)
        shift = (
            k1 * gens[0][0] + (k2 * gens[-1][0] if len(gens) > 1 else 0),
            k1 * gens[0][1] + (k2 * gens[-1][1] if len(gens) > 1 else 0),
        )
        moved = (point[0] + shift[0], point[1] + shift[1])
        assert lattice.coset_key(point) == lattice.coset_key(moved)

    def test_cosets_partition_the_space(self):
        lattice = DistanceLattice.from_vectors([(2, 2)], 2)
        points = [(i, j) for i in range(1, 5) for j in range(1, 5)]
        cosets = lattice.cosets(points)
        flattened = [p for members in cosets.values() for p in members]
        assert sorted(flattened) == sorted(points)
        # members of a coset differ by lattice vectors
        for members in cosets.values():
            base = members[0]
            for other in members[1:]:
                assert lattice.contains((other[0] - base[0], other[1] - base[1]))


@st.composite
def lattices_and_points(draw, near=0):
    """A lattice over 1-3 dims (generators possibly empty or rank-deficient)
    and points with negative coordinates, offset by ``near`` when given."""
    dim = draw(st.integers(1, 3))
    vec = st.lists(st.integers(-6, 6), min_size=dim, max_size=dim).map(tuple)
    gens = draw(st.lists(vec, max_size=4))
    if gens and draw(st.booleans()):
        # rank-deficient: append an integer combination of the others
        k = draw(st.integers(-3, 3))
        gens.append(tuple(k * x + y for x, y in zip(gens[0], gens[-1])))
    coord = st.integers(-20, 20).map(lambda x: x + near)
    points = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim).map(tuple), max_size=40))
    return DistanceLattice.from_vectors(gens, dim), points


class TestOneHnfReduction:
    @given(lattices_and_points())
    def test_cosets_and_keys_match_per_point_hnf(self, case):
        lattice, points = case
        got = lattice.cosets(points)
        assert list(got.items()) == list(ref_cosets(lattice.generators, points).items())
        for p in points[:5]:
            assert lattice.coset_key(p) == ref_coset_key(lattice.generators, p)
        if points:
            rows = np.array(points, dtype=np.int64)
            assert list(lattice.cosets(rows).items()) == list(got.items())

    @given(st.sampled_from([2**61, -(2**61), 2**62 - 40, -(2**63) + 40, 2**63 - 10]).flatmap(
        lambda near: lattices_and_points(near=near)
    ))
    def test_near_the_overflow_bound(self, case):
        lattice, points = case
        assert list(lattice.cosets(points).items()) == list(
            ref_cosets(lattice.generators, points).items()
        )
        for p in points[:5]:
            assert lattice.coset_key(p) == ref_coset_key(lattice.generators, p)

    def test_overflow_proof_declines_and_falls_back(self):
        lattice = DistanceLattice.from_vectors([(3, 5), (0, 7)], 2)
        rows = np.array([[2**61, -(2**61)], [2**61 + 4, 3]], dtype=np.int64)
        assert lattice._reduce(rows) is None
        assert lattice._reduce(np.array([[4, 3]], dtype=np.int64)) is not None
        points = [tuple(r) for r in rows.tolist()]
        assert list(lattice.cosets(rows).items()) == list(
            ref_cosets(lattice.generators, points).items()
        )

    def test_points_past_int64(self):
        lattice = DistanceLattice.from_vectors([(2, 2)], 2)
        huge = (2**70 + 1, -(2**70))
        assert lattice.coset_key(huge) == ref_coset_key(lattice.generators, huge)
        assert lattice.cosets([huge, (1, 2)]) == ref_cosets(lattice.generators, [huge, (1, 2)])

    def test_floor_division_on_negative_coordinates(self):
        lattice = DistanceLattice.from_vectors([(3, 0), (0, 4)], 2)
        assert lattice.coset_key((-1, -1)) == (2, 3)
        assert lattice.coset_key((-7, -9)) == ref_coset_key(lattice.generators, (-7, -9))

    def test_empty_generator_set_keeps_points(self):
        lattice = DistanceLattice.from_vectors([], 2)
        points = [(1, -2), (0, 0), (1, -2)]
        assert lattice.cosets(points) == {(1, -2): [(1, -2), (1, -2)], (0, 0): [(0, 0)]}
        assert lattice.cosets([]) == {}


class TestArraySpaces:
    @pytest.mark.parametrize("build", [pdm_partition, pl_partition], ids=["pdm", "pl"])
    def test_array_space_equals_tuple_space(self, build):
        analysis = DependenceAnalysis(example2_loop(20), {})
        rd = analysis.iteration_dependences
        from_array = build(analysis.iteration_space_array, rd)
        from_tuples = build(analysis.iteration_space_points, rd)
        assert from_array.pdm == from_tuples.pdm
        assert list(from_array.cosets.items()) == list(from_tuples.cosets.items())

    @pytest.mark.parametrize("build", [pdm_partition, pl_partition], ids=["pdm", "pl"])
    def test_empty_array_space(self, build):
        analysis = DependenceAnalysis(figure1_loop(4, 4), {})
        empty = np.zeros((0, 2), dtype=np.int64)
        assert build(empty, analysis.iteration_dependences).cosets == {}


class TestPlannedCosets:
    """Planned pdm/pl partitions equal the per-point reference cosets,
    including the order of keys and members."""

    @staticmethod
    def check(p):
        points = p.analysis.iteration_space_points
        ref = ref_cosets(p.partition.lattice.generators, points)
        assert list(p.partition.cosets.items()) == list(ref.items())

    @pytest.mark.parametrize("scheme", ["pdm", "pl"])
    @pytest.mark.parametrize(
        "factory", [lambda: figure1_loop(12, 12), lambda: example2_loop(20)],
        ids=["figure1", "example2"],
    )
    def test_paper_loops(self, scheme, factory):
        from repro.core.strategy import PlanConfig, plan

        self.check(plan(factory(), config=PlanConfig(strategies=(scheme,)), cache=False))

    def test_corpus_coset_plans(self):
        from repro.core.strategy import plan
        from repro.workloads.corpus import selection_corpus

        checked = 0
        for entry in selection_corpus(size="small"):
            p = plan(entry.program, entry.params, cache=False)
            if p.strategy in ("pdm", "pl") and p.partition is not None:
                self.check(p)
                checked += 1
        assert checked > 0
