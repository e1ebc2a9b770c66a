"""Distance-vector lattices shared by the uniformization baselines (PDM, PL).

Both the pseudo-distance-matrix scheme (Yu & D'Hollander, ICPP'00) and the
partitioning/labeling scheme for uniform loops (D'Hollander '92) replace the
real, non-uniform dependences by a small set of lexicographically positive
vectors whose integer combinations *cover* every real distance, and then
partition the iteration space by the lattice those vectors generate:

* two iterations in different lattice cosets can never depend on each other
  (their difference is not an integer combination of the covering vectors), so
  cosets are the parallel units;
* within a coset, iterations execute in lexicographic (sequential) order,
  which respects every real dependence because real dependences stay inside a
  coset and are lexicographically forward.

The schemes differ only in *which* covering vectors they use (see
:mod:`repro.baselines.pdm` and :mod:`repro.baselines.pl`); the coset machinery
lives here.  The artificial dependences the paper warns about are visible as
longer-than-necessary sequential cosets — exactly the effect that caps these
schemes' speedup in figure 3.

A :class:`DistanceLattice` computes the Hermite normal form of its generators
once; :meth:`~DistanceLattice.cosets` reduces every point against it in one
int64 floor-division pass (with an overflow proof, and exact Python-integer
reduction past it) and groups the points by sorting their keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.partition import as_point_array
from ..isl.lexorder import is_lex_positive
from ..isl.linalg import hermite_normal_form, solve_diophantine
from ..isl.relations import lex_keys

__all__ = ["DistanceLattice", "pseudo_distance_matrix", "direction_basis"]

Point = Tuple[int, ...]

#: Every residue of :meth:`DistanceLattice._reduce` stays below this.
_REDUCE_BOUND = 1 << 62


def pseudo_distance_matrix(distances: Iterable[Point], dim: int) -> List[Point]:
    """Pseudo distance vectors covering all distances (the PDM of ICPP'00).

    The Hermite normal form of the matrix whose rows are the observed distance
    vectors yields at most ``dim`` non-zero rows that (a) integrally generate
    every observed distance and (b) are lexicographically positive after the
    row reduction (the reduction keeps pivots positive and zeroes below them).
    An empty distance set yields an empty PDM (the loop is fully parallel).
    """
    rows = [list(d) for d in distances if any(x != 0 for x in d)]
    if not rows:
        return []
    H, _U = hermite_normal_form(rows)
    pdm: List[Point] = []
    for row in H:
        vec = tuple(int(x) for x in row)
        if all(x == 0 for x in vec):
            continue
        if not is_lex_positive(vec):
            vec = tuple(-x for x in vec)
        pdm.append(vec)
    return pdm


def direction_basis(distances: Iterable[Point], dim: int) -> List[Point]:
    """The direction-vector style covering used by the PL / unimodular baseline.

    Wolf & Lam style dependence vectors keep only the per-component direction
    information, which is equivalent to covering the distances with *primitive*
    vectors (each PDM row divided by the gcd of its components).  The resulting
    lattice is denser, i.e. it introduces more artificial dependences — the
    behaviour the paper's related-work section attributes to the
    direction-vector representation.
    """
    from math import gcd

    primitive: List[Point] = []
    for vec in pseudo_distance_matrix(distances, dim):
        g = 0
        for x in vec:
            g = gcd(g, abs(int(x)))
        g = g or 1
        primitive.append(tuple(int(x) // g for x in vec))
    return primitive


@dataclass(frozen=True)
class DistanceLattice:
    """The integer lattice generated by a set of covering distance vectors."""

    generators: Tuple[Point, ...]
    dim: int

    @staticmethod
    def from_vectors(vectors: Sequence[Point], dim: int) -> "DistanceLattice":
        gens = tuple(tuple(int(x) for x in v) for v in vectors if any(v))
        return DistanceLattice(gens, dim)

    def contains(self, vector: Sequence[int]) -> bool:
        """True when ``vector`` is an integer combination of the generators."""
        if all(x == 0 for x in vector):
            return True
        if not self.generators:
            return False
        # Solve  G^T · k = vector  over the integers (k are the combination
        # coefficients, one per generator).
        matrix = [[self.generators[g][d] for g in range(len(self.generators))] for d in range(self.dim)]
        return solve_diophantine(matrix, [int(x) for x in vector]) is not None

    def covers(self, distances: Iterable[Point]) -> bool:
        """Every distance is an integer combination of the generators."""
        return all(self.contains(d) for d in distances)

    @cached_property
    def _hnf_rows(self) -> Tuple[Tuple[int, Point], ...]:
        """``(pivot column, row)`` of every non-zero row of the generators'
        Hermite form, in echelon order (pivots positive); computed once."""
        if not self.generators:
            return ()
        H, _U = hermite_normal_form([list(g) for g in self.generators])
        return tuple(
            (next(c for c, x in enumerate(row) if x != 0), tuple(row))
            for row in H
            if any(row)
        )

    def _reduce_exact(self, point: Sequence[int]) -> Point:
        """The coset key of one point in Python integers (no overflow)."""
        residue = [int(x) for x in point]
        for pivot_col, row in self._hnf_rows:
            q = residue[pivot_col] // row[pivot_col]
            if q != 0:
                residue = [r - q * h for r, h in zip(residue, row)]
        return tuple(residue)

    def _reduce(self, points) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(rows, keys)`` of the points as int64 arrays, one floor-division
        pass per HNF row, or ``None`` when a point does not fit int64 or the
        residues could reach 2**62.

        Reducing a residue bounded by ``B`` against a row with entries at
        most ``M`` takes a quotient ``|q| <= B + 1`` (pivots are at least 1),
        so the residue afterwards is bounded by ``B + (B + 1)·M``.
        """
        try:
            rows = as_point_array(points, self.dim)
        except OverflowError:
            return None
        bound = max(int(rows.max()), -int(rows.min())) if rows.size else 0
        for _, row in self._hnf_rows:
            bound += (bound + 1) * max(map(abs, row))
        if bound >= _REDUCE_BOUND:
            return None
        residue = rows.copy()
        for pivot_col, row in self._hnf_rows:
            q = residue[:, pivot_col] // row[pivot_col]
            residue -= q[:, None] * np.array(row, dtype=np.int64)
        return rows, residue

    def coset_key(self, point: Sequence[int]) -> Point:
        """A canonical representative of the point's lattice coset.

        Two points get the same key iff their difference lies in the lattice.
        The key is the point reduced modulo the Hermite form of the generator
        matrix, row by row: the one-row case of :meth:`cosets`.
        """
        point = tuple(int(x) for x in point)
        reduced = self._reduce([point])
        if reduced is None:
            return self._reduce_exact(point)
        return tuple(reduced[1][0].tolist())

    def cosets(self, points: Union[np.ndarray, Iterable[Point]]) -> Dict[Point, List[Point]]:
        """Group points by lattice coset; each list is sorted lexicographically.

        ``points`` may be an ``(n, dim)`` int array or an iterable of point
        tuples.  Keys appear in the order their first member appears in
        ``points``.  All points are reduced in one int64 pass and grouped by
        sorting on :func:`lex_keys`; points past the overflow proof take the
        exact per-point reduction.
        """
        if not isinstance(points, np.ndarray):
            points = [tuple(p) for p in points]
        if not len(points):
            return {}
        reduced = self._reduce(points)
        if reduced is None:
            groups: Dict[Point, List[Point]] = {}
            for p in (points.tolist() if isinstance(points, np.ndarray) else points):
                groups.setdefault(self._reduce_exact(p), []).append(tuple(p))
            for members in groups.values():
                members.sort()
            return groups
        rows, keys = reduced
        (coset_ids, point_ids), _ = lex_keys(keys, rows)
        order = np.lexsort((point_ids, coset_ids))  # by coset, then lex
        sorted_ids = coset_ids[order]
        starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
        first_seen = np.minimum.reduceat(order, starts)
        members = [tuple(p) for p in rows[order].tolist()]
        key_rows = keys[order[starts]].tolist()
        bounds = starts.tolist() + [len(members)]
        return {
            tuple(key_rows[g]): members[bounds[g] : bounds[g + 1]]
            for g in np.argsort(first_seen, kind="stable").tolist()
        }
