"""Affine and finite relations between iteration vectors.

The dependence relation ``Rd`` of the paper maps iterations (or statement
instances) to the iterations that depend on them.  Two representations are
provided, mirroring the two ways the package reasons about dependences:

* :class:`ConvexRelation` / :class:`UnionRelation` — symbolic relations whose
  graph is a (union of) convex set(s) over ``in ++ out`` variables, supporting
  ``dom``, ``ran``, inverse, composition and domain/range restriction.  This is
  the Omega-library-like layer used to *derive* partitions, possibly with
  symbolic parameters.
* :class:`FiniteRelation` — an explicit set of integer pairs, produced by the
  exact dependence analyser for concrete loop bounds and used by the
  executors, the validators and the chain extractor.  All partition-safety
  invariants are ultimately checked against this exact object.

Besides the pure-Python set representation, :class:`FiniteRelation` exposes an
**array form**: :meth:`FiniteRelation.as_arrays` materialises the pairs as
``(n, dim)`` int64 numpy arrays, and :func:`lex_keys` maps each integer point
to a scalar int64 key whose order is the lexicographic point order, so that
``dom``/``ran``/``restrict`` and membership become sorted-array operations
(``np.unique``, ``np.searchsorted``) instead of per-point Python set algebra.
Every partitioner in :mod:`repro.core` runs on this form, at every size.

The two representations are **lazily dual**: a relation built with
:meth:`FiniteRelation.from_arrays` (the exact analyser's sort-join output,
the partitioners' restrictions) keeps only its canonical row arrays and
derives the frozenset of tuple pairs the first time a set-path consumer
touches :attr:`FiniteRelation.pairs`; a set-built relation conversely derives
its arrays on the first array access.  See ARCHITECTURE.md for the
pipeline-wide picture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .convex import Constraint, ConvexSet
from .fourier_motzkin import project_onto
from .lexorder import lex_lt
from .sets import UnionSet

__all__ = [
    "ConvexRelation",
    "UnionRelation",
    "FiniteRelation",
    "PointCodec",
    "in_sorted",
    "lex_keys",
    "lexsort_rows",
    "readonly_view",
]

Point = Tuple[int, ...]
Pair = Tuple[Point, Point]


# ---------------------------------------------------------------------------
# lexicographic row encoding
# ---------------------------------------------------------------------------


def readonly_view(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr`` (the caller's own array keeps its flags).

    The lazily-dual containers (:class:`FiniteRelation`, the partitions, the
    array schedule phases) cache both an array and a derived tuple/frozenset
    view of the same data; storing the array behind a read-only view makes an
    accidental in-place edit — which would silently desync the cached views —
    raise immediately instead.
    """
    view = arr.view()
    view.setflags(write=False)
    return view


def lexsort_rows(rows: np.ndarray) -> np.ndarray:
    """Permutation putting the rows of an ``(n, dim)`` array in lexicographic order.

    Unlike :meth:`PointCodec.encode`-based sorting this never overflows: it is
    a plain ``np.lexsort`` over the columns (last key = first column), so it
    works for arbitrarily wide boxes.  Rank-0 rows are already "sorted".
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 2:
        raise ValueError("rows must be an (n, dim) array")
    if rows.shape[1] == 0:
        return np.arange(len(rows), dtype=np.int64)
    return np.lexsort(rows.T[::-1])


def in_sorted(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Boolean membership of ``keys`` in an ascending-sorted key array.

    ``sorted_keys`` must be sorted (duplicates allowed); returns a boolean mask
    parallel to ``keys``.  This is the searchsorted-based membership primitive
    of the array path (O(n log m) instead of per-element hashing).
    """
    keys = np.asarray(keys, dtype=np.int64)
    sorted_keys = np.asarray(sorted_keys, dtype=np.int64)
    if sorted_keys.size == 0:
        return np.zeros(keys.shape, dtype=bool)
    pos = np.searchsorted(sorted_keys, keys).clip(max=sorted_keys.size - 1)
    return sorted_keys[pos] == keys


@dataclass(frozen=True)
class PointCodec:
    """Lexicographic row encoding of integer points into scalar int64 keys.

    The codec covers a fixed bounding box; each point inside the box maps to
    ``sum((x_d - lo_d) * stride_d)`` with mixed-radix strides, so **key order
    equals lexicographic point order** and distinct in-box points get distinct
    keys.  Points outside the box alias arbitrarily — callers must only encode
    points inside the box the codec was built for (build it with
    :meth:`for_arrays` over every array involved).
    """

    lo: np.ndarray
    extents: np.ndarray
    strides: np.ndarray

    @staticmethod
    def for_arrays(*arrays: Optional[np.ndarray]) -> "PointCodec":
        """A codec whose box covers every row of every given ``(n, dim)`` array.

        Raises :class:`ValueError` when no non-empty array is given, when the
        dimensions disagree, or when the box has more than 2**63 cells (the
        keys would overflow int64).
        """
        stacked = [
            np.asarray(a, dtype=np.int64)
            for a in arrays
            if a is not None and len(a)
        ]
        if not stacked:
            raise ValueError("cannot build a PointCodec from empty arrays")
        dim = stacked[0].shape[1]
        for a in stacked:
            if a.ndim != 2 or a.shape[1] != dim:
                raise ValueError("all arrays must be (n, dim) with a common dim")
        if dim == 0:
            zero = np.zeros(0, dtype=np.int64)
            return PointCodec(zero, zero.copy(), zero.copy())
        lo = np.min([a.min(axis=0) for a in stacked], axis=0)
        hi = np.max([a.max(axis=0) for a in stacked], axis=0)
        extents = (hi - lo + 1).astype(np.int64)
        cells = 1
        for e in extents.tolist():  # python ints: no silent overflow
            cells *= int(e)
        if cells >= 2**63:
            raise ValueError(
                f"point box of {cells} cells is too large for int64 lexicographic keys"
            )
        strides = np.ones(dim, dtype=np.int64)
        for d in range(dim - 2, -1, -1):
            strides[d] = strides[d + 1] * extents[d + 1]
        return PointCodec(lo, extents, strides)

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of rows that lie inside the codec's box."""
        pts = np.asarray(points, dtype=np.int64)
        if self.dim == 0:
            return np.ones(len(pts), dtype=bool)
        return ((pts >= self.lo) & (pts < self.lo + self.extents)).all(axis=1)

    def encode(self, points: np.ndarray) -> np.ndarray:
        """Scalar int64 key of every row of an ``(n, dim)`` array."""
        pts = np.asarray(points, dtype=np.int64)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"points must be (n, {self.dim}) for this codec")
        if self.dim == 0:
            return np.zeros(len(pts), dtype=np.int64)
        return (pts - self.lo) @ self.strides

    def decode(self, keys: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`encode`: the ``(n, dim)`` points of in-box keys."""
        keys = np.asarray(keys, dtype=np.int64)
        out = np.empty((len(keys), self.dim), dtype=np.int64)
        rem = keys
        for d in range(self.dim):
            digit = rem // self.strides[d]
            rem = rem - digit * self.strides[d]
            out[:, d] = digit + self.lo[d]
        return out


def lex_keys(
    *arrays: np.ndarray,
) -> Tuple[List[np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """Lexicographic-order int64 keys for the rows of ``(n, dim)`` arrays.

    Returns one key array per input array, plus ``decode`` mapping keys back
    to rows.  Across all the inputs, equal rows get equal keys and key order
    is lexicographic row order, so set algebra on points becomes sorted-array
    algebra on keys.  The keys come from a mixed-radix :class:`PointCodec`
    when the common bounding box fits in int64; otherwise they are the dense
    ranks of the distinct rows (``np.unique(axis=0)``).  Either way
    ``decode`` is only defined on keys of the given rows.  Empty arrays may
    have any width; the others must share one.
    """
    arrays = [np.asarray(a, dtype=np.int64) for a in arrays]
    rows = [a for a in arrays if len(a)]
    if not rows:
        dim = arrays[0].shape[-1] if arrays else 0
        return (
            [np.zeros(0, dtype=np.int64) for _ in arrays],
            lambda keys: np.zeros((len(keys), dim), dtype=np.int64),
        )
    dim = rows[0].shape[1] if rows[0].ndim == 2 else -1
    if any(a.ndim != 2 or a.shape[1] != dim for a in rows):
        raise ValueError("all arrays must be (n, dim) with a common dim")
    try:
        codec = PointCodec.for_arrays(*rows)
    except ValueError:
        # The box overflows int64: rank the distinct rows instead.
        distinct, inverse = np.unique(
            np.concatenate(rows), axis=0, return_inverse=True
        )
        splits = np.cumsum([len(a) for a in arrays])[:-1]
        keys = np.split(inverse.reshape(-1).astype(np.int64), splits)
        return keys, lambda k: distinct[np.asarray(k, dtype=np.int64)]
    keys = [codec.encode(a) if len(a) else np.zeros(0, dtype=np.int64) for a in arrays]
    return keys, codec.decode


# ---------------------------------------------------------------------------
# symbolic relations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvexRelation:
    """A relation whose graph is a single convex set over ``in_vars + out_vars``."""

    in_vars: Tuple[str, ...]
    out_vars: Tuple[str, ...]
    graph: ConvexSet

    @staticmethod
    def from_constraints(
        in_vars: Sequence[str],
        out_vars: Sequence[str],
        constraints: Iterable[Constraint],
        parameters: Sequence[str] = (),
    ) -> "ConvexRelation":
        graph = ConvexSet.from_constraints(
            tuple(in_vars) + tuple(out_vars), constraints, parameters
        )
        return ConvexRelation(tuple(in_vars), tuple(out_vars), graph)

    def domain(self) -> ConvexSet:
        """Projection of the graph onto the input variables."""
        return project_onto(self.graph, self.in_vars)

    def range(self) -> ConvexSet:
        """Projection of the graph onto the output variables."""
        return project_onto(self.graph, self.out_vars)

    def inverse(self) -> "ConvexRelation":
        return ConvexRelation(self.out_vars, self.in_vars, self.graph)

    def intersect_domain(self, cs: ConvexSet) -> "ConvexRelation":
        renamed = cs.rename_variables(dict(zip(cs.variables, self.in_vars)))
        graph = self.graph.with_constraints(renamed.constraints)
        return ConvexRelation(self.in_vars, self.out_vars, graph)

    def intersect_range(self, cs: ConvexSet) -> "ConvexRelation":
        renamed = cs.rename_variables(dict(zip(cs.variables, self.out_vars)))
        graph = self.graph.with_constraints(renamed.constraints)
        return ConvexRelation(self.in_vars, self.out_vars, graph)

    def is_empty(self, params: Mapping[str, int] | None = None) -> bool:
        return self.graph.is_empty(params)

    def contains_pair(
        self, src: Sequence[int], dst: Sequence[int], params: Mapping[str, int] | None = None
    ) -> bool:
        # The graph's variable order is fixed at construction; map the (src,
        # dst) coordinates by variable *name* so inverse() keeps working.
        assignment = dict(zip(self.in_vars, src))
        assignment.update(dict(zip(self.out_vars, dst)))
        point = tuple(assignment[v] for v in self.graph.variables)
        return self.graph.contains(point, params)

    def __str__(self) -> str:
        return (
            f"{{ [{', '.join(self.in_vars)}] -> [{', '.join(self.out_vars)}] : "
            f"{' and '.join(str(c) for c in self.graph.constraints) or 'true'} }}"
        )


@dataclass(frozen=True)
class UnionRelation:
    """A finite union of :class:`ConvexRelation` pieces over the same spaces."""

    in_vars: Tuple[str, ...]
    out_vars: Tuple[str, ...]
    pieces: Tuple[ConvexRelation, ...] = ()

    @staticmethod
    def empty(in_vars: Sequence[str], out_vars: Sequence[str]) -> "UnionRelation":
        return UnionRelation(tuple(in_vars), tuple(out_vars), ())

    @staticmethod
    def from_pieces(pieces: Sequence[ConvexRelation]) -> "UnionRelation":
        if not pieces:
            raise ValueError("use UnionRelation.empty for an empty relation")
        first = pieces[0]
        for p in pieces:
            if p.in_vars != first.in_vars or p.out_vars != first.out_vars:
                raise ValueError("all pieces must share the same in/out spaces")
        return UnionRelation(first.in_vars, first.out_vars, tuple(pieces))

    def union(self, other: "UnionRelation") -> "UnionRelation":
        if (self.in_vars, self.out_vars) != (other.in_vars, other.out_vars):
            raise ValueError("cannot union relations over different spaces")
        return UnionRelation(self.in_vars, self.out_vars, self.pieces + other.pieces)

    def add(self, piece: ConvexRelation) -> "UnionRelation":
        return UnionRelation(self.in_vars, self.out_vars, self.pieces + (piece,))

    def domain(self) -> UnionSet:
        members = [p.domain() for p in self.pieces]
        return UnionSet.from_members(self.in_vars, members)

    def range(self) -> UnionSet:
        members = [p.range() for p in self.pieces]
        return UnionSet.from_members(self.out_vars, members)

    def inverse(self) -> "UnionRelation":
        return UnionRelation(
            self.out_vars, self.in_vars, tuple(p.inverse() for p in self.pieces)
        )

    def intersect_domain(self, sets: UnionSet) -> "UnionRelation":
        pieces = []
        for p in self.pieces:
            for m in sets.members:
                pieces.append(p.intersect_domain(m))
        return UnionRelation(self.in_vars, self.out_vars, tuple(pieces))

    def intersect_range(self, sets: UnionSet) -> "UnionRelation":
        pieces = []
        for p in self.pieces:
            for m in sets.members:
                pieces.append(p.intersect_range(m))
        return UnionRelation(self.in_vars, self.out_vars, tuple(pieces))

    def is_empty(self, params: Mapping[str, int] | None = None) -> bool:
        return all(p.is_empty(params) for p in self.pieces)

    def contains_pair(
        self, src: Sequence[int], dst: Sequence[int], params: Mapping[str, int] | None = None
    ) -> bool:
        return any(p.contains_pair(src, dst, params) for p in self.pieces)

    def enumerate_pairs(self, params: Mapping[str, int] | None = None) -> "FiniteRelation":
        """Materialise the relation as explicit pairs (bounded graphs only)."""
        pairs: Set[Pair] = set()
        for p in self.pieces:
            graph = p.graph if params is None else p.graph.bind_parameters(params)
            from .enumerate_points import enumerate_convex

            # Map graph coordinates to (in, out) by variable name so pieces
            # whose graph stores the variables in a different order (e.g.
            # inverted relations) still enumerate correctly.
            positions = {name: k for k, name in enumerate(graph.variables)}
            in_idx = [positions[name] for name in p.in_vars]
            out_idx = [positions[name] for name in p.out_vars]
            for point in enumerate_convex(graph):
                src = tuple(point[k] for k in in_idx)
                dst = tuple(point[k] for k in out_idx)
                pairs.add((src, dst))
        return FiniteRelation(
            frozenset(pairs), dim_in=len(self.in_vars), dim_out=len(self.out_vars)
        )

    def __str__(self) -> str:
        if not self.pieces:
            return f"{{ [{', '.join(self.in_vars)}] -> [{', '.join(self.out_vars)}] : false }}"
        return " ∪ ".join(str(p) for p in self.pieces)


# ---------------------------------------------------------------------------
# finite (explicit) relations
# ---------------------------------------------------------------------------

class FiniteRelation:
    """An explicit finite relation: a set of (source, target) integer tuples.

    The relation is immutable and has **two interchangeable representations**:

    * a frozenset of ``(src_tuple, dst_tuple)`` pairs (:attr:`pairs`) — the
      set path used by the validators and the symbolic cross-checks,
    * a pair of canonical ``(n, dim)`` int64 arrays (:meth:`as_arrays`) —
      lexicographically row-sorted and duplicate-free — the form the
      partitioners run on.

    Either representation is derived lazily from the other the first time it
    is asked for and then cached: relations built with :meth:`from_arrays`
    never box their points into Python tuples unless a set-path consumer
    actually touches :attr:`pairs`, and set-built relations only materialise
    arrays when an array consumer calls :meth:`as_arrays`.  Equality, iteration
    order, hashing and every query are representation-independent.
    """

    __slots__ = ("_pairs", "_arrays", "dim_in", "dim_out")

    def __init__(
        self,
        pairs: Iterable[Pair] = frozenset(),
        dim_in: int = 0,
        dim_out: int = 0,
    ):
        self._pairs: Optional[FrozenSet[Pair]] = (
            pairs if isinstance(pairs, frozenset) else frozenset(pairs)
        )
        self._arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self.dim_in = dim_in
        self.dim_out = dim_out

    @property
    def pairs(self) -> FrozenSet[Pair]:
        """The pair set — materialised on first access for array-built relations."""
        if self._pairs is None:
            src, dst = self._arrays
            self._pairs = frozenset(
                zip(map(tuple, src.tolist()), map(tuple, dst.tolist()))
            )
        return self._pairs

    @staticmethod
    def from_pairs(pairs: Iterable[Pair]) -> "FiniteRelation":
        pair_set = frozenset((tuple(a), tuple(b)) for a, b in pairs)
        dim_in = dim_out = 0
        for a, b in pair_set:
            dim_in, dim_out = len(a), len(b)
            break
        return FiniteRelation(pair_set, dim_in, dim_out)

    @staticmethod
    def from_arrays(src: np.ndarray, dst: np.ndarray) -> "FiniteRelation":
        """Build a relation from parallel ``(n, dim_in)``/``(n, dim_out)`` arrays.

        The arrays are canonicalised (row-sorted by ``(src, dst)``,
        duplicates merged) with numpy; the tuple-pair view stays unbuilt until
        a set-path consumer asks for :attr:`pairs`.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.ndim != 2 or dst.ndim != 2 or len(src) != len(dst):
            raise ValueError("src and dst must be 2-D arrays with equal length")
        dim_in, dim_out = src.shape[1], dst.shape[1]
        if len(src) == 0:
            return FiniteRelation(frozenset(), dim_in, dim_out)
        if dim_in + dim_out == 0:
            # Rank-0 on both sides: the only possible pair is () -> ().
            return FiniteRelation(frozenset({((), ())}), 0, 0)
        combined = np.concatenate([src, dst], axis=1)
        # Canonicalise (sort rows by (src, dst), merge duplicates) on scalar
        # lexicographic keys: a scalar-key np.unique is an order of magnitude
        # faster than the void-dtype row sort of np.unique(axis=0), which
        # lex_keys only falls back to when the pair box overflows int64.
        (keys,), _ = lex_keys(combined)
        _, first = np.unique(keys, return_index=True)
        combined = combined[first]
        return FiniteRelation._from_canonical_arrays(
            np.ascontiguousarray(combined[:, :dim_in]),
            np.ascontiguousarray(combined[:, dim_in:]),
        )

    @staticmethod
    def _from_canonical_arrays(src: np.ndarray, dst: np.ndarray) -> "FiniteRelation":
        """Wrap arrays already in canonical form (row-sorted, duplicate-free)."""
        rel = FiniteRelation.__new__(FiniteRelation)
        rel._pairs = None
        rel._arrays = (readonly_view(src), readonly_view(dst))
        rel.dim_in = src.shape[1]
        rel.dim_out = dst.shape[1]
        return rel

    # -- equality / hashing (representation-independent) ----------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteRelation):
            return NotImplemented
        if self.dim_in != other.dim_in or self.dim_out != other.dim_out:
            return False
        if self._pairs is None and other._pairs is None:
            # Both array-backed: canonical form makes this a direct compare.
            a, b = self._arrays
            c, d = other._arrays
            return np.array_equal(a, c) and np.array_equal(b, d)
        return self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash((self.pairs, self.dim_in, self.dim_out))

    def __repr__(self) -> str:
        return (
            f"FiniteRelation(<{len(self)} pairs>, dim_in={self.dim_in}, "
            f"dim_out={self.dim_out})"
        )

    # -- array form -----------------------------------------------------------

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The pairs as ``(src, dst)`` int64 arrays, sorted by (src, dst).

        The arrays are computed once and cached on the instance (the relation
        is immutable); they are the entry point of the array path.
        """
        if self._arrays is None:
            pairs = sorted(self.pairs)
            src = np.array([a for a, _ in pairs], dtype=np.int64).reshape(
                len(pairs), self.dim_in
            )
            dst = np.array([b for _, b in pairs], dtype=np.int64).reshape(
                len(pairs), self.dim_out
            )
            self._arrays = (readonly_view(src), readonly_view(dst))
        return self._arrays

    # -- basic queries --------------------------------------------------------

    def __len__(self) -> int:
        if self._pairs is None:
            return len(self._arrays[0])
        return len(self._pairs)

    def __iter__(self):
        return iter(sorted(self.pairs))

    def __contains__(self, pair: Pair) -> bool:
        return (tuple(pair[0]), tuple(pair[1])) in self.pairs

    def is_empty(self) -> bool:
        return len(self) == 0

    def domain(self) -> FrozenSet[Point]:
        return frozenset(a for a, _ in self.pairs)

    def range(self) -> FrozenSet[Point]:
        return frozenset(b for _, b in self.pairs)

    def points(self) -> FrozenSet[Point]:
        """All points touched by the relation (domain ∪ range)."""
        return self.domain() | self.range()

    # -- structure ------------------------------------------------------------

    def inverse(self) -> "FiniteRelation":
        return FiniteRelation(
            frozenset((b, a) for a, b in self.pairs), self.dim_out, self.dim_in
        )

    def union(self, other: "FiniteRelation") -> "FiniteRelation":
        if other.is_empty():
            return self
        if self.is_empty():
            return other
        if (self.dim_in, self.dim_out) != (other.dim_in, other.dim_out):
            raise ValueError("cannot union relations of different dimensions")
        # Concatenate and re-canonicalise without tuple boxing.
        s1, d1 = self.as_arrays()
        s2, d2 = other.as_arrays()
        return FiniteRelation.from_arrays(
            np.concatenate([s1, s2]), np.concatenate([d1, d2])
        )

    def restrict(self, domain: Optional[Set[Point]] = None, rng: Optional[Set[Point]] = None) -> "FiniteRelation":
        """Keep only pairs whose source is in ``domain`` and target in ``rng``."""
        kept = frozenset(
            (a, b)
            for a, b in self.pairs
            if (domain is None or a in domain) and (rng is None or b in rng)
        )
        return FiniteRelation(kept, self.dim_in, self.dim_out)

    def successors(self, point: Point) -> List[Point]:
        p = tuple(point)
        return sorted(b for a, b in self.pairs if a == p)

    def predecessors(self, point: Point) -> List[Point]:
        p = tuple(point)
        return sorted(a for a, b in self.pairs if b == p)

    def successor_map(self) -> Dict[Point, List[Point]]:
        out: Dict[Point, List[Point]] = {}
        for a, b in self.pairs:
            out.setdefault(a, []).append(b)
        for v in out.values():
            v.sort()
        return out

    def predecessor_map(self) -> Dict[Point, List[Point]]:
        out: Dict[Point, List[Point]] = {}
        for a, b in self.pairs:
            out.setdefault(b, []).append(a)
        for v in out.values():
            v.sort()
        return out

    def compose(self, other: "FiniteRelation") -> "FiniteRelation":
        """Relational composition: ``(a, c)`` when ``(a, b) ∈ self`` and ``(b, c) ∈ other``."""
        succ = other.successor_map()
        pairs = set()
        for a, b in self.pairs:
            for c in succ.get(b, ()):  # pragma: no branch
                pairs.add((a, c))
        return FiniteRelation(frozenset(pairs), self.dim_in, other.dim_out)

    def transitive_closure(self) -> "FiniteRelation":
        """The transitive closure ``R⁺`` (direct and indirect dependences)."""
        succ = self.successor_map()
        closure: Set[Pair] = set()
        for start in succ:
            # BFS from each source node.
            stack = list(succ.get(start, ()))
            visited: Set[Point] = set()
            while stack:
                node = stack.pop()
                if node in visited:
                    continue
                visited.add(node)
                closure.add((start, node))
                stack.extend(succ.get(node, ()))
        return FiniteRelation(frozenset(closure), self.dim_in, self.dim_out)

    # -- order-related views ----------------------------------------------------

    def lexicographically_forward(self) -> "FiniteRelation":
        """Keep only pairs with ``source ≺ target`` (the R_succ part of eq. 4)."""
        return FiniteRelation(
            frozenset((a, b) for a, b in self.pairs if lex_lt(a, b)),
            self.dim_in,
            self.dim_out,
        )

    def lexicographically_backward(self) -> "FiniteRelation":
        """Keep only pairs with ``target ≺ source`` (the R_pred part of eq. 4)."""
        return FiniteRelation(
            frozenset((a, b) for a, b in self.pairs if lex_lt(b, a)),
            self.dim_in,
            self.dim_out,
        )

    def oriented_forward(self) -> "FiniteRelation":
        """Re-orient every pair so the source lexicographically precedes the target.

        Self-pairs (``a == b``) are dropped: a dependence of an iteration on
        itself does not constrain the parallel schedule.  Key order equals
        lexicographic order (:func:`lex_keys`), so the comparison and the
        swap are a handful of vectorised operations and the result stays
        array-backed.
        """
        if self.dim_in != self.dim_out:
            raise ValueError("oriented_forward requires dim_in == dim_out")
        src, dst = self.as_arrays()
        (src_keys, dst_keys), _ = lex_keys(src, dst)
        keep = src_keys != dst_keys
        swap = (src_keys > dst_keys)[:, None]
        return FiniteRelation.from_arrays(
            np.where(swap, dst, src)[keep], np.where(swap, src, dst)[keep]
        )

    def distances(self) -> Set[Point]:
        """The set of distance vectors ``target - source``."""
        if self._pairs is None and self.dim_in == self.dim_out and self.dim_in > 0:
            src, dst = self._arrays
            return set(map(tuple, np.unique(dst - src, axis=0).tolist()))
        return {tuple(y - x for x, y in zip(a, b)) for a, b in self.pairs}

    def __str__(self) -> str:
        items = ", ".join(f"{a}->{b}" for a, b in sorted(self.pairs))
        return f"{{ {items} }}"
