"""Affine expressions over named integer variables.

An :class:`AffineExpr` is ``sum_k c_k * v_k + c0`` with exact rational
coefficients.  It is the common currency between the loop-nest IR
(:mod:`repro.ir`), the constraint layer (:mod:`repro.isl.convex`), and the
code generators: loop bounds, array subscripts and dependence constraints are
all affine expressions.

Variables are plain strings; expressions are immutable and hashable so they
can be used as dictionary keys and deduplicated in constraint systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["AffineExpr", "AffineKernel", "var", "const"]

Coeff = Union[int, Fraction]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


@dataclass(frozen=True)
class AffineExpr:
    """An immutable affine expression ``sum(coeffs[v] * v) + constant``."""

    coeffs: Tuple[Tuple[str, Fraction], ...] = ()
    constant: Fraction = Fraction(0)

    # -- construction -------------------------------------------------------

    @staticmethod
    def build(coeffs: Mapping[str, Coeff] | None = None, constant: Coeff = 0) -> "AffineExpr":
        """Build an expression from a coefficient mapping, dropping zeros."""
        items = []
        if coeffs:
            for name, c in coeffs.items():
                f = _frac(c)
                if f != 0:
                    items.append((name, f))
        items.sort(key=lambda kv: kv[0])
        return AffineExpr(tuple(items), _frac(constant))

    @staticmethod
    def variable(name: str) -> "AffineExpr":
        return AffineExpr.build({name: 1})

    @staticmethod
    def constant_expr(value: Coeff) -> "AffineExpr":
        return AffineExpr.build({}, value)

    @staticmethod
    def from_any(value) -> "AffineExpr":
        """Coerce ints, Fractions, strings (variable names) and exprs."""
        if isinstance(value, AffineExpr):
            return value
        if isinstance(value, str):
            return AffineExpr.variable(value)
        if isinstance(value, (int, Fraction)):
            return AffineExpr.constant_expr(value)
        raise TypeError(f"cannot build AffineExpr from {value!r}")

    # -- accessors ----------------------------------------------------------

    @property
    def coeff_map(self) -> Dict[str, Fraction]:
        return dict(self.coeffs)

    def coeff(self, name: str) -> Fraction:
        """Coefficient of ``name`` (0 if the variable does not occur)."""
        for n, c in self.coeffs:
            if n == name:
                return c
        return Fraction(0)

    @property
    def variables(self) -> Tuple[str, ...]:
        return tuple(n for n, _ in self.coeffs)

    def is_constant(self) -> bool:
        return not self.coeffs

    def is_integral(self) -> bool:
        """True when every coefficient and the constant are integers."""
        return self.constant.denominator == 1 and all(
            c.denominator == 1 for _, c in self.coeffs
        )

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "AffineExpr":
        other = AffineExpr.from_any(other)
        coeffs = self.coeff_map
        for n, c in other.coeffs:
            coeffs[n] = coeffs.get(n, Fraction(0)) + c
        return AffineExpr.build(coeffs, self.constant + other.constant)

    def __radd__(self, other) -> "AffineExpr":
        return self.__add__(other)

    def __neg__(self) -> "AffineExpr":
        return AffineExpr.build({n: -c for n, c in self.coeffs}, -self.constant)

    def __sub__(self, other) -> "AffineExpr":
        return self + (-AffineExpr.from_any(other))

    def __rsub__(self, other) -> "AffineExpr":
        return AffineExpr.from_any(other) + (-self)

    def __mul__(self, scalar: Coeff) -> "AffineExpr":
        f = _frac(scalar)
        return AffineExpr.build({n: c * f for n, c in self.coeffs}, self.constant * f)

    def __rmul__(self, scalar: Coeff) -> "AffineExpr":
        return self.__mul__(scalar)

    def scaled_to_integer(self) -> "AffineExpr":
        """Multiply by the LCM of the denominators so all coefficients are ints."""
        from math import gcd

        denominators = [self.constant.denominator] + [c.denominator for _, c in self.coeffs]
        lcm = 1
        for d in denominators:
            lcm = lcm // gcd(lcm, d) * d
        return self * lcm

    # -- evaluation / substitution -------------------------------------------

    def evaluate(self, assignment: Mapping[str, Coeff]) -> Fraction:
        """Evaluate under a complete assignment of the occurring variables."""
        total = self.constant
        for n, c in self.coeffs:
            if n not in assignment:
                raise KeyError(f"no value for variable {n!r}")
            total += c * _frac(assignment[n])
        return total

    def substitute(self, mapping: Mapping[str, Union["AffineExpr", Coeff, str]]) -> "AffineExpr":
        """Substitute variables by expressions (or constants/variable names)."""
        result = AffineExpr.constant_expr(self.constant)
        for n, c in self.coeffs:
            if n in mapping:
                result = result + AffineExpr.from_any(mapping[n]) * c
            else:
                result = result + AffineExpr.build({n: c})
        return result

    def rename(self, mapping: Mapping[str, str]) -> "AffineExpr":
        """Rename variables."""
        return AffineExpr.build(
            {mapping.get(n, n): c for n, c in self.coeffs}, self.constant
        )

    def drop(self, names: Iterable[str]) -> "AffineExpr":
        """Remove the given variables (as if their coefficient were zero)."""
        names = set(names)
        return AffineExpr.build(
            {n: c for n, c in self.coeffs if n not in names}, self.constant
        )

    # -- misc ----------------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for n, c in self.coeffs:
            if c == 1:
                parts.append(f"+{n}")
            elif c == -1:
                parts.append(f"-{n}")
            else:
                parts.append(f"{'+' if c > 0 else '-'}{abs(c)}*{n}")
        if self.constant != 0 or not parts:
            parts.append(f"{'+' if self.constant >= 0 else '-'}{abs(self.constant)}")
        s = "".join(parts)
        return s[1:] if s.startswith("+") else s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AffineExpr({self})"


#: Every int64 value and partial sum of :meth:`AffineKernel.apply` stays
#: below this, so the matrix product cannot wrap.
_KERNEL_BOUND = 1 << 62


@dataclass(frozen=True, eq=False)
class AffineKernel:
    """A tuple of affine expressions lowered to int64: ``x -> (x·numer + offset) / denom``.

    ``numer`` has one row per variable (in the order given to :meth:`build`)
    and one column per expression; ``denom`` is the common denominator of
    every coefficient and constant.  :meth:`apply` evaluates a block of
    points as one matrix product; it proves per block that no value can
    overflow int64 and declines (returns ``None``) when the proof fails or a
    value is not an integer, so callers fall back to exact
    :meth:`AffineExpr.evaluate` for that block.  :meth:`numerators` is the
    same product before the division, for callers that treat a non-integral
    value as an answer rather than a reason to decline.
    """

    numer: np.ndarray
    offset: np.ndarray
    denom: int
    col_bound: int  # largest column abs-sum of numer
    offset_bound: int  # largest |offset|

    @staticmethod
    def build(
        exprs: Sequence[AffineExpr], variables: Sequence[str]
    ) -> Optional["AffineKernel"]:
        """The kernel of ``exprs`` over ``variables``, or ``None`` when an
        expression uses another symbol or a scaled entry reaches 2**62."""
        pos = {name: k for k, name in enumerate(variables)}
        if any(n not in pos for e in exprs for n, _ in e.coeffs):
            return None
        matrix = [[Fraction(0)] * len(exprs) for _ in variables]
        for col, e in enumerate(exprs):
            for n, c in e.coeffs:
                matrix[pos[n]][col] = c
        return AffineKernel.from_matrix(matrix, [e.constant for e in exprs])

    @staticmethod
    def from_matrix(
        matrix: Sequence[Sequence[Coeff]], offset: Sequence[Coeff]
    ) -> Optional["AffineKernel"]:
        """The kernel of the row-vector map ``x -> x·matrix + offset``.

        ``matrix`` has one row per input coordinate and one column per
        output; entries may be rational.  ``None`` when a scaled entry
        reaches 2**62.
        """
        matrix = [[_frac(x) for x in row] for row in matrix]
        offset = [_frac(x) for x in offset]
        denom = lcm(1, *(x.denominator for row in matrix for x in row),
                    *(x.denominator for x in offset))
        numer = [[int(x * denom) for x in row] for row in matrix]
        scaled = [int(x * denom) for x in offset]
        col_bound = max(
            (sum(abs(row[c]) for row in numer) for c in range(len(offset))), default=0
        )
        offset_bound = max(map(abs, scaled), default=0)
        if max(col_bound, offset_bound) >= _KERNEL_BOUND:
            return None
        numer_arr = np.array(numer, dtype=np.int64).reshape(len(numer), len(offset))
        offset_arr = np.array(scaled, dtype=np.int64)
        numer_arr.flags.writeable = offset_arr.flags.writeable = False
        return AffineKernel(numer_arr, offset_arr, denom, col_bound, offset_bound)

    def numerators(self, points: np.ndarray) -> Optional[np.ndarray]:
        """``points·numer + offset`` as ``(n, len(exprs))`` int64 (the values
        times ``denom``), or ``None`` when ``max|row| · col_bound +
        offset_bound`` reaches 2**62."""
        reach = max(int(points.max()), -int(points.min())) if points.size else 0
        if reach * self.col_bound + self.offset_bound >= _KERNEL_BOUND:
            return None
        return points @ self.numer + self.offset

    def apply(self, points: np.ndarray) -> Optional[np.ndarray]:
        """The ``(n, len(exprs))`` int64 values at the rows of ``points``, or
        ``None`` when :meth:`numerators` declines or some value is not an
        integer."""
        values = self.numerators(points)
        if values is None or self.denom == 1:
            return values
        if (values % self.denom).any():
            return None
        return values // self.denom


def var(name: str) -> AffineExpr:
    """Shortcut: the affine expression consisting of a single variable."""
    return AffineExpr.variable(name)


def const(value: Coeff) -> AffineExpr:
    """Shortcut: a constant affine expression."""
    return AffineExpr.constant_expr(value)
