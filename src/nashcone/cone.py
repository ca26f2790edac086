"""Exact divisor arithmetic on the exceptional lattice.

All decisions here are sign decisions on exact integers; boundary cases
(a pairing that is exactly zero) are meaningful, so no floating point is
allowed anywhere in this module. The inverse of the intersection matrix
enters only through its integer form: adj(-M) and det(-M) from one
fraction-free elimination, so that -M^-1 = adj(-M) / det(-M).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .graph import IntersectionMatrix, ResolutionGraph

__all__ = [
    "Divisor",
    "ConeStatus",
    "pair",
    "neg_adjugate",
    "neg_inverse",
    "lipman_status",
    "fundamental_cycle",
    "strict_interior_divisor",
]


@dataclass(frozen=True)
class Divisor:
    """Integer cycle supported on the exceptional components."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("divisor needs at least one coefficient")

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i]

    def __iter__(self):
        return iter(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __add__(self, other: "Divisor") -> "Divisor":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return Divisor(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __rmul__(self, k: int) -> "Divisor":
        return Divisor(tuple(k * a for a in self.coeffs))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def is_effective(self) -> bool:
        return all(a >= 0 for a in self.coeffs)


class ConeStatus(enum.Enum):
    """Position of a divisor relative to the anti-nef (Lipman) cone."""

    NOT_IN_CONE = "not_in_cone"
    LIPMAN_BOUNDARY = "lipman_boundary"
    STRICT_LIPMAN = "strict_lipman"


def pair(d1: Divisor, d2: Divisor, M: IntersectionMatrix) -> int:
    """Intersection pairing d1 . d2, the bilinear extension of E_i . E_j."""
    if d1.n != M.n or d2.n != M.n:
        raise ValueError("dimension mismatch")
    Md2 = M.mulvec(d2.coeffs)
    return sum(d1[i] * Md2[i] for i in range(M.n))


def neg_adjugate(M: IntersectionMatrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(adj(-M), det(-M)) by one fraction-free Gauss-Jordan pass.

    Bareiss elimination (Math. Comp. 22, 1968) on [-M | I]: after step k the
    pivot is the (k+1)-st leading principal minor of -M and every division is
    exact, so all entries stay integers, and the pass ends at
    [det(-M) I | adj(-M)]. On a negative-definite M every pivot is positive
    and no row exchange is needed; a pivot <= 0 means M is not negative
    definite, and the matrix is refused.
    """
    n = M.n
    a = [[-x for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(M.entries)]
    prev = 1
    for k in range(n):
        pivot_row = a[k]
        p = pivot_row[k]
        if p <= 0:
            raise ValueError("intersection matrix is not negative definite")
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = p
    return tuple(tuple(row[n:]) for row in a), prev


def neg_inverse(M: IntersectionMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """-M^-1 = adj(-M) / det(-M) as rows of exact rationals.

    Column k is the rational divisor pairing to -1 with E_k and 0 with the
    others; on a connected negative-definite graph every entry is positive
    and the columns generate the closed anti-nef cone. Decisions use the
    integer form from neg_adjugate instead.
    """
    A, d = neg_adjugate(M)
    return tuple(tuple(Fraction(x, d) for x in row) for row in A)


def lipman_status(D: Divisor, M: IntersectionMatrix) -> ConeStatus:
    """Classify D against the anti-nef cone by the signs of M.D."""
    if D.n != M.n:
        raise ValueError("dimension mismatch")
    if D.is_zero():
        return ConeStatus.NOT_IN_CONE
    s = M.mulvec(D.coeffs)
    if all(x < 0 for x in s):
        return ConeStatus.STRICT_LIPMAN
    if all(x <= 0 for x in s):
        return ConeStatus.LIPMAN_BOUNDARY
    return ConeStatus.NOT_IN_CONE


def fundamental_cycle(g: ResolutionGraph) -> Divisor:
    """Smallest nonzero anti-nef cycle, by Laufer's computation sequence:
    start at the reduced cycle and add the lowest component E_i that still
    pairs positively. Adding E_i lowers Z.E_i by -M_ii >= 1, so it may be
    added k = ceil(Z.E_i / -M_ii) times in a row, each addition a legal
    step; the k steps are taken at once, so a coefficient that needs a
    long run of additions to one component costs one pass, not one per
    unit. Terminates because the form is negative definite; the result is
    independent of the tie-break (property-tested).
    """
    M = g.intersection_matrix()
    z = [1] * g.n
    s = list(M.mulvec(z))
    while True:
        bad = next((i for i in range(g.n) if s[i] > 0), None)
        if bad is None:
            return Divisor(tuple(z))
        k = -(s[bad] // M[bad][bad])  # ceil(s / -M_ii), as M_ii < 0 < s
        z[bad] += k
        for l in range(g.n):
            s[l] += k * M[l][bad]


def strict_interior_divisor(g: ResolutionGraph) -> Divisor:
    """An integer divisor in the strict interior of the anti-nef cone.

    With A = adj(-M) and d = det(-M), the row sums s = A.(1,...,1) satisfy
    M.s = -d.(1,...,1). Dividing s by c = gcd(d, s_1, ..., s_n) clears the
    denominators of (-M^-1).(1,...,1) = s/d and gives D with
    M.D = -(d/c).(1,...,1), so every pairing is strictly negative.
    """
    A, d = neg_adjugate(g.intersection_matrix())
    s = [sum(row) for row in A]
    c = gcd(d, *s)
    return Divisor(tuple(x // c for x in s))
