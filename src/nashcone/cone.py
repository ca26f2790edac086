"""Exact divisor arithmetic on the exceptional lattice.

All decisions here are sign decisions on exact integers; boundary cases
(a pairing that is exactly zero) are meaningful, so no floating point is
allowed anywhere in this module. The inverse of the intersection matrix
enters only through its integer form, -M^-1 = adj(-M) / det(-M), and that
comes from the one fraction-free factor of -M that the matrix keeps
(graph.NegFactor, the same factor validation reads definiteness from):
neg_adjugate continues it by one back-substitution to all of adj(-M)."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .graph import IntersectionMatrix, ResolutionGraph

__all__ = [
    "Divisor",
    "ConeStatus",
    "pair",
    "lipman_status",
    "fundamental_cycle",
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
    """(adj(-M), det(-M)) by one back-substitution from M's factor.

    From -M = U^T D^-1 U, X = adj(-M) solves U X = d D U^-T, whose upper
    triangle is diagonal with entries d p_(i-1). Row i of X, from the
    diagonal on, is therefore
    X[i][j] = (d p_(i-1) [i = j] - sum_(l>i) U[i][l] X[l][j]) / p_i,
    which needs rows l > i only at columns >= i + 1, known by symmetry
    once each row is done. The sum runs over the nonzero U[i][l] only, so
    a chain costs O(n^2) and a dense matrix O(n^3). A matrix that is not
    negative definite is refused with ValueError.
    """
    F = M.neg_factor()
    if F is None:
        raise ValueError("intersection matrix is not negative definite")
    minors, upper = F.minors, F.upper
    n = len(upper)
    d = minors[-1]
    X = [[0] * n for _ in range(n)]
    for i in reversed(range(n)):
        p = minors[i + 1]
        row = X[i]
        diag = d * minors[i]
        if upper[i]:
            for j in range(i + 1, n):
                acc = 0
                for l, u in upper[i]:
                    acc += u * X[l][j]
                row[j] = X[j][i] = -acc // p
            for l, u in upper[i]:
                diag -= u * row[l]
        row[i] = diag // p
    return tuple(map(tuple, X)), d


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
    """Classify D against the anti-nef cone by the signs of M.D; the zero
    divisor, whose M.D is zero, is not in the cone."""
    if D.n != M.n:
        raise ValueError("dimension mismatch")
    top = max(M.mulvec(D.coeffs))
    if top < 0:
        return ConeStatus.STRICT_LIPMAN
    if top == 0 and any(D.coeffs):
        return ConeStatus.LIPMAN_BOUNDARY
    return ConeStatus.NOT_IN_CONE


def fundamental_cycle(g: ResolutionGraph) -> Divisor:
    """Smallest nonzero anti-nef cycle, by Laufer's computation sequence:
    start at the reduced cycle and add the lowest component E_i that still
    pairs positively. Adding E_i lowers Z.E_i by -M_ii >= 1, so it may be
    added k = ceil(Z.E_i / -M_ii) times in a row, each addition a legal
    step; the k steps are taken at once, so a coefficient that needs a
    long run of additions to one component costs one pass, not one per
    unit. Terminates because the form is negative definite; on any other
    form it need not stop, so a matrix that is not negative definite is
    refused with ValueError. The result is independent of the tie-break
    (property-tested).
    """
    M = g.intersection_matrix()
    if M.neg_factor() is None:
        raise ValueError("intersection matrix is not negative definite")
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

