"""Numerical criteria for realizing an anti-nef cycle by a function.

Two independent sufficient tests. The realization criterion asks
(D + E_i + K).E_l + 2*delta_il <= 0 for every i, l; when it holds, D is
the exceptional valuation vector of a function on the singularity. The
Laufer criterion asks D.E_i + 2 K.E_i <= 0 for every i. Neither implies
the other.

Both are evaluated exactly; results carry the full value table so a
failed check shows where and by how much.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .cone import Divisor
from .graph import ResolutionGraph, canonical_intersections

__all__ = [
    "CriterionResult",
    "realization_criterion",
    "laufer_criterion",
]


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of one criterion run.

    ``values`` maps an index tuple to the integer left-hand side: pairs
    (i, l) for the realization criterion, singletons (i,) for Laufer.
    ``violating_pairs`` are the keys with a positive value. 0-based.
    """

    satisfied: bool
    violating_pairs: tuple[tuple[int, ...], ...]
    values: dict[tuple[int, ...], int]


def _value_table(g: ResolutionGraph, D: Divisor, keys, value) -> CriterionResult:
    """Evaluate ``value(M, MD, k, *key)`` for every key, where MD = M.D and
    k is the canonical vector; the keys with a positive value violate."""
    if D.n != g.n:
        raise ValueError(f"divisor has {D.n} coefficients, graph has {g.n} vertices")
    if not D.is_effective() or D.is_zero():
        raise ValueError("divisor must be effective and nonzero")
    M = g.intersection_matrix()
    MD = M.mulvec(D.coeffs)
    k = canonical_intersections(g)
    values = {key: value(M, MD, k, *key) for key in keys}
    violating = tuple(key for key, v in values.items() if v > 0)
    return CriterionResult(satisfied=not violating, violating_pairs=violating, values=values)


def realization_criterion(g: ResolutionGraph, D: Divisor) -> CriterionResult:
    """value(i, l) = (M.D)[l] + M[i][l] + k[l] + 2*delta_il, all must be <= 0."""
    return _value_table(
        g, D, product(range(g.n), repeat=2),
        lambda M, MD, k, i, l: MD[l] + M[i][l] + k[l] + (2 if i == l else 0),
    )


def laufer_criterion(g: ResolutionGraph, D: Divisor) -> CriterionResult:
    """value(i) = (M.D)[i] + 2*k[i], all must be <= 0."""
    return _value_table(
        g, D, ((i,) for i in range(g.n)), lambda M, MD, k, i: MD[i] + 2 * k[i]
    )

