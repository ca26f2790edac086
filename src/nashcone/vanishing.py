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
from itertools import chain, compress, product
from operator import add

from .cone import Divisor
from .graph import ResolutionGraph, _problems, _refuse, canonical_intersections

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
    ``violating_pairs`` are the keys with a positive value. 0-based; both
    are in key order, which is sorted order.
    """

    satisfied: bool
    violating_pairs: tuple[tuple[int, ...], ...]
    values: dict[tuple[int, ...], int]


def _pairings(g: ResolutionGraph, D: Divisor):
    """M, M.D and the canonical vector k, for an effective nonzero D on g;
    a graph that validate calls unanalyzable is refused (graph._refuse)."""
    M = g.intersection_matrix()
    _refuse(_problems(M))
    if D.n != g.n:
        raise ValueError(f"divisor has {D.n} coefficients, graph has {g.n} vertices")
    if not D.is_effective() or D.is_zero():
        raise ValueError("divisor must be effective and nonzero")
    return M, M.mulvec(D.coeffs), canonical_intersections(g)


def _result(values: dict[tuple[int, ...], int]) -> CriterionResult:
    """The result of a value table; the keys with a positive value violate."""
    violating = tuple(compress(values, map((0).__lt__, values.values())))
    return CriterionResult(satisfied=not violating, violating_pairs=violating, values=values)


def realization_criterion(g: ResolutionGraph, D: Divisor) -> CriterionResult:
    """value(i, l) = (M.D)[l] + M[i][l] + k[l] + 2*delta_il, all must be <= 0.
    Row i of the table is M.D + k + M[i], plus 2 at position i."""
    M, MD, k = _pairings(g, D)
    base = list(map(add, MD, k))
    rows = []
    for i in range(g.n):
        row = list(map(add, base, M[i]))
        row[i] += 2
        rows.append(row)
    return _result(dict(zip(product(range(g.n), repeat=2), chain.from_iterable(rows))))


def laufer_criterion(g: ResolutionGraph, D: Divisor) -> CriterionResult:
    """value(i) = (M.D)[i] + 2*k[i], all must be <= 0."""
    _, MD, k = _pairings(g, D)
    return _result(dict(zip(zip(range(g.n)), map(add, MD, map(add, k, k)))))
