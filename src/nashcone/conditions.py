"""The two intersection-matrix conditions behind the bijectivity criterion.

Condition (**): the reduced cycle pairs strictly negatively with every
component. Condition (*): every fundamental half-space {a_i < a_j} meets
the strict interior of the anti-nef cone. Both depend only on the
intersection matrix, and (**) on the row sums E.E_i that it keeps.

Decision procedure for (*): the closed anti-nef cone is the non-negative
span of the columns of C = -M^-1 = A/d, with A = adj(-M) and d = det(-M) > 0.
Both come from the one fraction-free factor of -M that the matrix keeps
(validation built it). The all-pairs sweep continues it by one
back-substitution to all of A; a single pair (i, j) solves against it for
rows i and j of A and for the one witness vector it prints, each in
O(n + fill) steps (cone._adjugate_times: graph._bareiss, the forward
elimination that built the factor, then a back pass over its rows). The
adjugate is symmetric, so column k is row k. The pair (i, j) admits a
witness exactly when some column has A[i][k] < A[j][k]. The witness is
read off in integers: with
s = A.(1,...,1) (a strictly anti-nef ray) and the least t >= 0 such that
2^t (A[j][k] - A[i][k]) > s[i] - s[j], the vector w = 2^t A[:,k] + s is
strictly anti-nef with w[i] < w[j], and the witness is
w / gcd(2^t d, w_1, ..., w_n). The witness depends on (k, t) alone, so
all pairs of one class (k, t) share one divisor: it is built and its strict
anti-nefness re-verified once per class, and the ordering w[i] < w[j] is
re-checked for every pair before the witness is returned. check_star decides
the pairs one row i at a time, reading A[i] and s[i] once for the row;
star_witness decides its pair by the same code, with s[i] and s[j] the
sums of the solved rows and w solved as A.(2^t e_k + 1). The
generator fact itself is cross-checked against a brute-force box search in
the test suite rather than assumed.

A failing pair is certified too. The pair (i, j) fails when r = A[i] - A[j]
>= 0 entrywise. If also M.A[i] = -d e_i and M.A[j] = -d e_j with d > 0, then
r.(-M) = d (e_i - e_j), and for any anti-nef a, with b = -M.a >= 0,
d (a_i - a_j) = r.b >= 0: no anti-nef divisor has a_i < a_j (Farkas). Before
a failing pair is returned, each row of A it reads is checked against M,
once per row and call, in O(n + edges); a row that fails the check raises
InternalInvariantError instead of a negative answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, count, repeat
from math import gcd
from operator import add, lshift, lt

from .cone import ConeStatus, Divisor, _adjugate_times, lipman_status, neg_adjugate
from .errors import InternalInvariantError
from .graph import IntersectionMatrix, ResolutionGraph, _problems, _refuse

__all__ = [
    "StarStarReport",
    "StarCertificate",
    "check_star_star",
    "check_star",
    "star_witness",
]


@dataclass(frozen=True)
class StarStarReport:
    """Condition (**): E . E_i < 0 for every component. 0-based indices."""

    holds: bool
    violations: tuple[int, ...]


@dataclass(frozen=True)
class StarCertificate:
    """Condition (*), with an explicit witness divisor per ordered pair.

    ``witnesses[(i, j)]`` is a strictly anti-nef integer divisor with
    strictly smaller coefficient at i than at j; it exists for every
    ordered pair exactly when the condition holds. ``failing_pairs`` lists
    the pairs whose half-space misses the entire cone. 0-based indices.
    check_star fills both in lexicographic pair order, i ascending, then j
    ascending, and the reports keep it.
    """

    holds: bool
    witnesses: dict[tuple[int, int], Divisor]
    failing_pairs: tuple[tuple[int, int], ...]


def check_star_star(g: ResolutionGraph) -> StarStarReport:
    """Report the components E_i with E.E_i >= 0, read from the row sums
    M.(1,...,1) that the intersection matrix computed when it was built.
    A graph that validate calls unanalyzable is refused (graph._refuse)."""
    M = g.intersection_matrix()
    _refuse(_problems(M))
    violations = tuple([i for i, x in enumerate(M._row_sums) if x >= 0])
    return StarStarReport(holds=not violations, violations=violations)


class _Adjugate:
    """adj(-M), det(-M) and the row sums of adj(-M) for one matrix, with the
    verified witness of each class (k, t) built so far."""

    def __init__(self, M: IntersectionMatrix):
        _refuse(_problems(M))  # (*) is stated for one analyzable graph
        self.M = M
        self.A, self.d = neg_adjugate(M)
        self.s = tuple(map(sum, self.A))
        self.witnesses: dict[tuple[int, int], Divisor] = {}

    def ray(self, k: int, t: int):
        """w = 2^t A[:,k] + s, the witness of class (k, t) before its gcd
        with 2^t d is divided out."""
        return list(map(add, map(lshift, self.A[k], repeat(t)), self.s))

    def decide(self, i: int, js, witnesses: dict, failing: list) -> None:
        """Decide the ordered pairs (i, j) for j in ``js``, in that order:
        store the integer witness of a pair in ``witnesses``, or append a
        pair that has none to ``failing``.

        Takes the first generator column k with A[i][k] < A[j][k] (A is
        symmetric, so rows i and j are the columns A.e_i and A.e_j) and
        adds 2^-t times the interior ray s, with t the least exponent that
        keeps coefficient i below coefficient j. Scaled by 2^t this is w = 2^t A[:,k] + s; divided by
        gcd(2^t d, w) it is C[:,k] + 2^-t C.(1,...,1) with its denominators
        cleared. Pairs of one class (k, t) share this divisor: it is built
        and checked strictly anti-nef on the first pair of its class, and
        w[i] < w[j] is checked for every pair. Row i and s[i] are read once
        for all of ``js``.
        """
        A, s, classes = self.A, self.s, self.witnesses
        Ai, si = A[i], s[i]
        for j in js:
            Aj = A[j]
            k = next(compress(count(), map(lt, Ai, Aj)), None)  # first k with Ai[k] < Aj[k]
            if k is None:
                failing.append((i, j))
                continue
            # least t >= 0 with gap * 2^t > s[i] - s[j]: with q the floor of
            # (s[i] - s[j]) / gap, clamped at 0, that is the least t with 2^t > q
            q = si - s[j]
            t = (q // (Aj[k] - Ai[k])).bit_length() if q > 0 else 0
            witness = classes.get((k, t))
            if witness is None:
                w = self.ray(k, t)
                c = gcd(self.d << t, *w)
                witness = Divisor(tuple(w) if c == 1 else tuple([x // c for x in w]))
                if lipman_status(witness, self.M) is not ConeStatus.STRICT_LIPMAN:
                    raise _unverified(witness, k, t, i, j)
                classes[(k, t)] = witness
            coeffs = witness.coeffs
            if not coeffs[i] < coeffs[j]:
                raise _unverified(witness, k, t, i, j)
            witnesses[(i, j)] = witness

    def certify(self, rows) -> None:
        """Check M.A[r] = -d e_r, with d > 0, for each row r in ``rows``: the
        identity that proves a pair (i, j) with A[i] >= A[j] entrywise fails."""
        M, A, d = self.M, self.A, self.d
        for r in rows:
            v = M.mulvec(A[r])
            if not (d > 0 and v[r] == -d and v.count(0) == len(v) - 1):
                raise InternalInvariantError(f"row {r} of adj(-M) failed re-verification against M")


class _Rows(_Adjugate):
    """The rows ``rows`` of adj(-M) and their sums, each row solved as
    A.e_r against M's kept factor, in place of all of A: decide and
    certify read no other row, and ray solves for its vector."""

    def __init__(self, M: IntersectionMatrix, rows):
        _refuse(_problems(M))
        F = M.neg_factor()
        self.M, self.d = M, F.minors[-1]
        self.times = partial(_adjugate_times, F)
        self.A = {r: self.times([0] * r + [1] + [0] * (M.n - r - 1)) for r in rows}
        self.s = {r: sum(row) for r, row in self.A.items()}
        self.witnesses: dict[tuple[int, int], Divisor] = {}

    def ray(self, k: int, t: int):
        """w = A.(2^t e_k + 1), which is 2^t A[:,k] + s."""
        b = [1] * self.M.n
        b[k] += 1 << t
        return self.times(b)


def _unverified(witness: Divisor, k: int, t: int, i: int, j: int) -> InternalInvariantError:
    """The error for a witness of class (k, t) that failed for the pair (i, j),
    sized in bits: it is raised before cli._write lifts the cap on int text."""
    return InternalInvariantError(f"synthesized witness of class (k, t) = ({k}, {t}), of up to "
                                  f"{max(map(int.bit_length, witness.coeffs))} bits, "
                                  f"failed re-verification for pair ({i}, {j})")


def check_star(g: ResolutionGraph) -> StarCertificate:
    """Decide condition (*) and collect one verified witness per pair; the
    rows of adj(-M) that the failing pairs read are each checked once.

    A single vertex has no ordered pairs, so the condition holds vacuously.
    """
    adj = _Adjugate(g.intersection_matrix())
    witnesses: dict[tuple[int, int], Divisor] = {}
    failing: list[tuple[int, int]] = []
    for i in range(g.n):
        adj.decide(i, chain(range(i), range(i + 1, g.n)), witnesses, failing)
    adj.certify(sorted(set(chain.from_iterable(failing))))
    return StarCertificate(
        holds=not failing,
        witnesses=witnesses,
        failing_pairs=tuple(failing),
    )


def star_witness(g: ResolutionGraph, i: int, j: int) -> Divisor | None:
    """Witness for one ordered pair (0-based), or None if the pair fails,
    decided and checked as check_star decides and checks it, from rows i
    and j of adj(-M) alone (_Rows)."""
    if i == j:
        raise ValueError("witness pair needs two distinct vertices")
    if not (0 <= i < g.n and 0 <= j < g.n):
        raise ValueError("vertex index out of range")
    rows = _Rows(g.intersection_matrix(), (i, j))
    found: dict[tuple[int, int], Divisor] = {}
    rows.decide(i, (j,), found, [])
    w = found.get((i, j))
    if w is None:
        rows.certify((i, j))
    return w
