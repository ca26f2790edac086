"""Brute-force reference implementations used only by the tests.

Everything here is deliberately independent of the library's decision
procedures: box search with interval propagation for witness existence,
the set of half-spaces a list of divisors covers,
naive quadratic-form scans for definiteness, a reorderable variant of the
one-step fundamental-cycle sequence, and the rational-arithmetic route to
-M^-1 and to the condition (*) witnesses that the integer kernel replaced,
with the denominator clearing it used, and the dense row-by-row
product M.v with the cone test read off its signs.
The old two-pass integer kernel that the fraction-free factor replaced
is kept verbatim as a differential oracle: the leading-minor elimination
that validation ran, the Bareiss Gauss-Jordan pass that gave adj(-M) and
det(-M), and the (*) witness synthesis that read the whole adjugate.
The exceptions to the independence are kept verbatim too: that witness
synthesis uses the library's divisor type and cone test, and the
brute-force enumerator that orbit marking replaced uses the library's
graph type and connectivity test, with the leading-minor elimination
kept here, and the orbit-marking walk over every edge encoding, which
growth from negative-definite structures replaced, uses that
connectivity test.

Three references left the package because no command reads them; each
checks code that stayed, through the library's types: the classical
pair of chain divisors on A_n (an_witness_divisors), against check_star
and the half-space coverage; the row-sum divisor of adj(-M)
(strict_interior_divisor), against neg_adjugate and the Gauss-Jordan
adjugate; and the closed-form least realizing multiple
(min_realizing_multiple, refusing a divisor that is not strictly
anti-nef with NoMultiplierGuarantee), against iterating
realization_criterion.
"""

from fractions import Fraction
from itertools import permutations, product
from math import gcd, lcm


def ceil_div(a: int, b: int) -> int:
    if b < 0:
        a, b = -a, -b
    return -((-a) // b)


def find_strict_witness(M, i, j, bound):
    """Search [1,bound]^n for integer D with M.D <= -1 rowwise and D[i] < D[j].

    Interval propagation to a fixpoint, then branch on the tightest
    undecided coordinate. Complete within the box: returns a verified
    witness tuple, or None when the box contains none.
    """
    n = M.n

    def propagate(lo, hi):
        changed = True
        while changed:
            changed = False
            if lo[j] < lo[i] + 1:
                lo[j] = lo[i] + 1
                changed = True
            if hi[i] > hi[j] - 1:
                hi[i] = hi[j] - 1
                changed = True
            for l in range(n):
                row = M[l]
                mins = [row[k] * (lo[k] if row[k] > 0 else hi[k]) for k in range(n)]
                total = sum(mins)
                if total > -1:
                    return False
                for k in range(n):
                    c = row[k]
                    if c == 0:
                        continue
                    limit = -1 - (total - mins[k])
                    if c > 0:
                        b = limit // c
                        if b < hi[k]:
                            hi[k] = b
                            changed = True
                    else:
                        b = ceil_div(limit, c)
                        if b > lo[k]:
                            lo[k] = b
                            changed = True
            if any(lo[k] > hi[k] for k in range(n)):
                return False
        return True

    def search(lo, hi):
        if not propagate(lo, hi):
            return None
        free = [k for k in range(n) if lo[k] < hi[k]]
        if not free:
            D = tuple(lo)
            if all(x <= -1 for x in M.mulvec(D)) and D[i] < D[j]:
                return D
            return None
        k = min(free, key=lambda k: hi[k] - lo[k])
        for v in range(lo[k], hi[k] + 1):
            nlo, nhi = list(lo), list(hi)
            nlo[k] = nhi[k] = v
            got = search(nlo, nhi)
            if got is not None:
                return got
        return None

    return search([1] * n, [bound] * n)


def naive_find_witness(M, i, j, bound):
    """Same question as find_strict_witness by full product scan. n <= 3 only."""
    for D in product(range(1, bound + 1), repeat=M.n):
        if D[i] < D[j] and all(x <= -1 for x in M.mulvec(D)):
            return D
    return None


def halfspace_coverage(divisors) -> set[tuple[int, int]]:
    """Ordered pairs (i, j) with some listed divisor satisfying D[i] < D[j]."""
    divisors = list(divisors)
    if not divisors:
        return set()
    n = divisors[0].n
    if any(d.n != n for d in divisors):
        raise ValueError("dimension mismatch")
    return {
        (i, j)
        for d in divisors
        for i in range(n)
        for j in range(n)
        if i != j and d[i] < d[j]
    }


def negdef_brute(M, box=5):
    """x^T M x < 0 for every nonzero integer x with entries in [-box, box]."""
    n = M.n
    for x in product(range(-box, box + 1), repeat=n):
        if all(v == 0 for v in x):
            continue
        q = sum(M[a][b] * x[a] * x[b] for a in range(n) for b in range(n))
        if q >= 0:
            return False
    return True


def laufer_with_order(M, order):
    """Fundamental-cycle sequence with an arbitrary tie-break priority, one
    addition per step; with order range(n) it is the sequence that
    cone.fundamental_cycle batches."""
    n = M.n
    Z = [1] * n
    s = list(M.mulvec(Z))
    while True:
        bad = next((idx for idx in order if s[idx] > 0), None)
        if bad is None:
            return tuple(Z)
        Z[bad] += 1
        for l in range(n):
            s[l] += M[l][bad]


def all_orders_fundamental_cycles(M):
    """Set of cycles the sequence can reach under every tie-break order."""
    return {laufer_with_order(M, order) for order in permutations(range(M.n))}


def graphs_isomorphic(g1, g2) -> bool:
    """Exact isomorphism test by permutation search; fine for n <= 5."""
    if g1.n != g2.n:
        return False
    n = g1.n
    for sigma in permutations(range(n)):
        if any(g1.weights[sigma[i]] != g2.weights[i] for i in range(n)):
            continue
        if any(g1.genera[sigma[i]] != g2.genera[i] for i in range(n)):
            continue
        if all(
            g1.mult[sigma[i]][sigma[j]] == g2.mult[i][j]
            for i in range(n)
            for j in range(n)
        ):
            return True
    return False


def clear_denominators(v) -> tuple[int, ...]:
    """Scale a rational vector by the lcm of its denominators."""
    fracs = [Fraction(x) for x in v]
    m = lcm(*(x.denominator for x in fracs))
    return tuple(int(x * m) for x in fracs)


def neg_inverse_fraction(M):
    """-M^-1 by Gauss-Jordan elimination over Fraction, with row exchanges."""
    n = M.n
    a = [
        [Fraction(M[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular intersection matrix")
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(-a[i][n + j] for j in range(n)) for i in range(n))


def star_witnesses_fraction(C):
    """Condition (*) witness per ordered pair from C = -M^-1, by halving eps.

    For (i, j) takes the first column k with C[i][k] < C[j][k], adds eps
    times the interior vector C.(1,...,1), halving eps from 1 until
    coefficient i stays below coefficient j, and clears denominators by
    their lcm. Maps each pair to its witness tuple, or to None when no
    column qualifies. Not re-verified.
    """
    n = len(C)
    interior = [sum(row) for row in C]
    out = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            k = next((k for k in range(n) if C[i][k] < C[j][k]), None)
            if k is None:
                out[(i, j)] = None
                continue
            eps = Fraction(1)
            while True:
                v = [C[r][k] + eps * interior[r] for r in range(n)]
                if v[i] < v[j]:
                    break
                eps /= 2
            m = lcm(*(x.denominator for x in v))
            out[(i, j)] = tuple(int(x * m) for x in v)
    return out


def _leading_minors_negdef(rows: list[list[int]]) -> bool:
    """Sylvester test via fraction-free (Bareiss) elimination.

    The pivot after step k is the (k+1)-st leading principal minor, so the
    signs can be checked as elimination proceeds; a zero pivot is itself a
    failed minor, which lets us stop without pivoting.
    """
    n = len(rows)
    a = [row[:] for row in rows]
    prev = 1
    sign = 1
    for k in range(n):
        pivot = a[k][k]
        if sign * pivot >= 0:  # need (-1)^(k+1) * minor > 0
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (pivot * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = pivot
        sign = -sign
    return True


def neg_adjugate_gauss_jordan(M) -> tuple[tuple[tuple[int, ...], ...], int]:
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


def leading_minors_fraction(M) -> list[Fraction]:
    """The leading principal minors of -M, as the running products of the
    pivots of Fraction elimination without row exchanges. That needs every
    leading minor to be nonzero, as it is for a negative-definite M; a zero
    pivot raises ValueError."""
    n = M.n
    a = [[Fraction(-x) for x in row] for row in M.entries]
    minors = []
    det = Fraction(1)
    for col in range(n):
        p = a[col][col]
        if p == 0:
            raise ValueError("zero leading minor")
        det *= p
        minors.append(det)
        for r in range(col + 1, n):
            f = a[r][col] / p
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return minors


class AdjugateWitnessOracle:
    """adj(-M), det(-M) and the row sums of adj(-M), for one matrix, with the
    verified witness of each class (k, t) built so far: the (*) witness
    synthesis over the whole Gauss-Jordan adjugate."""

    def __init__(self, M):
        self.M = M
        self.A, self.d = neg_adjugate_gauss_jordan(M)
        self.s = [sum(row) for row in self.A]
        self.witnesses = {}

    def witness(self, i: int, j: int):
        """Integer witness for the ordered pair (i, j), or None if none exists.

        Takes the first generator column k with A[i][k] < A[j][k] (A is
        symmetric, so column k is row k) and adds 2^-t times the interior
        ray s, with t the least exponent that keeps coefficient i below
        coefficient j. Scaled by 2^t this is w = 2^t A[:,k] + s; divided by
        gcd(2^t d, w) it is C[:,k] + 2^-t C.(1,...,1) with its denominators
        cleared. Pairs of one class (k, t) share this divisor: it is built
        and checked strictly anti-nef on the first pair of its class, and
        w[i] < w[j] is checked for every pair.
        """
        from nashcone.cone import ConeStatus, Divisor, lipman_status
        from nashcone.errors import InternalInvariantError

        A, s = self.A, self.s
        k = next((k for k, (x, y) in enumerate(zip(A[i], A[j])) if x < y), None)
        if k is None:
            return None
        gap = A[j][k] - A[i][k]
        # least t >= 0 with gap * 2^t > s[i] - s[j]: with q the floor of
        # (s[i] - s[j]) / gap, clamped at 0, that is the least t with 2^t > q
        t = (max(s[i] - s[j], 0) // gap).bit_length()
        witness = self.witnesses.get((k, t))
        if witness is None:
            w = [(x << t) + y for x, y in zip(A[k], s)]
            c = gcd(self.d << t, *w)
            witness = Divisor(tuple(x // c for x in w))
            if lipman_status(witness, self.M) is not ConeStatus.STRICT_LIPMAN:
                raise InternalInvariantError(
                    f"synthesized witness {witness.coeffs} failed re-verification for pair ({i}, {j})"
                )
            self.witnesses[(k, t)] = witness
        if not witness[i] < witness[j]:
            raise InternalInvariantError(
                f"synthesized witness {witness.coeffs} failed re-verification for pair ({i}, {j})"
            )
        return witness


def _apply_perm_mult(mult, sigma, n: int) -> tuple[int, ...]:
    return tuple(mult[sigma[i]][sigma[j]] for i in range(n) for j in range(i + 1, n))


def enumerate_graphs_brute(max_vertices: int, min_weight: int, max_genus: int, max_mult: int = 1):
    """The enumerator that orbit marking replaced: every edge encoding is
    tested for connectivity and then against all n! relabelings, and every
    weight tuple by a full leading-minor elimination."""
    from nashcone.graph import ResolutionGraph, is_connected

    if max_vertices < 1:
        raise ValueError("max_vertices must be >= 1")
    if min_weight > -1:
        raise ValueError("min_weight must be <= -1")
    if max_genus < 0:
        raise ValueError("max_genus must be >= 0")
    if max_mult < 1:
        raise ValueError("max_mult must be >= 1")

    weight_range = range(min_weight, 0)
    genus_range = range(max_genus + 1)

    for n in range(1, max_vertices + 1):
        npairs = n * (n - 1) // 2
        perms = list(permutations(range(n)))
        for enc in product(range(max_mult + 1), repeat=npairs):
            mult = [[0] * n for _ in range(n)]
            pos = 0
            for i in range(n):
                for j in range(i + 1, n):
                    mult[i][j] = mult[j][i] = enc[pos]
                    pos += 1
            mult_t = tuple(map(tuple, mult))
            if not is_connected(mult_t):
                continue
            if any(_apply_perm_mult(mult_t, s, n) < enc for s in perms):
                continue  # not the canonical labeling of its class
            aut = [s for s in perms if _apply_perm_mult(mult_t, s, n) == enc]
            for weights in product(weight_range, repeat=n):
                if any(tuple(weights[s[i]] for i in range(n)) < weights for s in aut):
                    continue
                rows = [
                    [weights[i] if i == j else mult[i][j] for j in range(n)]
                    for i in range(n)
                ]
                if not _leading_minors_negdef(rows):
                    continue
                stab = [s for s in aut if tuple(weights[s[i]] for i in range(n)) == weights]
                for genera in product(genus_range, repeat=n):
                    if any(tuple(genera[s[i]] for i in range(n)) < genera for s in stab):
                        continue
                    yield ResolutionGraph(weights=weights, genera=genera, mult=mult_t)


def _encoding_columns(n: int, base: int) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Relabelings of n vertices and, per upper-triangle position k, the place
    value that position k takes in each relabeled encoding.

    An encoding lists mult[i][j] for i < j in row order and is read as a
    base-``base`` number, first position most significant, so numeric order
    is product order. Relabeling by s moves the entry of pair {s[i], s[j]}
    to the position of (i, j), hence the image of enc under s has index
    sum(enc[k] * cols[k][index of s]).
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pos = {p: k for k, p in enumerate(pairs)}
    place = [base ** (len(pairs) - 1 - k) for k in range(len(pairs))]
    perms = list(permutations(range(n)))
    cols = [[0] * len(perms) for _ in pairs]
    for c, s in enumerate(perms):
        for k, (i, j) in enumerate(pairs):
            cols[pos[min(s[i], s[j]), max(s[i], s[j])]][c] = place[k]
    return perms, [tuple(col) for col in cols]


def structures_by_orbit_marking(n: int, base: int):
    """Yield (mult, aut) for each connected structure class on n vertices
    with multiplicities below ``base``: mult is the least edge encoding of
    its class, in increasing order, and aut the relabelings that fix it.

    Every encoding is walked in increasing order over a byte table; the
    first unmarked one is the least of its orbit, whose n! images are then
    marked, connected or not."""
    from nashcone.graph import is_connected

    npairs = n * (n - 1) // 2
    perms, cols = _encoding_columns(n, base)
    zero = (0,) * len(perms)
    seen = bytearray(base ** npairs)
    idx = 0
    while idx != -1:
        enc, rest = [0] * npairs, idx
        for k in reversed(range(npairs)):
            rest, enc[k] = divmod(rest, base)
        images = list(map(sum, zip(zero, *(cols[k] for k, m in enumerate(enc) for _ in range(m)))))
        for image in images:
            seen[image] = 1
        mult = [[0] * n for _ in range(n)]
        pos = 0
        for i in range(n):
            for j in range(i + 1, n):
                mult[i][j] = mult[j][i] = enc[pos]
                pos += 1
        mult_t = tuple(map(tuple, mult))
        if is_connected(mult_t):
            yield mult_t, [s for s, image in zip(perms, images) if image == idx]
        idx = seen.find(0, idx + 1)


def an_witness_divisors(n: int):
    """The classical pair of strict anti-nef divisors on the A_n chain.

    alpha_k = n*k - k*(k-1)/2 gives one divisor; its reversal gives the
    other. Together their coefficient orderings cover every fundamental
    half-space. Both are re-verified strict before being returned.
    """
    from nashcone.classify import make_family
    from nashcone.cone import ConeStatus, Divisor, lipman_status
    from nashcone.errors import InternalInvariantError

    if n < 1:
        raise ValueError("chain length must be at least 1")
    alphas = tuple(n * k - k * (k - 1) // 2 for k in range(1, n + 1))
    d1 = Divisor(alphas)
    d2 = Divisor(alphas[::-1])
    M = make_family("an", n).intersection_matrix()
    for d in (d1, d2):
        if lipman_status(d, M) is not ConeStatus.STRICT_LIPMAN:
            raise InternalInvariantError(f"chain divisor {d.coeffs} is not strictly anti-nef")
    return d1, d2


def strict_interior_divisor(g):
    """An integer divisor in the strict interior of the anti-nef cone.

    With A = adj(-M) and d = det(-M), the row sums s = A.(1,...,1) satisfy
    M.s = -d.(1,...,1). Dividing s by c = gcd(d, s_1, ..., s_n) clears the
    denominators of (-M^-1).(1,...,1) = s/d and gives D with
    M.D = -(d/c).(1,...,1), so every pairing is strictly negative.
    """
    from nashcone.cone import Divisor, neg_adjugate

    A, d = neg_adjugate(g.intersection_matrix())
    s = [sum(row) for row in A]
    c = gcd(d, *s)
    return Divisor(tuple(x // c for x in s))


class NoMultiplierGuarantee(ValueError):
    """Raised when a multiplier is requested for a divisor that is not
    strictly anti-nef; no multiple of such a divisor need ever satisfy the
    realization criterion, so the search is refused rather than looped."""


def min_realizing_multiple(g, D) -> int:
    """Least m >= 1 such that m*D passes the realization criterion.

    Requires D strictly anti-nef: then (M.(mD))[l] drops without bound as
    m grows while the other terms stay fixed, so some multiple works and
    the minimum has the closed form below. A divisor with D.E_l = 0 for
    some l gives no such guarantee, hence the dedicated error.
    """
    from nashcone.cone import ConeStatus, lipman_status
    from nashcone.graph import canonical_intersections

    if D.n != g.n:
        raise ValueError(f"divisor has {D.n} coefficients, graph has {g.n} vertices")
    if not D.is_effective() or D.is_zero():
        raise ValueError("divisor must be effective and nonzero")
    M = g.intersection_matrix()
    if lipman_status(D, M) is not ConeStatus.STRICT_LIPMAN:
        raise NoMultiplierGuarantee(
            "divisor is not strictly anti-nef; no multiple need satisfy the criterion"
        )
    MD = M.mulvec(D.coeffs)
    k = canonical_intersections(g)
    best = 1
    for i in range(g.n):
        for l in range(g.n):
            num = M[i][l] + k[l] + (2 if i == l else 0)
            den = -MD[l]  # > 0 by strictness
            # ceil(num / den) via floor division
            m = -((-num) // den)
            if m > best:
                best = m
    return best


def mulvec_dense(entries, v) -> tuple[int, ...]:
    """M.v row by row over every entry of M, zeros included: the product
    that IntersectionMatrix.mulvec computes from the diagonal and the edge
    list."""
    if len(v) != len(entries):
        raise ValueError("dimension mismatch")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in entries)


def lipman_status_dense(entries, coeffs) -> str:
    """The cone status value of the divisor ``coeffs``, by the definition:
    not in the cone if it is zero, else strict if every pairing
    (M.D)[i] < 0, on the boundary if every pairing is <= 0."""
    if all(c == 0 for c in coeffs):
        return "not_in_cone"
    s = mulvec_dense(entries, coeffs)
    if all(x < 0 for x in s):
        return "strict_lipman"
    if all(x <= 0 for x in s):
        return "lipman_boundary"
    return "not_in_cone"
