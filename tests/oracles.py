"""Brute-force reference implementations used only by the tests.

Everything here is deliberately independent of the library's decision
procedures: box search with interval propagation for witness existence,
naive quadratic-form scans for definiteness, a reorderable variant of the
one-step fundamental-cycle sequence, and the rational-arithmetic route to
-M^-1 and to the condition (*) witnesses that the integer kernel replaced,
with the denominator clearing it used.
The one exception is the brute-force enumerator that orbit marking
replaced, kept verbatim: it uses the library's graph type, connectivity
test and leading-minor elimination.
"""

from fractions import Fraction
from itertools import permutations, product
from math import lcm


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


def _apply_perm_mult(mult, sigma, n: int) -> tuple[int, ...]:
    return tuple(mult[sigma[i]][sigma[j]] for i in range(n) for j in range(i + 1, n))


def enumerate_graphs_brute(max_vertices: int, min_weight: int, max_genus: int, max_mult: int = 1):
    """The enumerator that orbit marking replaced: every edge encoding is
    tested for connectivity and then against all n! relabelings, and every
    weight tuple by a full leading-minor elimination."""
    from nashcone.graph import ResolutionGraph, _leading_minors_negdef, is_connected

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
