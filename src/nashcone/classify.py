"""Top-level classification and example machinery.

Pulls the pieces together: rationality decided two ways (Artin's
fundamental-cycle genus test, and the structural tree/genus/weight
characterization), a three-state bijectivity verdict for the Nash map,
constructors for the named graph families used in tests and docs, and an
exhaustive small-graph enumerator with isomorphism rejection. The
enumerator marks the orbit of each least edge encoding in a byte table,
so it relabels once per structure class, and it grows weight tuples
vertex by vertex, cutting a prefix whose leading minor already rules out
negative definiteness. Its table is capped at ENCODING_TABLE_CAP bytes,
which limits the bounds it accepts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import permutations, product

from .cone import ConeStatus, Divisor, fundamental_cycle, lipman_status, pair
from .conditions import StarCertificate, StarStarReport, check_star, check_star_star
from .errors import InternalInvariantError
from .graph import (
    MAX_VERTICES,
    _build_graph,
    IntersectionMatrix,
    ResolutionGraph,
    ValidationReport,
    canonical_intersections,
    is_connected,
    validate,
)

__all__ = [
    "NashVerdict",
    "StructuralReport",
    "ClassificationReport",
    "arithmetic_genus",
    "is_rational_artin",
    "structural_rationality",
    "nash_verdict",
    "an_witness_divisors",
    "make_family",
    "enumerate_graphs",
]


class NashVerdict(enum.Enum):
    """What the sufficient conditions allow us to conclude.

    The conditions are one-directional: when both fail the honest answer
    is Inconclusive, never "not bijective".
    """

    BIJECTIVE_BY_STAR_STAR = "BijectiveByStarStar"
    BIJECTIVE_BY_STAR = "BijectiveByStar"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class StructuralReport:
    """Tree / genus-0 / weight-vs-valency characterization of rationality.

    gamma_i is the number of edge-ends at vertex i, i.e. the sum of the
    off-diagonal intersection numbers in row i; iii_holds means
    |weights[i]| > gamma_i everywhere, which is the same inequality as
    condition (**) rearranged.
    """

    tree: bool
    all_genus_zero: bool
    iii_holds: bool
    verdict: bool


@dataclass(frozen=True)
class ClassificationReport:
    graph: ResolutionGraph
    validation: ValidationReport
    star_star: StarStarReport
    star: StarCertificate
    fundamental_cycle: Divisor
    pa_fundamental: int
    artin_rational: bool
    structural: StructuralReport
    nash_verdict: NashVerdict
    notes: tuple[str, ...]


def arithmetic_genus(g: ResolutionGraph, D: Divisor) -> int:
    """p_a(D) = 1 + (D.D + K.D)/2, exact.

    Adjunction makes D.D + K.D even for every integral cycle; a failed
    parity check means corrupted inputs, not a domain condition.
    """
    if D.n != g.n:
        raise ValueError(f"divisor has {D.n} coefficients, graph has {g.n} vertices")
    if D.is_zero():
        raise ValueError("arithmetic genus of the zero divisor is undefined here")
    M = g.intersection_matrix()
    k = canonical_intersections(g)
    total = pair(D, D, M) + sum(D[i] * k[i] for i in range(g.n))
    if total % 2 != 0:
        raise InternalInvariantError(f"D.D + K.D = {total} is odd; adjunction parity broken")
    return 1 + total // 2


def is_rational_artin(g: ResolutionGraph) -> bool:
    """Artin's test: the fundamental cycle has arithmetic genus zero."""
    return arithmetic_genus(g, fundamental_cycle(g)) == 0


def structural_rationality(g: ResolutionGraph) -> StructuralReport:
    """Check tree shape, vanishing genera, and |E_i^2| > gamma(E_i)."""
    n = g.n
    edges = g.edges()
    simple = all(m == 1 for _, _, m in edges)
    tree = is_connected(g.mult) and simple and len(edges) == n - 1
    all_genus_zero = all(gi == 0 for gi in g.genera)
    iii = all(-g.weights[i] > sum(g.mult[i]) for i in range(n))
    return StructuralReport(
        tree=tree,
        all_genus_zero=all_genus_zero,
        iii_holds=iii,
        verdict=tree and all_genus_zero and iii,
    )


_GENUS_NOTE = "component smoothness is inferred from arithmetic genus zero in the structural check"
_INCONCLUSIVE_NOTE = (
    "condition (*) fails; the criteria here are sufficient only and make no claim either way"
)


def nash_verdict(g: ResolutionGraph) -> ClassificationReport:
    """Full report for one graph.

    Raises ValueError when the graph is disconnected or the intersection
    matrix is not negative definite; a non-minimal graph only produces a
    warning note and the analysis proceeds.
    """
    report = validate(g)
    report.require_analyzable()

    star_star = check_star_star(g)
    star = check_star(g)
    Z = fundamental_cycle(g)
    pa = arithmetic_genus(g, Z)
    structural = structural_rationality(g)

    if star_star.holds:
        verdict = NashVerdict.BIJECTIVE_BY_STAR_STAR
    elif star.holds:
        verdict = NashVerdict.BIJECTIVE_BY_STAR
    else:
        verdict = NashVerdict.INCONCLUSIVE

    notes = list(report.warnings)
    if structural.all_genus_zero:
        notes.append(_GENUS_NOTE)
    if verdict is NashVerdict.INCONCLUSIVE:
        notes.append(_INCONCLUSIVE_NOTE)

    return ClassificationReport(
        graph=g,
        validation=report,
        star_star=star_star,
        star=star,
        fundamental_cycle=Z,
        pa_fundamental=pa,
        artin_rational=pa == 0,
        structural=structural,
        nash_verdict=verdict,
        notes=tuple(notes),
    )


def an_witness_divisors(n: int) -> tuple[Divisor, Divisor]:
    """The classical pair of strict anti-nef divisors on the A_n chain.

    alpha_k = n*k - k*(k-1)/2 gives one divisor; its reversal gives the
    other. Together their coefficient orderings cover every fundamental
    half-space. Both are re-verified strict before being returned.
    """
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


def make_family(kind: str, *params: int) -> ResolutionGraph:
    """Construct a named example graph.

    Kinds: "an" (chain of n (-2)-curves, n >= 1), "dn" (the chain with a
    fork at one end, n >= 4), "star3" (three arms of weight -n on a -2
    center, n >= 5), "vertex" (single vertex, params genus >= 0 and
    weight <= -1), "cycle" (m genus-0 vertices in a cycle of weight w,
    m >= 3 and w <= -3 so the cycle stays negative definite). The
    families an, dn and cycle take at most MAX_VERTICES vertices, the cap
    on graph files.
    """
    arity = {"an": 1, "dn": 1, "star3": 1, "vertex": 2, "cycle": 2}
    if kind not in arity:
        raise ValueError(f"unknown family kind: {kind!r}")
    if len(params) != arity[kind]:
        raise ValueError(f"family {kind!r} takes {arity[kind]} parameter(s), got {len(params)}")
    if kind in ("an", "dn", "cycle") and params[0] > MAX_VERTICES:
        raise ValueError(f"{kind}: vertex count {params[0]} exceeds the cap of {MAX_VERTICES}")
    genera = None
    if kind == "an":
        (n,) = params
        if n < 1:
            raise ValueError("an: n must be >= 1")
        weights, edges = [-2] * n, [(i, i + 1) for i in range(1, n)]
    elif kind == "dn":
        (n,) = params
        if n < 4:
            raise ValueError("dn: n must be >= 4")
        # the chain E1..E(n-1), with E(n) forked onto E(n-2)
        weights, edges = [-2] * n, [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
    elif kind == "star3":
        (n,) = params
        if n < 5:
            raise ValueError("star3: n must be >= 5")
        weights, edges = [-n, -n, -n, -2], [(1, 4), (2, 4), (3, 4)]
    elif kind == "vertex":
        genus, weight = params  # ResolutionGraph checks their ranges
        weights, genera, edges = [weight], [genus], []
    else:  # cycle
        m, weight = params
        if m < 3:
            raise ValueError("cycle: length must be >= 3")
        if weight > -3:
            raise ValueError("cycle: weight must be <= -3")
        weights, edges = [weight] * m, [(i, i + 1) for i in range(1, m)] + [(1, m)]
    data = {
        "vertices": len(weights),
        "weights": weights,
        "genera": genera or [0] * len(weights),
        "edges": [[i, j, 1] for i, j in edges],
    }
    return _build_graph(data, {})


# Largest orbit-marking table, in bytes, that enumerate_graphs will allocate.
ENCODING_TABLE_CAP = 1 << 24


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


def _structures(n: int, base: int):
    """Yield (mult, aut) for each connected structure class on n vertices
    with multiplicities below ``base``: mult is the least edge encoding of
    its class, in increasing order, and aut the relabelings that fix it."""
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


def _negdef_weights(mult, weight_range: range):
    """Weight tuples over weight_range, in product order, that make the
    matrix with off-diagonal ``mult`` negative definite.

    A depth-first search over prefixes: every leading principal submatrix
    of a negative-definite matrix is negative definite, so a prefix whose
    leading minor has the wrong sign is cut with all its extensions. The
    minors come from fraction-free (Bareiss) elimination extended by one
    column per vertex; the matrix is symmetric, so only column k is new.
    With w_k set to 0 that column gives beta, and the k-th minor is
    D_k(w) = D_{k-1} * w + beta by expansion along row k. The sign test
    (-1)^(k+1) * D_k(w) > 0 fails from some w on, so the scan stops there.
    """
    n = len(mult)
    weights = [0] * n
    urows = []  # urows[c][t]: row t of column c after t elimination steps
    minors = [1]  # minors[k] is D_{k-1}, the leading k x k minor

    def extend(k: int):
        if k == n:
            yield tuple(weights)
            return
        col = [mult[i][k] for i in range(k)] + [0]
        prev = 1
        for t in range(k):
            p, ct = minors[t + 1], col[t]
            for i in range(t + 1, k):
                col[i] = (p * col[i] - urows[i][t] * ct) // prev
            col[k] = (p * col[k] - ct * ct) // prev
            prev = p
        urows.append(col)
        sign = -1 if k % 2 == 0 else 1
        for w in weight_range:
            minor = prev * w + col[k]
            if sign * minor <= 0:
                break
            weights[k] = w
            minors.append(minor)
            yield from extend(k + 1)
            minors.pop()
        urows.pop()

    return extend(0)


def enumerate_graphs(max_vertices: int, min_weight: int, max_genus: int, max_mult: int = 1):
    """Yield every connected negative-definite graph within the bounds,
    one representative per isomorphism class, in a deterministic order.

    Bounds: vertex count 1..max_vertices, weights min_weight..-1, genera
    0..max_genus, edge multiplicities 0..max_mult. Vertices are
    interchangeable, so a class representative is the lexicographically
    least (structure, weights, genera) triple under relabeling; weights
    are reduced by the structure's automorphisms, genera by the
    stabilizer of the chosen weights. Output runs by vertex count, then
    structure, weights and genera, each in increasing product order.

    Structures are found by orbit marking (the orderly idea of Read 1978):
    edge encodings are walked in increasing order over a byte table, and
    the first unmarked one is the least of its orbit, since every smaller
    encoding has been visited and its whole orbit marked. So the n!
    relabelings run once per structure class, not once per encoding, and
    the ones that fix the encoding are its automorphisms. Weights come
    from a depth-first search that cuts a prefix as soon as a leading
    minor shows the matrix cannot be negative definite.

    The table has (max_mult + 1) ** (n(n-1)/2) bytes at n vertices. Bounds
    whose largest table exceeds ENCODING_TABLE_CAP (16 MiB) raise
    ValueError before anything is yielded: every n >= 8, n = 7 with
    max_mult >= 2, n = 6 with max_mult >= 3, n = 5 with max_mult >= 5,
    and fewer vertices only with max_mult >= 16. Seven vertices with
    simple edges take seconds.
    """
    if max_vertices < 1:
        raise ValueError("max_vertices must be >= 1")
    if min_weight > -1:
        raise ValueError("min_weight must be <= -1")
    if max_genus < 0:
        raise ValueError("max_genus must be >= 0")
    if max_mult < 1:
        raise ValueError("max_mult must be >= 1")
    base = max_mult + 1
    pairs = max_vertices * (max_vertices - 1) // 2
    # base >= 2, so a long exponent alone settles it, before any huge power
    if pairs >= ENCODING_TABLE_CAP.bit_length() or base ** pairs > ENCODING_TABLE_CAP:
        raise ValueError(
            f"{max_vertices} vertices with edge multiplicities up to {max_mult} exceed the "
            f"enumeration table cap of {ENCODING_TABLE_CAP} bytes"
        )

    weight_range = range(min_weight, 0)
    genus_range = range(max_genus + 1)

    for n in range(1, max_vertices + 1):
        for mult, aut in _structures(n, base):
            for weights in _negdef_weights(mult, weight_range):
                if any(tuple(weights[s[i]] for i in range(n)) < weights for s in aut):
                    continue
                stab = [s for s in aut if tuple(weights[s[i]] for i in range(n)) == weights]
                for genera in product(genus_range, repeat=n):
                    if any(tuple(genera[s[i]] for i in range(n)) < genera for s in stab):
                        continue
                    yield ResolutionGraph(weights=weights, genera=genera, mult=mult)
