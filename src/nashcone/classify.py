"""Top-level classification and example machinery.

Pulls the pieces together: rationality decided two ways (Artin's
fundamental-cycle genus test, and the structural tree/genus/weight
characterization), a three-state bijectivity verdict for the Nash map,
constructors for the named graph families used in tests and docs, and an
exhaustive small-graph enumerator with isomorphism rejection. The
enumerator grows structures vertex by vertex and keeps only those whose
matrix is negative definite with every weight at the lower bound, the
only ones that carry a negative-definite weighting. It marks the orbit of
each class it keeps in a byte table, so it relabels once per kept class,
and it grows weight tuples vertex by vertex, cutting a prefix as soon as
a pivot of -M is not positive; both tests run graph._bareiss, the
elimination that validation runs. A structure's automorphisms other than
the identity become itemgetter moves once, and the same moves test its
weight tuples and their genus tuples. Its table is capped at
ENCODING_TABLE_CAP bytes, which limits the bounds it accepts.

Conditions (**) and (*), with the verified (*) witnesses, the
fundamental cycle Z and Z.Z depend on the intersection matrix alone, and
so do the tree and (iii) flags of the structural check, read from the
connectivity, edges and row sums E.E_i that the matrix computes once, as
(**) and Laufer's sequence read those row sums; genera enter only the
canonical pairing K.Z, p_a, minimality, the genus flag and the notes.
The enumerator builds the first graph of each weight tuple with every
check, and each further genus variant from it: nothing is checked, as
_genus_tuples makes only n-tuples of ints in 0..max_genus, and the variant
shares the first graph's weights, mult and matrix object. nash_verdict
reads one record kept on the matrix, and validates after it, once per
matrix and genus key; so an ``enumerate`` run checks a whole graph, tests
connectivity and computes the matrix-only results once per distinct
intersection matrix. Per graph there remain the key, the genus part of
p_a and the report. The ``enumerate`` command keeps its line template on
the matrix as well (see cli._enum_line), so per graph it writes only the
genera and p_a and looks up the texts of the rest.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import compress, permutations, product
from operator import getitem, itemgetter, mul

from .cone import Divisor, fundamental_cycle, pair
from .conditions import StarCertificate, StarStarReport, check_star, check_star_star
from .errors import InternalInvariantError
from .graph import (
    MAX_VERTICES,
    _bareiss,
    _build_graph,
    _genus_variant,
    _kept,
    _neg_factor,
    _nonminimal,
    _problems,
    _quote,
    _refuse,
    IntersectionMatrix,
    ResolutionGraph,
    ValidationReport,
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
    |weights[i]| > gamma_i everywhere. As E.E_i = weights[i] + gamma_i,
    that is condition (**), read from the row sums the matrix keeps.
    """

    tree: bool
    all_genus_zero: bool
    iii_holds: bool
    verdict: bool


@dataclass(frozen=True)
class ClassificationReport:
    """Everything nash_verdict concludes about one graph.

    ``star_star``, ``star`` and ``fundamental_cycle`` depend on the
    intersection matrix alone and are kept on it, so reports of graphs that
    share one matrix object (the genus variants enumerate_graphs yields for
    one weight tuple, or one graph analyzed twice) share the same
    StarCertificate, its ``witnesses`` dict and the fundamental-cycle
    Divisor: mutating the dict of one report changes the others. Reports
    of graphs that share a matrix and have equal genus keys (see
    nash_verdict) also share their ValidationReport, StructuralReport and
    ``notes`` objects; ``structural.iii_holds`` always equals
    ``star_star.holds``, as (iii) is (**). The ``enumerate`` command keeps
    on the matrix the JSON text of the three matrix fields, of ``graph``
    split around its genera, and of ``validation`` and the fields after
    ``pa_fundamental`` for each set of their values, so it renders each of
    them once per matrix; every value in them still comes from this report.
    """

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
    """p_a(D) = 1 + (D.D + K.D)/2, exact."""
    if D.n != g.n:
        raise ValueError(f"divisor has {D.n} coefficients, graph has {g.n} vertices")
    if D.is_zero():
        raise ValueError("arithmetic genus of the zero divisor is undefined here")
    return _genus(g, D, _genus_free(D, g.intersection_matrix()))


def _genus_free(D: Divisor, M: IntersectionMatrix) -> int:
    """D.D + sum D_i (-2 - w_i): the part of D.D + K.D that depends on the
    matrix alone. By adjunction K.E_i = 2 g_i - 2 - w_i, so the genera add
    2 sum D_i g_i to it (_genus)."""
    return pair(D, D, M) - 2 * sum(D.coeffs) - sum(map(mul, D.coeffs, M._diag))


def _genus(g: ResolutionGraph, D: Divisor, free: int) -> int:
    """p_a(D) from ``free``, the part of D.D + K.D that _genus_free reads
    from the matrix, and the genera of g. Adjunction makes D.D + K.D even
    for every integral cycle; a failed parity check means corrupted inputs,
    not a domain condition."""
    total = free + 2 * sum(map(mul, D.coeffs, g.genera))
    if total % 2 != 0:
        raise InternalInvariantError(f"D.D + K.D of {total.bit_length()} bits is odd; adjunction broken")
    return 1 + total // 2


def is_rational_artin(g: ResolutionGraph) -> bool:
    """Artin's test: the fundamental cycle has arithmetic genus zero."""
    return arithmetic_genus(g, fundamental_cycle(g)) == 0


def structural_rationality(g: ResolutionGraph) -> StructuralReport:
    """Check tree shape, vanishing genera, and |E_i^2| > gamma(E_i).

    A graph that validate calls unanalyzable is refused (graph._refuse), so
    the graph is connected. A connected graph on n vertices has at least
    n - 1 edges, each of multiplicity >= 1, so it is a tree with simple
    edges exactly when its multiplicities over pairs add up to n - 1: the
    tree flag reads the edge list the intersection matrix computed when it
    was built. (iii) is condition (**), since E.E_i = E_i^2 + gamma(E_i),
    and is read from the row sums the matrix kept then. Only the genus flag
    reads the genera.
    """
    M = g.intersection_matrix()
    _refuse(_problems(M))
    tree = sum([m for _, _, m in M._edges]) == g.n - 1
    all_genus_zero = not any(g.genera)
    iii = max(M._row_sums) < 0
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

    Raises ValueError, in validate's words, when the graph is not
    analyzable (check_star_star, which _record runs first); a non-minimal
    graph only produces a warning note and the analysis proceeds.

    The intersection matrix object keeps one record: (**), (*) with its
    witnesses, Z, Z.Z and the verdict, which depend on the matrix alone,
    and ``parts``, a dict from the key (genus-0 (-1)-curves, all genera
    zero) to the validation and structural reports and the notes, which
    validate and structural_rationality fill, after the record, for a new
    key. The key decides all three: graphs that share a matrix object are
    one graph and its genus variants (graph._genus_variant), which hold the
    same weights, mult and labels. Per graph there remain the key, one
    lookup, p_a (the kept part of Z.Z + K.Z plus 2 sum Z_i g_i) and the
    report, which shares the kept objects (see ClassificationReport) and is
    filled in as graph._genus_variant fills a graph. The record lives and
    dies with the matrix: a graph built afresh is analyzed afresh.
    """
    (star_star, star, Z, free), verdict, kept = _kept(g.intersection_matrix(), "_verdict", lambda: _record(g))
    key = (_nonminimal(g), not any(g.genera))
    parts = kept.get(key)
    if parts is None:
        report = validate(g)
        structural = structural_rationality(g)
        notes = list(report.warnings)
        if structural.all_genus_zero:
            notes.append(_GENUS_NOTE)
        if verdict is NashVerdict.INCONCLUSIVE:
            notes.append(_INCONCLUSIVE_NOTE)
        parts = kept[key] = (report, structural, tuple(notes))
    validation, structural, notes = parts
    pa = _genus(g, Z, free)
    # the fields of a frozen report, set as _genus_variant sets a graph's
    r = object.__new__(ClassificationReport)
    r.__dict__.update(
        graph=g, validation=validation, star_star=star_star, star=star, fundamental_cycle=Z,
        pa_fundamental=pa, artin_rational=pa == 0, structural=structural, nash_verdict=verdict,
        notes=notes,
    )
    return r


def _record(g: ResolutionGraph) -> tuple[tuple, NashVerdict, dict]:
    """((**), (*), Z, the part of Z.Z + K.Z that _genus_free reads from the
    matrix), the verdict and an empty ``parts``: the record nash_verdict
    keeps on the intersection matrix."""
    star_star, star, Z = check_star_star(g), check_star(g), fundamental_cycle(g)
    verdict = (NashVerdict.BIJECTIVE_BY_STAR_STAR if star_star.holds else
               NashVerdict.BIJECTIVE_BY_STAR if star.holds else NashVerdict.INCONCLUSIVE)
    return (star_star, star, Z, _genus_free(Z, g.intersection_matrix())), verdict, {}


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
        raise ValueError(f"unknown family kind: {_quote(kind)}")
    if len(params) != arity[kind]:
        raise ValueError(f"family {kind!r} takes {arity[kind]} parameter(s), got {len(params)}")
    if kind in ("an", "dn", "cycle") and params[0] > MAX_VERTICES:
        raise ValueError(f"{kind}: vertex count {_quote(params[0])} exceeds the cap of {MAX_VERTICES}")
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
        genus, weight = params  # _build_graph checks their ranges
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


def _structures(max_vertices: int, base: int, min_weight: int):
    """Yield (mult, aut) for each connected structure class on 1..max_vertices
    vertices, with multiplicities below ``base``, whose matrix is negative
    definite with every weight at min_weight, by vertex count and then by
    mult, the least edge encoding of the class; aut lists the relabelings
    that fix mult, in permutations order.

    Lowering a weight keeps a matrix negative definite, so these are the
    classes with a negative-definite weighting in [min_weight, -1]. Each is
    a class one vertex smaller, which passes the same test, with a vertex
    attached last: one whose removal leaves the graph connected. So level n
    grows from the least encodings of level n - 1, each factored then (the
    factor of -M, graph._neg_factor), so a child costs one column brought
    through the parent's rows by graph._bareiss, which leaves them as they
    are, and the test that its pivot is positive.
    An encoding lists mult[i][j] for i < j in row order, read as a base
    ``base`` number. A byte table marks the orbit of each class found, so a
    marked child is dropped untested and each class is relabeled n! times
    once. Relabeling by the inverse of t moves edge {x, y} to the position
    of {t[x], t[y]}; the images equal to the least give mult and aut. A
    level lists its n! relabelings when a first child passes its minor
    test, and the images of an edge position when a child first has an
    edge there, so a level that keeps few classes builds little of them.
    """

    def parent(mult):  # mult with the factor of -M at weights min_weight
        return mult, _neg_factor([(*r[:i], min_weight, *r[i + 1:]) for i, r in enumerate(mult)])

    one = ((0,),)
    yield one, [(0,)]
    parents = [one]
    for n in range(2, max_vertices + 1):
        if not parents:
            return
        last = n - 1
        place = [[0] * n for _ in range(n)]  # place value of pair {i, j}
        k = n * last // 2
        for i in range(n):
            for j in range(i + 1, n):
                k -= 1
                place[i][j] = place[j][i] = base ** k
        # the n! relabelings, with at[x][c] = perms[c][x], made once a child
        # passes its minor test; cols[x, y][c], the place value of edge
        # {x, y} in the image under the inverse of perms[c], made on first use
        perms = at = None
        cols = {}

        def column(edge):
            col = cols.get(edge)
            if col is None:
                x, y = edge
                col = cols[edge] = list(map(getitem, map(place.__getitem__, at[x]), at[y]))
            return col

        attach = list(product(range(base), repeat=last))[1:]
        attach_index = [sum(map(mul, a, place[last])) for a in attach]
        seen = bytearray(base ** (n * last // 2))
        found = []
        for mult, F in map(parent, parents):
            # each edge once per unit of its multiplicity
            units = [(i, j) for i in range(last) for j in range(i + 1, last) for _ in range(mult[i][j])]
            index = sum(place[i][j] for i, j in units)
            for a, a_index in zip(attach, attach_index):
                if seen[index + a_index]:
                    continue
                # the child's column of -M at weight min_weight
                if _bareiss([-m for m in a] + [-min_weight], F.rows, F.minors)[last] <= 0:
                    continue
                if perms is None:
                    perms = list(permutations(range(n)))
                    at = list(zip(*perms))
                new = [(i, last) for i, m in enumerate(a) for _ in range(m)]
                images = list(map(sum, zip(*map(column, units + new))))
                for image in images:
                    seen[image] = 1
                least = min(images)
                into = []  # the t whose inverse maps the child to its least image
                c = -1
                for _ in range(images.count(least)):
                    c = images.index(least, c + 1)
                    into.append(perms[c])
                child = tuple(row + (m,) for row, m in zip(mult, a)) + (a + (0,),)
                found.append((least, child, into))
        found.sort(key=lambda f: f[0])
        parents = []
        for _, child, into in found:
            t0 = into[0]
            s0 = sorted(range(n), key=t0.__getitem__)  # t0's inverse
            mult = tuple(tuple(child[s0[i]][s0[j]] for j in range(n)) for i in range(n))
            aut = []
            for t in into:
                inverse = sorted(range(n), key=t.__getitem__)
                aut.append(tuple(t0[inverse[i]] for i in range(n)))
            aut.sort()
            yield mult, aut
            parents.append(mult)


def _negdef_weights(mult, weight_range: range):
    """Weight tuples over weight_range, in product order, that make the
    matrix with off-diagonal ``mult`` negative definite.

    A depth-first search over prefixes: every leading principal submatrix
    of a negative-definite matrix is negative definite, so a prefix at
    which a pivot of -M is not positive is cut with all its extensions.
    The factor of -M grows by one column per vertex (graph._bareiss),
    appended to its rows on descent and removed on backtrack. With 0 on
    the diagonal, column k ends in beta, and the pivot at weight w is
    beta - minors[k] * w: it falls as w rises, so the scan stops at the
    first w where it is not positive.
    """
    n = len(mult)
    weights = [0] * n
    rows = []  # rows[t]: the nonzero (l, U[t][l]) of the prefix's factor
    minors = [1]  # minors[k]: the leading k x k minor of -M

    def extend(k: int):
        y = _bareiss([-mult[i][k] for i in range(k)] + [0], rows, minors)
        # no deeper level reads the last vertex's column from the rows
        fill = list(compress(range(k), y)) if k + 1 < n else ()
        for t in fill:
            rows[t].append((k, y[t]))
        rows.append([])
        beta, slope = y[k], minors[k]
        for w in weight_range:
            pivot = beta - slope * w
            if pivot <= 0:
                break
            weights[k] = w
            if k + 1 == n:
                yield tuple(weights)
            else:
                minors.append(pivot)
                yield from extend(k + 1)
                minors.pop()
        rows.pop()
        for t in fill:
            rows[t].pop()

    return extend(0)


def _genus_tuples(max_genus: int, n: int):
    """The n-tuples of ints over 0..max_genus that graph._genus_variant
    trusts, in product order, one at a time (itertools.product pools first)."""
    genera = [0] * n
    while True:
        yield tuple(genera)
        k = n - 1
        while genera[k] == max_genus:
            genera[k] = 0
            k -= 1
            if k < 0:
                return
        genera[k] += 1


def enumerate_graphs(max_vertices: int, min_weight: int, max_genus: int, max_mult: int = 1):
    """Yield every connected negative-definite graph within the bounds,
    one representative per isomorphism class, in a deterministic order.

    Bounds: vertex count 1..max_vertices, weights min_weight..-1, genera
    0..max_genus, edge multiplicities 0..max_mult. Vertices are
    interchangeable, so a class representative is the lexicographically
    least (structure, weights, genera) triple under relabeling; weights
    are reduced by the structure's automorphisms, genera by the
    stabilizer of the chosen weights. Both reductions use one list of
    moves per structure, an operator.itemgetter for each automorphism but
    the identity, and genus tuples are made one at a time, whatever
    max_genus. Output runs by vertex count, then structure, weights and
    genera, each in increasing product order. The
    first graph of a weight tuple is built with every ResolutionGraph
    check; each further one is its genus variant (graph._genus_variant),
    which checks nothing, as _genus_tuples makes its genera, and holds the
    first graph's weights, mult and intersection matrix object, and with it
    what validate and nash_verdict keep on the matrix.

    Structures are grown one vertex at a time from the classes one vertex
    smaller, and only those whose matrix is negative definite with every
    weight at min_weight are kept (see _structures): lowering a weight
    keeps a matrix negative definite, so no other structure carries a
    weighting within the bounds. A byte table marks the orbit of each kept
    class, so its n! relabelings run once, and those that map it to its
    least encoding give its automorphisms. Weights come from a depth-first
    search that cuts a prefix as soon as a pivot of -M is not positive.

    The table has (max_mult + 1) ** (n(n-1)/2) bytes at n vertices. Bounds
    whose largest table exceeds ENCODING_TABLE_CAP (16 MiB) raise
    ValueError before anything is yielded: every n >= 8, n = 7 with
    max_mult >= 2, n = 6 with max_mult >= 3, n = 5 with max_mult >= 5,
    and fewer vertices only with max_mult >= 16. Generation costs grow
    with the kept classes, each relabeled n! times: with simple edges, 3
    of the 853 connected classes on seven vertices are kept at min_weight
    -2 and 852 at -6.
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
            f"{_quote(max_vertices)} vertices with edge multiplicities up to {_quote(max_mult)} "
            f"exceed the enumeration table cap of {ENCODING_TABLE_CAP} bytes"
        )

    weight_range = range(min_weight, 0)

    for mult, aut in _structures(max_vertices, base, min_weight):
        n = len(mult)
        # each relabeling but the identity as a move t -> tuple(t[s[i]]);
        # a one-vertex structure has none (itemgetter(0) gives no tuple)
        identity = tuple(range(n))
        moves = [itemgetter(*s) for s in aut if s != identity]
        for weights in _negdef_weights(mult, weight_range):
            if any(m(weights) < weights for m in moves):
                continue
            stab = [m for m in moves if m(weights) == weights]
            first = None
            for genera in _genus_tuples(max_genus, n):
                if any(m(genera) < genera for m in stab):
                    continue
                if first is None:
                    first = ResolutionGraph(weights=weights, genera=genera, mult=mult)
                    yield first
                else:
                    yield _genus_variant(first, genera)
