import contextlib
import json
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nashcone import (
    GraphFormatError,
    IntersectionMatrix,
    ResolutionGraph,
    canonical_intersections,
    graph_to_json_dict,
    load_graph,
    make_family,
    parse_graph,
    parse_graph_json,
    serialize_graph,
    serialize_graph_json,
    validate,
)
from nashcone.cone import ConeStatus, Divisor, lipman_status, neg_adjugate
from nashcone.graph import MAX_VERTICES, _edges_connect, _quote, _Table, render_json

from oracles import (
    connected_by_union,
    edges_by_scan,
    is_connected,
    lipman_status_dense,
    mulvec_dense,
    mult_error_by_scan,
    negdef_brute,
    parse_graph_by_table,
    parse_graph_json_by_table,
)

A2_TEXT = """\
vertices: 2
weights: -2 -2
genera: 0 0
edges: 1-2:1
"""


def test_parse_a2():
    g = parse_graph(A2_TEXT)
    assert g.weights == (-2, -2)
    assert g.genera == (0, 0)
    assert g.intersection_matrix().entries == ((-2, 1), (1, -2))


def test_parse_single_genus2_vertex():
    g = parse_graph("vertices: 1\nweights: -1\ngenera: 2\nedges:\n")
    assert g.n == 1
    assert g.intersection_matrix().entries == ((-1,),)
    assert g.genera == (2,)


def test_parse_star_graph():
    text = "vertices: 4\nweights: -5 -5 -5 -2\ngenera: 0 0 0 0\nedges: 1-4:1 2-4:1 3-4:1\n"
    assert parse_graph(text) == make_family("star3", 5)


def test_parse_comments_and_blank_lines():
    text = "# a chain\n\nvertices: 2  # two curves\nweights: -2 -2\ngenera: 0 0\nedges: 1-2:1\n"
    assert parse_graph(text) == parse_graph(A2_TEXT)


def test_parse_labels():
    text = A2_TEXT + "labels: left right\n"
    g = parse_graph(text)
    assert g.labels == ("left", "right")
    assert g.label(0) == "left"


def test_default_labels():
    g = parse_graph(A2_TEXT)
    assert [g.label(i) for i in range(2)] == ["E1", "E2"]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("weights: -2\ngenera: 0\nedges:\n", "missing 'vertices'"),
        ("vertices: 0\nweights:\ngenera:\nedges:\n", "vertex count"),
        ("vertices: x\nweights: -2\ngenera: 0\nedges:\n", "vertex count"),
        ("vertices: 2\nweights: -2\ngenera: 0 0\nedges:\n", "expected 2 weights"),
        ("vertices: 1\nweights: 0\ngenera: 0\nedges:\n", "must be <= -1"),
        ("vertices: 1\nweights: -2\ngenera: -1\nedges:\n", "must be >= 0"),
        ("vertices: 2\nweights: -2 -2\ngenera: 0 0\nedges: 1:2\n", "malformed edge"),
        ("vertices: 2\nweights: -2 -2\ngenera: 0 0\nedges: 2-1:1\n", "1 <= i < j"),
        ("vertices: 2\nweights: -2 -2\ngenera: 0 0\nedges: 1-3:1\n", "1 <= i < j"),
        ("vertices: 2\nweights: -2 -2\ngenera: 0 0\nedges: 1-2:0\n", "must be >= 1"),
        ("vertices: 2\nweights: -2 -2\ngenera: 0 0\nedges: 1-2:1 1-2:2\n", "duplicate edge"),
        (A2_TEXT + "edges: 1-2:1\n", "duplicate 'edges'"),
        (A2_TEXT + "labels: only_one\n", "expected 2 labels"),
        ("nonsense\n" + A2_TEXT, "unrecognized line"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert fragment in str(exc.value)


def test_parse_error_carries_line_number():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("vertices: 2\nweights: -2 -2\ngenera: 0 0\nedges: 1-2:zero\n")
    assert str(exc.value).startswith("line 4:")


def test_serialize_round_trip_named_graphs():
    for g in [
        make_family("an", 3),
        make_family("dn", 5),
        make_family("star3", 7),
        make_family("vertex", 2, -1),
        make_family("cycle", 4, -3),
    ]:
        assert parse_graph(serialize_graph(g)) == g
        assert parse_graph_json(serialize_graph_json(g)) == g


def test_serialize_is_byte_stable(a2):
    assert serialize_graph(a2) == A2_TEXT
    assert serialize_graph(a2) == serialize_graph(a2)


def test_load_graph_detects_json(a2):
    assert load_graph(serialize_graph_json(a2)) == a2
    assert load_graph("# comment first\n" + serialize_graph_json(a2)) == a2
    assert load_graph(A2_TEXT) == a2


def test_json_dict_shape(star3_5):
    d = graph_to_json_dict(star3_5)
    assert d["vertices"] == 4
    assert d["weights"] == [-5, -5, -5, -2]
    assert d["edges"] == [[1, 4, 1], [2, 4, 1], [3, 4, 1]]


@pytest.mark.parametrize(
    "payload,fragment",
    [
        ("[1,2]", "must be an object"),
        ('{"vertices": 1}', "missing JSON key"),
        ('{"vertices": 1, "weights": [-2], "genera": [0], "edges": [[1,1,1]]}', "1 <= i < j"),
        ('{"vertices": 2, "weights": [-2,-2], "genera": [0], "edges": []}', "length"),
        ("not json at all {", "invalid JSON"),
        ('{"vertices": 1' + "0" * 5000 + ', "weights": [], "genera": [], "edges": []}',
         "invalid JSON"),
        ('{"vertices": true, "weights": [-2], "genera": [0], "edges": []}', "positive integer"),
        ('{"vertices": 1.0, "weights": [-2], "genera": [0], "edges": []}', "positive integer"),
        ('{"vertices": 1, "weights": -2, "genera": [0], "edges": []}', "'weights' must be a list"),
        ('{"vertices": 1, "weights": [-2], "genera": "0", "edges": []}', "'genera' must be a list"),
        ('{"vertices": 1, "weights": [-2], "genera": [0], "edges": null}', "'edges' must be a list"),
        ('{"vertices": 2, "weights": [-2,-2], "genera": [0,0], "edges": [["1",2,1]]}',
         "integer entries"),
        ('{"vertices": 2, "weights": [-2,-2], "genera": [0,0], "edges": [[1,2,true]]}',
         "integer entries"),
        ('{"vertices": 2, "weights": [-2,-2], "genera": [0,0], "edges": [[1,2,1.5]]}',
         "integer entries"),
        ('{"vertices": 2, "weights": [-2,-2], "genera": [0,0], "edges": [12]}', "[i, j, m]"),
        ('{"vertices": 2, "weights": [-2,-2], "genera": [0,0], "edges": ["abc"]}', "[i, j, m]"),
        ('{"vertices": 2, "weights": [-2.5,-2], "genera": [0,0], "edges": [[1,2,1]]}',
         "must be integers"),
        ('{"vertices": 2, "weights": [-2.0,-2], "genera": [0,0], "edges": [[1,2,1]]}',
         "must be integers"),
        ('{"vertices": 1, "weights": [-2], "genera": [false], "edges": []}', "must be integers"),
        ('{"vertices": 1, "weights": [-2], "genera": [0], "edges": [], "labels": "a"}',
         "'labels' must be a list"),
        ('{"vertices": 1, "weights": [-2], "genera": [0], "edges": [], "labels": [7]}',
         "invalid label"),
    ],
)
def test_json_parse_errors(payload, fragment):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph_json(payload)
    assert fragment in str(exc.value)


def test_graph_invariant_enforcement():
    with pytest.raises(ValueError):
        ResolutionGraph(weights=(), genera=(), mult=())
    with pytest.raises(ValueError):
        ResolutionGraph(weights=(0,), genera=(0,), mult=((0,),))
    with pytest.raises(ValueError):
        ResolutionGraph(weights=(-2, -2), genera=(0, 0), mult=((0, 1), (2, 0)))
    with pytest.raises(ValueError):
        ResolutionGraph(weights=(-2,), genera=(0,), mult=((1,),))
    with pytest.raises(ValueError):
        ResolutionGraph(weights=(-2,), genera=(0,), mult=((0,),), labels=("bad label",))


@pytest.mark.parametrize(
    "weights,genera,mult",
    [
        ((-2.0,), (0,), ((0,),)),
        ((True,), (0,), ((0,),)),
        ((-2,), (0.0,), ((0,),)),
        ((-2,), (False,), ((0,),)),
        ((-2, -2), (0, 0), ((0, 1.0), (1.0, 0))),
        ((-2, -2), (0, 0), ((0, True), (True, 0))),
    ],
)
def test_graph_rejects_non_integers(weights, genera, mult):
    with pytest.raises(ValueError, match="integers"):
        ResolutionGraph(weights=weights, genera=genera, mult=mult)


@pytest.mark.parametrize(
    "fields,message",
    [
        (dict(weights=(-2, -2), genera=(0,), mult=((0, 1), (1, 0))),
         "weights, genera and mult must have matching size"),
        (dict(weights=(-2,), genera=(0,), mult=((0, 1), (1, 0))),
         "weights, genera and mult must have matching size"),
        (dict(weights=(-2, -2), genera=(0, 0), mult=((0, -1), (-1, 0))),
         "intersection multiplicities must be >= 0"),
        (dict(weights=(-2, -2), genera=(0, 0), mult=((0, 1), (1, 0)), labels=("a",)),
         "labels must name every vertex"),
    ],
)
def test_graph_refuses_inconsistent_fields(fields, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ResolutionGraph(**fields)


def test_graph_checks_its_table_before_its_weights_genera_and_labels():
    # the table first, then _check_fields: the order in which the file
    # builder checks its edge entries, then the weights, genera and labels
    fields = dict(weights=(0, True), genera=(-1, 0), labels=("a", "a"))
    for mult, message in ((((0, 1), (2, 0)), "mult must be symmetric"),
                          (((0, 1.0), (1.0, 0)), "intersection multiplicities must be integers"),
                          (((0, 1), (1,)), "mult must be a square matrix"),
                          (((0, 1), (1, 0)), "weights and genera must be integers")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ResolutionGraph(mult=mult, **fields)


@pytest.mark.parametrize("entries", [((-2.5, 1), (1, -2)), ((-2, 1.0), (1.0, -2)),
                                     ((-2, True), (True, -2)), ((-2, 1), (1, Fraction(-2)))])
def test_intersection_matrix_refuses_entries_that_are_not_ints(entries):
    # ((-2.5, 1), (1, -2)) was accepted, with the float minors (1, 2.5, 4.0)
    # in its factor
    with pytest.raises(ValueError, match="^intersection matrix entries must be integers$"):
        IntersectionMatrix(entries)


def test_intersection_matrix_is_built_once(a2):
    M = a2.intersection_matrix()
    assert a2.intersection_matrix() is M
    assert M.entries == ((-2, 1), (1, -2))
    # the kept matrix is not a field: equality with a fresh graph still holds
    assert a2 == parse_graph(A2_TEXT)


def test_intersection_matrix_requires_symmetry():
    with pytest.raises(ValueError):
        IntersectionMatrix(((-2, 1), (0, -2)))


def _zero_diagonal(rows):
    return tuple(tuple(0 if j == i else x for j, x in enumerate(row)) for i, row in enumerate(rows))


@pytest.mark.parametrize("rows,matrix_error,mult_error", [
    (((-2, 1), (1,)), "intersection matrix must be square", "mult must be a square matrix"),
    (((-2,), (1, -2)), "intersection matrix must be square", "mult must be a square matrix"),
    (((-2, 1), ()), "intersection matrix must be square", "mult must be a square matrix"),
    (((-2, 1, 0), (1, -2), (0, 1, -2)), "intersection matrix must be square",
     "mult must be a square matrix"),
    (((-2, 1), (0, -2)), "intersection matrix must be symmetric", "mult must be symmetric"),
    (((-2, 1, 0), (1, -2, 1), (0, 2, -2)), "intersection matrix must be symmetric",
     "mult must be symmetric"),
    (((-2, 0, 1), (0, -2, 0), (0, 0, -2)), "intersection matrix must be symmetric",
     "mult must be symmetric"),
])
def test_ragged_or_asymmetric_matrix_is_refused(rows, matrix_error, mult_error):
    for entries in (rows, tuple(map(list, rows))):
        with pytest.raises(ValueError, match=f"^{matrix_error}$"):
            IntersectionMatrix(entries)
    with pytest.raises(ValueError, match=f"^{mult_error}$"):
        ResolutionGraph(weights=(-2,) * len(rows), genera=(0,) * len(rows), mult=_zero_diagonal(rows))


@st.composite
def _faulty_tables(draw):
    """Square tables on n <= 6 vertices: symmetric, zero diagonal and
    multiplicities 0..3, then zero to three injected faults, each a nonzero
    diagonal entry, a negative entry (alone or with its mirror), an
    asymmetric pair or an entry that is not an int; rows are tuples or lists."""
    n = draw(st.integers(1, 6))
    mult = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mult[i][j] = mult[j][i] = draw(st.integers(0, 3))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["diagonal", "negative", "asymmetric", "type"]))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if kind == "diagonal":
            mult[i][i] = draw(st.sampled_from([-2, -1, 1, 2]))
        elif kind == "negative":
            mult[i][j] = draw(st.integers(-3, -1))
            if draw(st.booleans()):
                mult[j][i] = mult[i][j]
        elif kind == "asymmetric":
            mult[i][j] = draw(st.integers(0, 3).filter(lambda m: m != mult[j][i]))
        else:
            mult[i][j] = draw(st.sampled_from([True, False, 1.0, None, "1"]))
    return tuple(map(draw(st.sampled_from([tuple, list])), mult))


@settings(max_examples=500, deadline=None)
@given(_faulty_tables())
@example(((0, 1, -1), (1, 0, 0), (2, 0, 0)))  # negative before asymmetric in one entry
@example(((0, 2, -1), (1, 0, 0), (-1, 0, 0)))  # the first faulty entry of a row decides
@example(((0, 2, 0), (1, 0, -1), (0, -1, 0)))  # the first faulty row decides
@example(((0, -1, 3), (-1, 1, 0), (0, 0, 0)))  # a row's entry before a later diagonal
@example(((0, 1), (1, 5)))
@example(((0, 1.0), (-1, 0)))  # the entry types before any row
def test_mult_checks_give_the_entry_scan_message(mult):
    n = len(mult)
    expected = mult_error_by_scan(mult)
    if expected is None:
        ResolutionGraph(weights=(-2,) * n, genera=(0,) * n, mult=mult)
        return
    with pytest.raises(ValueError) as refused:
        ResolutionGraph(weights=(-2,) * n, genera=(0,) * n, mult=mult)
    assert str(refused.value) == expected


def test_intersection_matrix_accepts_list_rows():
    M = IntersectionMatrix([[-2, 1], [1, -2]])
    assert M.mulvec((1, 1)) == (-1, -1)
    assert ResolutionGraph(weights=(-2, -2), genera=(0, 0), mult=[[0, 1], [1, 0]]
                           ).intersection_matrix().entries == ((-2, 1), (1, -2))


def test_empty_intersection_matrix_is_built():
    M = IntersectionMatrix(())
    assert M.n == 0 and M.mulvec(()) == () and M._edges == ()


def test_mulvec_dimension_mismatch():
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        IntersectionMatrix(((-2, 1), (1, -2))).mulvec((1, 1, 1))


# coefficients of a few digits and of hundreds
_coefficients = st.integers(-9, 9) | st.integers(-(10 ** 300), 10 ** 300)


@st.composite
def _symmetric_matrices(draw, dominant=False):
    """Symmetric integer matrices of 1 to 8 rows: graph-like (negative
    diagonal, multiplicities 0 to 3), dense (every entry nonzero), or with
    entries of hundreds of digits. With ``dominant``, each diagonal entry
    is below minus the sum of the other absolute values of its row, which
    makes the matrix negative definite."""
    n = draw(st.integers(1, 8))
    diag, off = draw(st.sampled_from([
        (st.integers(-6, -1), st.integers(0, 3)),
        (st.integers(-50, 50).filter(bool), st.integers(-50, 50).filter(bool)),
        (st.integers(-(10 ** 400), 10 ** 400), st.integers(-(10 ** 400), 10 ** 400)),
    ]))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(off)
    for i, row in enumerate(rows):
        if dominant:
            row[i] = -sum(map(abs, row)) - draw(st.integers(1, 5))
        else:
            row[i] = draw(diag)
    return IntersectionMatrix(tuple(map(tuple, rows)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mulvec_matches_the_dense_product(data):
    M = data.draw(_symmetric_matrices())
    v = data.draw(st.lists(_coefficients, min_size=M.n, max_size=M.n))
    expected = mulvec_dense(M.entries, v)
    assert M.mulvec(v) == M.mulvec(tuple(v)) == expected
    assert type(M.mulvec(v)) is tuple
    wrong = data.draw(st.lists(_coefficients, max_size=10).filter(lambda w: len(w) != M.n))
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        M.mulvec(wrong)


@st.composite
def _multiplicity_tables(draw):
    """Symmetric tables of 1 to 9 vertices with a zero diagonal and
    multiplicities 0 to 3, sparse or dense."""
    n = draw(st.integers(1, 9))
    m = draw(st.sampled_from([st.integers(0, 3), st.sampled_from([0] * 6 + [1, 2, 3])]))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(m)
    return tuple(map(tuple, rows))


@settings(max_examples=300, deadline=None)
@given(_multiplicity_tables())
def test_is_connected_matches_the_union_of_edge_ends(mult):
    # the table walk the matrix ran before, now the oracle, against the
    # union of edge ends, and the union-find over the edge list it runs now
    assert is_connected(mult) is connected_by_union(mult)
    assert _edges_connect(len(mult), edges_by_scan(mult)) is connected_by_union(mult)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_matrix_connectivity_matches_the_union_of_edge_ends(data):
    # the matrix computes its connectivity from its entries, diagonal and
    # all, and validation reads it; the tables include disconnected ones
    mult = data.draw(_multiplicity_tables())
    n = len(mult)
    weights = data.draw(st.lists(st.integers(-6, -1), min_size=n, max_size=n))
    entries = tuple((*row[:i], w, *row[i + 1:]) for i, (w, row) in enumerate(zip(weights, mult)))
    expected = connected_by_union(mult)
    assert IntersectionMatrix(entries)._connected is expected
    assert validate(ResolutionGraph(tuple(weights), (0,) * n, mult)).connected is expected


@settings(max_examples=300, deadline=None)
@given(_multiplicity_tables())
def test_edges_match_the_scan_of_every_entry(mult):
    # edges() is the edge list the intersection matrix keeps for M.v
    g = ResolutionGraph((-2,) * len(mult), (0,) * len(mult), mult)
    assert list(g.edges()) == edges_by_scan(mult)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lipman_status_matches_the_definition(data):
    # on a negative-definite M with A = adj(-M) and d = det(-M) > 0:
    # M.(A.1) = -d.1 (strict), M.A[k] = -d e_k (boundary once n >= 2),
    # M.(-A.1) = d.1 (outside), and the zero divisor is outside too
    M = data.draw(_symmetric_matrices(dominant=True))
    A, _ = neg_adjugate(M)
    s = [sum(row) for row in A]
    expected = [
        (s, ConeStatus.STRICT_LIPMAN),
        ([-x for x in s], ConeStatus.NOT_IN_CONE),
        ([0] * M.n, ConeStatus.NOT_IN_CONE),
    ] + [(list(row), ConeStatus.LIPMAN_BOUNDARY) for row in A if M.n > 1]
    for coeffs, status in expected:
        assert lipman_status(Divisor(tuple(coeffs)), M) is status
        assert lipman_status_dense(M.entries, coeffs) == status.value
    for M in (M, data.draw(_symmetric_matrices())):
        coeffs = data.draw(st.lists(_coefficients, min_size=M.n, max_size=M.n))
        assert lipman_status(Divisor(tuple(coeffs)), M).value == lipman_status_dense(M.entries, coeffs)


def test_negative_definite_known_cases():
    assert IntersectionMatrix(((-2, 1, 0), (1, -2, 1), (0, 1, -2))).neg_factor() is not None
    assert IntersectionMatrix(((-1, 1), (1, -1))).neg_factor() is None
    assert IntersectionMatrix(((-2, 3), (3, -2))).neg_factor() is None


def test_negative_definite_agrees_with_brute_force():
    cases = [
        IntersectionMatrix(((-1, 1), (1, -1))),
        IntersectionMatrix(((-2, 3), (3, -2))),
        IntersectionMatrix(((2,),)),
        IntersectionMatrix(((0,),)),
        make_family("an", 4).intersection_matrix(),
        make_family("dn", 4).intersection_matrix(),
        make_family("cycle", 4, -3).intersection_matrix(),
        ResolutionGraph(weights=(-1, -1, -1), genera=(0,) * 3,
                        mult=((0, 1, 1), (1, 0, 1), (1, 1, 0))).intersection_matrix(),
    ]
    for M in cases:
        assert (M.neg_factor() is not None) == negdef_brute(M), M.entries


def test_validate_good_graph(a2):
    r = validate(a2)
    assert r.negative_definite and r.connected and r.minimal
    assert r.analyzable
    assert r.messages == ()


def test_validate_not_negative_definite():
    g = ResolutionGraph(weights=(-1, -1), genera=(0, 0), mult=((0, 1), (1, 0)))
    r = validate(g)
    assert not r.negative_definite
    assert not r.analyzable
    assert any("negative definite" in m for m in r.messages)


def test_validate_disconnected():
    g = ResolutionGraph(weights=(-2, -2), genera=(0, 0), mult=((0, 0), (0, 0)))
    r = validate(g)
    assert not r.connected
    assert not r.analyzable
    assert any("disconnected" in m for m in r.messages)


def test_validate_non_minimal_is_warning_only():
    g = make_family("vertex", 0, -1)
    r = validate(g)
    assert not r.minimal
    assert r.analyzable
    assert any(m.startswith("warning") for m in r.messages)


def test_validate_minimal_keeps_genus_positive_minus_one_curves():
    # only a genus-0 (-1)-curve contracts; genus >= 1 is fine
    assert validate(make_family("vertex", 2, -1)).minimal


def test_canonical_intersections_known_values(a2, g2w1, star3_5):
    assert canonical_intersections(a2) == (0, 0)
    assert canonical_intersections(g2w1) == (3,)
    assert canonical_intersections(star3_5) == (3, 3, 3, 0)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    weights = tuple(draw(st.integers(min_value=-9, max_value=-1)) for _ in range(n))
    genera = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(n))
    mult = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mult[i][j] = mult[j][i] = draw(st.integers(min_value=0, max_value=3))
    labels = None
    if draw(st.booleans()):
        labels = tuple(f"v{i}" for i in range(n))
    return ResolutionGraph(
        weights=weights, genera=genera, mult=tuple(map(tuple, mult)), labels=labels
    )


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_round_trip_property(g):
    assert parse_graph(serialize_graph(g)) == g
    assert parse_graph_json(serialize_graph_json(g)) == g


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_canonical_intersections_identity(g):
    k = canonical_intersections(g)
    for i in range(g.n):
        assert k[i] == 2 * g.genera[i] - 2 - g.weights[i]


def _graph_text(d: dict) -> str:
    """``d`` in the text format, each value written by ``str``; an edge entry
    that is not three values is written joined by '-'."""
    def edge(e):
        return f"{e[0]}-{e[1]}:{e[2]}" if isinstance(e, list) and len(e) == 3 else "-".join(map(str, e))

    text = f"vertices: {d['vertices']}\n"
    text += "".join(f"{key}: {' '.join(map(str, d[key]))}\n" for key in ("weights", "genera"))
    text += f"edges: {' '.join(map(edge, d['edges']))}\n"
    return text + (f"labels: {' '.join(map(str, d['labels']))}\n" if "labels" in d else "")


_A2_DATA = {"vertices": 2, "weights": [-2, -2], "genera": [0, 0], "edges": [[1, 2, 1]]}


@pytest.mark.parametrize("label", ["a\x1b[31mb", "a\x7fb", "a\u200bb", "\x1b", "a\tb"])
def test_labels_that_do_not_print_as_themselves_are_refused(label):
    # an escape sequence or an invisible character would make two labels
    # look alike in a report, and its bytes depend on where they are shown
    data = dict(_A2_DATA, labels=[label, "ab"])
    texts = [json.dumps(data)]
    if not any(c.isspace() for c in label):  # the text format splits labels there
        texts.append(_graph_text(data))
    for text in texts:
        with pytest.raises(GraphFormatError) as exc:
            load_graph(text)
        assert str(exc.value).endswith(f"invalid label {label!r}")


def test_every_whitespace_character_is_refused_in_a_label():
    spaces = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
    assert " " in spaces and "\u3000" in spaces
    for c in spaces:
        with pytest.raises(ValueError, match="invalid label"):
            ResolutionGraph((-2,), (0,), ((0,),), (f"a{c}b",))
    # printable labels outside ASCII stay valid
    g = ResolutionGraph((-2, -2), (0, 0), ((0, 1), (1, 0)), ("é", "λ☃"))
    assert load_graph(serialize_graph(g)) == load_graph(serialize_graph_json(g)) == g


@pytest.mark.parametrize(
    "change,fragment",
    [
        ({"edges": [[1, 3, 1]]}, "1 <= i < j"),
        ({"edges": [[1, 2, 0]]}, "must be >= 1"),
        ({"edges": [[1, 2, 1], [1, 2, 2]]}, "duplicate edge"),
        ({"weights": [0, -2]}, "weight 0 must be <= -1"),
        ({"genera": [0, -1]}, "genus -1 must be >= 0"),
        ({"weights": [-2]}, "expected 2 weights"),
        ({"labels": ["a", "a"]}, "duplicate label 'a'"),
    ],
)
def test_value_errors_read_the_same_in_both_formats(change, fragment):
    data = dict(_A2_DATA, **change)
    raw, messages = [], []
    for parse, text in ((parse_graph, _graph_text(data)), (parse_graph_json, json.dumps(data))):
        with pytest.raises(GraphFormatError) as exc:
            parse(text)
        raw.append(str(exc.value))
        messages.append(re.sub(r"^line \d+: ", "", str(exc.value)))
    assert messages[0] == messages[1]
    assert fragment in messages[0]
    # the text format names the line of the changed field; JSON has no lines
    (key,) = change
    line = ("vertices", "weights", "genera", "edges", "labels").index(key) + 1
    assert raw[0] == f"line {line}: {messages[0]}"
    assert raw[1] == messages[1]


_HUGE = 10 ** 4200  # within CPython's default cap of 4300 digits
_OVER_CAP = 10 ** 5000  # beyond it, where the cap is in force
_LABELS = ("a", "b", "é", "λ☃", "v10", "x_y")


@st.composite
def _graph_dicts(draw):
    """JSON-shaped graph dicts on 1 to 6 vertices, with or without labels and
    with edges in any order, carrying zero to three faults: a bad vertex
    count; a weight or genus that is out of range, a bool, a float, huge or
    over the digit cap; a list of the wrong length; a bad or repeated
    label; a bad, reversed, zero-multiplicity or duplicate edge entry."""
    n = draw(st.integers(1, 6))
    pairs = [[i, j] for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    d = {
        "vertices": n,
        "weights": draw(st.lists(st.integers(-4, -1), min_size=n, max_size=n)),
        "genera": draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
        "edges": [[i, j, draw(st.integers(1, 3))]
                  for i, j in draw(st.lists(st.sampled_from(pairs), unique_by=tuple))] if pairs else [],
    }
    present = [e[:2] for e in d["edges"]]
    if draw(st.booleans()):
        d["labels"] = list(draw(st.permutations(_LABELS))[:n])
    odd = [True, False, 1.0, -2.5, _HUGE, -_HUGE, _OVER_CAP, -_OVER_CAP]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["vertices", "weights", "genera", "length", "labels", "edges"]))
        if kind == "vertices":
            d["vertices"] = draw(st.sampled_from([0, -1, n + 1, max(n - 1, 1), MAX_VERTICES + 1] + odd))
        elif kind in ("weights", "genera") and d[kind]:
            bad = [0, 1] if kind == "weights" else [-1]
            d[kind][draw(st.integers(0, len(d[kind]) - 1))] = draw(st.sampled_from(bad + odd))
        elif kind == "length":
            key = draw(st.sampled_from(["weights", "genera"] + ["labels"] * ("labels" in d)))
            if draw(st.booleans()) or not d[key]:
                d[key].append(d[key][0] if d[key] else -2)
            else:
                d[key].pop()
        elif kind == "labels" and d.setdefault("labels", list(_LABELS[:n])):
            labels = d["labels"]
            k = draw(st.integers(0, len(labels) - 1))
            labels[k] = draw(st.sampled_from(["", "a b", "a#b", "\x01", "a\x7f", "\u200b", 7, None]
                                             + labels[:k] + labels[k + 1:]))
        elif kind == "edges":
            entry = draw(st.sampled_from(
                [[1, 1, 1], [2, 1, 1], [1, n + 1, 1], [0, 1, 1], [1, 2, 0], [1, 2, -1],
                 [1, 2, True], [1.0, 2, 1], [1, 2], [1, 2, 3, 4], "12", [1, 2, _HUGE],
                 [1, 2, _OVER_CAP], [_OVER_CAP, 2, 1]]
                + [[i, j, draw(st.integers(1, 3))] for i, j in present]  # duplicates
            ))
            d["edges"].insert(draw(st.integers(0, len(d["edges"]))), entry)
    return d


def _outcome(parse, text):
    """The graph ``parse(text)`` gives, or the type, message and line of the
    error it raises."""
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


@settings(max_examples=600, deadline=None)
@given(_graph_dicts())
@example({"vertices": 2, "weights": [0, True], "genera": [-1, 0], "edges": []})  # types first
@example({"vertices": 2, "weights": [0, -2], "genera": [-1, 0], "edges": []})  # weights first
@example({"vertices": 2, "weights": [0, -2], "genera": [0, 0], "edges": [[1, 2, 1], [1, 2, 1]]})
@example({"vertices": 2, "weights": [-2, -2], "genera": [-1, 0], "edges": [], "labels": ["a", "a"]})
@example({"vertices": 2, "weights": [-2, _OVER_CAP], "genera": [0, 0], "edges": ["12"]})
@example({"vertices": 3, "weights": [-2, -3, -1], "genera": [0, 1, 0],
          "edges": [[2, 3, 2], [1, 3, 1], [1, 2, 1]], "labels": ["c", "b", "a"]})
def test_both_parsers_match_the_table_route(d):
    # the builder makes the graph and its matrix from the checked edge
    # list; the oracle fills the n x n table and hands it to ResolutionGraph
    with _no_int_str_cap() if hasattr(sys, "set_int_max_str_digits") else contextlib.nullcontext():
        text, payload = _graph_text(d), json.dumps(d)
    for parse, oracle, source in (
        (parse_graph, parse_graph_by_table, text),
        (parse_graph_json, parse_graph_json_by_table, payload),
    ):
        got, expected = _outcome(parse, source), _outcome(oracle, source)
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert got == expected and got.labels == expected.labels
            assert vars(got.intersection_matrix()) == vars(expected.intersection_matrix())


@pytest.mark.parametrize("value,quoted", [
    # a token of at most 40 characters is quoted whole, as its repr
    ("ab", "'ab'"), ("x" * 40, repr("x" * 40)), (-3, "-3"), (10 ** 39, str(10 ** 39)),
    ([1, 2], "[1, 2]"), (None, "None"), ("a\x1bb", repr("a\x1bb")),
    # a longer one by its first 40 characters and its length
    ("x" * 41, repr("x" * 40) + "... (41 characters)"),
    (-10 ** 40, "-1" + "0" * 38 + "... (42 characters)"),
    ([7] * 20, "[7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, ... (60 characters)"),
    # an escaped character counts by its shown length: the repr of the
    # prefix stays within 40 characters and its quotes, whatever the length
    ("\x01" * 50, repr("\x01" * 10) + "... (50 characters)"),
    ("\x01" * 12, repr("\x01" * 10) + "... (12 characters)"),
    ("a" * 38 + "\x01", repr("a" * 38) + "... (39 characters)"),
    ("\U0010ffff" * 3, repr("\U0010ffff" * 3)),
    ("é" * 41, repr("é" * 40) + "... (41 characters)"),
])
def test_quote_keeps_short_values_and_cuts_long_ones(value, quoted):
    assert _quote(value) == quoted


def test_vertex_cap_boundary():
    assert MAX_VERTICES == 128
    g = make_family("an", MAX_VERTICES)
    assert load_graph(serialize_graph(g)) == g
    assert load_graph(serialize_graph_json(g)) == g
    n = MAX_VERTICES + 1
    data = {"vertices": n, "weights": [-2] * n, "genera": [0] * n, "edges": []}
    for parse, text in ((parse_graph, _graph_text(data)), (parse_graph_json, json.dumps(data))):
        with pytest.raises(GraphFormatError, match="exceeds the cap of 128"):
            parse(text)
    for kind, params in (("an", (n,)), ("dn", (n,)), ("cycle", (n, -3))):
        with pytest.raises(ValueError, match="exceeds the cap of 128"):
            make_family(kind, *params)


_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.text(st.characters(exclude_categories=()))
    | st.sampled_from(['"', "\\", "\x00\x1f\n\t\x7f", "é☃\U0001f600", ""])
)


def _aliasing(children):
    """Containers that hold one child object more than once, at one depth or
    at two, in a list and in a dict: a report shares each witness's divisor
    list between the pairs it serves."""
    return (
        st.lists(children, min_size=1).map(lambda xs: xs + xs)
        | children.map(lambda x: [x, [x]])
        | st.tuples(st.text(), children).map(lambda kx: {kx[0]: kx[1], "in a list": [kx[1]]})
    )


# keys of table-shaped rows, some with % signs
_table_keys = st.text(st.characters(exclude_categories=()), max_size=4) | st.sampled_from(
    ["%", "%d", "%%", "a%", "%s%(x)d", "pair", "divisor"])


@st.composite
def _tables(draw, children):
    """Lists shaped like the tables of a report (witness dicts, index/value
    records, edge and pair lists), exact or spoilt in one row: keys reordered,
    one added or dropped, a cell that is not an int or a non-empty int list,
    or a list row of another length. One int list is shared between cells of
    a column and, one level up, beside the table."""
    shared = draw(st.lists(st.integers(), min_size=1, max_size=4))
    dict_rows = draw(st.booleans())
    width = draw(st.integers(1, 3))
    keys = draw(st.lists(_table_keys, min_size=width, max_size=width, unique=True)) if dict_rows else None
    cells = [
        draw(st.sampled_from([
            st.integers(),
            st.lists(st.integers(), min_size=1, max_size=1),
            st.lists(st.integers(), min_size=2, max_size=2),
            st.lists(st.integers(), min_size=1, max_size=4) | st.just(shared),
        ]))
        for _ in range(width)
    ]
    rows = [[draw(c) for c in cells] for _ in range(draw(st.integers(1, 4)))]
    r, c = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, width - 1))
    spoil = draw(st.sampled_from(["none", "cell", "length", "keys"]))
    if spoil == "cell":
        rows[r][c] = draw(st.booleans() | st.none() | st.floats() | st.text(max_size=2)
                          | st.just([]) | st.lists(children, min_size=1, max_size=3).map(lambda xs: [1] + xs))
    elif spoil == "length":
        rows[r] = rows[r][:-1] if draw(st.booleans()) else rows[r] + [0]
    if dict_rows:
        rows = [dict(zip(keys, row)) for row in rows]
        if spoil == "keys":
            row = rows[r]
            change = draw(st.sampled_from(["reorder", "extra", "missing"]))
            if change == "reorder":
                rows[r] = dict(reversed(row.items()))
            elif change == "extra":
                row[draw(_table_keys.filter(lambda k: k not in row))] = draw(children)
            else:
                del row[keys[c]]
    return draw(st.sampled_from([rows, [rows, shared], {"table": rows, "shared": [shared]}]))


_json_values = st.recursive(
    _json_scalars,
    lambda children: st.lists(children)
    | st.lists(st.integers())
    | st.dictionaries(st.text(st.characters(exclude_categories=())), children)
    | _aliasing(children)
    | _tables(children),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_render_json_matches_stdlib_indent(obj):
    assert render_json(obj) == json.dumps(obj, indent=2)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_render_json_compact_matches_stdlib_separators(obj):
    assert render_json(obj, compact=True) == json.dumps(obj, separators=(",", ":"))


def test_render_json_renders_a_shared_list_at_each_depth():
    ints = [1, -2, 3]  # a list of integers, which render_json joins in one piece
    mixed = [ints, {"k": True}, []]
    docs = [
        [ints, ints, ints],
        [ints, [ints, [ints]]],
        {"a": ints, "b": [ints], "c": {"d": ints}},
        [mixed, {"m": mixed}, [[mixed]], mixed],
    ]
    for doc in docs:
        # one list object at several depths is indented for each depth
        assert render_json(doc) == json.dumps(doc, indent=2)
        # compact text indents every depth alike
        assert render_json(doc, compact=True) == json.dumps(doc, separators=(",", ":"))


_DIVISOR = [3, 2, 1]
# (name, list) shaped like a table of a report: records of one shape
_TABLES = [
    ("witnesses", [{"pair": [1, 2], "divisor": _DIVISOR}, {"pair": [1, 3], "divisor": _DIVISOR},
                   {"pair": [2, 3], "divisor": [1, 2, 3, 4]}]),
    ("values", [{"index": [1, 2], "value": -3}, {"index": [2, 2], "value": 0}]),
    ("single dict row", [{"index": [1], "value": 4}]),
    ("edges", [[1, 2, 1], [2, 3, 5]]),
    ("pairs", [[1, 2], [3, 4]]),
    ("percent keys", [{"%": 1, "%d": [2], "%%": [3, 4], "a%": _DIVISOR}] * 2),
    ("slotless segment after a cut", [{"d": _DIVISOR, "a%": _DIVISOR}] * 2),
    ("shared lists at two depths", [[1, _DIVISOR], [2, [9]]]),
]
# (name, list) that are no table: records of unlike shapes
_NOT_TABLES = [
    ("keys reordered", [{"pair": [1, 2], "value": 1}, {"value": 1, "pair": [1, 2]}]),
    ("extra key", [{"pair": [1, 2]}, {"pair": [1, 2], "value": 1}]),
    ("missing key", [{"pair": [1, 2], "value": 1}, {"pair": [1, 2]}]),
    ("bool in an int column", [{"value": 1}, {"value": True}]),
    ("None in an int column", [{"value": 1}, {"value": None}]),
    ("float in an int column", [{"value": 1}, {"value": 1.0}]),
    ("str in an int column", [{"value": 1}, {"value": "1"}]),
    ("empty list in a list column", [{"pair": [1, 2]}, {"pair": []}]),
    ("mixed list in a list column", [{"pair": [1, 2]}, {"pair": [1, True]}]),
    ("mixed long list in a list column", [{"divisor": [1, 2, 3]}, {"divisor": [1, 2, "3"]}]),
    ("list rows of unequal length", [[1, 2], [1, 2, 3]]),
    ("single list row", [[1, 2]]),
    ("empty list rows", [[], []]),
    ("rows without keys", [{}, {}]),
    ("dict and list rows", [{"a": 1}, [1]]),
]


@pytest.mark.parametrize("rows", [t for _, t in _TABLES], ids=[n for n, _ in _TABLES])
def test_render_json_renders_tables_by_template(rows):
    doc = {"table": rows, "again": [rows, _DIVISOR]}
    assert render_json(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("rows", [t for _, t in _NOT_TABLES], ids=[n for n, _ in _NOT_TABLES])
def test_render_json_falls_back_on_other_lists(rows):
    doc = {"table": rows, "again": [rows]}
    assert render_json(doc) == json.dumps(doc, indent=2)


def test_render_json_renders_a_column_table_as_its_records():
    pairs = [(1, 2), (1, 3), (2, 3)]
    divisors = [_DIVISOR, _DIVISOR, (1, 2, 3, 4)]
    first, second = map(list, zip(*pairs))
    cases = [
        (_Table(("pair", "divisor"), (("ints", (first, second)), ("lists", divisors)), 3),
         [{"pair": list(p), "divisor": list(d)} for p, d in zip(pairs, divisors)]),
        (_Table(("%d", "a%"), (("lists", divisors), ("int", second)), 3),
         [{"%d": list(d), "a%": j} for d, j in zip(divisors, second)]),
        (_Table(None, (("int", first), ("int", second)), 3), [list(p) for p in pairs]),
        (_Table(None, (("int", [7]), ("int", [8])), 1), [[7, 8]]),
        (_Table(("pair",), (("ints", ([], [])),), 0), []),
    ]
    for table, records in cases:
        doc = {"table": table, "again": [table, _DIVISOR]}
        plain = {"table": records, "again": [records, _DIVISOR]}
        assert render_json(doc) == json.dumps(plain, indent=2)
        assert render_json(doc, compact=True) == json.dumps(plain, separators=(",", ":"))


@pytest.mark.parametrize("column", [[[1], []], [[1], [1, True]], [[1], ["1"]]])
def test_render_json_refuses_a_column_table_of_other_lists(column):
    with pytest.raises(ValueError, match="non-empty lists of ints"):
        render_json([_Table(("divisor",), (("lists", column),), 2)])


@pytest.mark.parametrize("column", [[[1], []], [[1], [1, True]], [[1], ["1"]]])
def test_render_json_compact_refuses_a_column_table_of_other_lists(column):
    # the compact writer expands a table into its records and checks its
    # lists as the indented writer does
    table = _Table(("divisor",), (("lists", column),), 2)
    with pytest.raises(ValueError) as indented:
        render_json([table])
    with pytest.raises(ValueError) as compact:
        render_json([table], compact=True)
    assert str(compact.value) == str(indented.value)
    assert str(compact.value) == "a table column of lists must hold non-empty lists of ints"


def test_render_json_compact_refusal_leaves_the_next_text_unchanged():
    # the compact encoder is made once and keeps no markers: a value that
    # _records refuses mid-way leaves nothing behind for the next call
    doc = {"a": [1, {"b": None}], "t": _Table(None, (("int", [1]), ("int", [2])), 1)}
    expected = render_json(doc, compact=True)
    bad_table = _Table(("divisor",), (("lists", [[1], []]),), 2)
    for bad, error in (({"x": [doc, object()]}, TypeError), ([doc, {"t": bad_table}], ValueError)):
        with pytest.raises(error):
            render_json(bad, compact=True)
        assert render_json(doc, compact=True) == expected
        assert render_json([doc, doc], compact=True) == "[%s,%s]" % (expected, expected)


@contextlib.contextmanager
def _no_int_str_cap():
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(cap)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit cap")
def test_render_json_table_obeys_the_int_digit_cap():
    big = -(10 ** 4400)
    docs = [
        [{"index": [1, 2], "value": big}] * 2,
        [{"pair": [1, big], "divisor": _DIVISOR}] * 2,
        [{"pair": [1, 2], "divisor": [1, 2, big]}] * 2,
        [[1, big], [2, 3]],
    ]
    # the same records as the column tables the CLI hands over
    tables = [
        _Table(("index", "value"), (("ints", ([1, 1], [2, 2])), ("int", [big, big])), 2),
        _Table(("pair", "divisor"), (("ints", ([1, 1], [big, big])), ("lists", [_DIVISOR] * 2)), 2),
        _Table(("pair", "divisor"), (("ints", ([1, 1], [2, 2])), ("lists", [[1, 2, big]] * 2)), 2),
        _Table(None, (("int", [1, 2]), ("int", [big, 3])), 2),
    ]
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for doc, plain in [*zip(docs, docs), *zip(tables, docs)]:
            for compact, options in ((False, {"indent": 2}), (True, {"separators": (",", ":")})):
                with pytest.raises(ValueError) as ours:
                    render_json(doc, compact)
                with pytest.raises(ValueError) as stdlib:
                    json.dumps(plain, **options)
                assert str(ours.value) == str(stdlib.value)
                with _no_int_str_cap():
                    assert render_json(doc, compact) == json.dumps(plain, **options)
    finally:
        sys.set_int_max_str_digits(cap)
