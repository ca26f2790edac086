import json
import re
import sys

import pytest
from hypothesis import given, settings
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
from nashcone.cli import _uncapped_int_str
from nashcone.cone import ConeStatus, Divisor, lipman_status, neg_adjugate
from nashcone.graph import MAX_VERTICES, _render_table, _Table, render_json

from oracles import lipman_status_dense, mulvec_dense, negdef_brute

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


def test_intersection_matrix_accepts_list_rows():
    M = IntersectionMatrix([[-2, 1], [1, -2]])
    assert M.mulvec((1, 1)) == (-1, -1)
    assert ResolutionGraph(weights=(-2, -2), genera=(0, 0), mult=[[0, 1], [1, 0]]
                           ).intersection_matrix().entries == ((-2, 1), (1, -2))


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
    return (
        f"vertices: {d['vertices']}\n"
        f"weights: {' '.join(map(str, d['weights']))}\n"
        f"genera: {' '.join(map(str, d['genera']))}\n"
        f"edges: {' '.join(f'{i}-{j}:{m}' for i, j, m in d['edges'])}\n"
        + (f"labels: {' '.join(d['labels'])}\n" if "labels" in d else "")
    )


_A2_DATA = {"vertices": 2, "weights": [-2, -2], "genera": [0, 0], "edges": [[1, 2, 1]]}


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


# keys of table rows; render_json writes them into a %-template
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


def test_render_json_renders_a_shared_list_at_each_depth():
    ints = [1, -2, 3]  # a list of integers: the kind of list the memo keeps
    mixed = [ints, {"k": True}, []]
    docs = [
        [ints, ints, ints],
        [ints, [ints, [ints]]],
        {"a": ints, "b": [ints], "c": {"d": ints}},
        [mixed, {"m": mixed}, [[mixed]], mixed],
    ]
    for doc in docs:
        assert render_json(doc) == json.dumps(doc, indent=2)


_DIVISOR = [3, 2, 1]
# (name, list) that render_json must render by its row template
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
# (name, list) that render_json must hand to the generic recursion
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
    out = []
    assert _render_table(rows, "\n  ", out, {})
    doc = {"table": rows, "again": [rows, _DIVISOR]}
    assert render_json(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("rows", [t for _, t in _NOT_TABLES], ids=[n for n, _ in _NOT_TABLES])
def test_render_json_falls_back_on_other_lists(rows):
    out = []
    assert not _render_table(rows, "\n  ", out, {})
    assert out == []
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
        assert render_json(doc) == json.dumps({"table": records, "again": [records, _DIVISOR]},
                                              indent=2)


@pytest.mark.parametrize("column", [[[1], []], [[1], [1, True]], [[1], ["1"]]])
def test_render_json_refuses_a_column_table_of_other_lists(column):
    with pytest.raises(ValueError, match="non-empty lists of ints"):
        render_json([_Table(("divisor",), (("lists", column),), 2)])


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit cap")
def test_render_json_table_obeys_the_int_digit_cap():
    big = -(10 ** 4400)
    docs = [
        [{"index": [1, 2], "value": big}] * 2,
        [{"pair": [1, big], "divisor": _DIVISOR}] * 2,
        [{"pair": [1, 2], "divisor": [1, 2, big]}] * 2,
        [[1, big], [2, 3]],
    ]
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for doc in docs:
            with pytest.raises(ValueError) as ours:
                render_json(doc)
            with pytest.raises(ValueError) as stdlib:
                json.dumps(doc, indent=2)
            assert str(ours.value) == str(stdlib.value)
            with _uncapped_int_str():
                assert render_json(doc) == json.dumps(doc, indent=2)
    finally:
        sys.set_int_max_str_digits(cap)
