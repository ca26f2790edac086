import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashcone import (
    GraphFormatError,
    IntersectionMatrix,
    ResolutionGraph,
    canonical_intersections,
    graph_to_json_dict,
    is_negative_definite,
    load_graph,
    make_family,
    parse_graph,
    parse_graph_json,
    serialize_graph,
    serialize_graph_json,
    validate,
)
from nashcone.graph import MAX_VERTICES

from oracles import negdef_brute

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


def test_intersection_matrix_is_built_once(a2):
    M = a2.intersection_matrix()
    assert a2.intersection_matrix() is M
    assert M.entries == ((-2, 1), (1, -2))
    # the kept matrix is not a field: equality with a fresh graph still holds
    assert a2 == parse_graph(A2_TEXT)


def test_intersection_matrix_requires_symmetry():
    with pytest.raises(ValueError):
        IntersectionMatrix(((-2, 1), (0, -2)))


def test_negative_definite_known_cases():
    assert is_negative_definite(IntersectionMatrix(((-2, 1, 0), (1, -2, 1), (0, 1, -2))))
    assert not is_negative_definite(IntersectionMatrix(((-1, 1), (1, -1))))
    assert not is_negative_definite(IntersectionMatrix(((-2, 3), (3, -2))))


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
        assert is_negative_definite(M) == negdef_brute(M), M.entries


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
    ],
)
def test_value_errors_read_the_same_in_both_formats(change, fragment):
    data = dict(_A2_DATA, **change)
    messages = []
    for parse, text in ((parse_graph, _graph_text(data)), (parse_graph_json, json.dumps(data))):
        with pytest.raises(GraphFormatError) as exc:
            parse(text)
        messages.append(re.sub(r"^line \d+: ", "", str(exc.value)))
    assert messages[0] == messages[1]
    assert fragment in messages[0]


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
