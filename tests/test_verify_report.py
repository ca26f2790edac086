"""Every emitted report checked against its own graph by
oracles.verify_report, which rebuilds M from the report's ``graph`` key and
uses no code of the package."""

import copy
import json

import pytest

from nashcone.cli import main

from oracles import verify_report

# the benchmark's analyze families at n <= 30
_FAMILIES = (
    ("an", "10"), ("an", "20"), ("an", "30"),
    ("dn", "10"), ("dn", "20"), ("dn", "30"),
    ("cycle", "10", "-3"), ("cycle", "20", "-3"), ("cycle", "30", "-3"),
    ("star3", "5"),
)

# a labelled, non-minimal graph with a genus-1 vertex and a double edge
_LABELLED = (
    "vertices: 4\nweights: -1 -3 -5 -2\ngenera: 0 1 0 0\n"
    "edges: 1-2:1 2-3:2 2-4:1\nlabels: top mid low tail\n"
)


def _stdout_of(capsys, argv) -> str:
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


@pytest.mark.parametrize("bounds", [("3", "-2", "2", "2"), ("4", "-4", "1", "1")])
def test_every_enumerate_line_agrees_with_its_graph(bounds, capsys):
    v, w, g, m = bounds
    out = _stdout_of(capsys, ["enumerate", "--max-vertices", v, "--min-weight", w,
                              "--max-genus", g, "--max-mult", m])
    lines = out.splitlines()
    assert lines
    for line in lines:
        verify_report(json.loads(line))


@pytest.mark.parametrize("family", _FAMILIES, ids=" ".join)
def test_analyze_json_of_both_formats_agrees_with_its_graph(family, tmp_path, capsys):
    text, mirror = tmp_path / "g.graph", tmp_path / "g.json"
    _stdout_of(capsys, ["family", *family, "-o", str(text)])
    _stdout_of(capsys, ["family", *family, "--json", "-o", str(mirror)])
    reports = [_stdout_of(capsys, ["analyze", "--json", str(p)]) for p in (text, mirror)]
    assert reports[0] == reports[1]
    verify_report(json.loads(reports[0]))


def test_analyze_json_of_a_labelled_graph_agrees_with_its_graph(tmp_path, capsys):
    path = tmp_path / "g.graph"
    path.write_text(_LABELLED)
    doc = json.loads(_stdout_of(capsys, ["analyze", "--json", str(path)]))
    assert doc["validation"]["messages"] and doc["star"]["failing_pairs"]
    verify_report(doc)


def _mutants(doc):
    """The report with one (**) violation dropped, with one failing pair
    dropped, with Z one higher at its first vertex, with its last note
    dropped, with its first two notes swapped, and with one word of its
    last note changed."""
    dropped = copy.deepcopy(doc)
    dropped["star_star"]["violations"].pop()
    yield dropped
    dropped = copy.deepcopy(doc)
    dropped["star"]["failing_pairs"].pop()
    yield dropped
    raised = copy.deepcopy(doc)
    raised["fundamental_cycle"][0] += 1
    yield raised
    dropped = copy.deepcopy(doc)
    dropped["notes"].pop()
    yield dropped
    swapped = copy.deepcopy(doc)
    swapped["notes"][:2] = swapped["notes"][1::-1]
    yield swapped
    changed = copy.deepcopy(doc)
    changed["notes"][-1] = changed["notes"][-1].replace(" only ", " alone ")
    yield changed


def test_verify_report_refuses_a_changed_report(tmp_path, capsys):
    path = tmp_path / "g.graph"
    path.write_text(_LABELLED)
    doc = json.loads(_stdout_of(capsys, ["analyze", "--json", str(path)]))
    assert doc["star_star"]["violations"] and doc["star"]["failing_pairs"]
    assert len(doc["notes"]) == 2 and " only " in doc["notes"][-1]
    for mutant in _mutants(doc):
        with pytest.raises(AssertionError):
            verify_report(mutant)
