import contextlib
import errno
import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import weakref
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nashcone import (
    ConeStatus,
    Divisor,
    InternalInvariantError,
    ResolutionGraph,
    enumerate_graphs,
    lipman_status,
    load_graph,
    make_family,
    nash_verdict,
    parse_graph_json,
    serialize_graph,
    serialize_graph_json,
    validate,
)
from nashcone import cli as cli_module
from nashcone.cli import _criterion_json, emit_report, main, report_to_dict
from nashcone.graph import _genus_variant, render_json
from nashcone.vanishing import laufer_criterion, realization_criterion

from oracles import criterion_dict_plain, report_dict_plain

A2_REPORT = """\
graph: 2 vertices
  E1: weight -2, genus 0
  E2: weight -2, genus 0
  edges: E1-E2:1
validation: negative_definite=yes connected=yes minimal=yes
star_star: holds
star: holds
  witness E1<E2: 4 5
  witness E2<E1: 5 4
fundamental_cycle: 1 1
pa_fundamental: 0
artin_rational: yes
structural: tree=yes all_genus_zero=yes iii_holds=yes verdict=yes
nash_verdict: BijectiveByStarStar
notes:
  - component smoothness is inferred from arithmetic genus zero in the structural check
"""


@pytest.fixture
def graph_file(tmp_path):
    def write(g, name="g.graph"):
        path = tmp_path / name
        path.write_text(serialize_graph(g))
        return str(path)

    return write


def test_analyze_text_golden(graph_file, capsys):
    code = main(["analyze", graph_file(make_family("an", 2))])
    out, err = capsys.readouterr()
    assert code == 0
    assert out == A2_REPORT
    assert err == ""


@pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
def test_analyze_tests_connectivity_once(extra, graph_file, capsys):
    # the matrix computes it when the graph builds it; validation and the
    # structural check read it
    import nashcone.graph as graph_mod

    path = graph_file(make_family("dn", 6))
    with mock.patch.object(graph_mod, "is_connected", wraps=graph_mod.is_connected) as counting:
        assert main(["analyze", *extra, path]) == 0
    capsys.readouterr()
    assert counting.call_count == 1


def test_analyze_json_schema_and_values(graph_file, capsys):
    path = graph_file(make_family("an", 3))
    assert main(["analyze", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == [
        "graph", "validation", "star_star", "star", "fundamental_cycle",
        "pa_fundamental", "artin_rational", "structural", "nash_verdict", "notes",
    ]
    assert report["nash_verdict"] == "BijectiveByStar"
    assert report["star_star"] == {"holds": False, "violations": [2]}
    assert report["star"]["holds"] is True
    assert report["star"]["failing_pairs"] == []
    assert [w["pair"] for w in report["star"]["witnesses"]] == [
        [1, 2], [1, 3], [2, 1], [2, 3], [3, 1], [3, 2],
    ]
    assert report["fundamental_cycle"] == [1, 1, 1]
    assert report["artin_rational"] is True


def test_analyze_json_is_byte_deterministic(graph_file, capsys):
    path = graph_file(make_family("star3", 6))
    assert main(["analyze", path, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", path, "--json"]) == 0
    assert capsys.readouterr().out == first


def test_analyze_empty_notes_stay_present(graph_file, capsys):
    # a non-rational vertex report carries no notes but the key must exist
    path = graph_file(make_family("vertex", 2, -1))
    assert main(["analyze", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["notes"] == []
    assert report["nash_verdict"] == "BijectiveByStarStar"


def test_analyze_rejects_unanalyzable(tmp_path, capsys):
    path = tmp_path / "bad.graph"
    path.write_text("vertices: 2\nweights: -1 -1\ngenera: 0 0\nedges: 1-2:1\n")
    code = main(["analyze", str(path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert "negative definite" in err


def test_witness_and_check_reject_unanalyzable(tmp_path, capsys):
    # the det-0 double edge: witness must refuse (exit 1), not crash on
    # the singular inverse (exit 2)
    path = tmp_path / "bad.graph"
    path.write_text("vertices: 2\nweights: -2 -2\ngenera: 0 0\nedges: 1-2:2\n")
    code = main(["witness", str(path), "--pair", "1", "2"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert "negative definite" in err
    code = main(["check", str(path), "--criterion", "laufer", "--divisor", "1,1"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert "negative definite" in err


def test_analyze_missing_file(capsys):
    code = main(["analyze", "/no/such/file.graph"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err != ""


def test_analyze_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "syntax.graph"
    path.write_text("vertices: two\nweights: -2\ngenera: 0\nedges:\n")
    code = main(["analyze", str(path)])
    assert code == 1
    assert "line 1" in capsys.readouterr().err


def test_witness_found(graph_file, capsys):
    path = graph_file(make_family("an", 3))
    assert main(["witness", path, "--pair", "1", "3"]) == 0
    assert capsys.readouterr().out == "7 10 9\n"


def test_witness_none(graph_file, capsys):
    path = graph_file(make_family("dn", 4))
    assert main(["witness", path, "--pair", "2", "1"]) == 0
    assert capsys.readouterr().out == "none\n"


def test_witness_bad_pairs(graph_file, capsys):
    path = graph_file(make_family("an", 3))
    assert main(["witness", path, "--pair", "1", "1"]) == 1
    assert main(["witness", path, "--pair", "0", "2"]) == 1
    assert main(["witness", path, "--pair", "1", "4"]) == 1
    err = capsys.readouterr().err
    assert "distinct" in err


def test_family_emits_graph_file(capsys):
    assert main(["family", "an", "2"]) == 0
    out = capsys.readouterr().out
    assert out == "vertices: 2\nweights: -2 -2\ngenera: 0 0\nedges: 1-2:1\n"


def test_family_negative_parameter(capsys):
    assert main(["family", "vertex", "2", "-1"]) == 0
    out = capsys.readouterr().out
    assert "weights: -1" in out and "genera: 2" in out


def test_family_json_round_trip(capsys):
    assert main(["family", "star3", "5", "--json"]) == 0
    g = parse_graph_json(capsys.readouterr().out)
    assert g == make_family("star3", 5)


def test_family_output_file(tmp_path, capsys):
    target = tmp_path / "out.graph"
    assert main(["family", "cycle", "3", "-3", "-o", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == serialize_graph(make_family("cycle", 3, -3))


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "cycle", "2", "-3"],
        ["family", "bogus", "1"],
        ["family", "an", "1", "2"],
        ["family", "an", "x"],
    ],
)
def test_family_bad_parameters(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err != ""


def test_check_laufer_golden(graph_file, capsys):
    path = graph_file(make_family("vertex", 2, -1))
    assert main(["check", path, "--criterion", "laufer", "--divisor", "4"]) == 0
    out = capsys.readouterr().out
    assert out == "criterion: laufer\nsatisfied: no\nvalue(E1) = 2  VIOLATED\n"


_LABELLED_A3 = ResolutionGraph(weights=(-2, -3, -2), genera=(0, 1, 0),
                               mult=((0, 1, 0), (1, 0, 1), (0, 1, 0)), labels=("a", "b", "c"))


def test_check_realization_text_golden(graph_file, capsys):
    path = graph_file(_LABELLED_A3)
    assert main(["check", path, "--criterion", "realization", "--divisor", "1,2,1"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (
        "criterion: realization\n"
        "satisfied: no\n"
        "value(a,a) = 0\n"
        "value(a,b) = 0\n"
        "value(a,c) = 0\n"
        "value(b,a) = 1  VIOLATED\n"
        "value(b,b) = -2\n"
        "value(b,c) = 1  VIOLATED\n"
        "value(c,a) = 0\n"
        "value(c,b) = 0\n"
        "value(c,c) = 0\n"
    )


@pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
def test_check_to_a_closed_stdout_exits_zero(extra, graph_file, monkeypatch, capsys):
    path = graph_file(_LABELLED_A3)
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    assert main(["check", path, "--criterion", "realization", "--divisor", "1,2,1", *extra]) == 0
    assert capsys.readouterr().err == ""


def test_check_realization_json(graph_file, capsys):
    from nashcone import ResolutionGraph

    g = ResolutionGraph(weights=(-4, -2), genera=(0, 0), mult=((0, 2), (2, 0)))
    path = graph_file(g)
    code = main(["check", path, "--criterion", "realization", "--divisor", "4,4", "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["criterion"] == "realization"
    assert data["satisfied"] is False
    assert data["violating"] == [[1, 2]]
    values = {tuple(e["index"]): e["value"] for e in data["values"]}
    assert values == {(1, 1): -8, (1, 2): 2, (2, 1): -4, (2, 2): 0}


@pytest.mark.parametrize(
    "divisor",
    ["4,x", "4,4,4", "-1,1", "0,0"],
)
def test_check_bad_divisors(graph_file, divisor, capsys):
    path = graph_file(make_family("an", 2))
    assert main(["check", path, "--criterion", "laufer", "--divisor", divisor]) == 1
    assert capsys.readouterr().err != ""


def test_check_unknown_criterion(graph_file, capsys):
    path = graph_file(make_family("an", 2))
    assert main(["check", path, "--criterion", "nonsense", "--divisor", "1,1"]) == 1
    assert capsys.readouterr().err != ""


def test_enumerate_json_lines(capsys):
    code = main(["enumerate", "--max-vertices=2", "--min-weight=-2",
                 "--max-genus=0", "--max-mult=2"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    reports = [json.loads(line) for line in lines]
    assert all(r["validation"]["negative_definite"] for r in reports)
    assert reports[0]["graph"]["vertices"] == 1


def test_enumerate_stdout_digest_is_pinned(capsys):
    assert main(["enumerate", "--max-vertices", "3", "--min-weight", "-3", "--max-genus", "1",
                 "--max-mult", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 207
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "765c854bb27d950c19c6aa65580b7b492a5b078052da69f3da95c598ca542c6b")


def test_enumerate_stdout_digest_of_genus_variants_is_pinned(capsys):
    # 81 matrix and genus keys over 1,422 lines: nearly every line reads its
    # validation, structural report and notes from a kept record
    assert main(["enumerate", "--max-vertices=3", "--min-weight=-3", "--max-genus=3",
                 "--max-mult=2"]) == 0
    out = capsys.readouterr().out.encode()
    assert (out.count(b"\n"), len(out)) == (1422, 1028507)
    assert hashlib.sha256(out).hexdigest() == (
        "93ace2ca680f66afb2b9cf2d2e008655ce5e102843b52fb201c5f2b739decc3f")


# bounds past the brute-force oracle's reach, pinned from the orbit-marking
# enumerator that walked every edge encoding
@pytest.mark.parametrize(
    "bounds, lines, size, digest",
    [
        (["7", "-2", "0", "1"], 20, 27648,
         "e0f042f8cc90db1aaccac8a75585d7fef215743b308499fe210afbced7fcd737"),
        (["6", "-2", "0", "2"], 16, 18774,
         "9b06d3e99d0350129cb5525d542f6928fba779162c0644879df68ca03921a7da"),
        # pinned from the output at commit 4767dd0, not from the orbit walk
        (["6", "-3", "0", "1"], 1654, 3072580,
         "83e931b6e9c853f4c51b1a920d4811d9228aca3adea08bfe15382a1cdf835858"),
    ],
)
def test_enumerate_stdout_digest_is_pinned_past_the_oracle(bounds, lines, size, digest, capsys):
    flags = ["--max-vertices", "--min-weight", "--max-genus", "--max-mult"]
    assert main(["enumerate"] + [f"{f}={b}" for f, b in zip(flags, bounds)]) == 0
    out = capsys.readouterr().out.encode()
    assert (out.count(b"\n"), len(out)) == (lines, size)
    assert hashlib.sha256(out).hexdigest() == digest


def _compact_report(g: ResolutionGraph) -> str:
    """The enumerate line of g, from a copy of g that shares no matrix."""
    fresh = ResolutionGraph(g.weights, g.genera, g.mult, g.labels)
    return json.dumps(report_dict_plain(nash_verdict(fresh)), separators=(",", ":"))


@pytest.mark.parametrize("bounds", [(3, -3, 1, 2), (4, -4, 1, 1), (3, -2, 1, 1)])
def test_spliced_enum_line_matches_an_unshared_report(bounds):
    # weights run up to -1, so some heads carry non-minimal warnings
    warned = 0
    for g in enumerate_graphs(*bounds):
        line = cli_module._enum_line(g)
        assert line == _compact_report(g)
        warned += "warning:" in line
    assert warned > 0


def test_spliced_enum_line_of_labelled_graphs():
    # labels that look like the splice point, and a second graph that reads
    # the matrix part its sibling rendered
    mult = ((0, 1, 0), (1, 0, 2), (0, 2, 0))
    first = ResolutionGraph((-2, -3, -5), (0, 1, 0), mult, (',"pa_fundamental":', 'a"b', "c\\"))
    second = _genus_variant(first, (1, 0, 0))
    for g in (first, second):
        assert cli_module._enum_line(g) == _compact_report(g)
    assert "_enum_template" in first.intersection_matrix().__dict__


@pytest.mark.parametrize("bounds,lines,matrices", [((3, -2, 2, 2), 66, 6), ((4, -3, 2, 1), 4276, 86)])
def test_templated_enum_line_matches_an_unshared_report(bounds, lines, matrices):
    # within one matrix, every per-graph slot of the template must change
    # somewhere: the validation text, p_a and the tail
    slots = {}  # id of a matrix -> the matrix, kept alive, and the values each slot took
    count = 0
    for g in enumerate_graphs(*bounds):
        assert cli_module._enum_line(g) == _compact_report(g)
        count += 1
        r = nash_verdict(g)
        M = g.intersection_matrix()
        taken = slots.setdefault(id(M), (M, set(), set(), set()))[1:]
        for values, value in zip(taken, (r.validation.minimal, r.pa_fundamental,
                                         r.structural.all_genus_zero)):
            values.add(value)
    assert (count, len(slots)) == (lines, matrices)
    assert any(all(len(values) > 1 for values in entry[1:]) for entry in slots.values())


def test_templated_enum_line_of_labelled_variants_that_flip_minimality():
    # the genus-0 (-1)-curve of the first graph warns under its label, and a
    # variant that gives it genus 1 is minimal; the second and the last
    # graphs share their validation and tail texts but not p_a. The labels
    # look like the points the template is cut at.
    mult = ((0, 1, 0), (1, 0, 1), (0, 1, 0))
    first = ResolutionGraph((-1, -3, -5), (0, 0, 0), mult, ('"genera":[', '],"edges":', 'c"\\'))
    variants = [first] + [_genus_variant(first, genera) for genera in [(1, 0, 0), (0, 2, 0), (1, 1, 1)]]
    lines = [cli_module._enum_line(g) for g in variants]
    assert lines == [_compact_report(g) for g in variants]
    docs = [json.loads(line) for line in lines]
    assert [doc["validation"]["minimal"] for doc in docs] == [False, True, False, True]
    assert [doc["pa_fundamental"] for doc in docs] == [0, 1, 2, 3]
    assert len(first.intersection_matrix()._enum_template[3]) == 3


def test_enumerate_builds_the_graph_halves_once_per_matrix(capsys):
    with mock.patch.object(cli_module, "_graph_halves", wraps=cli_module._graph_halves) as halves, \
            mock.patch.object(cli_module, "report_to_dict", wraps=report_to_dict) as reports:
        assert main(["enumerate", "--max-vertices=4", "--min-weight=-4", "--max-genus=1"]) == 0
    assert capsys.readouterr().out.count("\n") == 4467
    assert halves.call_count == 357
    assert reports.call_count == 0


def test_enumerate_renders_the_matrix_part_once_per_matrix(capsys):
    with mock.patch.object(cli_module, "_matrix_dict", wraps=cli_module._matrix_dict) as counting:
        assert main(["enumerate", "--max-vertices=4", "--min-weight=-4", "--max-genus=1"]) == 0
    assert capsys.readouterr().out.count("\n") == 4467
    assert counting.call_count == 357


def test_analyze_after_enumerate_gives_the_same_bytes(graph_file, capsys):
    # what enumerate keeps lives on its own matrices, not in the process
    path = graph_file(make_family("dn", 4))
    assert main(["analyze", "--json", path]) == 0
    before = capsys.readouterr().out
    assert main(["enumerate", "--max-vertices=4", "--min-weight=-2", "--max-genus=0"]) == 0
    assert capsys.readouterr().out.count("\n") > 0
    assert main(["analyze", "--json", path]) == 0
    assert capsys.readouterr().out == before


def test_enumerate_bad_bounds(capsys):
    assert main(["enumerate", "--max-vertices=0", "--min-weight=-2", "--max-genus=0"]) == 1
    assert capsys.readouterr().err != ""


_ONE_VERTEX_GENERA = ["enumerate", "--max-vertices", "1", "--min-weight", "-1",
                      "--max-genus", "20000"]


@pytest.mark.parametrize("argv", [
    _ONE_VERTEX_GENERA,
    ["analyze", "--json", "AN120"],
    # a genus bound far past what memory holds: the genera must come lazily
    [*_ONE_VERTEX_GENERA[:-1], str(10**20)],
], ids=["enumerate", "analyze-json", "enumerate-genus-1e20"])
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_zero_without_stderr(argv, buffered, tmp_path):
    """A reader that stops after one line (``| head -n 1``) is a normal end:
    the process exits 0 and writes nothing to stderr, whatever the size of
    the output it did not get to write. With a buffered stdout (the default
    for a pipe) the unwritten rest is flushed again at shutdown; with
    PYTHONUNBUFFERED set it is not, so both are run."""
    import nashcone

    if "AN120" in argv:
        path = tmp_path / "an120.graph"
        path.write_text(serialize_graph(make_family("an", 120)))
        argv = [str(path) if a == "AN120" else a for a in argv]
    src = os.path.dirname(os.path.dirname(os.path.abspath(nashcone.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-c", "from nashcone.cli import entry; entry()", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert first.startswith(b"{")
    assert err == b""


class _ClosedStdout(io.StringIO):
    def write(self, s):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"], ["family", "an", "3"]])
def test_closed_stdout_returns_zero_in_process(argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def _one_error_line(err: str) -> bool:
    return err.startswith("error:") and err.count("\n") == 1


def test_enumerate_over_table_cap_exits_1(capsys):
    import tracemalloc

    args = ["enumerate", "--max-vertices", "7", "--min-weight=-2", "--max-genus=0",
            "--max-mult", "2"]
    tracemalloc.start()
    try:
        code = main(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and _one_error_line(err) and "cap" in err
    assert peak < 1 << 20  # the refused table would take 3**21 bytes, 10 GB


def test_enumerate_parallel_is_no_longer_an_option(capsys):
    args = ["enumerate", "--max-vertices=2", "--min-weight=-2", "--max-genus=0"]
    assert main(args + ["--parallel", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "--parallel" in err and "Traceback" not in err


def test_internal_error_maps_to_exit_2(graph_file, capsys, monkeypatch):
    import nashcone.cli as cli_mod

    def boom(_):
        raise InternalInvariantError("synthetic failure")

    monkeypatch.setattr(cli_mod, "nash_verdict", boom)
    path = graph_file(make_family("an", 2))
    assert main(["analyze", path]) == 2
    assert "internal error" in capsys.readouterr().err


def test_memory_error_maps_to_one_line_and_exit_1(graph_file, capsys, monkeypatch):
    import nashcone.cli as cli_mod

    def exhausted(_):
        raise MemoryError

    monkeypatch.setattr(cli_mod, "nash_verdict", exhausted)
    path = graph_file(make_family("an", 2))
    assert main(["analyze", path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: out of memory\n"  # one line, no traceback


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "analyze" in capsys.readouterr().out


def test_unknown_verb(capsys):
    assert main(["frobnicate"]) == 1
    assert capsys.readouterr().err != ""


def test_main_returns_the_exit_code_of_a_command(monkeypatch, capsys):
    def exit3():
        """End with exit code 3."""
        return 3

    monkeypatch.setitem(cli_module.VERBS, "exit3", (exit3, "", []))
    assert main(["exit3"]) == 3
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("verb", ["analyze", "witness", "family", "enumerate", "check"])
def test_verb_help_goes_to_stdout(verb, capsys):
    assert main([verb, "--help"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith(f"Usage: nashcone {verb} [OPTIONS]")
    for opt in cli_module.VERBS[verb][2]:
        assert f"\n  {opt.names} {opt.metavar}".rstrip() in out


def _usage_error_cases(graph_file) -> dict:
    path = graph_file(make_family("an", 2))
    return {
        "criterion": ["check", path, "--criterion", "x" * 100_000, "--divisor", "1,1"],
        "verb": ["v" * 100_010],
        "option": ["analyze", path, "--" + "o" * 100_000],
        "missing-file": ["analyze", "/" + "m/" * 2499 + "m"],
    }


@pytest.mark.parametrize("case", ["criterion", "verb", "option", "missing-file"])
def test_usage_errors_give_one_short_error_line(case, graph_file, capsys):
    argv = _usage_error_cases(graph_file)[case]
    assert max(map(len, argv)) >= 5_000
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and _one_error_line(err)
    assert len(err) <= 200


@pytest.mark.parametrize("argv,size,digest", [
    (["enumerate", "--max-vertices", "2", "--min-weight=-2", "--max-genus", "1"],
     6674, "e8bb6a4191759ad2f5ddb6e209fd04913df8e7fc2c79646ebe59b75497e8b573"),
    (["enumerate", "--max-vertices", "3", "--min-weight", "-4", "--max-genus", "0", "--max-mult=2"],
     92507, "bdffb75c900529cc238f49f975bb4e0abb7276a6133cecd419a181ed3a82b52e"),
    (["family", "cycle", "10", "-3"],
     149, "1e9ea8d51e1ca6fd6e4b2f613fac7afe3e7abb0b6c0acfd7f904e1138327408b"),
    (["analyze", "--json", "AN3"],
     1797, "7a8d7d8727f1599c291b1184644182f629ea1871153d4a91daf0e48a29449aa2"),
    (["analyze", "AN3", "--json"],
     1797, "7a8d7d8727f1599c291b1184644182f629ea1871153d4a91daf0e48a29449aa2"),
], ids=["option=negative", "option-negative", "family-negative", "flag-first", "flag-last"])
def test_option_spellings_give_the_pinned_bytes(argv, size, digest, graph_file, capsys):
    path = graph_file(make_family("an", 3))
    assert main([path if a == "AN3" else a for a in argv]) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (size, digest)


def test_the_verbs_run_without_click(graph_file, capsys):
    # click is not a dependency: with its import made to fail before
    # nashcone.cli is imported, each verb still gives the in-process bytes
    import nashcone

    path = graph_file(_LABELLED_A3)
    src = os.path.dirname(os.path.dirname(os.path.abspath(nashcone.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys; sys.modules['click'] = None; from nashcone.cli import entry; entry()"
    for argv in (["family", "an", "3"], ["witness", path, "--pair", "1", "3"],
                 ["check", path, "--criterion", "realization", "--divisor", "1,2,1", "--json"]):
        assert main(argv) == 0
        want = capsys.readouterr().out.encode()
        proc = subprocess.run([sys.executable, "-c", code, *argv],
                              capture_output=True, env=env, timeout=120)
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, b"", want), argv


def test_keyboard_interrupt_in_a_command_exits_1(monkeypatch, capsys):
    def interrupted(*_):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli_module, "make_family", interrupted)
    assert main(["family", "an", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip() == "aborted"


def test_family_output_to_a_missing_directory_exits_1(tmp_path, capsys):
    assert main(["family", "an", "3", "-o", str(tmp_path / "missing" / "x.graph")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert _one_error_line(err) and f"[Errno {errno.ENOENT}]" in err and "x.graph" in err


def _big_graph_text(digits: int) -> str:
    w = "-" + "9" * digits
    return f"vertices: 3\nweights: {w} {w} {w}\ngenera: 0 0 0\nedges: 1-2:1 2-3:1\n"


@contextlib.contextmanager
def _no_int_str_cap():
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(cap)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int -> str digit cap")
def test_output_integers_may_exceed_the_int_str_digit_cap(tmp_path, capsys):
    # three weights of 3,000 digits give witnesses of up to 6,001 digits,
    # past CPython's default cap of 4,300 digits on int -> str
    cap = sys.get_int_max_str_digits()
    path = tmp_path / "big.graph"
    path.write_text(_big_graph_text(3000))
    g = load_graph(path.read_text())
    assert main(["analyze", str(path)]) == 0
    text = capsys.readouterr()
    assert main(["analyze", str(path), "--json"]) == 0
    report = capsys.readouterr()
    pairs = [(i, j) for i in range(1, 4) for j in range(1, 4) if i != j]
    printed = {}
    for i, j in pairs:
        assert main(["witness", str(path), "--pair", str(i), str(j)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        printed[(i, j)] = out
    # criterion values of a 4,001-digit divisor on 3,000-digit weights
    d = "1" + "0" * 4000
    for extra in ([], ["--json"]):
        assert main(["check", str(path), "--criterion", "realization", "--divisor", f"{d},{d},{d}", *extra]) == 0
        assert capsys.readouterr().err == ""
    with _no_int_str_cap():  # outside main the caller lifts the cap, as _write does
        line = cli_module._enum_line(g)
    assert sys.get_int_max_str_digits() == cap
    assert text.err == report.err == ""
    with _no_int_str_cap():
        doc = json.loads(report.out)
        assert json.loads(line) == doc
        witnesses = {tuple(w["pair"]): Divisor(tuple(w["divisor"])) for w in doc["star"]["witnesses"]}
        assert sorted(witnesses) == pairs
        assert max(len(str(c)) for w in witnesses.values() for c in w) == 6001
        M = g.intersection_matrix()
        for (i, j), w in witnesses.items():
            assert lipman_status(w, M) is ConeStatus.STRICT_LIPMAN
            assert w[i - 1] < w[j - 1]
            assert printed[(i, j)] == " ".join(map(str, w)) + "\n"
            assert f"witness E{i}<E{j}: {' '.join(map(str, w))}\n" in text.out


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int -> str digit cap")
def test_input_integers_over_the_int_str_digit_cap_are_refused(tmp_path, capsys):
    cap = sys.get_int_max_str_digits()
    path = tmp_path / "huge.graph"
    path.write_text(_big_graph_text(5000))
    assert main(["analyze", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and _one_error_line(err) and err.startswith("error: line 2:")
    path.write_text(serialize_graph(make_family("an", 2)))
    assert main(["check", str(path), "--criterion", "laufer", "--divisor", "1," + "9" * 5000]) == 1
    out, err = capsys.readouterr()
    assert out == "" and _one_error_line(err)
    assert sys.get_int_max_str_digits() == cap


def _huge_token_cases(tmp_path):
    nines = "9" * 5000
    text = tmp_path / "huge.graph"
    text.write_text(_big_graph_text(5000))
    doc = tmp_path / "huge.json"
    doc.write_text('{"vertices": 2, "weights": [-%s, -2], "genera": [0, 0], '
                   '"edges": [[1, 2, 1]]}' % nines)
    small = tmp_path / "an2.graph"
    small.write_text(serialize_graph(make_family("an", 2)))
    return {
        "text-weight": ["analyze", str(text)],
        "json-weight": ["analyze", str(doc)],
        "family-parameter": ["family", "an", nines],
        "bad-divisor": ["check", str(small), "--criterion", "laufer", "--divisor", "x" * 3000],
    }


@pytest.mark.parametrize("case", ["text-weight", "json-weight", "family-parameter",
                                  "bad-divisor"])
def test_huge_input_tokens_give_one_short_error_line(case, tmp_path, capsys):
    assert main(_huge_token_cases(tmp_path)[case]) == 1
    out, err = capsys.readouterr()
    assert out == "" and _one_error_line(err)
    assert len(err.encode()) < 200
    assert "set_int_max_str_digits" not in err
    if hasattr(sys, "get_int_max_str_digits") and case != "bad-divisor":
        cap = sys.get_int_max_str_digits()
        assert f"integer literal has 5000 digits; the limit is {cap}" in err
    if case == "bad-divisor":
        assert "(3000 characters)" in err


_LONG = 100_000  # characters of a long string token
_WIDE = int("9" * 4300)  # the widest int input may hold, at the digit cap
_AN2 = {"vertices": 2, "weights": [-2, -2], "genera": [0, 0], "edges": [[1, 2, 1]]}

# message -> the fields of an otherwise valid two-vertex graph that trigger
# it, and the file formats in which it can occur
_LONG_VALUE_CASES = {
    "weight": ({"weights": [_WIDE, -2]}, ("text", "json")),
    "genus": ({"genera": [-_WIDE, 0]}, ("text", "json")),
    "vertex-count": ({"vertices": _WIDE}, ("text", "json")),
    "edge-endpoints": ({"edges": [[_WIDE, _WIDE, 1]]}, ("text", "json")),
    "edge-multiplicity": ({"edges": [[1, 2, -_WIDE]]}, ("text", "json")),
    "invalid-label": ({"labels": ["x" * _LONG + "\x01", "b"]}, ("text", "json")),
    "escaped-label": ({"labels": ["\x01" * _LONG, "b"]}, ("text", "json")),
    "invalid-label-value": ({"labels": [[1] * _LONG, "b"]}, ("json",)),
    "duplicate-label": ({"labels": ["x" * _LONG] * 2}, ("text", "json")),
    "edge-entry": ({"edges": [[1] * _LONG]}, ("json",)),
    "integer-token": ({"weights": ["x" * _LONG, "-2"]}, ("text",)),
    "unrecognized-line": ({"z" * _LONG: ""}, ("text",)),
    "malformed-edge": ({"edges": ["1" * _LONG]}, ("text",)),
}


def _graph_file_text(data: dict, fmt: str) -> str:
    """``data`` as a graph file of format ``fmt``; a text-format edge given
    as a str is written as it is."""
    if fmt == "json":
        return json.dumps(data)
    lines = []
    for key, value in data.items():
        if key == "edges":
            value = [e if isinstance(e, str) else "%d-%d:%d" % tuple(e) for e in value]
        if isinstance(value, list):
            value = " ".join(map(str, value))
        lines.append(f"{key}: {value}" if value != "" else key)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("case,fmt", [
    (case, fmt) for case, (_, formats) in _LONG_VALUE_CASES.items() for fmt in formats
])
def test_long_values_in_graph_files_are_quoted_by_their_first_40_characters(case, fmt, tmp_path, capsys):
    fields, _ = _LONG_VALUE_CASES[case]
    path = tmp_path / f"g.{fmt}"
    path.write_text(_graph_file_text({**_AN2, **fields}, fmt), encoding="utf-8")
    assert main(["analyze", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and _one_error_line(err)
    assert len(err) <= 200
    assert "characters)" in err


@pytest.mark.parametrize("argv", [
    ["family", "k" * _LONG, "3"],
    ["family", "an", str(_WIDE)],
    ["enumerate", "--max-vertices", str(_WIDE), "--min-weight", "-2", "--max-genus", "0"],
    ["enumerate", "--max-vertices", "2", "--min-weight", "-2", "--max-genus", "0",
     "--max-mult", str(_WIDE)],
], ids=["family-kind", "family-vertex-count", "enumerate-vertices", "enumerate-mult"])
def test_long_values_in_arguments_are_quoted_by_their_first_40_characters(argv, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and _one_error_line(err)
    assert len(err) <= 200
    assert "characters)" in err


@pytest.mark.parametrize("kind", ["literal", "junk"])
@pytest.mark.parametrize("option", ["--max-vertices", "--max-mult", "--pair"])
def test_huge_integer_options_give_a_short_error(option, kind, graph_file, capsys):
    # the integer options go through the same reader as graph files
    token = "9" * 5000 if kind == "literal" else "x" * 3000
    if option == "--pair":
        argv = ["witness", graph_file(make_family("an", 2)), "--pair", "1", token]
    else:
        argv = ["enumerate", "--max-vertices", "2", "--min-weight", "-2", "--max-genus", "0",
                option, token]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.encode()) < 300
    assert "set_int_max_str_digits" not in err
    assert f"Invalid value for '{option}': " in err
    if kind == "junk":
        assert f"expected an integer, got {token[:40]!r}... (3000 characters)" in err
    elif hasattr(sys, "get_int_max_str_digits"):
        cap = sys.get_int_max_str_digits()
        assert f"integer literal has 5000 digits; the limit is {cap}" in err


@pytest.mark.parametrize("weights", ["[-2.5, -2]", "[-2.0, -2]", "[true, -2]", "[-2, null]"])
def test_analyze_rejects_non_integer_weights(tmp_path, capsys, weights):
    path = tmp_path / "g.json"
    path.write_text(
        '{"vertices": 2, "weights": %s, "genera": [0, 0], "edges": [[1, 2, 1]]}' % weights
    )
    assert main(["analyze", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


_BASE_GRAPH = {
    "vertices": 3,
    "weights": [-2, -3, -2],
    "genera": [0, 1, 0],
    "edges": [[1, 2, 1], [2, 3, 1]],
}
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=12,
)
_scalars = st.none() | st.booleans() | st.integers(-6, 6) | st.floats(-6, 6) | st.text(max_size=2)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(_BASE_GRAPH)),
    _json_values
    | st.lists(_scalars, max_size=4)
    | st.lists(st.lists(_scalars, min_size=2, max_size=4), max_size=3),
)
def test_analyze_any_json_field_exits_cleanly(key, value):
    # one field of a valid graph replaced by an arbitrary JSON value
    data = dict(_BASE_GRAPH, **{key: value})
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", path])
    assert code in (0, 1), err.getvalue()
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""


def _main_with_peak(args):
    """Run main(args) and return its exit code and the tracemalloc peak."""
    import tracemalloc

    tracemalloc.start()
    try:
        code = main(args)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_CAPPED = 1024  # over the 128-vertex cap; an n x n table would hold 10**6 cells


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_analyze_over_vertex_cap_exits_1(tmp_path, capsys, fmt):
    # E1 and E2 alone already rule out negative definiteness, so code that
    # builds the graph despite the cap stops after one elimination step
    n = _CAPPED
    weights = [-1, -1] + [-2] * (n - 2)
    if fmt == "json":
        text = json.dumps(
            {"vertices": n, "weights": weights, "genera": [0] * n, "edges": [[1, 2, 2]]}
        )
    else:
        text = f"vertices: {n}\nweights: {' '.join(map(str, weights))}\ngenera: {' 0' * n}\nedges: 1-2:2\n"
    path = tmp_path / "big.graph"
    path.write_text(text)
    code, peak = _main_with_peak(["analyze", str(path)])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and _one_error_line(err) and "cap" in err
    assert peak < 1 << 20


def test_family_over_vertex_cap_exits_1(capsys):
    code, peak = _main_with_peak(["family", "an", str(_CAPPED)])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and _one_error_line(err) and "cap" in err
    assert peak < 1 << 20


_BASE_TEXT = serialize_graph(parse_graph_json(json.dumps({**_BASE_GRAPH, "labels": ["a", "T", "b"]})))
_replacements = (
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
    | st.integers(-10**6, 10**6).map(str)
    | st.builds("{}-{}:{}".format, st.integers(0, 4), st.integers(0, 4), st.integers(-1, 3))
    | st.sampled_from(["{", "vertices: 2", "vertices: 1024", "#"])
)


@settings(max_examples=300, deadline=None)
@given(st.data(), _replacements)
def test_analyze_any_text_edit_exits_cleanly(data, replacement):
    # one line, or one token of a line, of a valid text graph replaced by arbitrary text
    lines = _BASE_TEXT.splitlines()
    k = data.draw(st.integers(0, len(lines) - 1), label="line")
    if data.draw(st.booleans(), label="whole line"):
        lines[k] = replacement
    else:
        tokens = lines[k].split()
        tokens[data.draw(st.integers(0, len(tokens) - 1), label="token")] = replacement
        lines[k] = " ".join(tokens)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.graph")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", path])
    assert code in (0, 1), err.getvalue()
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""


@st.composite
def _small_graphs(draw):
    """Connected graphs of at most 5 vertices: a random spanning tree plus
    random extra edges, multiplicities up to 2, optional labels."""
    n = draw(st.integers(1, 5))
    mult = [[0] * n for _ in range(n)]
    for j in range(1, n):
        i = draw(st.integers(0, j - 1))
        mult[i][j] = mult[j][i] = draw(st.integers(1, 2))
    for i in range(n):
        for j in range(i + 1, n):
            if not mult[i][j]:
                mult[i][j] = mult[j][i] = draw(st.sampled_from([0, 0, 0, 1]))
    labels = draw(st.none() | st.lists(
        st.text("abcT_1", min_size=1, max_size=3), min_size=n, max_size=n, unique=True
    ))
    return ResolutionGraph(
        weights=tuple(draw(st.lists(st.integers(-7, -1), min_size=n, max_size=n))),
        genera=tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))),
        mult=tuple(map(tuple, mult)),
        labels=None if labels is None else tuple(labels),
    )


@settings(max_examples=150, deadline=None)
@given(_small_graphs())
def test_report_survives_file_round_trip(g):
    assume(validate(g).analyzable)
    r = nash_verdict(g)
    for serialize in (serialize_graph, serialize_graph_json):
        r2 = nash_verdict(load_graph(serialize(g)))
        for fmt in ("text", "json"):
            assert emit_report(r2, fmt) == emit_report(r, fmt)


# the graphs of the families benchmark workload
_BENCH_FAMILIES = (
    ("an", 10), ("an", 20), ("an", 30),
    ("dn", 10), ("dn", 20), ("dn", 30),
    ("cycle", 10, -3), ("cycle", 20, -3), ("cycle", 30, -3),
    ("star3", 5),
)


def test_report_shares_one_divisor_list_per_witness():
    r = nash_verdict(make_family("an", 30))
    witnesses = report_dict_plain(r)["star"]["witnesses"]
    assert len(witnesses) == len(r.star.witnesses) == 870
    assert len({id(w["divisor"]) for w in witnesses}) == len(
        {id(w) for w in r.star.witnesses.values()}) == 108
    by_pair = {tuple(w["pair"]): w["divisor"] for w in witnesses}
    for (i, j), w in r.star.witnesses.items():
        assert by_pair[(i + 1, j + 1)] == list(w.coeffs)


def test_render_json_matches_stdlib_on_reports():
    graphs = list(enumerate_graphs(3, -3, 1, 2)) + [make_family(*f) for f in _BENCH_FAMILIES]
    docs = [report_dict_plain(nash_verdict(g)) for g in graphs]
    g = make_family("dn", 6)
    D = Divisor((1,) * g.n)
    docs += [
        criterion_dict_plain("realization", realization_criterion(g, D)),
        criterion_dict_plain("laufer", laufer_criterion(g, D)),
    ]
    for doc in docs:
        assert render_json(doc) == json.dumps(doc, indent=2)


def test_column_report_renders_as_the_plain_report():
    # analyze --json renders its pair lists from columns; the text is that
    # of the plain report, empty tables and failing pairs included
    graphs = [make_family(*f) for f in _BENCH_FAMILIES] + [
        make_family("vertex", 1, -2), make_family("an", 2), make_family("dn", 4),
        ResolutionGraph((-2, -3, -5), (0, 1, 0), ((0, 1, 0), (1, 0, 2), (0, 2, 0)), ("a", "b", "%d")),
    ]
    for g in graphs:
        r = nash_verdict(g)
        assert render_json(report_to_dict(r)) == json.dumps(report_dict_plain(r), indent=2)


# no benchmark workload reaches these sizes; the digests were taken from the
# per-pair renderer that the column one replaced
@pytest.mark.parametrize(
    "family, size, digest",
    [
        (("an", 120), 32339044, "b10e82808404bd4f698cb7514f4aa02611cad5037e299662088a6b6b8ce9705b"),
        (("dn", 120), 15188897, "96af3851b36055393b3dd5d0cfbb39f601ff22eff4027a25e45c7edca84e4652"),
        (("cycle", 60, -3), 5683205,
         "05742d1bf083549ba41903c9559f100e93bc9eeb212623451214b97c7a4f5f9a"),
    ],
)
def test_analyze_json_digest_is_pinned_at_large_n(family, size, digest, graph_file, capsys):
    assert main(["analyze", "--json", graph_file(make_family(*family))]) == 0
    out = capsys.readouterr().out.encode()
    assert len(out) == size
    assert hashlib.sha256(out).hexdigest() == digest


def _criterion_cases():
    """(graph, divisor) pairs whose criterion tables cover: a satisfied table
    with no violating key, exactly one violating key (realization on the
    two-vertex graph, Laufer on the genus-2 vertex), a one-vertex table,
    the graphs of the families workload with seeded random divisors, and
    3,000-digit weights with a 4,001-digit divisor."""
    two_vertex = ResolutionGraph(weights=(-4, -2), genera=(0, 0), mult=((0, 2), (2, 0)))
    cases = [
        (make_family("vertex", 2, -1), Divisor((4,))),
        (two_vertex, Divisor((4, 4))),
        (make_family("an", 2), Divisor((1, 1))),
    ]
    rng = random.Random(18)
    for f in _BENCH_FAMILIES:
        g = make_family(*f)
        coeffs = [rng.randrange(10) for _ in range(g.n)]
        coeffs[rng.randrange(g.n)] += 1
        cases.append((g, Divisor(tuple(coeffs))))
    d = 10 ** 4000
    cases.append((load_graph(_big_graph_text(3000)), Divisor((d, d, d))))
    return cases


def test_column_criterion_renders_as_the_plain_one():
    # check --json renders its index and value columns; the text is that of
    # the plain records, for both criteria
    seen = set()
    with _no_int_str_cap():
        for g, D in _criterion_cases():
            for name, criterion in (("realization", realization_criterion), ("laufer", laufer_criterion)):
                res = criterion(g, D)
                seen.add((name, len(res.violating_pairs) if len(res.violating_pairs) < 2 else "more"))
                plain = criterion_dict_plain(name, res)
                assert render_json(_criterion_json(name, res)) == json.dumps(plain, indent=2)
    assert seen == {(name, k) for name in ("realization", "laufer") for k in (0, 1, "more")}


def test_stdout_stream_is_freed_after_a_call():
    # the writer looks sys.stdout up on each call and keeps no reference to
    # it, so a stream that a caller swapped in is freed after the call
    refs = []
    for _ in range(3):
        out = io.StringIO()
        refs.append(weakref.ref(out))
        with contextlib.redirect_stdout(out):
            assert main(["family", "an", "30"]) == 0
        assert out.getvalue().startswith("vertices: 30\n")
        del out
    gc.collect()
    assert [r() for r in refs] == [None] * 3


def test_stderr_stream_is_freed_after_an_error(graph_file):
    # main's error line goes to sys.stderr as it is at the time, and no
    # reference to that stream is kept
    path = graph_file(make_family("an", 3))
    refs = []
    for _ in range(3):
        err = io.StringIO()
        refs.append(weakref.ref(err))
        with contextlib.redirect_stderr(err):
            assert main(["witness", path, "--pair", "1", "1"]) == 1
        assert err.getvalue() == "error: witness pair needs two distinct vertices\n"
        del err
    gc.collect()
    assert [r() for r in refs] == [None] * 3


def test_ascii_stdout_is_rewrapped_as_utf8(tmp_path):
    # with an ASCII-encoded stdout, the writer writes to its buffer in UTF-8,
    # so a label outside ASCII comes out as its UTF-8 bytes
    import nashcone

    g = ResolutionGraph((-2, -2), (0, 0), ((0, 1), (1, 0)), ("é", "b"))
    path = tmp_path / "e.graph"
    path.write_text(serialize_graph(g), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(os.path.abspath(nashcone.__file__)))
    env = dict(os.environ, PYTHONIOENCODING="ascii")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "from nashcone.cli import entry; entry()", "analyze", str(path)],
        capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout == emit_report(nash_verdict(g)).encode("utf-8")
    assert b"\n  \303\251: weight -2, genus 0\n" in proc.stdout


def _cli_stdout(argv, env, on_pty: bool) -> bytes:
    """The stdout of the CLI run in a fresh process with ``argv``, on a pipe
    or on a pseudo-terminal, with the terminal's \\r\\n mapped back to \\n;
    the run must exit 0 with nothing on stderr."""
    cmd = [sys.executable, "-c", "from nashcone.cli import entry; entry()", *argv]
    if not on_pty:
        proc = subprocess.run(cmd, capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0 and proc.stderr == b""
        return proc.stdout
    import pty

    master, slave = pty.openpty()
    chunks = []
    try:
        proc = subprocess.Popen(cmd, stdout=slave, stderr=subprocess.PIPE, env=env)
        os.close(slave)
        while True:
            try:
                chunk = os.read(master, 1 << 16)
            except OSError:  # EIO once the child has closed the terminal
                break
            if not chunk:
                break
            chunks.append(chunk)
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0 and err == b""
    finally:
        os.close(master)
    return b"".join(chunks).replace(b"\r\n", b"\n")


def test_a_terminal_and_a_pipe_get_the_same_bytes(tmp_path):
    # the writer neither strips nor adds anything on either kind of stream,
    # whatever the labels hold
    pytest.importorskip("pty")
    import nashcone

    try:
        for fd in os.openpty():
            os.close(fd)
    except OSError:
        pytest.skip("no pseudo-terminal")
    g = ResolutionGraph((-2, -3, -2), (1, 0, 0), ((0, 1, 0), (1, 0, 2), (0, 2, 0)), ("é", "λ", "☃"))
    path = tmp_path / "labels.graph"
    path.write_text(serialize_graph(g), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(os.path.abspath(nashcone.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    check = ["check", str(path), "--criterion", "realization", "--divisor", "3,2,4"]
    runs = [
        ["analyze", str(path)], ["analyze", str(path), "--json"],
        ["witness", str(path), "--pair", "1", "3"], check, [*check, "--json"], ["family", "dn", "5"],
        ["enumerate", "--max-vertices", "2", "--min-weight", "-2", "--max-genus", "1"],
    ]
    for argv in runs:
        piped = _cli_stdout(argv, env, on_pty=False)
        assert piped and b"\r" not in piped
        assert _cli_stdout(argv, env, on_pty=True) == piped, argv
