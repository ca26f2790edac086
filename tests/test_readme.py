"""The README's library and graph-file examples, run as written."""

import contextlib
import io
import pathlib
import re

from nashcone import load_graph, nash_verdict

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(section: str, fence: str) -> str:
    """The first fenced block opened by ``fence`` after the ``section`` heading."""
    rest = README[README.index(f"\n## {section}\n"):]
    match = re.search(rf"^{re.escape(fence)}\n(.*?)^```$", rest, re.M | re.S)
    assert match, f"no {fence} block under {section!r}"
    return match.group(1)


def test_library_example_prints_its_comments():
    code = _block("Library", "```python")
    expected = [line.split("  # ", 1)[1].strip()
                for line in code.splitlines() if line.startswith("print(")]
    assert expected == ["False ((1, 0), (2, 0), (2, 1), (2, 3), (2, 4))", "BijectiveByStar"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_graph_format_example_is_inconclusive():
    r = nash_verdict(load_graph(_block("Graph file format", "```")))
    assert r.graph.labels == ("T", "A", "B")
    assert r.nash_verdict.value == "Inconclusive"
    assert r.pa_fundamental == 2


def test_help_text_is_the_cli_output(capsys):
    from nashcone.cli import main

    runs = _block("Command line", "```text").split("$ nashcone ")[1:]
    assert len(runs) == 2
    for run in runs:
        argv, _, shown = run.partition("\n")
        assert main(argv.split()) == 0
        assert capsys.readouterr() == (shown, "")
