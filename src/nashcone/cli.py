"""Command line front end.

Five verbs: analyze (full report for one graph file), witness (one
half-space witness divisor), family (emit a named example graph),
enumerate (stream reports for all small graphs as JSON lines), check
(run one vanishing criterion on a given divisor).

Data goes to stdout, diagnostics to stderr. Exit codes: 0 the analysis
ran (whatever it concluded), 1 invalid input, 2 internal invariant
violation. Vertex indices are 1-based on the command line and in JSON
output; text output uses vertex labels.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import chain
from multiprocessing import Pool

import click

from .classify import (
    ClassificationReport,
    enumerate_graphs,
    make_family,
    nash_verdict,
)
from .errors import InternalInvariantError, NashconeError
from .graph import (
    ResolutionGraph,
    graph_to_json_dict,
    load_graph,
    serialize_graph,
    serialize_graph_json,
    validate,
)
from .vanishing import CriterionResult, laufer_criterion, realization_criterion
from .conditions import star_witness

__all__ = ["main", "entry", "emit_report", "report_to_dict"]


def report_to_dict(r: ClassificationReport) -> dict:
    """JSON form of a classification report, 1-based indices throughout."""
    g = r.graph
    graph_dict = {**graph_to_json_dict(g), "labels": [g.label(i) for i in range(g.n)]}
    witnesses = [
        {"pair": [i + 1, j + 1], "divisor": list(r.star.witnesses[(i, j)].coeffs)}
        for (i, j) in sorted(r.star.witnesses)
    ]
    return {
        "graph": graph_dict,
        "validation": {
            "negative_definite": r.validation.negative_definite,
            "connected": r.validation.connected,
            "minimal": r.validation.minimal,
            "messages": list(r.validation.messages),
        },
        "star_star": {
            "holds": r.star_star.holds,
            "violations": [i + 1 for i in r.star_star.violations],
        },
        "star": {
            "holds": r.star.holds,
            "witnesses": witnesses,
            "failing_pairs": [[i + 1, j + 1] for i, j in sorted(r.star.failing_pairs)],
        },
        "fundamental_cycle": list(r.fundamental_cycle.coeffs),
        "pa_fundamental": r.pa_fundamental,
        "artin_rational": r.artin_rational,
        "structural": {
            "tree": r.structural.tree,
            "all_genus_zero": r.structural.all_genus_zero,
            "iii_holds": r.structural.iii_holds,
            "verdict": r.structural.verdict,
        },
        "nash_verdict": r.nash_verdict.value,
        "notes": list(r.notes),
    }


def _yn(b: bool) -> str:
    return "yes" if b else "no"


def _text_report(r: ClassificationReport) -> str:
    g = r.graph
    lab = g.label
    lines = [f"graph: {g.n} vertices"]
    for i in range(g.n):
        lines.append(f"  {lab(i)}: weight {g.weights[i]}, genus {g.genera[i]}")
    edges = " ".join(f"{lab(i)}-{lab(j)}:{m}" for i, j, m in g.edges())
    lines.append(f"  edges: {edges if edges else '(none)'}")
    v = r.validation
    lines.append(
        f"validation: negative_definite={_yn(v.negative_definite)}"
        f" connected={_yn(v.connected)} minimal={_yn(v.minimal)}"
    )
    if r.star_star.holds:
        lines.append("star_star: holds")
    else:
        viol = " ".join(lab(i) for i in r.star_star.violations)
        lines.append(f"star_star: fails (violations: {viol})")
    if r.star.holds:
        lines.append("star: holds")
    else:
        pairs = " ".join(f"({lab(i)},{lab(j)})" for i, j in sorted(r.star.failing_pairs))
        lines.append(f"star: fails (failing pairs: {pairs})")
    for (i, j) in sorted(r.star.witnesses):
        w = r.star.witnesses[(i, j)]
        lines.append(f"  witness {lab(i)}<{lab(j)}: " + " ".join(str(c) for c in w.coeffs))
    lines.append("fundamental_cycle: " + " ".join(str(c) for c in r.fundamental_cycle.coeffs))
    lines.append(f"pa_fundamental: {r.pa_fundamental}")
    lines.append(f"artin_rational: {_yn(r.artin_rational)}")
    s = r.structural
    lines.append(
        f"structural: tree={_yn(s.tree)} all_genus_zero={_yn(s.all_genus_zero)}"
        f" iii_holds={_yn(s.iii_holds)} verdict={_yn(s.verdict)}"
    )
    lines.append(f"nash_verdict: {r.nash_verdict.value}")
    lines.append("notes:")
    for note in r.notes:
        lines.append(f"  - {note}")
    return "\n".join(lines) + "\n"


def emit_report(r: ClassificationReport, format: str = "text") -> str:
    """Render a report; both formats are byte-deterministic."""
    if format == "json":
        return json.dumps(report_to_dict(r), indent=2) + "\n"
    return _text_report(r)


def _read_graph_file(path: str) -> ResolutionGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return load_graph(fh.read())


@click.group(name="nashcone")
def cli() -> None:
    """Decide the anti-nef-cone conditions behind Nash-map bijectivity."""


@cli.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "as_json", is_flag=True, help="emit the JSON report")
def analyze(file: str, as_json: bool) -> None:
    """Full classification report for one graph file."""
    g = _read_graph_file(file)
    r = nash_verdict(g)
    click.echo(emit_report(r, "json" if as_json else "text"), nl=False)


@cli.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--pair", nargs=2, type=int, required=True, metavar="I J",
              help="1-based vertex pair; the witness satisfies coeff(I) < coeff(J)")
def witness(file: str, pair: tuple[int, int]) -> None:
    """Print one strictly anti-nef witness divisor for a pair, or "none"."""
    g = _read_graph_file(file)
    # the anti-nef cone needs a connected negative-definite graph; refuse
    # here (exit 1) rather than let the kernels fail on it (exit 2)
    validate(g).require_analyzable()
    i, j = pair
    if not (1 <= i <= g.n and 1 <= j <= g.n):
        raise ValueError(f"pair indices must be in 1..{g.n}")
    w = star_witness(g, i - 1, j - 1)
    click.echo("none" if w is None else " ".join(str(c) for c in w.coeffs))


@cli.command(context_settings={"ignore_unknown_options": True})
@click.argument("kind")
@click.argument("params", nargs=-1, type=click.UNPROCESSED)
@click.option("--json", "as_json", is_flag=True, help="emit the JSON mirror format")
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None,
              help="write to a file instead of stdout")
def family(kind: str, params: tuple[str, ...], as_json: bool, output: str | None) -> None:
    """Emit a named example graph: an N | dn N | star3 N | vertex G W | cycle M W."""
    try:
        args = tuple(int(p) for p in params)
    except ValueError:
        raise ValueError(f"family parameters must be integers, got {params!r}")
    g = make_family(kind, *args)
    text = serialize_graph_json(g) if as_json else serialize_graph(g)
    if output is None:
        click.echo(text, nl=False)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _enum_line(g: ResolutionGraph) -> str:
    return json.dumps(report_to_dict(nash_verdict(g)), separators=(",", ":"))


@cli.command()
@click.option("--max-vertices", type=int, required=True)
@click.option("--min-weight", type=int, required=True, help="most negative weight, e.g. -5")
@click.option("--max-genus", type=int, required=True)
@click.option("--max-mult", type=int, default=1, show_default=True)
@click.option("--parallel", type=int, default=1, show_default=True,
              help="worker processes, at most the CPU count; output order stays deterministic")
def enumerate(max_vertices: int, min_weight: int, max_genus: int, max_mult: int,
              parallel: int) -> None:
    """Stream one JSON report line per graph, smallest graphs first."""
    if parallel < 1:
        raise ValueError(f"--parallel must be >= 1, got {parallel}")
    workers = min(parallel, os.cpu_count() or 1)
    stream = enumerate_graphs(max_vertices, min_weight, max_genus, max_mult)
    if workers > 1:
        first = next(stream, None)  # bound errors surface here, before any worker starts
        if first is None:
            return
        with Pool(workers) as pool:
            for line in pool.imap(_enum_line, chain((first,), stream), chunksize=16):
                click.echo(line)
    else:
        for g in stream:
            click.echo(_enum_line(g))


def _criterion_json(name: str, res: CriterionResult) -> dict:
    return {
        "criterion": name,
        "satisfied": res.satisfied,
        "violating": [[i + 1 for i in key] for key in res.violating_pairs],
        "values": [
            {"index": [i + 1 for i in key], "value": res.values[key]}
            for key in sorted(res.values)
        ],
    }


@cli.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--criterion", type=click.Choice(["realization", "laufer"]), required=True)
@click.option("--divisor", required=True, metavar="A1,A2,...",
              help="comma-separated coefficients, one per vertex")
@click.option("--json", "as_json", is_flag=True)
def check(file: str, criterion: str, divisor: str, as_json: bool) -> None:
    """Run one vanishing criterion on an effective divisor."""
    from .cone import Divisor

    g = _read_graph_file(file)
    validate(g).require_analyzable()
    try:
        coeffs = tuple(int(tok) for tok in divisor.split(","))
    except ValueError:
        raise ValueError(f"divisor must be comma-separated integers, got {divisor!r}")
    D = Divisor(coeffs)
    fn = realization_criterion if criterion == "realization" else laufer_criterion
    res = fn(g, D)
    if as_json:
        click.echo(json.dumps(_criterion_json(criterion, res), indent=2))
        return
    click.echo(f"criterion: {criterion}")
    click.echo(f"satisfied: {_yn(res.satisfied)}")
    for key in sorted(res.values):
        spot = ",".join(g.label(i) for i in key)
        flag = "  VIOLATED" if res.values[key] > 0 else ""
        click.echo(f"value({spot}) = {res.values[key]}{flag}")


def main(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the exit code instead of raising SystemExit."""
    try:
        cli.main(args=argv, prog_name="nashcone", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except InternalInvariantError as exc:
        click.echo(f"internal error: {exc}", err=True)
        return 2
    except (NashconeError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except BrokenPipeError:
        return 0
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())
