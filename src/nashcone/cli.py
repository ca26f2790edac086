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
import sys
from contextlib import contextmanager

import click

from .classify import (
    ClassificationReport,
    enumerate_graphs,
    make_family,
    nash_verdict,
)
from .cone import Divisor
from .errors import InternalInvariantError, NashconeError
from .graph import (
    _input_int,
    _kept,
    _Table,
    ResolutionGraph,
    graph_to_json_dict,
    load_graph,
    render_json,
    serialize_graph,
    serialize_graph_json,
    validate,
)
from .vanishing import CriterionResult, laufer_criterion, realization_criterion
from .conditions import star_witness


class _Int(click.ParamType):
    """click's integer option type, read by the same rules as graph files:
    a literal over CPython's digit cap, or a long bad token, gets a short
    message. It keeps the name, so help text still reads INTEGER."""

    name = "integer"

    def convert(self, value, param, ctx):
        if type(value) is int:  # a default
            return value
        try:
            return _input_int(value, "expected an integer")
        except ValueError as exc:
            self.fail(str(exc), param, ctx)


def report_to_dict(
    r: ClassificationReport, matrix_part: bool = True, columns: bool = False
) -> dict:
    """JSON form of a classification report, 1-based indices throughout;
    with ``matrix_part`` False, without the keys of _matrix_dict, and with
    ``columns``, with its pair lists as columns for render_json (see
    _matrix_dict)."""
    g = r.graph
    d = {
        "graph": {**graph_to_json_dict(g), "labels": [g.label(i) for i in range(g.n)]},
        "validation": {
            "negative_definite": r.validation.negative_definite,
            "connected": r.validation.connected,
            "minimal": r.validation.minimal,
            "messages": list(r.validation.messages),
        },
    }
    if matrix_part:
        d.update(_matrix_dict(r, columns))
    d["pa_fundamental"] = r.pa_fundamental
    d["artin_rational"] = r.artin_rational
    d["structural"] = {
        "tree": r.structural.tree,
        "all_genus_zero": r.structural.all_genus_zero,
        "iii_holds": r.structural.iii_holds,
        "verdict": r.structural.verdict,
    }
    d["nash_verdict"] = r.nash_verdict.value
    d["notes"] = list(r.notes)
    return d


def _matrix_dict(r: ClassificationReport, columns: bool = False) -> dict:
    """The report keys ``star_star``, ``star`` and ``fundamental_cycle``,
    which depend on the intersection matrix alone.

    Pairs that share a witness ``Divisor`` object share one ``divisor``
    list, so that ``render_json`` writes its text once: a caller that
    mutates the list of one pair changes it for all of them. With
    ``columns``, the witnesses and the failing pairs are graph._Table
    values instead, which only render_json reads: two int columns for the
    pairs and, for the witnesses, a column of the divisors' shared
    coefficient tuples. No dict or list is then built per pair.
    """
    found = r.star.witnesses
    pairs = sorted(found)
    divisors = list(map(found.__getitem__, pairs))
    failing = sorted(r.star.failing_pairs)
    if columns:
        witnesses = _Table(("pair", "divisor"), (
            ("ints", _one_based(pairs)), ("lists", [w.coeffs for w in divisors]),
        ), len(pairs))
        first, second = _one_based(failing)
        failing_pairs = _Table(None, (("int", first), ("int", second)), len(failing))
    else:
        distinct = dict(zip(map(id, divisors), divisors))  # each witness Divisor once, by id
        lists = {key: list(w.coeffs) for key, w in distinct.items()}
        witnesses = [
            {"pair": [i + 1, j + 1], "divisor": lists[id(w)]} for (i, j), w in zip(pairs, divisors)
        ]
        failing_pairs = [[i + 1, j + 1] for i, j in failing]
    return {
        "star_star": {
            "holds": r.star_star.holds,
            "violations": [i + 1 for i in r.star_star.violations],
        },
        "star": {
            "holds": r.star.holds,
            "witnesses": witnesses,
            "failing_pairs": failing_pairs,
        },
        "fundamental_cycle": list(r.fundamental_cycle.coeffs),
    }


def _one_based(pairs: list[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """The first and the second vertices of 0-based ``pairs``, as two 1-based
    columns."""
    return [i + 1 for i, _ in pairs], [j + 1 for _, j in pairs]


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
    texts: dict[int, str] = {}  # id of a witness Divisor -> its coefficients, joined once
    for (i, j), w in sorted(r.star.witnesses.items()):
        text = texts.get(id(w))
        if text is None:
            text = texts[id(w)] = " ".join(map(str, w.coeffs))
        lines.append(f"  witness {lab(i)}<{lab(j)}: {text}")
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


@contextmanager
def _uncapped_int_str():
    """Lift CPython's cap on the digits of an int turned into a str while
    output is rendered, and restore it afterwards. A witness can be far
    longer than any number in its input: three weights of 3,000 digits give
    witnesses of 6,001. Parsing keeps the cap (graph files, --divisor and
    click's integer options), so an input literal over it is still refused."""
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


def emit_report(r: ClassificationReport, format: str = "text") -> str:
    """Render a report; both formats are byte-deterministic."""
    with _uncapped_int_str():
        if format == "json":
            return render_json(report_to_dict(r, columns=True)) + "\n"
        return _text_report(r)


def _read_graph_file(path: str) -> ResolutionGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return load_graph(fh.read())


def _stdout_closed() -> click.exceptions.Exit:
    """Exit 0 for a reader that closed stdout. The unwritten rest stays in
    stdout's buffer, and the interpreter flushes it again at shutdown; the
    wrapper keeps that second EPIPE from turning into exit 120 and a
    traceback on stderr (click's Command.main wraps stdout the same way)."""
    sys.stdout = click.utils.PacifyFlushWrapper(sys.stdout)
    return click.exceptions.Exit(0)


class _Group(click.Group):
    """The command group. A closed stdout, from its help or from a command,
    ends the run with exit code 0: click's Command.main would turn the EPIPE
    into sys.exit(1), whatever its standalone_mode."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except BrokenPipeError:
            raise _stdout_closed() from None

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise _stdout_closed() from None


@click.group(name="nashcone", cls=_Group)
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
@click.option("--pair", nargs=2, type=_Int(), required=True, metavar="I J",
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
    with _uncapped_int_str():
        click.echo("none" if w is None else " ".join(str(c) for c in w.coeffs))


@cli.command(context_settings={"ignore_unknown_options": True})
@click.argument("kind")
@click.argument("params", nargs=-1, type=click.UNPROCESSED)
@click.option("--json", "as_json", is_flag=True, help="emit the JSON mirror format")
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None,
              help="write to a file instead of stdout")
def family(kind: str, params: tuple[str, ...], as_json: bool, output: str | None) -> None:
    """Emit a named example graph: an N | dn N | star3 N | vertex G W | cycle M W."""
    args = [_input_int(p, "family parameters must be integers") for p in params]
    g = make_family(kind, *args)
    text = serialize_graph_json(g) if as_json else serialize_graph(g)
    if output is None:
        click.echo(text, nl=False)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


_COMPACT = (",", ":")


def _enum_line(g: ResolutionGraph) -> str:
    """``json.dumps(report_to_dict(r), separators=(",", ":"))``, byte for
    byte, with the matrix part (see _matrix_dict) rendered once per matrix
    object, kept on it, and spliced in before ``pa_fundamental``. Compact
    JSON escapes every quote inside a string, so ``,"pa_fundamental":``
    can only be the top-level key."""
    r = nash_verdict(g)
    with _uncapped_int_str():
        shared = _kept(g.intersection_matrix(), "_enum_text",
                       lambda: json.dumps(_matrix_dict(r), separators=_COMPACT)[1:-1])
        own = json.dumps(report_to_dict(r, matrix_part=False), separators=_COMPACT)
    cut = own.index(',"pa_fundamental":')
    return f"{own[:cut]},{shared}{own[cut:]}"


@cli.command()
@click.option("--max-vertices", type=_Int(), required=True)
@click.option("--min-weight", type=_Int(), required=True, help="most negative weight, e.g. -5")
@click.option("--max-genus", type=_Int(), required=True)
@click.option("--max-mult", type=_Int(), default=1, show_default=True)
def enumerate(max_vertices: int, min_weight: int, max_genus: int, max_mult: int) -> None:
    """Stream one JSON report line per graph, smallest graphs first."""
    for g in enumerate_graphs(max_vertices, min_weight, max_genus, max_mult):
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
    g = _read_graph_file(file)
    validate(g).require_analyzable()
    D = Divisor(tuple(
        _input_int(tok, "divisor must be comma-separated integers") for tok in divisor.split(",")
    ))
    fn = realization_criterion if criterion == "realization" else laufer_criterion
    res = fn(g, D)
    with _uncapped_int_str():
        if as_json:
            click.echo(render_json(_criterion_json(criterion, res)))
            return
        lines = [f"criterion: {criterion}", f"satisfied: {_yn(res.satisfied)}"]
        for key in sorted(res.values):
            spot = ",".join(map(g.label, key))
            flag = "  VIOLATED" if res.values[key] > 0 else ""
            lines.append(f"value({spot}) = {res.values[key]}{flag}")
        click.echo("\n".join(lines))


def main(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the exit code instead of raising SystemExit."""
    try:
        # without standalone mode, click returns the code of an Exit it
        # catches, and otherwise what the command returns: None, for every verb
        code = cli.main(args=argv, prog_name="nashcone", standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except InternalInvariantError as exc:
        click.echo(f"internal error: {exc}", err=True)
        return 2
    except (NashconeError, ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return code or 0


def entry() -> None:
    sys.exit(main())
