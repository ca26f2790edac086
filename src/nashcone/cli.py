"""Command line front end.

Five verbs: analyze (full report for one graph file), witness (one
half-space witness divisor), family (emit a named example graph),
enumerate (stream reports for all small graphs as JSON lines), check
(run one vanishing criterion on a given divisor).

Data goes to stdout, through _write alone, diagnostics to stderr. Exit
codes: 0 the analysis ran (whatever it concluded), 1 invalid input or
memory exhausted, 2 internal invariant violation. Vertex indices are
1-based on the command line and in JSON output; text output uses vertex
labels.
"""

from __future__ import annotations

import sys

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


def report_to_dict(r: ClassificationReport) -> dict:
    """JSON form of a classification report for render_json, 1-based
    indices throughout, with its pair lists as columns (see _matrix_dict)."""
    return {
        "graph": _graph_dict(r.graph),
        "validation": _validation_dict(r),
        **_matrix_dict(r),
        "pa_fundamental": r.pa_fundamental,
        **_tail_dict(r),
    }


def _graph_dict(g: ResolutionGraph) -> dict:
    """The report key ``graph``: the graph's JSON form, with every label."""
    return {**graph_to_json_dict(g), "labels": [g.label(i) for i in range(g.n)]}


def _validation_dict(r: ClassificationReport) -> dict:
    """The report key ``validation``."""
    v = r.validation
    return {
        "negative_definite": v.negative_definite,
        "connected": v.connected,
        "minimal": v.minimal,
        "messages": list(v.messages),
    }


def _tail_dict(r: ClassificationReport) -> dict:
    """The report keys after ``pa_fundamental``."""
    s = r.structural
    return {
        "artin_rational": r.artin_rational,
        "structural": {
            "tree": s.tree,
            "all_genus_zero": s.all_genus_zero,
            "iii_holds": s.iii_holds,
            "verdict": s.verdict,
        },
        "nash_verdict": r.nash_verdict.value,
        "notes": list(r.notes),
    }


def _matrix_dict(r: ClassificationReport) -> dict:
    """The report keys ``star_star``, ``star`` and ``fundamental_cycle``,
    which depend on the intersection matrix alone.

    The witnesses and the failing pairs, in check_star's order, are
    graph._Table values, which only render_json reads: two int columns for
    the pairs and, for the witnesses, a column of the divisors' coefficient
    tuples. Pairs that share a witness ``Divisor`` share its tuple, so
    render_json writes its text once. No dict or list is built per pair.
    """
    found = r.star.witnesses
    return {
        "star_star": {
            "holds": r.star_star.holds,
            "violations": [i + 1 for i in r.star_star.violations],
        },
        "star": {
            "holds": r.star.holds,
            "witnesses": _Table(("pair", "divisor"), (
                ("ints", _one_based(found)), ("lists", [w.coeffs for w in found.values()]),
            ), len(found)),
            "failing_pairs": _index_table(r.star.failing_pairs),
        },
        "fundamental_cycle": list(r.fundamental_cycle.coeffs),
    }


def _one_based(keys, width: int = 2) -> tuple[list[int], ...]:
    """The 0-based index tuples ``keys``, each of ``width`` entries, as
    ``width`` 1-based columns."""
    return tuple([[key[p] + 1 for key in keys] for p in range(width)])


def _index_table(keys, width: int = 2) -> _Table:
    """The 0-based index tuples ``keys`` as a _Table of 1-based int lists."""
    return _Table(None, tuple(("int", col) for col in _one_based(keys, width)), len(keys))


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
        pairs = " ".join(f"({lab(i)},{lab(j)})" for i, j in r.star.failing_pairs)
        lines.append(f"star: fails (failing pairs: {pairs})")
    texts: dict[int, str] = {}  # id of a witness Divisor -> its coefficients, joined once
    for (i, j), w in r.star.witnesses.items():
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


def emit_report(r: ClassificationReport, format: str = "text") -> str:
    """Render a report; both formats are byte-deterministic."""
    if format == "json":
        return render_json(report_to_dict(r)) + "\n"
    return _text_report(r)


def _stdout():
    """click's text writer for sys.stdout, which rewraps the buffer of an
    ASCII-encoded stdout as UTF-8; looked up per call, as the cache of
    click.echo would keep every stream it sees alive."""
    return click.get_text_stream("stdout")


def _write(texts) -> None:
    """Write each text of ``texts()`` to _stdout() by one write and a flush,
    unchanged, so a terminal and a pipe get the same bytes. ``texts()``
    runs while CPython's cap on the digits of an int turned into a str is
    lifted, as a witness can have twice the digits of its weights. A verb
    reads its input first, so the cap still guards every input number."""
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        out = _stdout()
        for text in texts():
            out.write(text)
            out.flush()
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


def _stderr():
    """The stream diagnostics go to, looked up as _stdout looks up stdout:
    click.echo with ``err=True`` would keep every sys.stderr it sees alive."""
    return click.get_text_stream("stderr")


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
    r = nash_verdict(_read_graph_file(file))
    _write(lambda: [emit_report(r, "json" if as_json else "text")])


@cli.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--pair", nargs=2, type=_Int(), required=True, metavar="I J",
              help="1-based vertex pair; the witness satisfies coeff(I) < coeff(J)")
def witness(file: str, pair: tuple[int, int]) -> None:
    """Print one strictly anti-nef witness divisor for a pair, or "none"."""
    g = _read_graph_file(file)
    # an unanalyzable graph is refused (exit 1) before the pair is checked
    validate(g).require_analyzable()
    i, j = pair
    if not (1 <= i <= g.n and 1 <= j <= g.n):
        raise ValueError(f"pair indices must be in 1..{g.n}")
    w = star_witness(g, i - 1, j - 1)
    _write(lambda: ["none\n" if w is None else " ".join(map(str, w.coeffs)) + "\n"])


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
        _write(lambda: [text])
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _enum_line(g: ResolutionGraph) -> str:
    """``render_json(report_to_dict(r), compact=True)``, byte for byte,
    filled into a template kept on g's intersection matrix.

    The template is one tuple: the ``graph`` object's text split around the
    genera (_graph_halves), the compact text of the matrix part (see
    _matrix_dict), and a dict from the report's shared parts (validation,
    structural, notes) and ``artin_rational`` to the texts of
    ``validation`` and of the keys after ``pa_fundamental``; the verdict in
    the latter depends on the matrix alone. Per graph there remain the
    genera, p_a and one lookup in that dict; nash_verdict still gives every
    value. The dict is keyed on the ids of the shared parts: nash_verdict
    keeps them on the same matrix as the dict, so no id is reused while
    the dict is held. The split is safe because graphs that share a matrix
    object are the genus variants of one graph (graph._genus_variant),
    which share its weights, mult and labels, and ``genera`` is the first
    key of the graph's text after ints only; compact JSON escapes every
    quote inside a string, so no label can end a value early."""
    r = nash_verdict(g)
    head, mid, shared, tails = _kept(g.intersection_matrix(), "_enum_template", lambda: (
        *_graph_halves(g), render_json(_matrix_dict(r), compact=True)[1:-1], {}))
    key = (id(r.validation), id(r.structural), id(r.notes), r.artin_rational)
    texts = tails.get(key)
    if texts is None:
        texts = tails[key] = (render_json(_validation_dict(r), compact=True),
                              render_json(_tail_dict(r), compact=True)[1:])
    genera = ",".join(map(str, g.genera))
    return (f'{head}{genera}{mid},"validation":{texts[0]},{shared},'
            f'"pa_fundamental":{r.pa_fundamental},{texts[1]}')


def _graph_halves(g: ResolutionGraph) -> tuple[str, str]:
    """The compact text of ``{"graph": ...}``, without its closing brace,
    cut where the genera go: ``{"graph":{..."genera":[`` and
    ``],"edges":...}``. Only ints come before ``genera``."""
    graph = _graph_dict(g)
    graph["genera"] = []
    text = render_json({"graph": graph}, compact=True)
    cut = text.index('"genera":[') + len('"genera":[')
    return text[:cut], text[cut:-1]


@cli.command()
@click.option("--max-vertices", type=_Int(), required=True)
@click.option("--min-weight", type=_Int(), required=True, help="most negative weight, e.g. -5")
@click.option("--max-genus", type=_Int(), required=True)
@click.option("--max-mult", type=_Int(), default=1, show_default=True)
def enumerate(max_vertices: int, min_weight: int, max_genus: int, max_mult: int) -> None:
    """Stream one JSON report line per graph, smallest graphs first."""
    graphs = enumerate_graphs(max_vertices, min_weight, max_genus, max_mult)
    _write(lambda: (_enum_line(g) + "\n" for g in graphs))


def _criterion_json(name: str, res: CriterionResult) -> dict:
    """JSON form of a criterion result for render_json, 1-based indices.
    As in report_to_dict, ``violating`` and ``values`` are graph._Table
    values: one int column per index position (two for realization, one
    for Laufer) and, for ``values``, one int column of the values, taken in
    the result's key order."""
    width = len(next(iter(res.values)))
    return {
        "criterion": name,
        "satisfied": res.satisfied,
        "violating": _index_table(res.violating_pairs, width),
        "values": _Table(("index", "value"), (
            ("ints", _one_based(res.values, width)), ("int", list(res.values.values())),
        ), len(res.values)),
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

    def texts() -> list[str]:
        if as_json:
            return [render_json(_criterion_json(criterion, res)) + "\n"]
        lines = [f"criterion: {criterion}", f"satisfied: {_yn(res.satisfied)}"]
        for key in sorted(res.values):
            spot = ",".join(map(g.label, key))
            flag = "  VIOLATED" if res.values[key] > 0 else ""
            lines.append(f"value({spot}) = {res.values[key]}{flag}")
        return ["\n".join(lines) + "\n"]

    _write(texts)


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
        click.echo("aborted", file=_stderr())
        return 1
    except InternalInvariantError as exc:
        click.echo(f"internal error: {exc}", file=_stderr())
        return 2
    except (NashconeError, ValueError, OSError) as exc:
        click.echo(f"error: {exc}", file=_stderr())
        return 1
    except MemoryError:  # a last resort: no input budget bounds the arithmetic yet
        click.echo("error: out of memory", file=_stderr())
        return 1
    return code or 0


def entry() -> None:
    sys.exit(main())
