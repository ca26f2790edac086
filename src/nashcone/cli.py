"""Command line front end.

Five verbs: analyze (full report for one graph file), witness (one
half-space witness divisor), family (emit a named example graph),
enumerate (stream reports for all small graphs as JSON lines), check
(run one vanishing criterion on a given divisor). VERBS holds each verb's
function, arguments and options: _run reads the command line by it, and
_help writes the --help text from it. The package needs nothing
outside the standard library.

Data goes to stdout, through _write alone, diagnostics to stderr, one
line each. Exit codes: 0 the analysis ran (whatever it concluded), 1
invalid input, a usage error or memory exhausted, 2 internal invariant
violation. Vertex indices are 1-based on the command line and in JSON
output; text output uses vertex labels.
"""

from __future__ import annotations

import codecs
import os
import sys
from functools import partial
from itertools import islice
from typing import Callable, NamedTuple

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
    _quote,
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


def _write(texts) -> None:
    """Write each text of ``texts()`` to sys.stdout by one write and a
    flush, unchanged, so a terminal and a pipe get the same bytes. The
    stream is looked up per call and not kept. An ASCII-encoded stdout
    gets each text's UTF-8 bytes on its buffer, so a label outside ASCII
    still comes out. ``texts()`` runs while CPython's cap on the digits of
    an int turned into a str is lifted, as a witness can have twice the
    digits of its weights. A verb reads its input first, so the cap still
    guards every input number."""
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        out = sys.stdout
        encoding = getattr(out, "encoding", None) or "ascii"
        utf8 = codecs.lookup(encoding).name == "ascii" and hasattr(out, "buffer")
        if utf8:
            out.flush()
            out = out.buffer
        for text in texts():
            out.write(text.encode("utf-8", "replace") if utf8 else text)
            out.flush()
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


# An error quotes a path by at most this many characters: an OSError's own
# message would hold the whole path, and a usual one stays whole.
_PATH_CHARS = 100


def _read_graph_file(path: str) -> ResolutionGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"Invalid value for 'FILE': {_quote(path, _PATH_CHARS)}: {exc.strerror}") from None
    return load_graph(text)


def analyze(file: str, as_json: bool) -> None:
    """Full classification report for one graph file."""
    r = nash_verdict(_read_graph_file(file))
    _write(lambda: [emit_report(r, "json" if as_json else "text")])


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


def family(kind: str, *params: str, as_json: bool, output: str | None) -> None:
    """Emit a named example graph: an N | dn N | star3 N | vertex G W | cycle M W."""
    args = [_input_int(p, "family parameters must be integers") for p in params]
    g = make_family(kind, *args)
    text = serialize_graph_json(g) if as_json else serialize_graph(g)
    if output is None:
        _write(lambda: [text])
    else:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"[Errno {exc.errno}] {exc.strerror}: {_quote(output, _PATH_CHARS)}") from None


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


class _Opt(NamedTuple):
    """A verb's option: its spellings, the keyword it fills, one METAVAR
    word per value it takes (a flag takes none and fills True), the reader
    of a value's token, its default (``...`` if it must be given), its help."""

    names: str
    key: str
    metavar: str = ""
    read: Callable[[str], object] = str
    default: object = ...
    help: str = ""


def _criterion(tok: str) -> str:
    if tok not in ("realization", "laufer"):
        raise ValueError(f"{_quote(tok)} is not one of 'realization', 'laufer'.")
    return tok


_integer = partial(_input_int, expected="expected an integer")
_JSON = _Opt("--json", "as_json", default=False)
# verb -> (its function, given the arguments in order and the options by
# keyword; its arguments, the last taking all the rest if it ends in "...";
# its options)
VERBS = {
    "analyze": (analyze, "FILE", [_JSON._replace(help="emit the JSON report")]),
    "witness": (witness, "FILE", [_Opt("--pair", "pair", "I J", _integer, help=(
        "1-based vertex pair; the witness satisfies coeff(I) < coeff(J)"))]),
    "family": (family, "KIND [PARAMS]...", [
        _JSON._replace(help="emit the JSON mirror format"),
        _Opt("-o, --output", "output", "FILE", default=None, help="write to a file instead of stdout"),
    ]),
    "enumerate": (enumerate, "", [
        _Opt("--max-vertices", "max_vertices", "INTEGER", _integer),
        _Opt("--min-weight", "min_weight", "INTEGER", _integer, help="most negative weight, e.g. -5"),
        _Opt("--max-genus", "max_genus", "INTEGER", _integer),
        _Opt("--max-mult", "max_mult", "INTEGER", _integer, 1),
    ]),
    "check": (check, "FILE", [
        _Opt("--criterion", "criterion", "[realization|laufer]", _criterion),
        _Opt("--divisor", "divisor", "A1,A2,...", help="comma-separated coefficients, one per vertex"),
        _JSON,
    ]),
}


def _run(argv: list[str]) -> int | None:
    """Run the verb ``argv`` names, or write the help it asks for. An option
    takes the tokens after it, or one after "=", as its values; "--" ends
    the options. A verb whose last argument takes all the rest takes any
    other token as an argument, so ``family cycle 10 -3`` works. A usage
    error raises ValueError."""
    name = argv[0] if argv else None
    if name == "--help":
        return _write(lambda: [_help()])
    if name not in VERBS:
        raise ValueError(f"No such verb {_quote(name)}." if argv
                         else "Missing verb; see 'nashcone --help'.")
    run, usage, options = VERBS[name]
    spelled = {spelling: opt for opt in options for spelling in opt.names.split(", ")}
    values = {opt.key: opt.default for opt in options}
    args, tokens, rest = [], iter(argv[1:]), usage.endswith("...")
    for tok in tokens:
        spelling, eq, value = tok.partition("=") if tok[:2] == "--" else (tok, "", "")
        opt = spelled.get(spelling)
        width = len(opt.metavar.split()) if opt else 0
        if tok == "--help":
            return _write(lambda: [_help(name)])
        if tok == "--":
            args += tokens
        elif opt is None and tok[:1] == "-" and not rest:
            raise ValueError(f"No such option {_quote(spelling)}.")
        elif opt is None:
            args.append(tok)
        elif eq and not width:
            raise ValueError(f"Option {spelling!r} does not take a value.")
        else:
            given = [value, *islice(tokens, width - 1)] if eq else list(islice(tokens, width))
            if len(given) < width:
                raise ValueError(f"Option {spelling!r} requires {opt.metavar}.")
            try:
                read = tuple(map(opt.read, given))
            except ValueError as exc:
                raise ValueError(f"Invalid value for {spelling!r}: {exc}") from None
            values[opt.key] = read[0] if width == 1 else read if width else True
    names = usage.split()
    if len(args) < len(names) - rest:
        raise ValueError(f"Missing argument {names[len(args)]!r}.")
    if len(args) > len(names) and not rest:
        raise ValueError(f"Got unexpected extra argument {_quote(args[len(names)])}.")
    for opt in options:
        if values[opt.key] is ...:
            raise ValueError(f"Missing option {opt.names!r}.")
    return run(*args, **values)


def _help(name: str | None = None) -> str:
    """The --help text of the verb ``name``, or of the program."""
    if name is None:
        head = ("Usage: nashcone VERB [ARGS]...\n\n  Decide the anti-nef-cone conditions"
                " behind Nash-map bijectivity.\n\nVerbs:\n")
        rows = [(verb, run.__doc__) for verb, (run, _, _) in VERBS.items()]
        tail = "\nRun 'nashcone VERB --help' for the options of a verb.\n"
    else:
        run, usage, options = VERBS[name]
        head = f"Usage: nashcone {name} [OPTIONS] {usage}".rstrip()
        head += f"\n\n  {run.__doc__}\n\nOptions:\n"
        rows = [(f"{opt.names} {opt.metavar}".rstrip(), f"{opt.help}  " + (
            "[required]" if opt.default is ... else
            f"[default: {opt.default}]" if opt.metavar and opt.default is not None else ""
        )) for opt in options] + [("--help", "Show this message and exit.")]
        tail = ""
    width = max(len(left) for left, _ in rows)
    body = "".join(f"  {left:<{width}}  {right.strip()}".rstrip() + "\n" for left, right in rows)
    return head + body + tail


def main(argv: list[str] | None = None) -> int:
    """Run the CLI on ``argv`` (sys.argv[1:] if None). Returns the exit code
    instead of raising SystemExit: what the verb returns, 0 for None."""
    try:
        return _run(sys.argv[1:] if argv is None else argv) or 0
    except BrokenPipeError:  # a reader closed stdout: a normal end
        try:  # the rest of stdout is flushed at exit: into os.devnull, not into exit 120
            fd = sys.stdout.fileno()
        except (OSError, ValueError):  # no descriptor: nothing goes to the pipe
            return 0
        os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 0
    except KeyboardInterrupt:
        print("aborted", file=sys.stderr, flush=True)
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr, flush=True)
        return 2
    except (NashconeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr, flush=True)
    except MemoryError:  # a last resort: no input budget bounds the arithmetic yet
        print("error: out of memory", file=sys.stderr, flush=True)
    return 1


def entry() -> None:
    sys.exit(main())
