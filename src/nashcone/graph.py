"""Weighted dual graphs of resolutions: data model, file format, validation.

A graph is given by self-intersection weights, arithmetic genera and
pairwise intersection multiplicities of the exceptional curves. Everything
downstream (cone membership, condition checks, classification) is a pure
function of this data.

Both file formats, the line-oriented text and its JSON mirror, are read
into the same JSON-shaped dict and sent through one builder, which
make_family uses too. It checks the vertex count, the lists and each edge
entry, then the weights, genera and labels by _check_fields, and makes
the graph and its matrix from the checked edge list, running no check
twice: a file costs O(n + edges) Python steps plus the two n x n tuples,
mult and the matrix entries. ResolutionGraph checks its table a row at a
time and then calls _check_fields, so a field error reads the same on
both routes, and in both formats apart from the text format's ``line N:``
prefix. A file may declare at most MAX_VERTICES vertices: the builder
refuses a larger count before it allocates the n x n multiplicity table.

A graph builds its intersection matrix once, with itself. _facts
computes what the matrix keeps, once, from its diagonal and its sorted
edge list (the builder's checked edges, or the nonzeros above the
diagonal of a table that ResolutionGraph or IntersectionMatrix checked):
the edge list (which ``edges()`` returns), its connectivity (which
validation reads; union-find over the edges, reading no table row), its
row sums E.E_i, which (**), (iii) and Laufer's sequence start from, and
its (-1)-curves, among which minimality looks for genus 0.
Negative definiteness is read from one fraction-free factor of -M, the
forward Bareiss pass of ``NegFactor``: its pivots are the leading
principal minors of -M, and it keeps U by rows, the nonzeros of each.
``_bareiss`` is the one forward elimination: it grows the factor a
column at a time, the enumerator's structure and weight tests run it on
their columns, and cone._adjugate_times runs it on the right-hand side
of a solve. The matrix keeps the factor once built, so each graph is
eliminated once; cone.neg_adjugate continues the same factor, by one
back-substitution, to the integer adjugate that check_star reads, and
cone._adjugate_times solves against it for the few vectors of adj(-M)
that star_witness reads. The matrix accepts exact integer entries only,
as a graph does. ``_genus_variant`` builds a graph that differs from
another only in its genera: it checks nothing, as its one caller, the
enumerator, makes every genus tuple itself (n ints in 0..max_genus), and
shares the other graph's weights, mult, labels and matrix object.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from itertools import chain, compress, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import mul

from .errors import GraphFormatError

__all__ = [
    "ResolutionGraph",
    "IntersectionMatrix",
    "ValidationReport",
    "parse_graph",
    "parse_graph_json",
    "serialize_graph",
    "serialize_graph_json",
    "load_graph",
    "validate",
    "canonical_intersections",
    "graph_to_json_dict",
]


class _FieldError(ValueError):
    """A value out of range in one field of a graph, named by its file key,
    so that a parser can point at the line the field came from."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class ResolutionGraph:
    """Dual graph of an exceptional curve configuration.

    ``weights[i]`` is the self-intersection of the i-th component (<= -1),
    ``genera[i]`` its arithmetic genus (>= 0), and ``mult[i][j]`` the
    intersection number of two distinct components (symmetric, >= 0, zero
    diagonal). ``labels``, if given, name the vertices, one distinct label
    each. Vertices are 0-based internally; files use 1-based indices.
    """

    weights: tuple[int, ...]
    genera: tuple[int, ...]
    mult: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        n = len(self.weights)
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        if len(self.mult) != n:
            raise ValueError("weights, genera and mult must have matching size")
        if any(len(row) != n for row in self.mult):
            raise ValueError("mult must be a square matrix")
        if not set(map(type, chain.from_iterable(self.mult))) <= {int}:
            raise ValueError("intersection multiplicities must be integers")
        # row against column; the first faulty row, then its first faulty entry, decides
        for i, (row, col) in enumerate(zip(self.mult, zip(*self.mult))):
            if row[i]:
                raise ValueError("mult diagonal must be zero")
            if tuple(row) != col or min(row) < 0:
                m = next(m for m, c in zip(row, col) if m < 0 or m != c)
                raise ValueError("intersection multiplicities must be >= 0" if m < 0 else
                                 "mult must be symmetric")
        _check_fields(self.weights, self.genera, self.labels, n)
        entries = tuple([
            (*row[:i], w, *row[i + 1:]) for i, (w, row) in enumerate(zip(self.weights, self.mult))
        ])
        object.__setattr__(self, "_matrix", _facts(
            object.__new__(IntersectionMatrix), entries, self.weights, _edges_above_diagonal(entries)
        ))

    @property
    def n(self) -> int:
        return len(self.weights)

    def label(self, i: int) -> str:
        """Display name of vertex i (defaults to E1..En)."""
        if self.labels is not None:
            return self.labels[i]
        return f"E{i + 1}"

    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """Sorted (i, j, mult) triples with i < j and mult > 0, 0-based: the
        edge list the intersection matrix keeps for M.v."""
        return self.intersection_matrix()._edges

    def intersection_matrix(self) -> IntersectionMatrix:
        """The matrix of E_i . E_j, built once, by __post_init__."""
        return self._matrix


def _kept(obj, key: str, build):
    """The value kept on the frozen ``obj`` under ``key``, from ``build()`` on
    first use. ``obj`` is immutable, so a value that depends on it alone stays
    valid as long as it lives, and no longer."""
    try:
        return obj.__dict__[key]
    except KeyError:
        object.__setattr__(obj, key, build())
        return obj.__dict__[key]


def _genus_variant(source: ResolutionGraph, genera) -> ResolutionGraph:
    """``source`` with ``genera`` in place of its own. The variant holds the
    very ``weights``, ``mult`` and ``labels`` objects that source's
    __post_init__ checked, and source's intersection matrix object, with
    what the matrix computed and what is kept on it. Nothing is checked:
    ``genera`` must be a tuple of source.n ints >= 0, as every tuple that
    classify._genus_tuples makes for the enumerator is."""
    g = object.__new__(ResolutionGraph)
    g.__dict__.update(
        weights=source.weights, genera=genera, mult=source.mult, labels=source.labels,
        _matrix=source._matrix,
    )
    return g


def _check_fields(weights, genera, labels, n: int) -> None:
    """The checks of the weights, genera and labels of a graph on n vertices,
    in this order: ResolutionGraph runs them after its table checks, and
    the file builder after its edge checks. A value out of range raises
    _FieldError naming its file key."""
    # exact integers only: a float would leak into every sign decision,
    # and bool is an int subclass that no graph file means as a number
    if any(type(x) is not int for x in weights):
        raise ValueError("weights and genera must be integers")
    if max(weights) > -1:
        raise _FieldError("weights", f"weight {_quote(max(weights))} must be <= -1")
    if len(genera) != n:
        raise ValueError("weights, genera and mult must have matching size")
    if any(type(x) is not int for x in genera):
        raise ValueError("weights and genera must be integers")
    if min(genera) < 0:
        raise _FieldError("genera", f"genus {_quote(min(genera))} must be >= 0")
    if labels is not None:
        if len(labels) != n:
            raise _FieldError("labels", "labels must name every vertex")
        # a label prints as itself: no space, control or format character
        for lab in labels:
            if type(lab) is not str or not lab or not lab.isprintable() or " " in lab or "#" in lab:
                raise _FieldError("labels", f"invalid label {_quote(lab)}")
        if len(set(labels)) != n:
            # a repeated label would make the text report ambiguous
            lab = next(lab for k, lab in enumerate(labels) if lab in labels[:k])
            raise _FieldError("labels", f"duplicate label {_quote(lab)}")


@dataclass(frozen=True)
class IntersectionMatrix:
    """Symmetric integer matrix of pairwise intersection numbers."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError("intersection matrix must be square")
        # exact integers only, as in a graph: not a float, not a bool
        if not set(map(type, chain.from_iterable(self.entries))) <= {int}:
            raise ValueError("intersection matrix entries must be integers")
        # compare each row with the matching column, a row at a time
        if any(tuple(row) != col for row, col in zip(self.entries, zip(*self.entries))):
            raise ValueError("intersection matrix must be symmetric")
        _facts(self, self.entries, [row[i] for i, row in enumerate(self.entries)],
               _edges_above_diagonal(self.entries))

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def mulvec(self, v) -> tuple[int, ...]:
        """Matrix-vector product M.v, exact."""
        if len(v) != self.n:
            raise ValueError("dimension mismatch")
        out = list(map(mul, self._diag, v))
        for i, j, x in self._edges:
            out[i] += x * v[j]
            out[j] += x * v[i]
        return tuple(out)

    def neg_factor(self) -> NegFactor | None:
        """The fraction-free factor of -M, or None if M is not negative
        definite; built on the first call and kept."""
        return _kept(self, "_factor", lambda: _neg_factor(self.entries))


def _facts(M: IntersectionMatrix, entries, diag, edges) -> IntersectionMatrix:
    """``M`` with ``entries`` and the facts kept on it, computed from the
    diagonal ``diag`` and ``edges``, the sorted (i, j, m) with i < j of the
    nonzeros above it. Nothing is checked: every caller has checked the
    table, or built it from checked edges."""
    diag = tuple(diag)
    # E.E_i = M.(1,...,1): condition (**), (iii) and Laufer's start read it
    sums = list(diag)
    for i, j, x in edges:
        sums[i] += x
        sums[j] += x
    M.__dict__.update(
        entries=entries,
        # dual graphs are sparse: M.v costs O(n + edges), from the diagonal
        # and the nonzeros above it, each edge taken once for both its ends
        _diag=diag,
        _edges=tuple(edges),
        # the (-1)-curves, which _nonminimal reads
        _minus_ones=tuple([i for i, w in enumerate(diag) if w == -1]),
        _connected=_edges_connect(len(diag), edges),
        _row_sums=tuple(sums),
    )
    return M


def _edges_above_diagonal(rows) -> list[tuple[int, int, int]]:
    """The (i, j, rows[i][j]) with i < j and a nonzero entry, in row order."""
    cols = range(len(rows))
    return [(i, j, row[j]) for i, row in enumerate(rows) for j in compress(cols, row) if j > i]


@dataclass(frozen=True)
class NegFactor:
    """Fraction-free LU factor of -M for a negative-definite M.

    Forward Bareiss elimination on -M (Bareiss, Math. Comp. 22, 1968), a
    column at a time: ``rows[t]`` lists the nonzero (l, U[t][l]) with
    l > t, in column order, U[t][l] being entry t of column l at step t.
    This is U in -M = U^T D^-1 U with D = diag(p_(k-1) p_k), the
    fraction-free LU factorization of Nakos, Turner & Williams (ACM SIGSAM
    Bull. 31(3), 1997) and Zhou & Jeffrey (Front. Comput. Sci. China 2(1),
    2008); -M is symmetric, so the lower factor is U^T. ``minors[k]`` is
    the k-th leading principal minor p_(k-1) of -M (``minors[0]`` = 1), so
    the diagonal U[k][k] = ``minors[k + 1]``, which ``rows`` leaves out,
    and det(-M) = ``minors[-1]``.
    """

    minors: tuple[int, ...]
    rows: tuple[list[tuple[int, int]], ...]


def _bareiss(y: list[int], rows, minors) -> list[int]:
    """``y`` brought in place through the k = len(rows) fraction-free
    (Bareiss) steps of the factor with rows ``rows`` and leading minors
    ``minors[1..k]``; the one forward elimination.

    Step t takes y[i] to (p_t y[i] - U[t][i] y[t]) / p_(t-1) for i > t,
    and y[t] is final once step t begins. An entry with U[t][i] = 0 is
    only rescaled by p_t / p_(t-1); such rescales telescope, so each entry
    keeps the step it was last brought to and is rescaled once, exactly,
    when next read, and a step whose y[t] is 0 is skipped: a chain has no
    fill-in, and its columns take one step each. A step changes only
    entries after its own, so the steps are read off y as it goes.

    With k + 1 entries, y is the next column of a symmetric matrix, rows
    0..k: entry t < k becomes U[t][k], which is also the multiplier of the
    last entry at step t, and the last becomes the next pivot, the leading
    minor of size k + 1, linear in the diagonal entry with slope
    ``minors[k]``. With k entries, y is the right-hand side of a solve,
    and each y[i] ends at step i.
    """
    k = len(rows)
    pivot = len(y) > k  # y[k] is the pivot, updated by U[t][k] = y[t]
    at = [0] * len(y)  # y[i] holds entry i as of step at[i]
    for t in compress(range(k), y):
        q, p = minors[t], minors[t + 1]
        f = y[t]
        if at[t] != t:
            f = y[t] = f * q // minors[at[t]]
        for i, u in rows[t]:
            x = y[i]
            if at[i] != t:
                x = x * q // minors[at[i]]
            y[i] = (p * x - u * f) // q
            at[i] = t + 1
        if pivot:
            x = y[k]
            if at[k] != t:
                x = x * q // minors[at[k]]
            y[k] = (p * x - f * f) // q
            at[k] = t + 1
    if pivot and at[k] != k:
        y[k] = y[k] * minors[k] // minors[at[k]]
    return y


def _neg_factor(entries) -> NegFactor | None:
    """The factor of -M for the rows ``entries`` of M; None at the first
    pivot <= 0. By Sylvester's criterion M is negative definite exactly when
    every pivot, a leading principal minor of -M, is positive; no row
    exchange is then needed."""
    rows, minors = [], [1]
    for k, row in enumerate(entries):  # M is symmetric: row k is column k
        y = _bareiss([-x for x in row[:k + 1]], rows, minors)
        if y[k] <= 0:
            return None
        for t in compress(range(k), y):
            rows[t].append((k, y[t]))
        rows.append([])
        minors.append(y[k])
    return NegFactor(tuple(minors), tuple(rows))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking a graph against the contractibility constraints.

    ``problems`` say why the graph cannot be analyzed (not negative
    definite, disconnected). ``minimal=False`` gives a warning only: the
    formulas below stay well-defined, but the bijectivity statement is
    proved for minimal resolutions, so reports flag the gap instead of
    refusing to run.
    """

    negative_definite: bool
    connected: bool
    minimal: bool
    problems: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def analyzable(self) -> bool:
        return self.negative_definite and self.connected

    @property
    def messages(self) -> tuple[str, ...]:
        return self.problems + self.warnings

    def require_analyzable(self) -> None:
        """Raise ValueError naming the problems, if any (see _refuse)."""
        _refuse(self.problems)


# ---------------------------------------------------------------------------
# file format

# Largest vertex count a graph file may declare. The builder refuses a larger
# count before it allocates the n x n multiplicity table; analysis is
# O(n^3) and the JSON report holds O(n^3) integers, so far smaller graphs
# already take seconds.
MAX_VERTICES = 128

# The fields of a graph file, in file order; all but the last are required.
_FIELDS = ("vertices", "weights", "genera", "edges", "labels")


def _build_graph(data: dict, lines: dict[str, int]) -> ResolutionGraph:
    """The one builder behind both file formats.

    ``data`` has the JSON shape: ``vertices``, ``weights``, ``genera``,
    ``edges`` as [i, j, m] lists with 1-based i < j, optional ``labels``.
    ``lines`` maps a key to the line it came from (text format only), so a
    value error reads the same in both formats apart from the line prefix.
    _check_fields' errors name their field, so they get the same line
    prefix. The graph and its matrix are made as _genus_variant makes a
    variant, with no check of their constructors run again.
    """
    n = data["vertices"]
    if type(n) is not int or n < 1:
        raise GraphFormatError("vertex count must be a positive integer", lines.get("vertices"))
    if n > MAX_VERTICES:
        raise GraphFormatError(
            f"vertex count {_quote(n)} exceeds the cap of {MAX_VERTICES}", lines.get("vertices")
        )
    for key in _FIELDS[1:]:
        value = data.get(key)
        if key == "labels" and value is None:
            continue
        if not isinstance(value, list):
            raise GraphFormatError(f"'{key}' must be a list")
        if key != "edges" and len(value) != n:
            raise GraphFormatError(
                f"expected {n} {key}, got a list of length {len(value)}", lines.get(key)
            )
    line = lines.get("edges")
    mult = [[0] * n for _ in range(n)]
    edges = []
    for entry in data["edges"]:
        if not (isinstance(entry, list) and len(entry) == 3
                and type(entry[0]) is type(entry[1]) is type(entry[2]) is int):
            raise GraphFormatError(f"edge entry {_quote(entry)} must be [i, j, m] with integer entries")
        i, j, m = entry
        if not (1 <= i < j <= n):
            raise GraphFormatError(f"edge {_quote(i)}-{_quote(j)} needs 1 <= i < j <= {n}", line)
        if m < 1:
            raise GraphFormatError(f"edge multiplicity {_quote(m)} must be >= 1", line)
        if mult[i - 1][j - 1] != 0:
            raise GraphFormatError(f"duplicate edge {i}-{j}", line)
        mult[i - 1][j - 1] = mult[j - 1][i - 1] = m
        edges.append((i - 1, j - 1, m))
    weights, genera = tuple(data["weights"]), tuple(data["genera"])
    labels = None if data.get("labels") is None else tuple(data["labels"])
    try:
        _check_fields(weights, genera, labels, n)
    except ValueError as exc:
        raise GraphFormatError(str(exc), lines.get(getattr(exc, "key", None))) from exc
    edges.sort()
    g = object.__new__(ResolutionGraph)
    g.__dict__.update(weights=weights, genera=genera, mult=tuple(map(tuple, mult)), labels=labels)
    for i, row in enumerate(mult):
        row[i] = weights[i]
    g.__dict__["_matrix"] = _facts(
        object.__new__(IntersectionMatrix), tuple(map(tuple, mult)), weights, edges
    )
    return g


# An input error quotes at most this many characters of the token it refuses.
_QUOTE_CHARS = 40


def _input_int(tok: str, expected: str, line: int | None = None) -> int:
    """``int(tok)``: the one reader of an integer token of input.

    A token ``int`` refuses raises GraphFormatError, with ``line`` if given.
    An integer literal refused only for having more digits than CPython's
    int/str conversion limit allows is reported as such; the limit stays in
    force for input. Any other token reads "{expected}, got" and _quote(tok).
    """
    try:
        return int(tok)
    except ValueError:
        pass
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    digits = sum(map(str.isdecimal, tok))
    if cap and digits > cap and re.fullmatch(r"\s*[+-]?\d+(?:_\d+)*\s*", tok):
        raise GraphFormatError(f"integer literal has {digits} digits; the limit is {cap}", line)
    raise GraphFormatError(f"{expected}, got {_quote(tok)}", line)


def _quote(value, limit: int = _QUOTE_CHARS) -> str:
    """``repr(value)`` in an input error; if it is longer than ``limit``
    characters (a str's quotes aside), only that many and the length of the
    value: for a str, the repr of its longest prefix that fits, so an
    escaped character counts by its shown length."""
    if type(value) is not str:
        text = repr(value)
        if len(text) <= limit:
            return text
        return f"{text[:limit]}... ({len(text)} characters)"
    k = min(len(value), limit)
    while len(repr(value[:k])) > limit + 2:
        k -= 1
    if k == len(value):
        return repr(value)
    return f"{repr(value[:k])}... ({len(value)} characters)"


def _json_loads(text: str):
    """``json.loads``, with an integer literal over the digit cap reported by
    ``_input_int`` instead of CPython's hint. Apart from a JSONDecodeError,
    only ``int`` raises a ValueError there, so the decode through a Python
    ``parse_int`` hook, which costs about three plain ones, runs only then."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:
        return json.loads(text, parse_int=lambda tok: _input_int(tok, "expected an integer"))


def parse_graph(text: str) -> ResolutionGraph:
    """Parse the line-oriented graph format.

    ::

        # comment
        vertices: 3
        weights: -2 -2 -2
        genera: 0 0 0
        edges: 1-2:1 2-3:1
        labels: a b c        (optional)

    Vertex indices in ``edges`` are 1-based with i < j; a pair that is not
    listed intersects in 0 points. Raises GraphFormatError with a line
    number on malformed input.
    """
    fields: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        key = key.strip().lower()
        if not sep or key not in _FIELDS:
            raise GraphFormatError(f"unrecognized line {_quote(raw.strip())}", lineno)
        if key in fields:
            raise GraphFormatError(f"duplicate '{key}' line", lineno)
        fields[key] = (value.strip(), lineno)

    for key in _FIELDS[:-1]:
        if key not in fields:
            raise GraphFormatError(f"missing '{key}' line")

    lines = {key: lineno for key, (_, lineno) in fields.items()}
    value, lineno = fields["vertices"]
    data: dict = {"vertices": _input_int(value, "expected integer vertex count", lineno)}
    # one int pass per field and per edge; only a pass that fails goes
    # token by token through _input_int, which names the first bad token
    for key, what in (("weights", "weight"), ("genera", "genus")):
        value, lineno = fields[key]
        toks = value.split()
        try:
            data[key] = list(map(int, toks))
        except ValueError:
            data[key] = [_input_int(t, f"expected integer {what}", lineno) for t in toks]
    value, lineno = fields["edges"]
    data["edges"] = edges = []
    for tok in value.split():
        head, sep, mstr = tok.partition(":")
        istr, sep2, jstr = head.partition("-")
        if not sep or not sep2:
            raise GraphFormatError(f"malformed edge {_quote(tok)} (want i-j:m)", lineno)
        try:
            edges.append([int(istr), int(jstr), int(mstr)])
        except ValueError:
            edges.append([
                _input_int(istr, "expected integer edge endpoint", lineno),
                _input_int(jstr, "expected integer edge endpoint", lineno),
                _input_int(mstr, "expected integer edge multiplicity", lineno),
            ])
    if "labels" in fields:
        data["labels"] = fields["labels"][0].split()
    return _build_graph(data, lines)


def serialize_graph(g: ResolutionGraph) -> str:
    """Inverse of parse_graph: parse(serialize(g)) == g, byte-stable. One
    ``key: values`` line per key of the JSON mirror, in its order."""
    d = graph_to_json_dict(g)
    d["edges"] = [f"{i}-{j}:{m}" for i, j, m in d["edges"]]
    return "".join(
        f"{key}: {' '.join(map(str, v)) if isinstance(v, list) else v}\n" for key, v in d.items()
    )


def graph_to_json_dict(g: ResolutionGraph) -> dict:
    d = {
        "vertices": g.n,
        "weights": list(g.weights),
        "genera": list(g.genera),
        "edges": [[i + 1, j + 1, m] for i, j, m in g.edges()],
    }
    if g.labels is not None:
        d["labels"] = list(g.labels)
    return d


def render_json(obj, compact: bool = False) -> str:
    """The text ``json.dumps`` gives with ``indent=2``, or with ``compact``
    the text it gives with ``separators=(",", ":")``, byte for byte, for the
    values a report holds: dicts with str keys, lists, str, int, bool, None
    and ``_Table``, written as the list of records it stands for. Every JSON
    document the package writes goes through it.

    Compact text comes from _compact, the stdlib's C encoder made once
    (where the C accelerator is absent, one stdlib encoder made once); it
    hands a ``_Table`` to the ``default`` hook _records. The C encoder
    does not take ``indent``, so indented text is built here: a bool or None
    is written as its literal, any other value by ``json.dumps``; the text
    is gathered in pieces and joined once, a list of integers in one piece;
    a ``_Table`` is rendered from its columns by one row template filled
    once per row, and a ``lists`` column renders each distinct list once,
    such as a witness divisor that several pairs share.
    """
    if compact:
        return "".join(_compact(obj, 0))
    out: list[str] = []
    _render(obj, "\n", out)
    return "".join(out)


# one level of indentation of render_json's indented text
_STEP = "  "


def _render(obj, newline: str, out: list[str]) -> None:
    """Append the pieces of the indented text of ``obj`` to ``out``; see
    render_json. ``newline`` is the line break plus the indentation of the
    current level."""
    inner = newline + _STEP
    if isinstance(obj, list):
        if not obj:
            out.append("[]")
            return
        if set(map(type, obj)) == {int}:
            out.append(_int_list_text(obj, newline))
            return
        sep, comma = "[" + inner, "," + inner
        for x in obj:
            out.append(sep)
            _render(x, inner, out)
            sep = comma
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        sep, comma = "{" + inner, "," + inner
        for k, v in obj.items():
            out.append(sep + encode_basestring_ascii(k) + ": ")
            _render(v, inner, out)
            sep = comma
        out.append(newline + "}")
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif type(obj) is int:
        out.append(str(obj))
    elif type(obj) is bool or obj is None:
        out.append("null" if obj is None else "true" if obj else "false")
    elif type(obj) is _Table:
        _render_columns(obj, newline, out)
    else:
        out.append(json.dumps(obj))


def _int_list_text(xs: list, newline: str) -> str:
    """The indented text at ``newline`` of ``xs``, a non-empty list that the
    caller has checked holds only ints."""
    inner = newline + _STEP
    return "[" + inner + ("," + inner).join(map(str, xs)) + newline + "]"


@dataclass(frozen=True)
class _Table:
    """A list of ``n`` records given by its columns, which render_json writes
    as the list of dicts with ``keys`` (or, with ``keys`` None, of lists)
    without building a record. Each field, one per key, is ``("int", col)``,
    a column of ints; ``("ints", cols)``, a list of len(cols) ints per
    record, taken from the int columns ``cols``; or ``("lists", col)``, a
    column of int lists."""

    keys: tuple[str, ...] | None
    fields: tuple
    n: int


def _int_lists(col) -> dict:
    """The distinct lists of the ``lists`` column ``col``, by id; raise
    ValueError if one is empty or holds anything but ints."""
    lists = dict(zip(map(id, col), col))
    if any(set(map(type, x)) != {int} for x in lists.values()):
        raise ValueError("a table column of lists must hold non-empty lists of ints")
    return lists


def _render_columns(table: _Table, newline: str, out: list[str]) -> None:
    """Append the indented text of ``table``; see _int_lists for the lists
    it refuses.

    An int fills a ``%d`` slot of one row template. An int list of a
    ``lists`` field, checked once by _int_lists, is text from
    _int_list_text, once per list object, and the template is cut around
    it. The row separator ends the last cut, so the rows are emitted
    without a Python loop per row.
    """
    keys, fields, n = table.keys, table.fields, table.n
    if not n:
        out.append("[]")
        return
    if keys is None:
        heads, bracket = [""] * len(fields), "[]"
    else:
        heads, bracket = [encode_basestring_ascii(k).replace("%", "%%") + ": " for k in keys], "{}"
    inner = newline + _STEP
    cell = inner + _STEP  # the newline of a value in a row
    template, slots, cuts = bracket[0], [], []
    for head, (kind, col) in zip(heads, fields):
        template += cell + head
        if kind == "int":
            template += "%d"
            slots.append(col)
        elif kind == "ints":
            deeper = cell + _STEP
            template += "[" + deeper + ("," + deeper).join(["%d"] * len(col)) + cell + "]"
            slots.extend(col)
        else:
            texts = {i: _int_list_text(x, cell) for i, x in _int_lists(col).items()}
            cuts += [_fill(template, slots, n), map(texts.__getitem__, map(id, col))]
            template, slots = "", []
        template += ","
    template = template[:-1] + inner + bracket[1] + "," + inner
    cuts.append(_fill(template, slots, n))
    out.append("[" + inner)
    out.extend(chain.from_iterable(zip(*cuts)))
    out[-1] = out[-1][: -len(inner) - 1] + newline + "]"


def _fill(template: str, slots: list, n: int):
    """The ``n`` row texts of ``template`` filled from the columns ``slots``;
    a template without slots still goes through ``%`` to undo its ``%%``."""
    return map(template.__mod__, zip(*slots)) if slots else repeat(template % (), n)


def _records(obj):
    """The ``default`` hook of _compact: a _Table as the list of records it
    stands for, its ``lists`` fields checked by _int_lists. Any other value
    is refused as the stdlib refuses it."""
    if type(obj) is not _Table:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    cols = []
    for kind, col in obj.fields:
        if kind == "ints":
            col = list(zip(*col))
        elif kind == "lists":
            _int_lists(col)
        cols.append(col)
    if obj.keys is None:
        return list(zip(*cols))
    return [dict(zip(obj.keys, row)) for row in zip(*cols)]


# compact text, see render_json: the stdlib's C encoder, made once with the
# arguments json.JSONEncoder.iterencode gives it but no markers, as a report
# is a tree. Called as (obj, 0) it returns the text in chunks, as does the
# fallback, iterencode(obj, _one_shot=0), the pure-Python encoder
if c_make_encoder is None:
    _compact = json.JSONEncoder(separators=(",", ":"), default=_records).iterencode
else:
    _compact = c_make_encoder(
        None, _records, encode_basestring_ascii, None, ":", ",", False, False, True
    )


def serialize_graph_json(g: ResolutionGraph) -> str:
    return render_json(graph_to_json_dict(g)) + "\n"


def parse_graph_json(text: str) -> ResolutionGraph:
    """Parse the JSON mirror of the graph format."""
    try:
        data = _json_loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise GraphFormatError("JSON graph must be an object")
    for key in _FIELDS[:-1]:
        if key not in data:
            raise GraphFormatError(f"missing JSON key '{key}'")
    return _build_graph(data, {})


def load_graph(text: str) -> ResolutionGraph:
    """Parse either format; JSON is recognized by a leading '{'.

    Comment and blank lines may precede the JSON object; they are not
    part of JSON itself, so they are dropped before decoding.
    """
    lines = text.splitlines()
    for k, raw in enumerate(lines):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("{"):
            return parse_graph_json("\n".join(lines[k:]))
        break
    return parse_graph(text)


# ---------------------------------------------------------------------------
# validation


def _edges_connect(n: int, edges) -> bool:
    """Whether the (i, j, m) of ``edges`` connect the n vertices: union-find
    with path halving, one merge per edge that joins two parts, so the
    cost is O(n + edges) and no table row is read."""
    root = list(range(n))
    parts = n
    for i, j, _ in edges:
        while root[i] != i:
            root[i] = i = root[root[i]]
        while root[j] != j:
            root[j] = j = root[root[j]]
        if i != j:
            root[i] = j
            parts -= 1
    return parts <= 1


def _problems(M: IntersectionMatrix) -> tuple[str, ...]:
    """Why the cone computations cannot run on M, in validate's words."""
    negdef = () if M.neg_factor() is not None else ("intersection matrix is not negative definite",)
    return negdef + (() if M._connected else ("dual graph is disconnected",))


def _refuse(problems: tuple[str, ...]) -> None:
    """ValueError naming ``problems``, if any: the one refusal of a graph
    the cone computations cannot run on, in the library and the CLI."""
    if problems:
        raise ValueError("; ".join(problems))


def validate(g: ResolutionGraph) -> ValidationReport:
    """Check the contractibility constraints; failures land in the report."""
    M = g.intersection_matrix()
    nonminimal = _nonminimal(g)
    return ValidationReport(
        negative_definite=M.neg_factor() is not None,
        connected=M._connected,
        minimal=not nonminimal,
        problems=_problems(M),
        warnings=tuple(
            f"warning: {g.label(i)} is a genus-0 (-1)-curve; "
            "the graph is not a minimal resolution"
            for i in nonminimal
        ),
    )


def _nonminimal(g: ResolutionGraph) -> tuple[int, ...]:
    """The genus-0 (-1)-curves of g, which a minimal resolution lacks: the
    (-1)-curves its matrix keeps, less those of positive genus."""
    genera = g.genera
    return tuple([i for i in g._matrix._minus_ones if not genera[i]])


def canonical_intersections(g: ResolutionGraph) -> tuple[int, ...]:
    """Intersection numbers of the canonical divisor with each component.

    By adjunction on an irreducible curve of arithmetic genus p and
    self-intersection w, the canonical pairing is 2p - 2 - w. No global
    canonical divisor is modeled, only this vector.
    """
    return tuple([2 * p - 2 - w for p, w in zip(g.genera, g.weights)])
