"""Weighted dual graphs of resolutions: data model, file format, validation.

A graph is given by self-intersection weights, arithmetic genera and
pairwise intersection multiplicities of the exceptional curves. Everything
downstream (cone membership, condition checks, classification) is a pure
function of this data.

Both file formats, the line-oriented text and its JSON mirror, are read
into the same JSON-shaped dict and sent through one builder, which makes
every count, list, edge and multiplicity check once; ResolutionGraph
itself checks weight, genus and label ranges. A value error therefore
reads the same in both formats, apart from the text format's ``line N:``
prefix. A file may declare at most MAX_VERTICES vertices: the builder
refuses a larger count before it allocates the n x n multiplicity table.

Negative definiteness is read from one fraction-free factor of -M, the
forward Bareiss pass of ``NegFactor``: its pivots are the leading
principal minors of -M. The intersection matrix keeps the factor once
built, and the graph keeps its matrix, so each graph is eliminated once;
cone.neg_adjugate continues the same factor, by one back-substitution,
to the integer adjugate that every cone computation reads. Graphs that
differ only in genera or labels may share one matrix object, given by
``_share_matrix`` (the enumerator does so), and with it everything kept
on the matrix.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
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
        if len(self.genera) != n or len(self.mult) != n:
            raise ValueError("weights, genera and mult must have matching size")
        # exact integers only: a float would leak into every sign decision,
        # and bool is an int subclass that no graph file means as a number
        if any(type(x) is not int for x in (*self.weights, *self.genera)):
            raise ValueError("weights and genera must be integers")
        if any(len(row) != n for row in self.mult):
            raise ValueError("mult must be a square matrix")
        if any(type(m) is not int for row in self.mult for m in row):
            raise ValueError("intersection multiplicities must be integers")
        if max(self.weights) > -1:
            raise _FieldError("weights", f"weight {max(self.weights)} must be <= -1")
        if min(self.genera) < 0:
            raise _FieldError("genera", f"genus {min(self.genera)} must be >= 0")
        for i, row in enumerate(self.mult):
            if row[i] != 0:
                raise ValueError("mult diagonal must be zero")
            for j, m in enumerate(row):
                if m < 0:
                    raise ValueError("intersection multiplicities must be >= 0")
                if m != self.mult[j][i]:
                    raise ValueError("mult must be symmetric")
        if self.labels is not None:
            if len(self.labels) != n:
                raise _FieldError("labels", "labels must name every vertex")
            for lab in self.labels:
                if type(lab) is not str or not lab or any(c.isspace() for c in lab) or "#" in lab:
                    raise _FieldError("labels", f"invalid label {lab!r}")
            if len(set(self.labels)) != n:
                # a repeated label would make the text report ambiguous
                lab = next(lab for k, lab in enumerate(self.labels) if lab in self.labels[:k])
                raise _FieldError("labels", f"duplicate label {lab!r}")

    @property
    def n(self) -> int:
        return len(self.weights)

    def label(self, i: int) -> str:
        """Display name of vertex i (defaults to E1..En)."""
        if self.labels is not None:
            return self.labels[i]
        return f"E{i + 1}"

    def edges(self) -> list[tuple[int, int, int]]:
        """Sorted (i, j, mult) triples with i < j and mult > 0, 0-based."""
        return [
            (i, j, self.mult[i][j])
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if self.mult[i][j] > 0
        ]

    def intersection_matrix(self) -> IntersectionMatrix:
        """The matrix of E_i . E_j, built on the first call and kept."""
        return _kept(self, "_matrix", lambda: IntersectionMatrix(tuple([
            (*row[:i], w, *row[i + 1:]) for i, (w, row) in enumerate(zip(self.weights, self.mult))
        ])))


def _kept(obj, key: str, build):
    """The value kept on the frozen ``obj`` under ``key``, from ``build()`` on
    first use. ``obj`` is immutable, so a value that depends on it alone stays
    valid as long as it lives, and no longer."""
    try:
        return obj.__dict__[key]
    except KeyError:
        object.__setattr__(obj, key, build())
        return obj.__dict__[key]


def _share_matrix(g: ResolutionGraph, source: ResolutionGraph) -> None:
    """Give ``g`` the intersection matrix object of ``source``, so that what
    is kept on the matrix is computed once for both; the two graphs must
    differ at most in their genera and labels."""
    if g.weights != source.weights or g.mult != source.mult:
        raise ValueError("only graphs with equal weights and mult can share a matrix")
    object.__setattr__(g, "_matrix", source.intersection_matrix())


@dataclass(frozen=True)
class IntersectionMatrix:
    """Symmetric integer matrix of pairwise intersection numbers."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError("intersection matrix must be square")
        # compare each row with the matching column, a row at a time
        if any(tuple(row) != col for row, col in zip(self.entries, zip(*self.entries))):
            raise ValueError("intersection matrix must be symmetric")
        # dual graphs are sparse: M.v costs O(n + edges), from the diagonal
        # and the nonzeros above it, each edge taken once for both its ends
        object.__setattr__(self, "_diag", tuple(row[i] for i, row in enumerate(self.entries)))
        object.__setattr__(self, "_edges", tuple(
            (i, j, x) for i, row in enumerate(self.entries) for j, x in enumerate(row) if j > i and x
        ))

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


@dataclass(frozen=True)
class NegFactor:
    """Fraction-free LU factor of -M for a negative-definite M.

    Forward Bareiss elimination on -M (Bareiss, Math. Comp. 22, 1968) that
    keeps row k as it stands at step k, when it becomes the pivot row: this
    is U in -M = U^T D^-1 U with D = diag(p_(k-1) p_k), the fraction-free LU
    factorization of Nakos, Turner & Williams (ACM SIGSAM Bull. 31(3), 1997)
    and Zhou & Jeffrey (Front. Comput. Sci. China 2(1), 2008); -M is
    symmetric, so the lower factor is U^T. ``minors[k]`` is the k-th leading
    principal minor p_(k-1) of -M (``minors[0]`` = 1), so U[k][k] =
    ``minors[k + 1]`` and det(-M) = ``minors[-1]``. ``upper[k]`` lists the
    nonzero U[k][j], j > k, as (j, U[k][j]); dual graphs are sparse, and a
    chain or a suitably ordered tree has no fill-in at all.
    """

    minors: tuple[int, ...]
    upper: tuple[tuple[tuple[int, int], ...], ...]


def _neg_factor(entries) -> NegFactor | None:
    """The forward pass behind NegFactor; None at the first pivot <= 0.

    By Sylvester's criterion M is negative definite exactly when every
    pivot, a leading principal minor of -M, is positive; no row exchange
    is then needed. A step with pivot p and previous pivot q only rescales
    a row whose entry in the pivot column is zero, by p / q. Such rescales
    telescope, so a row records the step its entries belong to and is
    brought up to date, with one exact division, when a pivot row next
    touches it: a step costs the nonzeros of its pivot row, not the entire
    trailing block.
    """
    n = len(entries)
    a = [[-x for x in row] for row in entries]
    step = [0] * n  # row i holds the entries of elimination step step[i]
    minors = [1]
    upper = []
    for k in range(n):
        q = minors[k]
        row = a[k]
        if step[k] != k:
            r = minors[step[k]]
            for j in range(k, n):
                row[j] = row[j] * q // r
        p = row[k]
        if p <= 0:
            return None
        nonzero = tuple([(j, row[j]) for j in range(k + 1, n) if row[j]])
        for i, f in nonzero:  # f is also the pivot-column entry of row i, by symmetry
            ai = a[i]
            if step[i] != k:
                r = minors[step[i]]
                for j in range(k + 1, n):
                    ai[j] = (p * (ai[j] * q // r) - f * row[j]) // q
            else:
                for j in range(k + 1, n):
                    ai[j] = (p * ai[j] - f * row[j]) // q
            step[i] = k + 1
        minors.append(p)
        upper.append(nonzero)
    return NegFactor(tuple(minors), tuple(upper))


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
        """Refuse a graph the cone computations cannot run on: disconnected,
        or with an intersection matrix that is not negative definite."""
        if not self.analyzable:
            raise ValueError("; ".join(self.problems))


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
    Weight, genus and label ranges are left to ResolutionGraph, whose
    errors name their field, so they get the same line prefix.
    """
    n = data["vertices"]
    if type(n) is not int or n < 1:
        raise GraphFormatError("vertex count must be a positive integer", lines.get("vertices"))
    if n > MAX_VERTICES:
        raise GraphFormatError(
            f"vertex count {n} exceeds the cap of {MAX_VERTICES}", lines.get("vertices")
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
    for entry in data["edges"]:
        if not (isinstance(entry, list) and len(entry) == 3
                and all(type(x) is int for x in entry)):
            raise GraphFormatError(f"edge entry {entry!r} must be [i, j, m] with integer entries")
        i, j, m = entry
        if not (1 <= i < j <= n):
            raise GraphFormatError(f"edge {i}-{j} needs 1 <= i < j <= {n}", line)
        if m < 1:
            raise GraphFormatError(f"edge multiplicity {m} must be >= 1", line)
        if mult[i - 1][j - 1] != 0:
            raise GraphFormatError(f"duplicate edge {i}-{j}", line)
        mult[i - 1][j - 1] = mult[j - 1][i - 1] = m
    labels = data.get("labels")
    try:
        return ResolutionGraph(
            weights=tuple(data["weights"]),
            genera=tuple(data["genera"]),
            mult=tuple(map(tuple, mult)),
            labels=tuple(labels) if labels is not None else None,
        )
    except (TypeError, ValueError) as exc:
        raise GraphFormatError(str(exc), lines.get(getattr(exc, "key", None))) from exc


# An input error quotes at most this many characters of the token it refuses.
_QUOTE_CHARS = 40


def _input_int(tok: str, expected: str, line: int | None = None) -> int:
    """``int(tok)``: the one reader of an integer token of input.

    A token ``int`` refuses raises GraphFormatError, with ``line`` if given.
    An integer literal refused only for having more digits than CPython's
    int/str conversion limit allows is reported as such; the limit stays in
    force for input. Any other token reads "{expected}, got '...'", with a
    long token cut to a prefix and its length stated, so that one bad token
    cannot flood stderr.
    """
    try:
        return int(tok)
    except ValueError:
        pass
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    digits = sum(map(str.isdecimal, tok))
    if cap and digits > cap and re.fullmatch(r"\s*[+-]?\d+(?:_\d+)*\s*", tok):
        message = f"integer literal has {digits} digits; the limit is {cap}"
    elif len(tok) <= _QUOTE_CHARS:
        message = f"{expected}, got {tok!r}"
    else:
        message = f"{expected}, got {tok[:_QUOTE_CHARS]!r}... ({len(tok)} characters)"
    raise GraphFormatError(message, line)


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
            raise GraphFormatError(f"unrecognized line {raw.strip()!r}", lineno)
        if key in fields:
            raise GraphFormatError(f"duplicate '{key}' line", lineno)
        fields[key] = (value.strip(), lineno)

    for key in _FIELDS[:-1]:
        if key not in fields:
            raise GraphFormatError(f"missing '{key}' line")

    lines = {key: lineno for key, (_, lineno) in fields.items()}
    value, lineno = fields["vertices"]
    data: dict = {"vertices": _input_int(value, "expected integer vertex count", lineno)}
    for key, what in (("weights", "weight"), ("genera", "genus")):
        value, lineno = fields[key]
        data[key] = [_input_int(t, f"expected integer {what}", lineno) for t in value.split()]
    value, lineno = fields["edges"]
    data["edges"] = []
    for tok in value.split():
        head, sep, mstr = tok.partition(":")
        istr, sep2, jstr = head.partition("-")
        if not sep or not sep2:
            raise GraphFormatError(f"malformed edge {tok!r} (want i-j:m)", lineno)
        data["edges"].append([
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


def render_json(obj) -> str:
    """The text ``json.dumps`` gives with ``indent=2``, byte for byte, for the
    values a report holds: dicts with str keys, lists, str, int, bool and None.
    Every indented JSON document the package writes goes through it: the C
    encoder does not take ``indent``, so ``json.dumps`` with it is slower.

    Any other value is rendered by ``json.dumps``. The text is gathered in
    pieces and joined once. A list of integers is rendered once per level it
    occurs at: the memo of one call is keyed on the list's identity and its
    indentation, as the same list is indented differently at another depth.
    A list that is a table (see _render_table), such as the witnesses of a
    report or the values of a criterion, is rendered by one row template
    filled once per row, and a list of integers in it, such as a shared
    witness divisor, by the same memo. A ``_Table`` is rendered the same
    way from the columns it holds, as the list of records it stands for.
    """
    out: list[str] = []
    _render(obj, "\n", out, {})
    return "".join(out)


def _render(obj, newline: str, out: list[str], memo: dict) -> None:
    """Append the pieces of the text of ``obj`` to ``out``; see render_json.
    ``newline`` is the line break plus the indentation of the current level."""
    inner = newline + "  "
    if isinstance(obj, list):
        if not obj:
            out.append("[]")
            return
        text = _int_list_text(obj, newline, memo)
        if text is not None:
            out.append(text)
            return
        if _render_table(obj, newline, out, memo):
            return
        sep, comma = "[" + inner, "," + inner
        for x in obj:
            out.append(sep)
            _render(x, inner, out, memo)
            sep = comma
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        sep, comma = "{" + inner, "," + inner
        for k, v in obj.items():
            out.append(sep + encode_basestring_ascii(k) + ": ")
            _render(v, inner, out, memo)
            sep = comma
        out.append(newline + "}")
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif type(obj) is int:
        out.append(str(obj))
    elif type(obj) is _Table:
        if not _render_columns(obj, newline, out, memo):
            raise ValueError("a table column of lists must hold non-empty lists of ints")
    else:
        out.append(json.dumps(obj))


def _int_list_text(xs: list, newline: str, memo: dict) -> str | None:
    """The text of the non-empty list ``xs`` at ``newline`` if it holds only
    ints, else None. The text is kept in ``memo`` under the list's identity
    and ``newline``: ``xs`` lives as long as the render_json call, so its id
    is its own."""
    key = (id(xs), newline)
    text = memo.get(key)
    if text is None and set(map(type, xs)) == {int}:
        inner = newline + "  "
        text = memo[key] = "[" + inner + ("," + inner).join(map(str, xs)) + newline + "]"
    return text


def _render_table(rows: list, newline: str, out: list[str], memo: dict) -> bool:
    """Append the text of ``rows`` and return True if it is a table: dicts
    that all have the same str keys in the same order, or two or more lists
    of one non-zero length, whose every column holds only ints (not bools)
    or only non-empty lists of ints. Otherwise append nothing, return False.

    The columns are sorted here into the fields of a _Table: an int column,
    a column of int lists of one length of at most two (pairs and indices)
    as that many int columns, or any other column of int lists.
    """
    kinds = set(map(type, rows))
    if kinds == {dict}:
        keys = tuple(rows[0])
        if not keys or set(map(type, keys)) != {str} or not all(map(keys.__eq__, map(tuple, rows))):
            return False
        cols = zip(*map(dict.values, rows))
    elif kinds == {list} and len(rows) > 1 and len(set(map(len, rows))) == 1 and rows[0]:
        keys = None
        cols = zip(*rows)
    else:
        return False
    fields = []
    for col in cols:
        types = set(map(type, col))
        sizes = set(map(len, col)) if types == {list} else ()
        if types == {int}:
            fields.append(("int", col))
        elif len(sizes) == 1 and 0 < min(sizes) <= 2:
            if set(map(type, chain.from_iterable(col))) != {int}:
                return False
            fields.append(("ints", tuple(zip(*col))))
        elif sizes:
            fields.append(("lists", col))
        else:
            return False
    return _render_columns(_Table(keys, tuple(fields), len(rows)), newline, out, memo)


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


def _render_columns(table: _Table, newline: str, out: list[str], memo: dict) -> bool:
    """Append the text of ``table`` and return True, or, if a list of a
    ``lists`` field is empty or holds anything but ints, append nothing and
    return False.

    An int fills a ``%d`` slot of one row template. An int list of a
    ``lists`` field is text from _int_list_text, once per list object, and
    the template is cut around it. The row separator ends the last cut, so
    the rows are emitted without a Python loop per row.
    """
    keys, fields, n = table.keys, table.fields, table.n
    if not n:
        out.append("[]")
        return True
    if keys is None:
        heads, bracket = [""] * len(fields), "[]"
    else:
        heads, bracket = [encode_basestring_ascii(k).replace("%", "%%") + ": " for k in keys], "{}"
    inner = newline + "  "
    cell = inner + "  "  # the newline of a value in a row
    template, slots, cuts = bracket[0], [], []
    for head, (kind, col) in zip(heads, fields):
        template += cell + head
        if kind == "int":
            template += "%d"
            slots.append(col)
        elif kind == "ints":
            deeper = cell + "  "
            template += "[" + deeper + ("," + deeper).join(["%d"] * len(col)) + cell + "]"
            slots.extend(col)
        else:
            lists = dict(zip(map(id, col), col))
            texts = {i: _int_list_text(x, cell, memo) for i, x in lists.items()}
            if None in texts.values():
                return False
            cuts += [_fill(template, slots, n), map(texts.__getitem__, map(id, col))]
            template, slots = "", []
        template += ","
    template = template[:-1] + inner + bracket[1] + "," + inner
    cuts.append(_fill(template, slots, n))
    out.append("[" + inner)
    out.extend(chain.from_iterable(zip(*cuts)))
    out[-1] = out[-1][: -len(inner) - 1] + newline + "]"
    return True


def _fill(template: str, slots: list, n: int):
    """The ``n`` row texts of ``template`` filled from the columns ``slots``;
    a template without slots still goes through ``%`` to undo its ``%%``."""
    return map(template.__mod__, zip(*slots)) if slots else repeat(template % (), n)


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


def is_connected(mult) -> bool:
    """Whether the graph with square multiplicity matrix ``mult`` is connected."""
    n = len(mult)
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if mult[i][j] > 0 and j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == n


def validate(g: ResolutionGraph) -> ValidationReport:
    """Check the contractibility constraints; failures land in the report."""
    negdef = g.intersection_matrix().neg_factor() is not None
    connected = is_connected(g.mult)
    nonminimal = [
        i for i in range(g.n) if g.genera[i] == 0 and g.weights[i] == -1
    ]
    problems = []
    if not negdef:
        problems.append("intersection matrix is not negative definite")
    if not connected:
        problems.append("dual graph is disconnected")
    return ValidationReport(
        negative_definite=negdef,
        connected=connected,
        minimal=not nonminimal,
        problems=tuple(problems),
        warnings=tuple(
            f"warning: {g.label(i)} is a genus-0 (-1)-curve; "
            "the graph is not a minimal resolution"
            for i in nonminimal
        ),
    )


def canonical_intersections(g: ResolutionGraph) -> tuple[int, ...]:
    """Intersection numbers of the canonical divisor with each component.

    By adjunction on an irreducible curve of arithmetic genus p and
    self-intersection w, the canonical pairing is 2p - 2 - w. No global
    canonical divisor is modeled, only this vector.
    """
    return tuple(2 * g.genera[i] - 2 - g.weights[i] for i in range(g.n))
