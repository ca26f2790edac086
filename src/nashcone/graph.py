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
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import GraphFormatError

__all__ = [
    "MAX_VERTICES",
    "ResolutionGraph",
    "IntersectionMatrix",
    "ValidationReport",
    "parse_graph",
    "parse_graph_json",
    "serialize_graph",
    "serialize_graph_json",
    "load_graph",
    "validate",
    "is_negative_definite",
    "is_connected",
    "canonical_intersections",
]


@dataclass(frozen=True)
class ResolutionGraph:
    """Dual graph of an exceptional curve configuration.

    ``weights[i]`` is the self-intersection of the i-th component (<= -1),
    ``genera[i]`` its arithmetic genus (>= 0), and ``mult[i][j]`` the
    intersection number of two distinct components (symmetric, >= 0, zero
    diagonal). Vertices are 0-based internally; files use 1-based indices.
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
            raise ValueError(f"weight {max(self.weights)} must be <= -1")
        if min(self.genera) < 0:
            raise ValueError(f"genus {min(self.genera)} must be >= 0")
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
                raise ValueError("labels must name every vertex")
            for lab in self.labels:
                if type(lab) is not str or not lab or any(c.isspace() for c in lab) or "#" in lab:
                    raise ValueError(f"invalid label {lab!r}")

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
        """The matrix of E_i . E_j, built on the first call and kept on the
        graph, which is immutable."""
        M = self.__dict__.get("_matrix")
        if M is None:
            rows = tuple(
                tuple(self.weights[i] if i == j else self.mult[i][j] for j in range(self.n))
                for i in range(self.n)
            )
            M = IntersectionMatrix(rows)
            object.__setattr__(self, "_matrix", M)
        return M


@dataclass(frozen=True)
class IntersectionMatrix:
    """Symmetric integer matrix of pairwise intersection numbers."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        for i, row in enumerate(self.entries):
            if len(row) != n:
                raise ValueError("intersection matrix must be square")
            for j in range(n):
                if row[j] != self.entries[j][i]:
                    raise ValueError("intersection matrix must be symmetric")
        # dual graphs are sparse: products cost O(n + edges) over the nonzeros
        sparse = tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in self.entries)
        object.__setattr__(self, "_sparse", sparse)

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def mulvec(self, v) -> tuple[int, ...]:
        """Matrix-vector product M.v, exact."""
        if len(v) != self.n:
            raise ValueError("dimension mismatch")
        return tuple([sum([x * v[j] for j, x in row]) for row in self._sparse])


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


def _build_graph(data: dict, lines: dict[str, int]) -> ResolutionGraph:
    """The one builder behind both file formats.

    ``data`` has the JSON shape: ``vertices``, ``weights``, ``genera``,
    ``edges`` as [i, j, m] lists with 1-based i < j, optional ``labels``.
    ``lines`` maps a key to the line it came from (text format only), so a
    value error reads the same in both formats apart from the line prefix.
    Weight, genus and label ranges are left to ResolutionGraph.
    """
    n = data["vertices"]
    if type(n) is not int or n < 1:
        raise GraphFormatError("vertex count must be a positive integer", lines.get("vertices"))
    if n > MAX_VERTICES:
        raise GraphFormatError(
            f"vertex count {n} exceeds the cap of {MAX_VERTICES}", lines.get("vertices")
        )
    for key in ("weights", "genera", "edges", "labels"):
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
        raise GraphFormatError(str(exc)) from exc


def _parse_int(tok: str, line: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise GraphFormatError(f"expected integer {what}, got {tok!r}", line) from None


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
        if not sep or key not in ("vertices", "weights", "genera", "edges", "labels"):
            raise GraphFormatError(f"unrecognized line {raw.strip()!r}", lineno)
        if key in fields:
            raise GraphFormatError(f"duplicate '{key}' line", lineno)
        fields[key] = (value.strip(), lineno)

    for key in ("vertices", "weights", "genera", "edges"):
        if key not in fields:
            raise GraphFormatError(f"missing '{key}' line")

    lines = {key: lineno for key, (_, lineno) in fields.items()}
    value, lineno = fields["vertices"]
    data: dict = {"vertices": _parse_int(value, lineno, "vertex count")}
    for key, what in (("weights", "weight"), ("genera", "genus")):
        value, lineno = fields[key]
        data[key] = [_parse_int(t, lineno, what) for t in value.split()]
    value, lineno = fields["edges"]
    data["edges"] = []
    for tok in value.split():
        head, sep, mstr = tok.partition(":")
        istr, sep2, jstr = head.partition("-")
        if not sep or not sep2:
            raise GraphFormatError(f"malformed edge {tok!r} (want i-j:m)", lineno)
        data["edges"].append([
            _parse_int(istr, lineno, "edge endpoint"),
            _parse_int(jstr, lineno, "edge endpoint"),
            _parse_int(mstr, lineno, "edge multiplicity"),
        ])
    if "labels" in fields:
        data["labels"] = fields["labels"][0].split()
    return _build_graph(data, lines)


def serialize_graph(g: ResolutionGraph) -> str:
    """Inverse of parse_graph: parse(serialize(g)) == g, byte-stable."""
    lines = [
        f"vertices: {g.n}",
        "weights: " + " ".join(str(w) for w in g.weights),
        "genera: " + " ".join(str(x) for x in g.genera),
        "edges: " + " ".join(f"{i + 1}-{j + 1}:{m}" for i, j, m in g.edges()),
    ]
    if g.labels is not None:
        lines.append("labels: " + " ".join(g.labels))
    return "\n".join(lines) + "\n"


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


def serialize_graph_json(g: ResolutionGraph) -> str:
    return json.dumps(graph_to_json_dict(g), indent=2) + "\n"


def parse_graph_json(text: str) -> ResolutionGraph:
    """Parse the JSON mirror of the graph format."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise GraphFormatError("JSON graph must be an object")
    for key in ("vertices", "weights", "genera", "edges"):
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


def _leading_minors_negdef(rows: list[list[int]]) -> bool:
    """Sylvester test via fraction-free (Bareiss) elimination.

    The pivot after step k is the (k+1)-st leading principal minor, so the
    signs can be checked as elimination proceeds; a zero pivot is itself a
    failed minor, which lets us stop without pivoting.
    """
    n = len(rows)
    a = [row[:] for row in rows]
    prev = 1
    sign = 1
    for k in range(n):
        pivot = a[k][k]
        if sign * pivot >= 0:  # need (-1)^(k+1) * minor > 0
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (pivot * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = pivot
        sign = -sign
    return True


def is_negative_definite(M: IntersectionMatrix) -> bool:
    """Exact test: (-1)^k * (k-th leading principal minor) > 0 for all k."""
    return _leading_minors_negdef([list(row) for row in M.entries])


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
    negdef = is_negative_definite(g.intersection_matrix())
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
