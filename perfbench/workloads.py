"""Inputs and output checks for the four benchmark workloads.

Every workload is a list of passes; a pass is a list of CLI calls (argv for
``nashcone.cli.main``). Graph files are written by this module, not by the
program under test, so the inputs do not depend on its serializers. The
checks run after each call returns, outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

WORKLOADS = ("families", "enum_dense", "enum_sparse", "queries")

# analyze --json on these graphs, one call each per pass
FAMILIES = (
    ("an", 10), ("an", 20), ("an", 30),
    ("dn", 10), ("dn", 20), ("dn", 30),
    ("cycle", 10, -3), ("cycle", 20, -3), ("cycle", 30, -3),
    ("star3", 5),
)
ENUMERATE = {
    "enum_dense": ("4", "-4", "1", "1"),
    "enum_sparse": ("6", "-2", "0", "1"),
}
QUERY_GRAPHS = (("an", 30), ("dn", 30), ("cycle", 30, -3))
FORMATS = ("text", "json")


@dataclass(frozen=True)
class Graph:
    """Weights and 0-based simple edges (i < j, multiplicity 1)."""

    weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return len(self.weights)

    def pairing(self, d) -> list[int]:
        """M.d, computed from the edge list."""
        out = [w * c for w, c in zip(self.weights, d)]
        for i, j in self.edges:
            out[i] += d[j]
            out[j] += d[i]
        return out

    def row(self, i: int) -> list[int]:
        """Row i of the intersection matrix M."""
        return self.pairing([int(k == i) for k in range(self.n)])

    def text(self) -> str:
        edges = " ".join(f"{i + 1}-{j + 1}:1" for i, j in self.edges)
        return (
            f"vertices: {self.n}\n"
            f"weights: {' '.join(map(str, self.weights))}\n"
            f"genera: {' '.join('0' * self.n)}\n"
            f"edges: {edges}\n"
        )

    def json(self) -> str:
        return json.dumps({
            "vertices": self.n,
            "weights": list(self.weights),
            "genera": [0] * self.n,
            "edges": [[i + 1, j + 1, 1] for i, j in self.edges],
        }, indent=2) + "\n"


def family(kind: str, n: int, w: int = -2) -> Graph:
    """The named families, labelled as ``nashcone family`` labels them."""
    if kind == "an":
        return Graph((-2,) * n, tuple((i, i + 1) for i in range(n - 1)))
    if kind == "dn":  # chain whose last two vertices both hang on vertex n-3
        edges = tuple((i, i + 1) for i in range(n - 2)) + ((n - 3, n - 1),)
        return Graph((-2,) * n, edges)
    if kind == "cycle":
        return Graph((w,) * n, tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),))
    if kind == "star3":  # three arms of weight -n on a -2 centre
        return Graph((-n, -n, -n, -2), ((0, 3), (1, 3), (2, 3)))
    raise ValueError(f"unknown family {kind!r}")


def spec_name(spec) -> str:
    return " ".join(map(str, spec))


@dataclass(frozen=True)
class Op:
    """One CLI call and what its output is checked against."""

    argv: tuple[str, ...]
    key: str  # digest key (analyze, enumerate) or graph name (witness, check)
    pair: tuple[int, int] | None = None  # 0-based witness pair
    divisor: tuple[int, ...] | None = None  # check divisor
    criterion: str | None = None

    @property
    def verb(self) -> str:
        return self.argv[0]


def write_files(workload: str, workdir: str) -> dict[str, str]:
    """Write the workload's graph files; returns name -> path."""
    if workload == "families":
        items = [(spec_name(s), family(*s).text()) for s in FAMILIES]
    elif workload == "queries":
        items = [
            (f"{spec_name(s)} {fmt}", getattr(family(*s), fmt)())
            for s in QUERY_GRAPHS
            for fmt in FORMATS
        ]
    else:
        items = []
    paths = {}
    for k, (name, text) in enumerate(items):
        paths[name] = os.path.join(workdir, f"g{k}.graph")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    return paths


def pass_ops(workload: str, seed: int, k: int, files: dict[str, str], expected: dict) -> list[Op]:
    """The calls of pass k; the same (workload, seed, k) gives the same list."""
    rng = random.Random(f"{workload}:{seed}:{k}")
    if workload == "families":
        ops = [
            Op(("analyze", files[spec_name(s)], "--json"), f"analyze {spec_name(s)}")
            for s in FAMILIES
        ]
        rng.shuffle(ops)
        return ops
    if workload in ENUMERATE:
        nv, mw, mg, mm = ENUMERATE[workload]
        argv = ("enumerate", "--max-vertices", nv, "--min-weight", mw,
                "--max-genus", mg, "--max-mult", mm)
        return [Op(argv, workload)]
    ops = []
    for s in QUERY_GRAPHS:
        name = spec_name(s)
        n = family(*s).n
        failing = {tuple(p) for p in expected["failing_pairs"][name]}
        holding = [(i, j) for i in range(n) for j in range(n) if i != j and (i, j) not in failing]
        for fmt in FORMATS:
            path = files[f"{name} {fmt}"]
            i, j = rng.choice(holding)
            pairs = [(i, j), (j, i), rng.choice(holding)]
            fork = sorted(p for p in failing if p[1] >= n - 2)  # j is a dn fork leaf
            if fork:
                pairs.append(rng.choice(fork))
            for a, b in pairs:
                ops.append(Op(("witness", path, "--pair", str(a + 1), str(b + 1)), name, pair=(a, b)))
            for crit in ("realization", "laufer"):
                d = [rng.randrange(10) for _ in range(n)]
                d[rng.randrange(n)] += 1  # effective and nonzero
                ops.append(Op(
                    ("check", path, "--criterion", crit, "--divisor", ",".join(map(str, d)), "--json"),
                    name, divisor=tuple(d), criterion=crit,
                ))
    rng.shuffle(ops)
    return ops


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_output(op: Op, out: str, expected: dict) -> str | None:
    """None when the output is right, else a one-line reason."""
    if op.verb in ("analyze", "enumerate"):
        if digest(out) != expected["digests"][op.key]:
            return f"{op.key}: stdout digest differs from the pinned one"
        return None
    g = family(*next(s for s in QUERY_GRAPHS if spec_name(s) == op.key))
    if op.verb == "witness":
        return _check_witness(g, op, out, expected)
    return _check_criterion(g, op, out)


def _check_witness(g: Graph, op: Op, out: str, expected: dict) -> str | None:
    i, j = op.pair
    fails = [i, j] in expected["failing_pairs"][op.key]
    if out == "none\n":
        return None if fails else f"{op.key} {op.pair}: 'none' for a holding pair"
    if fails:
        return f"{op.key} {op.pair}: witness printed for a failing pair"
    try:
        d = [int(t) for t in out.split()]
    except ValueError:
        return f"{op.key} {op.pair}: witness line is not integers"
    if len(d) != g.n or not out.endswith("\n"):
        return f"{op.key} {op.pair}: witness has {len(d)} coefficients"
    if max(g.pairing(d)) >= 0:
        return f"{op.key} {op.pair}: witness is not strictly anti-nef"
    if not d[i] < d[j]:
        return f"{op.key} {op.pair}: witness violates D_i < D_j"
    return None


def criterion_values(g: Graph, criterion: str, d) -> dict[tuple[int, ...], int]:
    """Realization: (M.D)[l] + M[i][l] + K.E_l + 2 delta_il; Laufer:
    (M.D)[i] + 2 K.E_i, with K.E_i = -2 - w_i on genus-0 curves."""
    md = g.pairing(d)
    k = [-2 - w for w in g.weights]
    if criterion == "laufer":
        return {(i,): md[i] + 2 * k[i] for i in range(g.n)}
    rows = [g.row(i) for i in range(g.n)]
    return {
        (i, l): md[l] + rows[i][l] + k[l] + 2 * (i == l)
        for i in range(g.n)
        for l in range(g.n)
    }


def _check_criterion(g: Graph, op: Op, out: str) -> str | None:
    values = criterion_values(g, op.criterion, op.divisor)
    keys = sorted(values)
    want = {
        "criterion": op.criterion,
        "satisfied": all(values[key] <= 0 for key in keys),
        "violating": [[i + 1 for i in key] for key in keys if values[key] > 0],
        "values": [{"index": [i + 1 for i in key], "value": values[key]} for key in keys],
    }
    try:
        got = json.loads(out)
    except json.JSONDecodeError:
        return f"{op.key} {op.criterion}: output is not JSON"
    return None if got == want else f"{op.key} {op.criterion}: values differ from M.D"


def count_output(op: Op, out: str, counters: dict[str, int]) -> None:
    """Add the exact counts read from one call's output."""
    if op.verb == "witness":
        counters["conditions.pairs_decided"] += 1
        if out == "none\n":
            counters["conditions.pairs_failed"] += 1
        else:
            _bits(counters, (int(t) for t in out.split()))
        return
    if op.verb == "check":
        return
    for line in out.splitlines() if op.verb == "enumerate" else [out]:
        report = json.loads(line)
        star = report["star"]
        counters["conditions.pairs_decided"] += len(star["witnesses"]) + len(star["failing_pairs"])
        counters["conditions.pairs_failed"] += len(star["failing_pairs"])
        for w in star["witnesses"]:
            _bits(counters, w["divisor"])
        z = report["fundamental_cycle"]
        counters["cone.fundamental_cycle.steps"] += sum(z) - len(z)


def _bits(counters: dict[str, int], coeffs) -> None:
    top = max(abs(c).bit_length() for c in coeffs)
    counters["conditions.witness_max_bits"] = max(counters["conditions.witness_max_bits"], top)
