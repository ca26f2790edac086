"""The fraction-free factor of -M against the two-pass kernel it replaced.

Validation used to run its own leading-minor elimination and the (*)
sweep a Bareiss Gauss-Jordan pass on the same matrix; both live on in
tests/oracles.py, with the witness synthesis that read the whole
Gauss-Jordan adjugate. Every quantity the factor now supplies is compared
with them: definiteness, the pivots as leading minors, det(-M), the
adjugate its back-substitution gives (which every (*) question reads),
the strict interior divisor, and every witness of check_star and
star_witness. The back-substitution must also stay cheap on long chains
and forks, where a dense elimination costs far more. Lowering a diagonal
entry of a negative-definite matrix must keep its factor, as the
enumerator's pruning assumes.
"""

import time
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nashcone import (
    IntersectionMatrix,
    check_star,
    enumerate_graphs,
    make_family,
    serialize_graph,
    star_witness,
)
from nashcone import graph
from nashcone.cli import main
from nashcone.cone import neg_adjugate

from oracles import (
    AdjugateWitnessOracle,
    _leading_minors_negdef,
    leading_minors_fraction,
    neg_adjugate_gauss_jordan,
    strict_interior_divisor,
)


def _corpus():
    # genera do not enter the intersection matrix, so each matrix of the
    # enumeration is checked once
    seen = set()
    for g in enumerate_graphs(4, -4, 1, 2):
        if (g.weights, g.mult) not in seen:
            seen.add((g.weights, g.mult))
            yield g
    for n in range(1, 31):
        yield make_family("an", n)
        if n >= 4:
            yield make_family("dn", n)
        if n >= 3:
            yield make_family("cycle", n, -3)


def test_factor_matches_two_pass_oracle():
    checked = 0
    for g in _corpus():
        M = g.intersection_matrix()
        rows = [list(row) for row in M.entries]
        assert _leading_minors_negdef(rows), g
        F = M.neg_factor()
        assert list(F.minors[1:]) == leading_minors_fraction(M), g
        A, d = neg_adjugate_gauss_jordan(M)
        assert F.minors[-1] == d
        assert neg_adjugate(M) == (A, d), g
        s = [sum(row) for row in A]
        assert strict_interior_divisor(g).coeffs == tuple(x // gcd(d, *s) for x in s)
        oracle = AdjugateWitnessOracle(M)
        cert = check_star(g)
        for i in range(g.n):
            for j in range(g.n):
                if i == j:
                    continue
                expected = oracle.witness(i, j)
                assert star_witness(g, i, j) == expected, (g, i, j)
                if expected is None:
                    assert (i, j) in cert.failing_pairs
                else:
                    assert cert.witnesses[(i, j)] == expected
        assert len(cert.witnesses) + len(cert.failing_pairs) == g.n * (g.n - 1)
        checked += 1
    assert checked > 1000


def test_star_witness_stays_fast_at_large_n():
    # each call builds, factors and back-substitutes a fresh graph: about
    # 0.15 s for the 20 calls, where a dense Gauss-Jordan pass took about 8 s
    t0 = time.monotonic()
    for c in range(10):
        for kind in ("an", "dn"):
            g = make_family(kind, 120)
            assert star_witness(g, c, 119 - c) is not None, (kind, c)
    assert time.monotonic() - t0 < 2.0


@st.composite
def _symmetric_matrices(draw):
    # dense up to n = 5, or sparse up to n = 8: most entries off the
    # diagonal 0, and some columns with none above it, so that the
    # elimination skips steps at the start, the middle and the end of a
    # column and folds their rescales into a later division
    sparse = draw(st.booleans())
    n = draw(st.integers(1, 8 if sparse else 5))
    rows = [[0] * n for _ in range(n)]
    for j in range(n):
        rows[j][j] = draw(st.integers(-12, 1))
        if sparse and draw(st.booleans()):
            continue
        for i in range(j):
            if not sparse or draw(st.integers(0, 3)) == 0:
                rows[i][j] = rows[j][i] = draw(st.integers(-3, 3))
    return rows


@settings(max_examples=400, deadline=None)
@given(_symmetric_matrices())
def test_factor_is_none_exactly_when_not_negative_definite(rows):
    M = IntersectionMatrix(tuple(map(tuple, rows)))
    F = M.neg_factor()
    assert (F is not None) == _leading_minors_negdef(rows)
    if F is not None:
        assert list(F.minors[1:]) == leading_minors_fraction(M)
        assert neg_adjugate(M) == neg_adjugate_gauss_jordan(M)


# the pruning of enumerate_graphs' structure search rests on this: a
# structure with a negative-definite weighting in [w, -1] is negative
# definite with every weight at w
@settings(max_examples=300, deadline=None)
@given(_symmetric_matrices(), st.integers(1, 20))
def test_lowering_a_diagonal_entry_keeps_the_factor(rows, drop):
    assume(_leading_minors_negdef(rows))
    for i in range(len(rows)):
        lowered = [row[:] for row in rows]
        lowered[i][i] -= drop
        assert graph._neg_factor(lowered) is not None


def test_each_verb_eliminates_the_graph_once(tmp_path, capsys, monkeypatch):
    built = []

    def counting(entries):
        built.append(len(entries))
        return factor(entries)

    factor = graph._neg_factor
    monkeypatch.setattr(graph, "_neg_factor", counting)
    path = tmp_path / "d5.graph"
    path.write_text(serialize_graph(make_family("dn", 5)))
    for argv in (["analyze", str(path)], ["analyze", "--json", str(path)],
                 ["witness", str(path), "--pair", "1", "3"],
                 ["witness", str(path), "--pair", "4", "5"]):
        built.clear()
        assert main(argv) == 0
        assert built == [5], argv
    capsys.readouterr()


def test_witness_refuses_a_graph_that_is_not_negative_definite(tmp_path, capsys):
    # the first minor of -M is 1, the second 0: the factor stops there
    path = tmp_path / "bad.graph"
    path.write_text("vertices: 3\nweights: -1 -1 -2\ngenera: 0 0 0\nedges: 1-2:1 2-3:1\n")
    assert main(["witness", str(path), "--pair", "1", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("error:") == 1
    assert err == "error: intersection matrix is not negative definite\n"
