"""The fraction-free factor of -M against the two-pass kernel it replaced.

Validation used to run its own leading-minor elimination and the (*)
sweep a Bareiss Gauss-Jordan pass on the same matrix; both live on in
tests/oracles.py, with the witness synthesis that read the whole
Gauss-Jordan adjugate. Every quantity the factor now supplies is compared
with them: definiteness, the pivots as leading minors, det(-M), the
adjugate its back-substitution gives (which check_star reads), the
products adj(-M).b its solve gives (the rows and the witness vector
that star_witness reads, without the whole adjugate), the strict
interior divisor, and every witness of check_star and star_witness.
The factor's rows of U are also compared with the dense columns of the
column kernel it replaced (tests/oracles.py), block by block, so that
both refuse at the same pivot. The back-substitution must also stay
cheap on long chains and forks, where a dense elimination costs far
more. Lowering a diagonal
entry of a negative-definite matrix must keep its factor, as the
enumerator's pruning assumes.
"""

import time
from math import gcd
from unittest import mock

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
from nashcone import conditions, cone, graph
from nashcone.cli import main
from nashcone.cone import _adjugate_times, neg_adjugate

from oracles import (
    AdjugateWitnessOracle,
    _leading_minors_negdef,
    leading_minors_fraction,
    neg_adjugate_gauss_jordan,
    neg_factor_by_columns,
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


def _adjugate_products(M, A, bs):
    """Check cone._adjugate_times against the rows of A = adj(-M) and
    against A.b for each b of ``bs``."""
    F = M.neg_factor()
    n = M.n
    for r in range(n):
        assert _adjugate_times(F, [int(c == r) for c in range(n)]) == A[r], (M, r)
    for b in bs:
        assert _adjugate_times(F, b) == tuple(
            sum(x * y for x, y in zip(row, b)) for row in A), (M, b)


def test_adjugate_solve_matches_the_rows_of_neg_adjugate():
    # the rows star_witness solves for, the row sums s = A.1 and the
    # witness vectors A.(2^t e_k + 1) = 2^t A[:,k] + s it prints
    checked = 0
    for g in _corpus():
        M = g.intersection_matrix()
        A, _ = neg_adjugate(M)
        n = g.n
        bs = [[1] * n]
        for k in {0, n // 2, n - 1}:
            for t in (0, 1, 5, 70):
                b = [1] * n
                b[k] += 1 << t
                bs.append(b)
        _adjugate_products(M, A, bs)
        checked += 1
    assert checked > 1000


@st.composite
def _wide_negdef_matrices(draw):
    # sparse (most entries off the diagonal 0, some columns with none above
    # it, so that steps are skipped and their rescales folded) or dense, up
    # to n = 8, with diagonal entries down to -10^30 below the sum of the
    # row's other absolute values: negative definite, with wide minors
    sparse = draw(st.booleans())
    n = draw(st.integers(1, 8))
    rows = [[0] * n for _ in range(n)]
    for j in range(n):
        if sparse and draw(st.booleans()):
            continue
        for i in range(j):
            if not sparse or draw(st.integers(0, 3)) == 0:
                rows[i][j] = rows[j][i] = draw(st.integers(-(10 ** 6), 10 ** 6))
    for i, row in enumerate(rows):
        row[i] = -sum(map(abs, row)) - draw(st.integers(1, 10 ** 30))
    return IntersectionMatrix(tuple(map(tuple, rows)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_adjugate_solve_matches_the_gauss_jordan_adjugate(data):
    M = data.draw(_wide_negdef_matrices())
    A, d = neg_adjugate_gauss_jordan(M)
    assert M.neg_factor().minors[-1] == d
    n = M.n
    k, t = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 100))
    b = [1] * n
    b[k] += 1 << t
    wide = st.integers(-(10 ** 30), 10 ** 30)
    _adjugate_products(M, A, [[1] * n, b, data.draw(st.lists(wide, min_size=n, max_size=n))])


def test_witness_never_builds_the_whole_adjugate():
    # star_witness solves for its two rows and its witness vector; holding
    # and failing pairs alike, and the none answers certified from the rows
    graphs = [make_family("an", 12), make_family("dn", 12), make_family("cycle", 12, -3),
              make_family("star3", 5)]
    answers = {}
    with mock.patch.object(conditions, "neg_adjugate", side_effect=AssertionError), \
            mock.patch.object(cone, "neg_adjugate", side_effect=AssertionError):
        for g in graphs:
            for i in range(g.n):
                for j in range(g.n):
                    if i != j:
                        answers[g, i, j] = star_witness(g, i, j)
    assert None in answers.values()
    oracles = {g: AdjugateWitnessOracle(g.intersection_matrix()) for g in graphs}
    for (g, i, j), w in answers.items():
        assert w == oracles[g].witness(i, j), (g, i, j)


def test_star_witness_stays_fast_at_large_n():
    # each call builds and factors a fresh graph and solves for two rows of
    # adj(-M) and one witness vector, where a dense Gauss-Jordan pass took
    # about 8 s for the 20 calls
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


def _columns_by_row(columns):
    """The factor's old columns, ``columns[l][t]`` = U[t][l], read by row:
    row t lists the nonzero (l, U[t][l]) with l > t, in column order."""
    rows = [[] for _ in columns]
    for l, col in enumerate(columns):
        for t in range(l):
            if col[t]:
                rows[t].append((l, col[t]))
    return rows


def _assert_factor_matches_the_column_kernel(entries):
    # each leading block, so that the two refuse at the same pivot
    for m in range(1, len(entries) + 1):
        F, old = graph._neg_factor(entries[:m]), neg_factor_by_columns(entries[:m])
        assert (F is None) == (old is None), (entries, m)
        if F is None:
            return
        assert F.minors == old[0], (entries, m)
        assert list(F.rows) == _columns_by_row(old[1]), (entries, m)


def test_factor_rows_are_the_column_kernel_read_by_row():
    checked = 0
    for g in _corpus():
        _assert_factor_matches_the_column_kernel(g.intersection_matrix().entries)
        checked += 1
    assert checked > 1000


@settings(max_examples=300, deadline=None)
@given(st.one_of(_wide_negdef_matrices().map(lambda M: M.entries),
                 _symmetric_matrices().map(lambda rows: tuple(map(tuple, rows)))))
def test_factor_matches_the_column_kernel_and_refuses_where_it_does(entries):
    # wide negative-definite matrices, and small ones that are often not
    # negative definite, where the first pivot <= 0 ends both
    _assert_factor_matches_the_column_kernel(entries)


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
