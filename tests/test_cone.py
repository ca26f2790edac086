import time
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashcone import (
    ConeStatus,
    Divisor,
    IntersectionMatrix,
    ResolutionGraph,
    enumerate_graphs,
    fundamental_cycle,
    lipman_status,
    make_family,
    pair,
    strict_interior_divisor,
)
from nashcone.cone import neg_adjugate, neg_inverse

from oracles import all_orders_fundamental_cycles, clear_denominators, laufer_with_order


def test_divisor_basics():
    d = Divisor((1, 2))
    assert d.n == 2 and len(d) == 2 and d[1] == 2 and list(d) == [1, 2]
    assert (d + Divisor((1, 1))).coeffs == (2, 3)
    assert (3 * d).coeffs == (3, 6)
    assert Divisor((0, 0)).is_zero()
    assert Divisor((1, 0)).is_effective()
    assert not Divisor((-1, 2)).is_effective()
    with pytest.raises(ValueError):
        Divisor(())
    with pytest.raises(ValueError):
        Divisor((1,)) + Divisor((1, 2))


def test_pair_known_values(a2, star3_5):
    M = a2.intersection_matrix()
    E = Divisor((1, 1))
    assert pair(E, E, M) == -2
    assert pair(Divisor((0, 0)), E, M) == 0
    Z = Divisor((1, 1, 1, 2))
    assert pair(Z, Z, star3_5.intersection_matrix()) == -11


def test_pair_dimension_mismatch(a2):
    with pytest.raises(ValueError):
        pair(Divisor((1,)), Divisor((1, 1)), a2.intersection_matrix())


def test_neg_inverse_known_values(a2, a3):
    C = neg_inverse(a2.intersection_matrix())
    third = Fraction(1, 3)
    assert C == ((2 * third, third), (third, 2 * third))

    C3 = neg_inverse(a3.intersection_matrix())
    q = Fraction(1, 4)
    expected = ((3 * q, 2 * q, q), (2 * q, 4 * q, 2 * q), (q, 2 * q, 3 * q))
    assert C3 == expected

    single = make_family("vertex", 0, -1)
    assert neg_inverse(single.intersection_matrix()) == ((Fraction(1),),)


def test_neg_adjugate_known_values(a2, a3):
    assert neg_adjugate(a2.intersection_matrix()) == (((2, 1), (1, 2)), 3)
    assert neg_adjugate(a3.intersection_matrix()) == (((3, 2, 1), (2, 4, 2), (1, 2, 3)), 4)
    assert neg_adjugate(make_family("vertex", 0, -1).intersection_matrix()) == (((1,),), 1)


@pytest.mark.parametrize("rows", [((-1, 1), (1, -1)), ((-2, 3), (3, -2)), ((-2, 2), (2, -2))])
def test_neg_adjugate_rejects_non_negative_definite(rows):
    with pytest.raises(ValueError, match="not negative definite"):
        neg_adjugate(IntersectionMatrix(rows))


def _assert_neg_identity(M, C):
    n = M.n
    for i in range(n):
        for j in range(n):
            v = sum(M[i][k] * C[k][j] for k in range(n))
            assert v == (-1 if i == j else 0)


def test_neg_inverse_exactness_and_positivity():
    # two enumerations: simple sparse graphs up to 5 vertices, denser up to 4
    corpora = [enumerate_graphs(5, -2, 0, 1), enumerate_graphs(4, -3, 0, 2)]
    count = 0
    for corpus in corpora:
        for g in corpus:
            M = g.intersection_matrix()
            C = neg_inverse(M)
            _assert_neg_identity(M, C)
            assert all(x > 0 for row in C for x in row), g
            count += 1
    assert count > 100


def test_lipman_status_known_values(a2, a3):
    M2 = a2.intersection_matrix()
    assert lipman_status(Divisor((1, 1)), M2) is ConeStatus.STRICT_LIPMAN
    assert lipman_status(Divisor((1, 0)), M2) is ConeStatus.NOT_IN_CONE
    assert lipman_status(Divisor((0, 0)), M2) is ConeStatus.NOT_IN_CONE
    M3 = a3.intersection_matrix()
    assert lipman_status(Divisor((1, 1, 1)), M3) is ConeStatus.LIPMAN_BOUNDARY


def test_cone_members_have_positive_coefficients():
    # on connected graphs anti-nef implies strictly positive everywhere;
    # spot-check the two divisors the library itself constructs
    for g in enumerate_graphs(4, -3, 0, 2):
        M = g.intersection_matrix()
        Z = fundamental_cycle(g)
        assert lipman_status(Z, M) in (ConeStatus.STRICT_LIPMAN, ConeStatus.LIPMAN_BOUNDARY)
        assert all(c > 0 for c in Z.coeffs)
        D = strict_interior_divisor(g)
        assert lipman_status(D, M) is ConeStatus.STRICT_LIPMAN
        assert all(c > 0 for c in D.coeffs)


def test_fundamental_cycle_known_values(a2, d4, star3_5):
    assert fundamental_cycle(a2).coeffs == (1, 1)
    assert fundamental_cycle(d4).coeffs == (1, 2, 1, 1)
    assert fundamental_cycle(star3_5).coeffs == (1, 1, 1, 2)


def test_fundamental_cycle_minimality():
    # Z is the componentwise minimum of all nonzero anti-nef cycles >= (1,..,1)
    for g in [make_family("an", 3), make_family("dn", 4), make_family("star3", 5),
              make_family("cycle", 3, -3)]:
        M = g.intersection_matrix()
        Z = fundamental_cycle(g)
        for D in product(*(range(1, z + 1) for z in Z.coeffs)):
            if D == Z.coeffs:
                continue
            assert any(x > 0 for x in M.mulvec(D)), (g, D)


def test_fundamental_cycle_decrement_breaks_antinef():
    for g in enumerate_graphs(3, -3, 0, 2):
        M = g.intersection_matrix()
        Z = list(fundamental_cycle(g).coeffs)
        for i in range(g.n):
            if Z[i] < 2:
                continue
            Z[i] -= 1
            assert any(x > 0 for x in M.mulvec(Z))
            Z[i] += 1


def test_fundamental_cycle_order_independent(d4, star3_5):
    for g in [d4, star3_5, make_family("an", 4), make_family("cycle", 4, -3)]:
        M = g.intersection_matrix()
        assert all_orders_fundamental_cycles(M) == {fundamental_cycle(g).coeffs}


def test_fundamental_cycle_matches_one_step_oracle():
    # laufer_with_order over range(n) is the one-step sequence that the
    # batched steps replaced, with the same lowest-index tie-break
    graphs = [make_family("an", 30), make_family("dn", 30), make_family("star3", 9)]
    for corpus in (enumerate_graphs(4, -4, 1, 2), enumerate_graphs(5, -3, 0, 1),
                   enumerate_graphs(3, -6, 0, 4), graphs):
        for g in corpus:
            M = g.intersection_matrix()
            assert fundamental_cycle(g).coeffs == laufer_with_order(M, range(g.n)), g


def test_fundamental_cycle_large_coefficients():
    # -M has determinant 1; the one-step sequence needs m - 1 steps here
    m = 10**9
    g = ResolutionGraph(weights=(-1, -(m * m + 1)), genera=(0, 0), mult=((0, m), (m, 0)))
    t0 = time.monotonic()
    Z = fundamental_cycle(g)
    assert time.monotonic() - t0 < 1.0
    assert Z.coeffs == (m, 1)


def test_strict_interior_known_values(a2, a3):
    assert strict_interior_divisor(a2).coeffs == (1, 1)
    assert strict_interior_divisor(a3).coeffs == (3, 4, 3)
    assert strict_interior_divisor(make_family("vertex", 0, -1)).coeffs == (1,)


def test_clear_denominators():
    assert clear_denominators([Fraction(3, 2), Fraction(2), Fraction(3, 2)]) == (3, 4, 3)
    assert clear_denominators([Fraction(1), Fraction(2)]) == (1, 2)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.fractions(max_denominator=40), min_size=1, max_size=6))
def test_clear_denominators_scales_by_lcm(v):
    cleared = clear_denominators(v)
    assert all(isinstance(x, int) for x in cleared)
    if any(x != 0 for x in v):
        # the scaled vector must stay proportional to the input
        ratios = {Fraction(c) / x for c, x in zip(cleared, v) if x != 0}
        assert len(ratios) == 1
        (r,) = ratios
        assert r >= 1 and r.denominator == 1
        assert all(c == 0 for c, x in zip(cleared, v) if x == 0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
    st.integers(min_value=-5, max_value=5),
)
def test_pair_is_bilinear_and_symmetric(x, y, z, m):
    M = make_family("an", 3).intersection_matrix()
    dx, dy, dz = Divisor(tuple(x)), Divisor(tuple(y)), Divisor(tuple(z))
    assert pair(dx, dy, M) == pair(dy, dx, M)
    assert pair(dx + dy, dz, M) == pair(dx, dz, M) + pair(dy, dz, M)
    assert pair(m * dx, dy, M) == m * pair(dx, dy, M)
