import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashcone import (
    Divisor,
    ResolutionGraph,
    laufer_criterion,
    make_family,
    realization_criterion,
)
from nashcone.cone import neg_inverse

from oracles import (
    NoMultiplierGuarantee,
    clear_denominators,
    criterion_values_by_definition,
    divisor_multiple,
    min_realizing_multiple,
    refusal_by_definition,
)


def test_realization_genus2_vertex(g2w1):
    res = realization_criterion(g2w1, Divisor((4,)))
    assert res.satisfied
    assert res.values == {(0, 0): 0}
    assert res.violating_pairs == ()


def test_laufer_genus2_vertex(g2w1):
    res = laufer_criterion(g2w1, Divisor((4,)))
    assert not res.satisfied
    assert res.values == {(0,): 2}
    assert res.violating_pairs == ((0,),)


def test_realization_two_vertex_table(two_vertex):
    res = realization_criterion(two_vertex, Divisor((4, 4)))
    assert not res.satisfied
    assert res.violating_pairs == ((0, 1),)
    assert res.values == {(0, 0): -8, (0, 1): 2, (1, 0): -4, (1, 1): 0}


def test_laufer_two_vertex(two_vertex):
    res = laufer_criterion(two_vertex, Divisor((4, 4)))
    assert res.satisfied
    assert res.values == {(0,): -4, (1,): 0}


def test_criteria_are_independent(g2w1, two_vertex):
    # one case passes realization only, the other passes Laufer only
    assert realization_criterion(g2w1, Divisor((4,))).satisfied
    assert not laufer_criterion(g2w1, Divisor((4,))).satisfied
    assert not realization_criterion(two_vertex, Divisor((4, 4))).satisfied
    assert laufer_criterion(two_vertex, Divisor((4, 4))).satisfied


def test_realization_a2_reduced_cycle(a2):
    res = realization_criterion(a2, Divisor((1, 1)))
    assert res.satisfied
    assert res.values == {(0, 0): -1, (0, 1): 0, (1, 0): 0, (1, 1): -1}


def test_laufer_a2_doubled(a2):
    res = laufer_criterion(a2, Divisor((2, 2)))
    assert res.satisfied
    assert res.values == {(0,): -2, (1,): -2}


@pytest.mark.parametrize("bad", [Divisor((0, 0)), Divisor((-1, 2)), Divisor((1,))])
def test_criteria_reject_bad_divisors(a2, bad):
    with pytest.raises(ValueError):
        realization_criterion(a2, bad)
    with pytest.raises(ValueError):
        laufer_criterion(a2, bad)


def test_min_multiple_known_values(g2w1, a2, star3_5):
    assert min_realizing_multiple(g2w1, Divisor((1,))) == 4
    assert min_realizing_multiple(a2, Divisor((1, 1))) == 1
    assert min_realizing_multiple(star3_5, Divisor((11, 11, 11, 20))) == 1


def test_min_multiple_requires_strict(a3):
    with pytest.raises(NoMultiplierGuarantee):
        min_realizing_multiple(a3, Divisor((1, 1, 1)))  # boundary cycle
    with pytest.raises(NoMultiplierGuarantee):
        min_realizing_multiple(a3, Divisor((1, 0, 0)))


def _naive_min_multiple(g, D):
    m = 1
    while True:
        if realization_criterion(g, divisor_multiple(m, D)).satisfied:
            return m
        m += 1


def test_min_multiple_matches_naive_iteration():
    rng = random.Random(9)
    graphs = [
        make_family("an", 2),
        make_family("an", 5),
        make_family("dn", 5),
        make_family("star3", 6),
        make_family("vertex", 3, -2),
        make_family("cycle", 4, -5),
    ]
    checked = 0
    for g in graphs:
        C = neg_inverse(g.intersection_matrix())
        for _ in range(20):
            # a positive combination of the cone generators is strictly anti-nef
            r = [rng.randint(1, 5) for _ in range(g.n)]
            D = Divisor(clear_denominators([sum(c * x for c, x in zip(row, r)) for row in C]))
            got = min_realizing_multiple(g, D)
            assert got == _naive_min_multiple(g, D), (g, D)
            checked += 1
    assert checked >= 100


def test_realization_monotone_in_multiplier(g2w1, star3_5):
    for g, D in [(g2w1, Divisor((1,))), (star3_5, Divisor((11, 11, 11, 20)))]:
        m0 = min_realizing_multiple(g, D)
        for m in range(m0, m0 + 5):
            assert realization_criterion(g, divisor_multiple(m, D)).satisfied
        for m in range(1, m0):
            assert not realization_criterion(g, divisor_multiple(m, D)).satisfied


_BIG = 10 ** 400


@st.composite
def _graphs_and_divisors(draw):
    """A graph of 1 to 7 vertices, not necessarily negative definite, with
    multiplicities 0 to 3, genera from 0 up, and weights and genera of up to
    400 digits; and an effective nonzero divisor on it, whose coefficients
    may have 400 digits too."""
    n = draw(st.integers(1, 7))
    weight = draw(st.sampled_from([st.integers(-6, -1), st.integers(-_BIG, -1)]))
    genus = draw(st.sampled_from([st.integers(0, 3), st.integers(0, _BIG)]))
    coeff = draw(st.sampled_from([st.integers(0, 9), st.integers(0, _BIG)]))
    mult = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mult[i][j] = mult[j][i] = draw(st.integers(0, 3))
    g = ResolutionGraph(
        weights=tuple(draw(st.lists(weight, min_size=n, max_size=n))),
        genera=tuple(draw(st.lists(genus, min_size=n, max_size=n))),
        mult=tuple(map(tuple, mult)),
    )
    coeffs = draw(st.lists(coeff, min_size=n, max_size=n).filter(any))
    return g, Divisor(tuple(coeffs))


@settings(max_examples=300, deadline=None)
@given(_graphs_and_divisors())
def test_criteria_match_their_definitions(case):
    g, D = case
    refusal = refusal_by_definition(g.weights, g.mult)
    for name, criterion in (("realization", realization_criterion), ("laufer", laufer_criterion)):
        if refusal is not None:  # the criteria answer for analyzable graphs only
            with pytest.raises(ValueError) as exc:
                criterion(g, D)
            assert str(exc.value) == refusal
            continue
        expected = criterion_values_by_definition(g.weights, g.genera, g.mult, D.coeffs, name)
        res = criterion(g, D)
        assert res.values == expected
        assert list(res.values) == sorted(expected)
        assert res.violating_pairs == tuple(key for key in sorted(expected) if expected[key] > 0)
        assert res.satisfied is (not res.violating_pairs)
