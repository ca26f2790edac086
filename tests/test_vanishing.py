import random

import pytest

from nashcone import (
    Divisor,
    NoMultiplierGuarantee,
    laufer_criterion,
    make_family,
    min_realizing_multiple,
    realization_criterion,
)
from nashcone.cone import neg_inverse

from oracles import clear_denominators


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
        if realization_criterion(g, m * D).satisfied:
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
            assert realization_criterion(g, m * D).satisfied
        for m in range(1, m0):
            assert not realization_criterion(g, m * D).satisfied
