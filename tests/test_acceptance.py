"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single
"ACCEPTANCE n: PASS/FAIL" line (visible under pytest -s). The suite is
exact: integer identities, frozen separation tables, and brute-force
oracle corroboration, with wall-clock budgets asserted where stated.
"""

import functools
import itertools
import random
import time
from contextlib import contextmanager

from nashcone import (
    ConeStatus,
    Divisor,
    NashVerdict,
    ResolutionGraph,
    an_witness_divisors,
    arithmetic_genus,
    check_star,
    check_star_star,
    enumerate_graphs,
    fundamental_cycle,
    halfspace_coverage,
    is_rational_artin,
    laufer_criterion,
    lipman_status,
    make_family,
    nash_verdict,
    realization_criterion,
    structural_rationality,
    validate,
)
from nashcone.cone import neg_inverse

from oracles import all_orders_fundamental_cycles, find_strict_witness, graphs_isomorphic


@contextmanager
def _criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL ({label})", flush=True)
        raise
    print(f"ACCEPTANCE {num}: PASS ({label})", flush=True)


def _all_ordered_pairs(n: int) -> set:
    return {(i, j) for i in range(n) for j in range(n) if i != j}


@functools.lru_cache(maxsize=1)
def _desk_enumeration():
    # shared between criteria 5 and 8
    return tuple(enumerate_graphs(4, -5, 1, 2))


def test_criterion_1_chain_witnesses():
    with _criterion(1, "chain witness pair, n = 1..50"):
        t0 = time.monotonic()
        for n in range(1, 51):
            g = make_family("an", n)
            M = g.intersection_matrix()
            d1, d2 = an_witness_divisors(n)
            assert lipman_status(d1, M) is ConeStatus.STRICT_LIPMAN
            assert lipman_status(d2, M) is ConeStatus.STRICT_LIPMAN
            assert halfspace_coverage([d1, d2]) == _all_ordered_pairs(n)
            rep = check_star_star(g)
            if n >= 3:
                assert not rep.holds
                assert rep.violations == tuple(range(1, n - 1))
            else:
                assert rep.holds
        assert time.monotonic() - t0 < 5.0


def test_criterion_2_separation_table():
    with _criterion(2, "criteria separate on two fixed germs"):
        g1 = make_family("vertex", 2, -1)
        d1 = Divisor((4,))
        r1 = realization_criterion(g1, d1)
        l1 = laufer_criterion(g1, d1)
        assert r1.satisfied
        assert r1.values[(0, 0)] == 0
        assert not l1.satisfied
        assert l1.violating_pairs == ((0,),)
        assert l1.values[(0,)] == 2

        g2 = ResolutionGraph(weights=(-4, -2), genera=(0, 0), mult=((0, 2), (2, 0)))
        d2 = Divisor((4, 4))
        r2 = realization_criterion(g2, d2)
        l2 = laufer_criterion(g2, d2)
        assert not r2.satisfied
        assert r2.violating_pairs == ((0, 1),)
        assert r2.values[(0, 1)] == 2
        assert l2.satisfied
        assert l2.values == {(0,): -4, (1,): 0}


def test_criterion_3_three_arm_star_families():
    with _criterion(3, "three-arm stars, n = 5..12"):
        for n in range(5, 13):
            g = make_family("star3", n)
            M = g.intersection_matrix()
            d1 = Divisor((2 * n + 1, 2 * n + 1, 2 * n + 1, 4 * n))
            a, b, c = 2 * n * n - 2 * n + 3, 3 * n, n * n + 3 * n
            perms = [
                Divisor((a, b, b, c)),
                Divisor((b, a, b, c)),
                Divisor((b, b, a, c)),
            ]
            divisors = [d1] + perms
            for d in divisors:
                assert lipman_status(d, M) is ConeStatus.STRICT_LIPMAN
            assert halfspace_coverage(divisors) == _all_ordered_pairs(4)
            ss = check_star_star(g)
            assert not ss.holds
            assert ss.violations == (3,)
            assert is_rational_artin(g)
            st = structural_rationality(g)
            assert not st.iii_holds
            assert not st.verdict
            # the center is where |w| exceeds nothing: 2 <= 3 edge-ends
            assert abs(g.weights[3]) <= sum(g.mult[3])


def test_criterion_4_chains_pass_forks_fail():
    with _criterion(4, "chains pass, forks fail with empty boxes"):
        t0 = time.monotonic()
        for n in range(1, 11):
            assert check_star(make_family("an", n)).holds
        for n in range(4, 9):
            g = make_family("dn", n)
            cert = check_star(g)
            assert not cert.holds
            assert cert.failing_pairs
            M = g.intersection_matrix()
            for i, j in cert.failing_pairs:
                assert find_strict_witness(M, i, j, 20) is None
        assert time.monotonic() - t0 < 120.0


def test_criterion_5_desk_scale_equivalence():
    with _criterion(5, "star_star graphs: Artin iff tree with genus 0"):
        t0 = time.monotonic()
        checked = 0
        for g in _desk_enumeration():
            if not check_star_star(g).holds:
                continue
            checked += 1
            st = structural_rationality(g)
            assert is_rational_artin(g) == (st.tree and st.all_genus_zero)
        assert checked > 1000
        assert time.monotonic() - t0 < 300.0


def test_criterion_6_irrational_family_graphs():
    with _criterion(6, "25+ non-isomorphic star_star graphs, none Artin"):
        fam = [
            make_family("vertex", genus, w)
            for genus in range(1, 6)
            for w in (-1, -2, -3, -4, -5)
        ]
        fam += [make_family("cycle", m, -3) for m in range(3, 8)]
        assert len(fam) == 30
        for g1, g2 in itertools.combinations(fam, 2):
            assert not graphs_isomorphic(g1, g2)
        for g in fam:
            rep = nash_verdict(g)
            assert rep.star_star.holds
            assert not rep.artin_rational
            assert rep.nash_verdict is NashVerdict.BIJECTIVE_BY_STAR_STAR
        # the narrower weight range -1..-3 alone gives 20 qualifying
        # graphs, short of 25; the wider range above closes the gap
        narrow = [g for g in fam if g.n > 1 or g.weights[0] >= -3]
        assert len(narrow) == 20


def _oracle_corpus(seed: int = 20260819, count: int = 200):
    """Pseudo-random connected negative-definite graphs, n <= 5.

    Star topologies are oversampled (they produce genuinely failing
    pairs) and weight -2 is capped at two vertices per graph (cheap
    diagonals inflate the inverse and with it the minimal witnesses).
    """
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        n = rng.randint(2, 5)
        mult = [[0] * n for _ in range(n)]
        if rng.random() < 0.3 and n >= 3:
            for v in range(1, n):
                mult[v][0] = mult[0][v] = 1
        else:
            for v in range(1, n):
                p = rng.randrange(v)
                mult[v][p] = mult[p][v] = 1
            if rng.random() < 0.25:
                non = [(i, j) for i in range(n) for j in range(i + 1, n) if mult[i][j] == 0]
                if non:
                    i, j = non[rng.randrange(len(non))]
                    mult[i][j] = mult[j][i] = 1
        ws = [rng.randint(-5, -2) for _ in range(n)]
        while sum(1 for w in ws if w == -2) > 2:
            idxs = [k for k, w in enumerate(ws) if w == -2]
            ws[idxs[rng.randrange(len(idxs))]] = rng.randint(-5, -3)
        genera = tuple(rng.randint(0, 2) for _ in range(n))
        g = ResolutionGraph(weights=tuple(ws), genera=genera, mult=tuple(map(tuple, mult)))
        if validate(g).analyzable:
            graphs.append(g)
    return graphs


def test_criterion_7_generator_criterion_oracle():
    with _criterion(7, "200-graph corpus matches brute force"):
        holding = failing = 0
        for g in _oracle_corpus():
            M = g.intersection_matrix()
            cert = check_star(g)
            for i, j in cert.failing_pairs:
                failing += 1
                assert find_strict_witness(M, i, j, 20) is None
            for (i, j), w in cert.witnesses.items():
                holding += 1
                assert lipman_status(w, M) is ConeStatus.STRICT_LIPMAN
                assert w[i] < w[j]
                assert find_strict_witness(M, i, j, 60) is not None
        assert failing > 0
        assert holding > 0


def test_criterion_8_kernel_identities():
    with _criterion(8, "inverse, cycle, and parity identities"):
        seen = set()
        for g in _desk_enumeration():
            Z = fundamental_cycle(g)
            M = g.intersection_matrix()
            assert all(v >= 1 for v in Z)
            assert all(v <= 0 for v in M.mulvec(Z.coeffs))
            arithmetic_genus(g, Z)  # parity assertion must not fire
            key = (g.weights, g.mult)
            if key in seen:
                continue
            seen.add(key)
            C = neg_inverse(M)
            n = g.n
            for i in range(n):
                for j in range(n):
                    acc = sum(M.entries[i][k] * C[k][j] for k in range(n))
                    assert acc == (-1 if i == j else 0)
            assert len(all_orders_fundamental_cycles(M)) == 1
