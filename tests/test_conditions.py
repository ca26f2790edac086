import re
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashcone import (
    ConeStatus,
    Divisor,
    InternalInvariantError,
    check_star,
    check_star_star,
    enumerate_graphs,
    lipman_status,
    make_family,
    star_witness,
)
from nashcone import conditions
from nashcone.cli import main
from nashcone.cone import neg_inverse
from nashcone.graph import serialize_graph

from oracles import (
    find_strict_witness,
    halfspace_coverage,
    naive_find_witness,
    neg_inverse_fraction,
    star_witnesses_fraction,
)


def all_ordered_pairs(n):
    return {(i, j) for i in range(n) for j in range(n) if i != j}


def test_star_star_known_cases(a2, star3_5):
    assert check_star_star(a2).holds
    assert check_star_star(a2).violations == ()
    r = check_star_star(star3_5)
    assert not r.holds
    assert r.violations == (3,)


@pytest.mark.parametrize("n", range(3, 9))
def test_star_star_fails_on_longer_chains(n):
    r = check_star_star(make_family("an", n))
    assert not r.holds
    assert r.violations == tuple(range(1, n - 1))


def test_check_star_a2(a2):
    cert = check_star(a2)
    assert cert.holds
    assert cert.failing_pairs == ()
    assert cert.witnesses[(0, 1)].coeffs == (4, 5)
    assert cert.witnesses[(1, 0)].coeffs == (5, 4)


def test_check_star_a3_witness_table(a3):
    cert = check_star(a3)
    assert cert.holds
    assert {k: v.coeffs for k, v in cert.witnesses.items()} == {
        (0, 1): (2, 3, 2),
        (0, 2): (7, 10, 9),
        (1, 0): (9, 8, 5),
        (1, 2): (5, 8, 9),
        (2, 0): (9, 10, 7),
        (2, 1): (9, 10, 7),
    }


def test_check_star_d4_failing_pairs(d4):
    cert = check_star(d4)
    assert not cert.holds
    # the central vertex cannot sit strictly below any neighbor
    assert sorted(cert.failing_pairs) == [(1, 0), (1, 2), (1, 3)]
    assert set(cert.witnesses) == all_ordered_pairs(4) - {(1, 0), (1, 2), (1, 3)}


def test_check_star_single_vertex_vacuous():
    cert = check_star(make_family("vertex", 1, -2))
    assert cert.holds
    assert cert.witnesses == {}
    assert cert.failing_pairs == ()


def test_witnesses_are_sound(a3, d4, star3_5):
    for g in [a3, d4, star3_5, make_family("cycle", 4, -4)]:
        M = g.intersection_matrix()
        cert = check_star(g)
        for (i, j), w in cert.witnesses.items():
            assert lipman_status(w, M) is ConeStatus.STRICT_LIPMAN
            assert w[i] < w[j]


def test_witness_scaling_invariance(a3):
    M = a3.intersection_matrix()
    cert = check_star(a3)
    for (i, j), w in cert.witnesses.items():
        for m in (2, 3, 7):
            scaled = m * w
            assert lipman_status(scaled, M) is ConeStatus.STRICT_LIPMAN
            assert scaled[i] < scaled[j]


def test_star_witness_single_pair(a3, d4):
    assert star_witness(a3, 0, 2).coeffs == (7, 10, 9)
    assert star_witness(d4, 1, 0) is None
    assert star_witness(d4, 0, 1) is not None
    with pytest.raises(ValueError):
        star_witness(a3, 1, 1)
    with pytest.raises(ValueError):
        star_witness(a3, 0, 3)


def test_halfspace_coverage_known_cases():
    assert halfspace_coverage([Divisor((3, 5, 6)), Divisor((6, 5, 3))]) == all_ordered_pairs(3)
    assert halfspace_coverage([Divisor((1, 1))]) == set()
    assert halfspace_coverage([]) == set()
    with pytest.raises(ValueError):
        halfspace_coverage([Divisor((1, 2)), Divisor((1, 2, 3))])


def test_halfspace_coverage_star_graph_divisors():
    # n = 5: the symmetric divisor plus the big-arm divisor in its three
    # rotations cover all 12 ordered pairs
    sym = Divisor((11, 11, 11, 20))
    rots = [Divisor((43, 15, 15, 40)), Divisor((15, 43, 15, 40)), Divisor((15, 15, 43, 40))]
    assert halfspace_coverage([sym] + rots) == all_ordered_pairs(4)


def test_star_certificate_consistency():
    # holds <=> no failing pairs <=> witnesses cover all ordered pairs
    for g in enumerate_graphs(3, -3, 1, 2):
        cert = check_star(g)
        n = g.n
        assert cert.holds == (cert.failing_pairs == ())
        assert set(cert.witnesses) | set(cert.failing_pairs) == all_ordered_pairs(n)
        assert not (set(cert.witnesses) & set(cert.failing_pairs))


def test_star_star_implies_star():
    strict_inclusion_seen = False
    for g in enumerate_graphs(3, -3, 1, 2):
        ss = check_star_star(g).holds
        s = check_star(g).holds
        if ss:
            assert s, g
        if s and not ss:
            strict_inclusion_seen = True
    assert strict_inclusion_seen


def test_star_matches_oracle_on_small_graphs():
    # naive scan and pruned search agree with the generator criterion
    for g in [make_family("an", 2), make_family("an", 3),
              make_family("vertex", 0, -2),
              make_family("cycle", 3, -3)]:
        M = g.intersection_matrix()
        cert = check_star(g)
        for i in range(g.n):
            for j in range(g.n):
                if i == j:
                    continue
                fast = find_strict_witness(M, i, j, 12)
                slow = naive_find_witness(M, i, j, 12)
                assert (fast is None) == (slow is None)
                assert ((i, j) in cert.witnesses) == (fast is not None)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=12))
def test_chains_always_pass_star(n):
    assert check_star(make_family("an", n)).holds


def _differential_corpus():
    # genera do not enter the intersection matrix, so each matrix of the
    # desk enumeration is checked once
    seen = set()
    for g in enumerate_graphs(4, -5, 1, 2):
        if (g.weights, g.mult) not in seen:
            seen.add((g.weights, g.mult))
            yield g
    for n in range(1, 16):
        yield make_family("an", n)
        if n >= 4:
            yield make_family("dn", n)
        if n >= 3:
            yield make_family("cycle", n, -3)


def test_integer_kernel_matches_fraction_oracle():
    checked = 0
    for g in _differential_corpus():
        M = g.intersection_matrix()
        C = neg_inverse_fraction(M)
        assert neg_inverse(M) == C, g
        expected = star_witnesses_fraction(C)
        cert = check_star(g)
        assert cert.failing_pairs == tuple(p for p, w in expected.items() if w is None), g
        assert {p: w.coeffs for p, w in cert.witnesses.items()} == {
            p: w for p, w in expected.items() if w is not None
        }, g
        checked += 1
    assert checked > 4000


def test_check_star_large_families():
    an, dn = make_family("an", 60), make_family("dn", 60)
    t0 = time.monotonic()
    an_cert, dn_cert = check_star(an), check_star(dn)
    elapsed = time.monotonic() - t0
    assert an_cert.holds
    assert not dn_cert.holds
    assert len(dn_cert.failing_pairs) == 1711
    for g, cert in ((an, an_cert), (dn, dn_cert)):
        M = g.intersection_matrix()
        assert len(cert.witnesses) + len(cert.failing_pairs) == g.n * (g.n - 1)
        for (i, j), w in cert.witnesses.items():
            assert lipman_status(w, M) is ConeStatus.STRICT_LIPMAN
            assert w[i] < w[j]
    assert elapsed < 10.0


@pytest.mark.parametrize(
    "family,verifications",
    [(("an", 30), 108), (("dn", 30), 41), (("cycle", 30, -3), 17)],
)
def test_strictness_verified_once_per_distinct_witness(family, verifications):
    # pairs of one class (k, t) share one divisor, so the strictness check
    # runs once per distinct divisor rather than once per pair (870, 464
    # and 870 pairs hold on these graphs)
    g = make_family(*family)
    with mock.patch.object(conditions, "lipman_status", wraps=conditions.lipman_status) as spy:
        cert = check_star(g)
    distinct = {w.coeffs for w in cert.witnesses.values()}
    assert spy.call_count == len(distinct) == verifications
    assert all(call.args[1] is g.intersection_matrix() for call in spy.call_args_list)


def test_failed_strictness_check_is_an_internal_error(tmp_path, capsys):
    path = tmp_path / "a3.graph"
    path.write_text(serialize_graph(make_family("an", 3)))
    with mock.patch.object(conditions, "lipman_status", return_value=ConeStatus.NOT_IN_CONE):
        with pytest.raises(InternalInvariantError, match="re-verification"):
            check_star(make_family("an", 3))
        assert main(["analyze", str(path)]) == 2
    assert "internal error" in capsys.readouterr().err


def test_ordering_checked_for_every_pair_of_a_class():
    g = make_family("cycle", 30, -3)
    pairs_of = {}
    for p, w in sorted(check_star(g).witnesses.items()):
        pairs_of.setdefault(w.coeffs, []).append(p)
    first, later = next(pairs for pairs in pairs_of.values() if len(pairs) > 1)[:2]
    adj = conditions._Adjugate(g.intersection_matrix())
    assert adj.witness(*first) is not None
    (key,) = adj.witnesses
    # equal coefficients put no vertex strictly below another
    adj.witnesses[key] = Divisor((1,) * g.n)
    with pytest.raises(InternalInvariantError, match=re.escape(f"pair {later}")):
        adj.witness(*later)
