import dataclasses
from itertools import islice, product
from operator import mul
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashcone import (
    ConeStatus,
    Divisor,
    NashVerdict,
    arithmetic_genus,
    check_star,
    check_star_star,
    enumerate_graphs,
    fundamental_cycle,
    is_rational_artin,
    lipman_status,
    make_family,
    nash_verdict,
    structural_rationality,
    validate,
)
from nashcone.classify import ClassificationReport, _genus_tuples, _negdef_weights, _structures
from nashcone.cli import report_to_dict
from nashcone.graph import ResolutionGraph, _nonminimal, render_json

from oracles import (
    _leading_minors_negdef,
    an_witness_divisors,
    enumerate_graphs_brute,
    graphs_isomorphic,
    halfspace_coverage,
    iii_by_definition,
    is_connected,
    mulvec_dense,
    nonminimal_by_scan,
    refusal_by_definition,
    structures_by_orbit_marking,
)


def test_arithmetic_genus_known_values(a2, g2w1, star3_5, cycle3):
    assert arithmetic_genus(a2, Divisor((1, 1))) == 0
    assert arithmetic_genus(g2w1, Divisor((1,))) == 2
    assert arithmetic_genus(star3_5, Divisor((1, 1, 1, 2))) == 0
    assert arithmetic_genus(cycle3, Divisor((1, 1, 1))) == 1
    with pytest.raises(ValueError):
        arithmetic_genus(a2, Divisor((0, 0)))


def test_arithmetic_genus_refuses_a_divisor_of_another_size(a2):
    with pytest.raises(ValueError, match="^divisor has 3 coefficients, graph has 2 vertices$"):
        arithmetic_genus(a2, Divisor((1, 1, 1)))


def test_is_rational_artin_known_values(a2, g2w1, star3_5, cycle3):
    assert is_rational_artin(a2)
    assert not is_rational_artin(g2w1)
    assert is_rational_artin(star3_5)
    assert not is_rational_artin(cycle3)


def test_structural_known_values(a2, g2w1, star3_5, cycle3, two_vertex):
    s = structural_rationality(a2)
    assert (s.tree, s.all_genus_zero, s.iii_holds, s.verdict) == (True, True, True, True)

    s = structural_rationality(g2w1)
    assert s.tree and not s.all_genus_zero and not s.verdict

    s = structural_rationality(star3_5)
    assert s.tree and s.all_genus_zero and not s.iii_holds and not s.verdict

    s = structural_rationality(cycle3)
    assert not s.tree

    s = structural_rationality(two_vertex)
    assert not s.tree  # double edge disqualifies


def test_iii_is_star_star_in_disguise():
    # |w_i| > gamma_i is the same inequality as (M.1)_i < 0
    for g in enumerate_graphs(3, -4, 1, 2):
        assert structural_rationality(g).iii_holds == check_star_star(g).holds


def test_nash_verdict_known_cases(a2, a3, d4, g2w1):
    assert nash_verdict(g2w1).nash_verdict is NashVerdict.BIJECTIVE_BY_STAR_STAR
    assert nash_verdict(g2w1).artin_rational is False
    assert nash_verdict(a2).nash_verdict is NashVerdict.BIJECTIVE_BY_STAR_STAR
    r3 = nash_verdict(a3)
    assert r3.nash_verdict is NashVerdict.BIJECTIVE_BY_STAR
    assert not r3.star_star.holds and r3.star.holds
    rd = nash_verdict(d4)
    assert rd.nash_verdict is NashVerdict.INCONCLUSIVE
    assert any("condition (*)" in note for note in rd.notes)


def test_nash_verdict_report_is_assembled_consistently(star3_5):
    r = nash_verdict(star3_5)
    assert r.graph == star3_5
    assert r.validation.analyzable
    assert r.fundamental_cycle.coeffs == (1, 1, 1, 2)
    assert r.pa_fundamental == 0
    assert r.artin_rational
    assert r.structural.verdict is False
    assert r.star_star.violations == (3,)
    assert r.nash_verdict is NashVerdict.BIJECTIVE_BY_STAR


def test_nash_verdict_validates_once(star3_5, monkeypatch):
    import nashcone.classify as classify_mod

    calls = []

    def counting(g):
        calls.append(g)
        return validate(g)

    monkeypatch.setattr(classify_mod, "validate", counting)
    nash_verdict(star3_5)
    assert calls == [star3_5]


@pytest.mark.parametrize("bounds,graphs,matrices", [
    ((4, -4, 1, 1), 4467, 357),
    ((3, -3, 1, 2), 207, 35),
])
def test_check_star_runs_once_per_enumerated_matrix(bounds, graphs, matrices):
    # genus variants of one weight tuple share an intersection matrix, and
    # the matrix keeps its (**), (*) and fundamental-cycle results
    import nashcone.classify as classify_mod

    with mock.patch.object(classify_mod, "check_star", wraps=check_star) as counting:
        reports = [nash_verdict(g) for g in enumerate_graphs(*bounds)]
    assert len(reports) == graphs
    assert counting.call_count == matrices
    assert len({id(r.graph.intersection_matrix()) for r in reports}) == matrices
    assert len({id(r.star) for r in reports}) == matrices


@pytest.mark.parametrize("bounds,matrices", [((4, -4, 1, 1), 357), ((3, -3, 1, 2), 35)])
def test_star_star_report_is_built_once_per_enumerated_matrix(bounds, matrices):
    # nash_verdict keeps its (**) report in the matrix's record; the
    # structural check reads (iii) from the matrix's row sums E.E_i for
    # every new genus key and builds no report
    import nashcone.conditions as conditions_mod

    with mock.patch.object(
        conditions_mod, "StarStarReport", wraps=conditions_mod.StarStarReport
    ) as counting:
        reports = [nash_verdict(g) for g in enumerate_graphs(*bounds)]
    assert counting.call_count == matrices
    assert all(r.structural.iii_holds == r.star_star.holds for r in reports)


def test_check_star_runs_once_per_family_graph(star3_5):
    import nashcone.classify as classify_mod

    with mock.patch.object(classify_mod, "check_star", wraps=check_star) as counting:
        nash_verdict(star3_5)
        assert counting.call_count == 1
        nash_verdict(star3_5)  # the graph keeps its matrix, and the matrix its results
    assert counting.call_count == 1


@pytest.mark.parametrize("bounds,graphs,matrices", [
    ((4, -4, 1, 1), 4467, 357),
    ((3, -3, 1, 2), 207, 35),
])
def test_genus_variants_skip_the_graph_checks_and_share_connectivity(bounds, graphs, matrices):
    # only the first graph of a weight tuple runs every ResolutionGraph
    # check; connectivity is kept on the matrix, for validation and the
    # structural check alike
    import nashcone.graph as graph_mod

    checked = []
    post_init = ResolutionGraph.__post_init__

    def counting(self):
        checked.append(self)
        post_init(self)

    with mock.patch.object(ResolutionGraph, "__post_init__", counting), \
            mock.patch.object(graph_mod, "_edges_connect", wraps=graph_mod._edges_connect) as connectivity:
        reports = [nash_verdict(g) for g in enumerate_graphs(*bounds)]
    assert len(reports) == graphs
    assert len(checked) == matrices
    assert connectivity.call_count == matrices


@pytest.mark.parametrize("bounds", [(3, -3, 1, 2), (4, -4, 1, 1), (3, -2, 1, 1)])
def test_genus_variants_match_fresh_graphs(bounds):
    firsts = {}  # id of a matrix -> the first graph that holds it
    variants = 0
    for g in enumerate_graphs(*bounds):
        first = firsts.setdefault(id(g.intersection_matrix()), g)
        if first is not g:
            variants += 1
            assert g.weights is first.weights and g.mult is first.mult
            assert g.labels is first.labels
        fresh = ResolutionGraph(g.weights, g.genera, g.mult, g.labels)
        assert g == fresh
        assert validate(g) == validate(fresh)
        assert structural_rationality(g) == structural_rationality(fresh)
        assert g.edges() == fresh.edges()
    assert 0 < variants < sum(1 for _ in enumerate_graphs(*bounds))


@pytest.mark.parametrize("max_genus,n", [(0, 1), (0, 4), (1, 1), (1, 3), (2, 2), (3, 4), (5, 1)])
def test_genus_tuples_are_the_product_of_int_ranges(max_genus, n):
    # graph._genus_variant checks no genera: it relies on every tuple the
    # enumerator makes being n ints in 0..max_genus
    tuples = list(_genus_tuples(max_genus, n))
    assert tuples == list(product(range(max_genus + 1), repeat=n))
    assert len(tuples) == (max_genus + 1) ** n
    assert all(type(t) is tuple and len(t) == n and {type(x) for x in t} == {int} for t in tuples)


@pytest.mark.parametrize("bounds", [(3, -3, 1, 2), (4, -4, 1, 1)])
def test_shared_matrix_reports_match_fresh_graphs(bounds):
    for g in enumerate_graphs(*bounds):
        fresh = ResolutionGraph(g.weights, g.genera, g.mult, g.labels)
        assert fresh.intersection_matrix() is not g.intersection_matrix()
        assert (render_json(report_to_dict(nash_verdict(g)))
                == render_json(report_to_dict(nash_verdict(fresh))))


@pytest.mark.parametrize("bounds", [(3, -3, 1, 2), (4, -4, 1, 1), (3, -2, 1, 1), (3, -3, 3, 2)])
def test_nash_verdict_of_a_genus_variant_matches_a_fresh_graph(bounds):
    # the kept record gives the same report, as a whole dataclass, as a
    # graph that shares nothing
    for g in enumerate_graphs(*bounds):
        fresh = ResolutionGraph(g.weights, g.genera, g.mult, g.labels)
        assert fresh.intersection_matrix() is not g.intersection_matrix()
        assert nash_verdict(g) == nash_verdict(fresh)


@pytest.mark.parametrize("bounds,graphs,keys", [
    ((4, -4, 1, 1), 4467, 887),
    ((3, -3, 1, 2), 207, 81),
])
def test_validate_runs_once_per_matrix_and_genus_key(bounds, graphs, keys):
    # validation and the structural check depend on a graph's matrix, its
    # genus-0 (-1)-curves and whether all its genera are zero; variants with
    # equal keys share the reports and notes built for the first of them
    import nashcone.classify as classify_mod

    with mock.patch.object(classify_mod, "validate", wraps=validate) as counting:
        reports = [nash_verdict(g) for g in enumerate_graphs(*bounds)]
    assert len(reports) == graphs
    assert counting.call_count == keys
    distinct = {
        (id(r.graph.intersection_matrix()),
         tuple(i for i in range(r.graph.n) if r.graph.genera[i] == 0 and r.graph.weights[i] == -1),
         all(p == 0 for p in r.graph.genera))
        for r in reports
    }
    assert len(distinct) == keys
    assert len({id(r.validation) for r in reports}) == keys
    assert len({id(r.structural) for r in reports}) == keys


@st.composite
def _graphs(draw):
    """Graphs of 1 to 7 vertices with weights -8 to -1 or of 300 digits,
    genera 0 to 2 and multiplicities 0 to 3, sparse or dense: not always
    negative definite, not always connected."""
    n = draw(st.integers(1, 7))
    weights = draw(st.lists(st.integers(-8, -1) | st.integers(-(10 ** 300), -1), min_size=n, max_size=n))
    genera = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    m = draw(st.sampled_from([st.integers(0, 3), st.sampled_from([0] * 4 + [1, 2, 3])]))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(m)
    return ResolutionGraph(tuple(weights), tuple(genera), tuple(map(tuple, rows)))


@settings(max_examples=300, deadline=None)
@given(_graphs())
def test_iii_flag_matches_its_definition(g):
    refusal = refusal_by_definition(g.weights, g.mult)
    if refusal is not None:  # the structural check answers for analyzable graphs only
        with pytest.raises(ValueError) as exc:
            structural_rationality(g)
        assert str(exc.value) == refusal
        return
    assert structural_rationality(g).iii_holds is iii_by_definition(g.weights, g.mult)


@pytest.mark.parametrize("bounds", [(3, -3, 1, 2), (4, -4, 1, 1)])
def test_iii_flag_matches_its_definition_on_enumerated_graphs(bounds):
    flags = set()
    for g in enumerate_graphs(*bounds):
        iii = iii_by_definition(g.weights, g.mult)
        assert structural_rationality(g).iii_holds is iii
        flags.add(iii)
    assert flags == {False, True}


def test_tree_flag_matches_the_edge_list_definition(two_vertex):
    graphs = [g for bounds in [(4, -4, 1, 1), (3, -3, 1, 2)] for g in enumerate_graphs(*bounds)]
    graphs += [make_family(*f) for f in [
        ("an", 1), ("an", 7), ("dn", 6), ("star3", 5), ("vertex", 2, -1), ("cycle", 5, -3),
    ]]
    # a triangle and a lone vertex: n - 1 simple edges, yet no tree
    triangle = ((0, 1, 1, 0), (1, 0, 1, 0), (1, 1, 0, 0), (0, 0, 0, 0))
    graphs += [two_vertex, ResolutionGraph((-3,) * 4, (0,) * 4, triangle)]
    trees = 0
    for g in graphs:
        edges = g.edges()
        connected = is_connected(g.mult)
        tree = connected and all(m == 1 for _, _, m in edges) and len(edges) == g.n - 1
        if not connected:  # refused, as validate calls it unanalyzable
            with pytest.raises(ValueError, match="^dual graph is disconnected$"):
                structural_rationality(g)
            continue
        assert structural_rationality(g).tree == tree
        trees += tree
    assert 0 < trees < len(graphs)


@pytest.mark.parametrize("bounds", [(3, -3, 1, 2), (4, -4, 1, 1), (3, -2, 1, 1)])
def test_pa_from_the_kept_self_intersection_matches_arithmetic_genus(bounds):
    # nash_verdict keeps the part of Z.Z + K.Z without the genera on the
    # shared matrix; 2 sum Z_i g_i differs per genus variant
    for g in enumerate_graphs(*bounds):
        assert nash_verdict(g).pa_fundamental == arithmetic_genus(g, fundamental_cycle(g))


@pytest.mark.parametrize("bounds", [(4, -4, 1, 1), (3, -3, 1, 2), (5, -3, 1, 1)])
def test_per_line_shortcuts_match_their_plain_forms(bounds):
    # every graph, genus variants included: p_a from the kept part, minimality
    # from the kept (-1)-curves, and the report filled in without __init__
    names = [f.name for f in dataclasses.fields(ClassificationReport)]
    variants = nonminimal = 0
    previous = None
    for g in enumerate_graphs(*bounds):
        M = g.intersection_matrix()
        variants += M is previous  # genus variants come one after another
        previous = M
        r = nash_verdict(g)
        Z = fundamental_cycle(g)
        # p_a(Z) = 1 + (Z.Z + K.Z)/2, with K.E_i = 2 g_i - 2 - w_i, over the written-out matrix
        rows = [[w if i == j else m for j, m in enumerate(row)]
                for i, (w, row) in enumerate(zip(g.weights, g.mult))]
        total = sum(map(mul, Z.coeffs, mulvec_dense(rows, Z.coeffs)))
        total += sum(z * (2 * p - 2 - w) for z, p, w in zip(Z.coeffs, g.genera, g.weights))
        assert r.pa_fundamental == arithmetic_genus(g, Z) == 1 + total // 2
        assert _nonminimal(g) == nonminimal_by_scan(g.genera, g.weights)
        fields = {name: getattr(r, name) for name in names}
        plain = ClassificationReport(**fields)
        assert r == plain
        assert vars(r) == vars(plain)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.pa_fundamental = 0
        nonminimal += bool(_nonminimal(g))
    assert variants and nonminimal


def test_nash_verdict_rejects_unanalyzable():
    bad = ResolutionGraph(weights=(-1, -1), genera=(0, 0), mult=((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        nash_verdict(bad)
    disconnected = ResolutionGraph(weights=(-2, -2), genera=(0, 0), mult=((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        nash_verdict(disconnected)


def test_nash_verdict_warns_on_non_minimal():
    g = make_family("vertex", 0, -1)
    r = nash_verdict(g)
    assert any(note.startswith("warning") for note in r.notes)
    assert r.nash_verdict is NashVerdict.BIJECTIVE_BY_STAR_STAR


def test_nash_verdict_invariant_under_relabeling(star3_5):
    # same graph, arms listed last instead of first
    permuted = ResolutionGraph(
        weights=(-2, -5, -5, -5),
        genera=(0, 0, 0, 0),
        mult=((0, 1, 1, 1), (1, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0)),
    )
    assert graphs_isomorphic(permuted, star3_5)
    assert nash_verdict(permuted).nash_verdict == nash_verdict(star3_5).nash_verdict


def test_an_witness_divisors_small():
    d1, d2 = an_witness_divisors(3)
    assert d1.coeffs == (3, 5, 6)
    assert d2.coeffs == (6, 5, 3)
    d1, d2 = an_witness_divisors(1)
    assert d1.coeffs == (1,) and d2.coeffs == (1,)
    d1, d2 = an_witness_divisors(4)
    assert d1.coeffs == (4, 7, 9, 10)
    assert d2.coeffs == (10, 9, 7, 4)
    M = make_family("an", 4).intersection_matrix()
    assert M.mulvec(d1.coeffs) == (-1, -1, -1, -11)
    with pytest.raises(ValueError):
        an_witness_divisors(0)


def test_make_family_shapes(a2, d4, star3_5, cycle3):
    assert make_family("an", 2) == a2
    assert make_family("dn", 4) == d4
    assert make_family("star3", 5) == star3_5
    assert make_family("cycle", 3, -3) == cycle3
    assert make_family("vertex", 2, -1).weights == (-1,)
    d5 = make_family("dn", 5)
    assert sorted(sum(row) for row in d5.mult) == [1, 1, 1, 2, 3]


@pytest.mark.parametrize(
    "kind,params",
    [
        ("an", (0,)),
        ("dn", (3,)),
        ("star3", (4,)),
        ("vertex", (-1, -1)),
        ("vertex", (0, 0)),
        ("cycle", (2, -3)),
        ("cycle", (3, -2)),
        ("bogus", (1,)),
        ("an", (1, 2)),
        ("vertex", (1,)),
    ],
)
def test_make_family_rejects_bad_parameters(kind, params):
    with pytest.raises(ValueError):
        make_family(kind, *params)


def test_cycle_family_is_star_star_but_not_rational():
    for m in range(3, 7):
        for w in (-3, -4, -5):
            g = make_family("cycle", m, w)
            assert check_star_star(g).holds
            assert arithmetic_genus(g, fundamental_cycle(g)) > 0
            assert not is_rational_artin(g)
            assert nash_verdict(g).nash_verdict is NashVerdict.BIJECTIVE_BY_STAR_STAR


def test_enumerate_tiny_bounds():
    got = list(enumerate_graphs(1, -2, 1))
    assert len(got) == 4
    assert {(g.weights[0], g.genera[0]) for g in got} == {(-1, 0), (-1, 1), (-2, 0), (-2, 1)}


def test_enumerate_two_vertex_bounds():
    got = list(enumerate_graphs(2, -2, 0, 2))
    two = [g for g in got if g.n == 2]
    # det 0 kills (-1,-1) at mult 1 and (-2,-2) at mult 2
    assert {(g.weights, g.edges()[0][2]) for g in two} == {
        ((-2, -2), 1),
        ((-2, -1), 1),
    }


def test_enumerate_outputs_are_analyzable():
    for g in enumerate_graphs(3, -3, 1, 2):
        assert validate(g).analyzable


def test_enumerate_deterministic():
    a = list(enumerate_graphs(3, -3, 1, 2))
    b = list(enumerate_graphs(3, -3, 1, 2))
    assert a == b


def test_enumerate_no_isomorphic_duplicates():
    got = list(enumerate_graphs(3, -3, 0, 2))
    for i, g1 in enumerate(got):
        for g2 in got[i + 1:]:
            assert not graphs_isomorphic(g1, g2)


def test_enumerate_covers_all_two_vertex_classes():
    # every connected negative-definite 2-vertex graph within bounds shows up
    got = list(enumerate_graphs(2, -3, 0, 2))
    expected = []
    for w1 in (-3, -2, -1):
        for w2 in (-3, -2, -1):
            if w1 > w2:
                continue
            for m in (1, 2):
                if w1 * w2 - m * m > 0:
                    expected.append((w1, w2, m))
    found = {(g.weights[0], g.weights[1], g.mult[0][1]) for g in got if g.n == 2}
    assert found == set(expected)


def test_enumerate_rejects_bad_bounds():
    for args in [(0, -2, 0, 1), (2, 0, 0, 1), (2, -2, -1, 1), (2, -2, 0, 0)]:
        with pytest.raises(ValueError):
            list(islice(enumerate_graphs(*args), 1))


def test_verdict_flags_align_over_enumeration():
    for g in islice(enumerate_graphs(3, -3, 1, 2), 400):
        r = nash_verdict(g)
        if r.nash_verdict is NashVerdict.BIJECTIVE_BY_STAR_STAR:
            assert r.star_star.holds
        elif r.nash_verdict is NashVerdict.BIJECTIVE_BY_STAR:
            assert r.star.holds and not r.star_star.holds
        else:
            assert not r.star.holds


def test_an_witnesses_cover_and_verify():
    for n in (1, 2, 5, 9):
        g = make_family("an", n)
        M = g.intersection_matrix()
        d1, d2 = an_witness_divisors(n)
        assert lipman_status(d1, M) is ConeStatus.STRICT_LIPMAN
        assert lipman_status(d2, M) is ConeStatus.STRICT_LIPMAN
        expected = {(i, j) for i in range(n) for j in range(n) if i != j}
        assert halfspace_coverage([d1, d2]) == expected
        assert check_star(g).holds


# every bound set the suite enumerates, plus two where the n! scan dominated
@pytest.mark.parametrize(
    "bounds",
    [
        (1, -2, 1, 1),
        (2, -2, 0, 2),
        (2, -3, 0, 2),
        (3, -2, 0, 1),
        (3, -3, 0, 2),
        (3, -3, 1, 2),
        (3, -4, 1, 2),
        (4, -3, 0, 2),
        (4, -5, 1, 2),
        (5, -2, 0, 1),
        (5, -2, 0, 2),
        (6, -2, 0, 1),
    ],
)
def test_enumerate_matches_brute_force_oracle(bounds):
    assert list(enumerate_graphs(*bounds)) == list(enumerate_graphs_brute(*bounds))


@pytest.mark.parametrize("max_vertices, max_mult", [(6, 1), (5, 2)])
def test_structures_are_the_orbit_walk_classes_negative_definite_at_min_weight(
    max_vertices, max_mult
):
    walk = [
        s for n in range(1, max_vertices + 1) for s in structures_by_orbit_marking(n, max_mult + 1)
    ]
    for min_weight in range(-1, -6, -1):
        kept = [
            (mult, aut)
            for mult, aut in walk
            if _leading_minors_negdef(
                [[min_weight if i == j else m for j, m in enumerate(row)] for i, row in enumerate(mult)]
            )
        ]
        assert list(_structures(max_vertices, max_mult + 1, min_weight)) == kept


@st.composite
def _off_diagonal_tables(draw):
    # multiplicities 0..3, so some tables are disconnected or empty
    n = draw(st.integers(1, 4))
    mult = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mult[i][j] = mult[j][i] = draw(st.integers(0, 3))
    return tuple(map(tuple, mult))


@settings(max_examples=200, deadline=None)
@given(_off_diagonal_tables(), st.integers(-6, -1))
def test_negdef_weights_are_the_product_tuples_sylvester_accepts(mult, min_weight):
    weight_range = range(min_weight, 0)
    accepted = [
        weights for weights in product(weight_range, repeat=len(mult))
        if _leading_minors_negdef([
            [w if i == j else m for j, m in enumerate(row)]
            for i, (w, row) in enumerate(zip(weights, mult))
        ])
    ]
    assert list(_negdef_weights(mult, weight_range)) == accepted


@pytest.mark.parametrize(
    "bounds",
    [(7, -2, 0, 2), (8, -2, 0, 1), (6, -2, 0, 3), (5, -2, 0, 5), (4, -2, 0, 16), (10**9, -2, 0, 1)],
)
def test_enumerate_refuses_bounds_over_table_cap(bounds):
    with pytest.raises(ValueError, match="cap"):
        next(enumerate_graphs(*bounds))


@pytest.mark.parametrize(
    "bounds", [(7, -2, 0, 1), (6, -2, 0, 2), (5, -2, 0, 4), (4, -2, 0, 15), (1, -2, 0, 10**6)]
)
def test_enumerate_allows_bounds_within_table_cap(bounds):
    first = next(enumerate_graphs(*bounds))  # one vertex: the table of n = 1 has one byte
    assert first == ResolutionGraph(weights=(-2,), genera=(0,), mult=((0,),))
