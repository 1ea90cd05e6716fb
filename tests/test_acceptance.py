"""Acceptance gate: one test per numbered criterion.

The conftest terminal summary prints a PASS/FAIL line for each criterion,
aggregated over the default and extended tiers.  Every assertion here is
an exact match; there are no tolerances anywhere.
"""

import itertools

import pytest

import oracles
from cmgraph.cohen_macaulay import (
    bipartite_cm_ordering,
    cm_characteristic_profile,
    reisner_cm,
)
from cmgraph.complexes import (
    BUDGET_EXHAUSTED,
    NOT_SHELLABLE,
    SHELLABLE,
    SimplicialComplex,
    independence_complex,
    is_shellable,
    is_shelling_order,
)
from cmgraph.graphs import Graph, canonical_form, is_unmixed
from cmgraph.harness import enumerate_graphs, enumerate_graphs_up_to, run_battery
from cmgraph.homology import FieldSpec, boundary_matrices, reduced_betti
from test_complexes import RP2_FACETS, boundary_sphere
from test_harness import R3_DEGREE_COUNTEREXAMPLES, R4_DEGREE_COUNTEREXAMPLES
from test_homology import compose_is_zero

Q = FieldSpec(0)
F2 = FieldSpec(2)
F3 = FieldSpec(3)

pytestmark = pytest.mark.acceptance


def test_criterion_1_fig1_cm_away_from_characteristic_two(fig1):
    rep0 = cm_characteristic_profile(fig1, [Q])[0]
    rep2 = cm_characteristic_profile(fig1, [F2])[0]
    assert rep0.is_cm and rep0.witness is None
    assert not rep2.is_cm
    assert rep2.witness.face == ()
    assert rep2.witness.index == 1


def test_criterion_2_fig1_structural_profile(fig1):
    cx = independence_complex(fig1)
    assert cx.is_pure()
    assert cx.dimension() == 2
    assert cx.f_vector() == (1, 11, 30, 20)
    assert reduced_betti(cx, Q) == (0, 0, 0, 0)
    assert reduced_betti(cx, F2) == (0, 0, 1, 1)
    assert is_unmixed(fig1)


def test_criterion_3_fig1_search_never_yields_a_shelling_order(fig1):
    res = is_shellable(independence_complex(fig1))
    assert res.order is None
    assert res.status in (NOT_SHELLABLE, BUDGET_EXHAUSTED)


@pytest.mark.extended
def test_criterion_3_extended_search_decides_not_shellable(fig1):
    res = is_shellable(independence_complex(fig1), budget=10**9)
    assert res.status == NOT_SHELLABLE
    assert res.order is None


def test_criterion_4_connected_bipartite_triple_agreement():
    """Matching ordering, char-0 and char-2 verdicts coincide through n = 8,
    and on unmixed graphs they coincide with unique-perfect-matching."""
    (verdict,) = _sweep_verdicts(run_battery(8, r=2), "bipartite-equivalences")
    assert verdict["graphs_checked"] == 253
    assert verdict["counterexamples"] == [], verdict["counterexamples"]


@pytest.mark.extended
def test_criterion_4_extended_n9():
    (verdict,) = _sweep_verdicts(run_battery(9, r=2), "bipartite-equivalences")
    assert verdict["counterexamples"] == [], verdict["counterexamples"]


def _sweep_verdicts(summary, prefix):
    return [v for v in summary["verdicts"] if v["claim"].startswith(prefix)]


def _describe(failures):
    lines = []
    for claim, ces in failures.items():
        lines.append(f"{claim}: {len(ces)} counterexample graph classes")
        for canon, reason in ces:
            lines.append(f"  {canon}  ({reason})")
    return "\n".join(lines)


def _pinned_mismatch(claim, got, pinned_classes):
    """Name the classes a sweep reports beyond the pinned list and the
    pinned classes it no longer reports."""
    pinned = [canon for canon, _ in pinned_classes]
    reported = [canon for canon, _ in got]
    differences = {
        f"{claim}, not pinned": [ce for ce in got if ce[0] not in pinned],
        f"{claim}, pinned but not reported": [
            (canon, "missing") for canon in pinned if canon not in reported
        ],
    }
    differences = {k: ces for k, ces in differences.items() if ces}
    if not differences:
        differences = {f"{claim}, same classes, other order or reasons": got}
    return _describe(differences)


def test_criterion_5_cm_forces_low_degree_vertex_and_unique_matching():
    """Sweep r-partite graphs coverable by independence-number many cliques
    whose maximal cliques all have size r.  The uniqueness half of the claim
    holds: every Cohen-Macaulay one has a unique perfect r-matching, for
    r = 2 and r = 3 up to n = 9.  The degree half (a vertex of degree r-1)
    holds for r = 2 but not for r = 3: the sweep must report exactly the
    eight pinned classes, in canonical order, over both fields.  Each
    pinned class is certified by the oracles in the test below."""
    r2 = run_battery(9, r=2, characteristics=(0, 2))
    r3 = run_battery(9, r=3, characteristics=(0, 2))

    for v in _sweep_verdicts(r2, "main-theorem"):
        assert v["counterexamples"] == [], _describe({v["claim"]: v["counterexamples"]})
    for v in _sweep_verdicts(r2, "uniqueness-corollary"):
        assert v["counterexamples"] == [], _describe({v["claim"]: v["counterexamples"]})
    for v in _sweep_verdicts(r3, "uniqueness-corollary"):
        assert v["counterexamples"] == [], _describe({v["claim"]: v["counterexamples"]})

    main = _sweep_verdicts(r3, "main-theorem")
    assert [v["claim"] for v in main] == [
        "main-theorem r=3 char=0",
        "main-theorem r=3 char=2",
    ]
    for v, char in zip(main, (0, 2)):
        reason = f"cm over char {char} but no vertex of degree r-1"
        expected = [[canon, reason] for canon, _ in R3_DEGREE_COUNTEREXAMPLES]
        assert v["counterexamples"] == expected, (
            "the r=3 degree sweep no longer reports exactly the pinned "
            "counterexample classes:\n"
            + _pinned_mismatch(v["claim"], v["counterexamples"], R3_DEGREE_COUNTEREXAMPLES)
        )


def test_criterion_5_r4_sweep_reports_exactly_the_pinned_classes():
    """At r = 4 the degree half already fails at n = 8: the sweep up to
    n = 9 reports exactly the two pinned classes over both fields, and the
    uniqueness half holds with no converse candidates."""
    r4 = run_battery(9, r=4, characteristics=(0, 2))
    for v in _sweep_verdicts(r4, "uniqueness-corollary"):
        assert v["counterexamples"] == [], _describe({v["claim"]: v["counterexamples"]})
    assert r4["converse_candidates"] == {"0": [], "2": []}
    main = _sweep_verdicts(r4, "main-theorem")
    assert [v["claim"] for v in main] == [
        "main-theorem r=4 char=0",
        "main-theorem r=4 char=2",
    ]
    for v, char in zip(main, (0, 2)):
        reason = f"cm over char {char} but no vertex of degree r-1"
        expected = [[canon, reason] for canon, _ in R4_DEGREE_COUNTEREXAMPLES]
        assert v["counterexamples"] == expected, (
            "the r=4 degree sweep no longer reports exactly the pinned "
            "counterexample classes:\n"
            + _pinned_mismatch(v["claim"], v["counterexamples"], R4_DEGREE_COUNTEREXAMPLES)
        )


def _certify_degree_counterexamples(pinned, n, r, alpha):
    """Each pinned class meets every hypothesis of the claim at r and is
    Cohen-Macaulay over Q and F_2, yet its minimum degree is r, not r-1.
    Only the oracles decide this; the package supplies Graph,
    canonical_form and is_shelling_order.  A shelling order of the pure
    Ind(G), read off a shedding decomposition, shows each class is
    Cohen-Macaulay over every field."""
    for canon, edges in pinned:
        g = Graph(n, edges)
        assert canonical_form(g) == canon.encode(), canon
        assert len(oracles.all_r_partitions_brute(g, r)) == 1, canon
        assert {len(c) for c in oracles.maximal_cliques_brute(g)} == {r}, canon
        assert oracles.independence_number_brute(g) == alpha, canon
        assert oracles.clique_cover_number_brute(g) == alpha, canon
        assert len(oracles.perfect_r_matchings_brute(g, r)) == 1, canon
        assert oracles.is_cm_brute(g, 0) and oracles.is_cm_brute(g, 2), canon
        order = oracles.shedding_shelling_order(g)
        assert order is not None, canon
        assert sorted(order) == oracles.maximal_independent_sets_brute(g), canon
        assert {len(f) for f in order} == {alpha}, canon
        assert is_shelling_order(order), canon
        degree = {v: 0 for v in range(1, n + 1)}
        for u, w in edges:
            degree[u] += 1
            degree[w] += 1
        assert min(degree.values()) == r, canon


def test_criterion_5_pinned_degree_counterexamples_are_genuine():
    """The eight r = 3 classes on 9 vertices, with alpha = 3."""
    _certify_degree_counterexamples(R3_DEGREE_COUNTEREXAMPLES, 9, 3, 3)


def test_criterion_5_pinned_r4_degree_counterexamples_are_genuine():
    """The two r = 4 classes on 8 vertices.  With alpha = 2 the independence
    complex is a graph, and Cohen-Macaulay means it is connected."""
    _certify_degree_counterexamples(R4_DEGREE_COUNTEREXAMPLES, 8, 4, 2)


def _implication_sweep(graphs, shelling_budget):
    """CM implies unmixed; pure shellable implies CM over char 0 and 2;
    CM is preserved by deleting any closed neighborhood."""
    for g in graphs:
        cx = independence_complex(g)
        reports = {f: reisner_cm(cx, f) for f in (Q, F2)}
        if any(rep.is_cm for rep in reports.values()):
            assert is_unmixed(g), g.edges
        if cx.is_pure():
            res = is_shellable(cx, budget=shelling_budget)
            if res.status == SHELLABLE:
                assert reports[Q].is_cm and reports[F2].is_cm, g.edges
        for field, rep in reports.items():
            if not rep.is_cm:
                continue
            for v in range(1, g.n + 1):
                h = oracles.without_closed_neighbourhood(g, (v,))
                if h.n:
                    assert cm_characteristic_profile(h, [field])[0].is_cm, (g.edges, v, field)


def test_criterion_6_implication_suite_through_n7():
    _implication_sweep(enumerate_graphs_up_to(7).graphs, shelling_budget=10**8)


@pytest.mark.extended
def test_criterion_6_extended_n8():
    _implication_sweep(enumerate_graphs(8).graphs, shelling_budget=10**6)


def test_criterion_7_homology_calibration(fig1):
    # boundary-of-simplex complexes carry exactly one top homology class
    for d in range(1, 5):
        expected = (0,) * (d + 1) + (1,)
        for field in (Q, F2, F3):
            assert reduced_betti(boundary_sphere(d), field) == expected

    rp2 = SimplicialComplex(6, RP2_FACETS)
    assert reduced_betti(rp2, Q) == (0, 0, 0, 0)
    assert reduced_betti(rp2, F2) == (0, 0, 1, 1)
    assert reduced_betti(rp2, F2) == oracles.betti_brute(RP2_FACETS, 2)

    corpus = [independence_complex(fig1), rp2]
    corpus += [boundary_sphere(d) for d in range(1, 5)]
    corpus += [independence_complex(g) for g in enumerate_graphs_up_to(5).graphs]
    for cx in corpus:
        assert compose_is_zero(boundary_matrices(cx))


def test_criterion_8_enumeration_calibration():
    expected = {3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
    for n, count in expected.items():
        assert len(enumerate_graphs(n).graphs) == count
