import itertools
import random
import time

import pytest

import oracles
from oracles import hall_violator, whiskered_path
from cmgraph import cohen_macaulay
from cmgraph.cohen_macaulay import (
    CMReport,
    HomologyWitness,
    PurityWitness,
    bipartite_cm_ordering,
    cm_characteristic_profile,
    cm_report_json,
    hh_conditions_hold,
    reisner_cm,
)
from cmgraph.complexes import SimplicialComplex, independence_complex, is_shelling_order
from cmgraph.graphs import Graph, _complement_masks, is_connected, r_partition
from cmgraph.harness import GraphFilters, enumerate_graphs_up_to
from cmgraph.homology import FieldSpec, boundary_matrices, rank_over, reduced_betti
from test_complexes import RP2_FACETS, boundary_sphere

Q = FieldSpec(0)
F2 = FieldSpec(2)
F3 = FieldSpec(3)


# ---------------------------------------------------------------------------
# Reisner criterion


def test_fig1_is_cm_exactly_away_from_characteristic_two(fig1):
    cx = independence_complex(fig1)
    rep0 = reisner_cm(cx, Q)
    rep2 = reisner_cm(cx, F2)
    assert rep0.is_cm and rep0.witness is None
    assert not rep2.is_cm
    assert rep2.witness == HomologyWitness(face=(), index=1)
    assert reisner_cm(cx, F3).is_cm


def test_purity_failure_is_witnessed():
    rep = reisner_cm(independence_complex(oracles.path_graph(3)), Q)
    assert not rep.is_cm
    assert rep.witness == PurityWitness(facet_small=(2,), facet_large=(1, 3))


def test_triangle_is_cm_over_every_characteristic():
    for field in (Q, F2, F3):
        assert cm_characteristic_profile(oracles.complete_graph(3), [field])[0].is_cm


def test_c5_is_cm_and_c4_is_not():
    assert cm_characteristic_profile(oracles.cycle_graph(5), [Q])[0].is_cm
    rep = cm_characteristic_profile(oracles.cycle_graph(4), [Q])[0]
    assert not rep.is_cm
    # two disjoint edges: disconnection appears as reduced betti index 0
    assert rep.witness == HomologyWitness(face=(), index=0)


def test_empty_graph_is_cm():
    assert cm_characteristic_profile(Graph(0, []), [Q])[0].is_cm
    # one facet, the whole vertex set
    assert cm_characteristic_profile(Graph(3, []), [F2])[0].is_cm


def test_cm_graph_agrees_with_reisner_on_independence_complex(fig1):
    for g in (fig1, oracles.cycle_graph(5), oracles.path_graph(4)):
        for field in (Q, F2):
            assert (
                cm_characteristic_profile(g, [field])[0].is_cm
                == reisner_cm(independence_complex(g), field).is_cm
            )


def test_report_json_shapes(fig1):
    rep2 = cm_characteristic_profile(fig1, [F2])[0]
    assert cm_report_json(rep2) == {
        "characteristic": 2,
        "is_cm": False,
        "witness": {"face": [], "index": 1},
    }
    rep_pure = cm_characteristic_profile(oracles.path_graph(3), [Q])[0]
    assert cm_report_json(rep_pure) == {
        "characteristic": 0,
        "is_cm": False,
        "witness": {"kind": "purity", "facets": [[2], [1, 3]]},
    }
    assert cm_report_json(cm_characteristic_profile(oracles.complete_graph(3), [Q])[0]) == {
        "characteristic": 0,
        "is_cm": True,
        "witness": None,
    }


def test_profile_preserves_field_order_and_rejects_empty(fig1):
    reports = cm_characteristic_profile(fig1, [F2, Q, F3])
    assert [r.field.characteristic for r in reports] == [2, 0, 3]
    assert [r.is_cm for r in reports] == [False, True, True]
    with pytest.raises(ValueError):
        cm_characteristic_profile(fig1, [])
    # fields is read once, so a one-shot iterator gives the list's reports
    assert cm_characteristic_profile(fig1, iter([F2, Q, F3])) == reports
    with pytest.raises(ValueError, match="fields 5 is not iterable"):
        cm_characteristic_profile(fig1, 5)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda g, cx: cm_characteristic_profile(g, [2]), "field 2 is"),
        (lambda g, cx: cm_characteristic_profile(g, "ab"), "field 'a' is"),
        (lambda g, cx: reisner_cm(cx, 2), "field 2 is"),
        (lambda g, cx: reduced_betti(cx, 2), "field 2 is"),
        (lambda g, cx: rank_over(boundary_matrices(cx)[0], 2), "field 2 is"),
    ],
    ids=["profile-int", "profile-str", "reisner_cm", "reduced_betti", "rank_over"],
)
def test_a_field_that_is_not_a_fieldspec_is_a_value_error(fig1, call, message):
    with pytest.raises(ValueError, match=f"^{message} not a FieldSpec$"):
        call(oracles.cycle_graph(4), independence_complex(fig1))


def test_reisner_matches_brute_force_oracle():
    for g in enumerate_graphs_up_to(6).graphs:
        for char in (0, 2):
            assert (
                cm_characteristic_profile(g, [FieldSpec(char)])[0].is_cm
                == oracles.is_cm_brute(g, char)
            ), g.edges


def rp2_family() -> list[SimplicialComplex]:
    """RP^2, its cone and its suspension: 2-torsion at three dimensions.

    The suspension is pure of dimension 3 with H~_2 = Z/2, so its F_2
    homology below the top degree is nonzero while the rational one is not.
    """
    cone = [f + (7,) for f in RP2_FACETS]
    suspension = cone + [f + (8,) for f in RP2_FACETS]
    return [
        SimplicialComplex(6, RP2_FACETS),
        SimplicialComplex(7, cone),
        SimplicialComplex(8, suspension),
    ]


# field lists for the one-scan graph path: both orders of Q and F_2, which
# share the F_2 screen, an odd prime alone, and a repeated field
PROFILE_FIELD_LISTS = ([Q, F2], [F2, Q], [Q, F2, F3], [F3], [Q, Q])


def assert_graph_path_matches_reference(g: Graph) -> None:
    """reisner_cm on Ind(g) and cm_characteristic_profile on g both give the
    reference scan's reports, witnesses included, one per requested field,
    and the records' _graph_cm gives their verdicts."""
    cx = independence_complex(g)
    ref = {field: oracles.reisner_cm_reference(cx, field) for field in (Q, F2, F3)}
    for field in (Q, F2, F3):
        assert reisner_cm(cx, field) == ref[field], (g.edges, field)
    for fields in PROFILE_FIELD_LISTS:
        assert cm_characteristic_profile(g, fields) == [ref[f] for f in fields], (
            g.edges,
            fields,
        )
        verdicts = [ref[f].is_cm for f in fields]
        sets, co = list(cx.facets), _complement_masks(g)
        assert cohen_macaulay._graph_cm(g, sets, fields, co) == verdicts, (g.edges, fields)


def mod3_moore_family() -> list[SimplicialComplex]:
    """A mod-3 Moore space and its cone: 3-torsion, which F_2 cannot see.

    A disk whose boundary 9-gon wraps three times around the triangle
    1, 2, 3: H~_1 = Z/3, so it is CM over Q and F_2 but not over F_3.
    """
    facets = []
    for i in range(9):
        # boundary edge i of the disk lies on the triangle edge a-b; the inner
        # 9-gon 4..12 is coned off to 13
        a, b = i % 3 + 1, (i + 1) % 3 + 1
        prev, cur, nxt = (i - 1) % 9 + 4, i + 4, (i + 1) % 9 + 4
        facets += [(a, b, cur), (a, prev, cur), (cur, nxt, 13)]
    return [SimplicialComplex(13, facets), SimplicialComplex(14, [f + (14,) for f in facets])]


def test_reisner_cm_matches_the_reference_scan_on_graphs_up_to_7():
    for g in enumerate_graphs_up_to(7).graphs:
        assert_graph_path_matches_reference(g)


def test_disconnected_link_search_matches_the_brute_force_scan_up_to_7():
    hits = 0
    for g in enumerate_graphs_up_to(7).graphs:
        cx = independence_complex(g)
        if not cx.is_pure():
            continue
        found = cohen_macaulay._has_disconnected_link(_complement_masks(g), cx.dimension())
        assert found == oracles.disconnected_link_brute(cx.facets), g.edges
        hits += found
    # 237 classes have a pure Ind(G); 51 are not CM, and a disconnected
    # link refutes all but one of them
    assert hits == 50


def test_disconnected_link_search_matches_the_brute_force_scan_on_labelled_graphs_at_8_and_9():
    # labelled graphs, not class representatives, so the walk meets vertex
    # orders the test above does not; sparse ones give pure complexes up to
    # dimension 5, so faces of up to 4 vertices are walked
    hits = 0
    dims = set()
    for n in (8, 9):
        for i, p in enumerate((0.3, 0.5, 0.7)):
            graphs = oracles.random_graphs(600, n, seed=3400 + 10 * n + i, p=p)
            pure = [(g, cx) for g in graphs if (cx := independence_complex(g)).is_pure()]
            for g, cx in pure[:12]:
                found = cohen_macaulay._has_disconnected_link(_complement_masks(g), cx.dimension())
                assert found == oracles.disconnected_link_brute(cx.facets), g.edges
                hits += found
                dims.add(cx.dimension())
    # 72 graphs, 12 per (n, p); a disconnected link refutes 14 of them
    assert hits == 14 and dims == {1, 2, 3, 4, 5}


def c4_plus_whiskered_p5() -> Graph:
    """Pure but not CM: the 4-cycle beside the whiskered path on 5 vertices."""
    p5 = whiskered_path(5)
    edges = [(1, 2), (2, 3), (3, 4), (1, 4)] + [(u + 4, v + 4) for u, v in p5.edges]
    return Graph(4 + p5.n, edges)


def test_reisner_cm_matches_the_reference_scan_on_named_complexes(fig1):
    named_graphs = (fig1, whiskered_path(5), whiskered_path(6), c4_plus_whiskered_p5())
    for g in named_graphs:
        assert_graph_path_matches_reference(g)
    complexes = rp2_family() + mod3_moore_family()
    complexes += [boundary_sphere(d) for d in range(1, 5)]
    for cx in complexes:
        for field in (Q, F2, F3):
            assert reisner_cm(cx, field) == oracles.reisner_cm_reference(cx, field), cx


def test_scan_links_each_intersection_of_facets_with_a_link_to_check(monkeypatch, fig1):
    # Ind(whiskered P5) is CM, so the scan runs to its end.  It links the
    # faces F that equal the intersection of the facets containing them and
    # whose link has dimension >= 1; every other link is a cone or has
    # nothing to check below degree 0.  The graph path certifies whiskered
    # P5 without a scan, so it links nothing there; on fig1, which the
    # certificate leaves to the scan, it links what reisner_cm links.
    from cmgraph.complexes import link

    g = whiskered_path(5)
    cx = independence_complex(g)
    facets = [set(k) for k in cx.facets]
    faces = []
    for face in cx.all_faces():
        above = [k for k in facets if set(face) <= k]
        if max(len(k) for k in above) - len(face) - 1 >= 1:
            faces.append((face, set.intersection(*above) == set(face)))
    expected = [face for face, closed in faces if closed]
    assert 0 < len(expected) < len(faces)

    calls = []

    def counted(c, face):
        calls.append(tuple(face))
        return link(c, face)

    monkeypatch.setattr(cohen_macaulay, "link", counted)
    for field in (Q, F2, F3):
        calls.clear()
        assert reisner_cm(cx, field).is_cm
        assert calls == expected
        calls.clear()
        assert cm_characteristic_profile(g, [field])[0].is_cm
        assert calls == []
    assert all(r.is_cm for r in cm_characteristic_profile(g, [Q, F2, F3]))
    assert calls == []
    # one scan over three fields links what a one-field scan links
    assert all(r.is_cm for r in cohen_macaulay._reisner_scan(cx, [Q, F2, F3]))
    assert calls == expected

    calls.clear()
    assert reisner_cm(independence_complex(fig1), Q).is_cm
    expected = list(calls)
    assert expected
    calls.clear()
    assert cm_characteristic_profile(fig1, [Q])[0].is_cm
    assert calls == expected


def test_link_verdicts_by_connectivity_equal_reduced_betti_on_every_link():
    # every distinct link of Ind(G) for every class up to n = 7 and for the
    # named graphs: the verdict and the failing degree, the witness index,
    # over Q, F_2 and F_3 equal those read off reduced_betti, and a link of
    # dimension 1 or more fails in degree 0 iff a breadth-first search over
    # vertex sets finds its 1-skeleton disconnected
    from cmgraph.complexes import link
    from cmgraph.fixtures import fig1_graph
    from cmgraph.homology import reduced_betti

    start = time.process_time()

    spider = Graph(12, [(1, 2), (2, 3), (1, 4), (4, 5), (1, 6)] + [(v, v + 6) for v in range(1, 7)])
    graphs = list(enumerate_graphs_up_to(7).graphs)
    graphs += [whiskered_path(7), spider, c4_plus_whiskered_p5(), fig1_graph()]
    links = {}
    for g in graphs:
        cx = independence_complex(g)
        for face in cx.all_faces():
            lk = link(cx, face)
            links.setdefault(lk.facets, lk)
    kinds = set()
    for lk in links.values():
        first = cohen_macaulay._link_failures(lk, [Q, F2, F3])
        d = lk.dimension()
        for field in (Q, F2, F3):
            betti = reduced_betti(lk, field)
            expected = next((i for i in range(-1, d) if betti[i + 1]), None)
            assert first[field] == expected, (lk.facets, field)
            if field == Q and d >= 1:
                # connected iff the reduced Betti number in degree 0 vanishes
                kinds.add((min(d, 2), betti[1] == 0))
        if d >= 1:
            skeleton = oracles.graph_from_edges(
                lk.n, {e for k in lk.facets for e in itertools.combinations(k, 2)}
            )
            reached = oracles.component_reference(skeleton, skeleton.vertices)[0]
            assert (first[Q] == 0) == (len(reached) < lk.n), lk.facets
    # disconnected links of dimension 1 and 2 or more, connected ones of
    # dimension 1 (settled) and 2 or more (reduced)
    assert {(1, False), (1, True), (2, False), (2, True)} <= kinds
    assert time.process_time() - start < 3.0


def test_whiskered_p8_is_cm_over_the_rationals():
    # whiskered trees are CM over every field
    assert cm_characteristic_profile(whiskered_path(8), [Q])[0].is_cm is True


def test_whiskered_p8_is_cm_over_f3():
    assert cm_characteristic_profile(whiskered_path(8), [F3])[0].is_cm is True


@pytest.mark.extended
def test_whiskered_p10_is_cm_over_q_f2_and_f3():
    # 20 vertices: the graph path certifies it by shedding vertices, and the
    # Reisner scan of the bare complex, 1,000-odd links, agrees per field
    g = whiskered_path(10)
    reports = cm_characteristic_profile(g, [Q, F2, F3])
    assert [r.is_cm for r in reports] == [True, True, True]
    cx = independence_complex(g)
    for field in (Q, F2, F3):
        assert reisner_cm(cx, field) == CMReport(field, True, None)


@pytest.mark.parametrize("k", [5, 6, 7])
def test_c4_beside_a_whiskered_path_fails_as_the_reference_scan_does(k):
    # the certificate fails on C4, so the scan decides; its links are
    # strong-collapsed before they are reduced, the reference's are not
    g = oracles.c4_beside_whiskered_path(k)
    reports = cm_characteristic_profile(g, [Q, F2, F3])
    cx = independence_complex(g)
    assert reports == [oracles.reisner_cm_reference(cx, field) for field in (Q, F2, F3)]
    assert not any(r.is_cm for r in reports)


@pytest.mark.parametrize("k", [4, pytest.param(5, marks=pytest.mark.extended)])
def test_disjoint_c5s_are_decided_by_the_scan_over_q_f2_and_f3(k):
    # C5 has no dominated pair, so no shedding vertex certifies k disjoint
    # C5s (5k vertices, CM) and the scan links every face up to size 2k - 2
    edges = [(5 * i + j, 5 * i + j % 5 + 1) for i in range(k) for j in range(1, 6)]
    g = Graph(5 * k, edges)
    assert cohen_macaulay._shedding_alpha(g) is None
    reports = cm_characteristic_profile(g, [Q, F2, F3])
    assert reports == [CMReport(field, True, None) for field in (Q, F2, F3)]
    cx = independence_complex(g)
    assert reports == [reisner_cm(cx, field) for field in (Q, F2, F3)]


# ---------------------------------------------------------------------------
# the shedding-vertex certificate the graph path tries before the scan


def test_certificate_agrees_with_the_scan_and_the_oracles_on_graphs_up_to_7():
    # the certificate searches for exactly the decompositions of pure
    # complexes the oracle reads as shelling orders, and a pure shelling
    # order is CM over every field; the profiles themselves are checked
    # against the reference scan by
    # test_reisner_cm_matches_the_reference_scan_on_graphs_up_to_7
    hits = 0
    for g in enumerate_graphs_up_to(7).graphs:
        cx = independence_complex(g)
        order = oracles.shedding_shelling_order(g)
        alpha = cohen_macaulay._shedding_alpha(g)
        assert (alpha is not None) == (cx.is_pure() and order is not None), g.edges
        if alpha is not None:
            hits += 1
            assert alpha == cx.dimension() + 1, g.edges
            assert sorted(order) == sorted(cx.facets), g.edges
            assert is_shelling_order(order), g.edges
    assert hits == 156


def test_certificate_on_an_impure_and_on_edgeless_graphs():
    # P3 decomposes, but Ind(P3) = {2} + {1, 3} is not pure
    p3 = oracles.path_graph(3)
    assert cohen_macaulay._shedding_alpha(p3) is None
    witness = PurityWitness(facet_small=(2,), facet_large=(1, 3))
    assert cm_characteristic_profile(p3, [Q, F2]) == [
        CMReport(Q, False, witness),
        CMReport(F2, False, witness),
    ]
    # an empty core answers 0, and each cone point adds 1
    assert cohen_macaulay._shedding_alpha(Graph(0)) == 0
    assert cohen_macaulay._shedding_alpha(Graph(3)) == 3


def test_certified_profile_keeps_the_order_and_repeats_of_fields(monkeypatch):
    # and builds no Ind(G): the certificate reads G's vertex masks only
    def refuse(*args):
        raise AssertionError("a certified graph was scanned")

    monkeypatch.setattr(cohen_macaulay, "independence_complex", refuse)
    monkeypatch.setattr(cohen_macaulay, "_reisner_scan", refuse)
    assert cm_characteristic_profile(whiskered_path(7), [Q, F2, Q]) == [
        CMReport(Q, True, None),
        CMReport(F2, True, None),
        CMReport(Q, True, None),
    ]


def test_certificate_memoises_core_masks_only(monkeypatch):
    # the whiskered P64 decomposes through 64 cores, the whiskered paths on
    # its last 64, 63, ..., 1 path vertices, and the search reaches the
    # shortest with the 63 others on its stack: 64 is the least cap that
    # certifies it
    g = whiskered_path(64)
    monkeypatch.setattr(cohen_macaulay, "SHEDDING_MEMO_CAP", 64)
    assert cohen_macaulay._shedding_alpha(g) == 64
    monkeypatch.setattr(cohen_macaulay, "SHEDDING_MEMO_CAP", 63)
    assert cohen_macaulay._shedding_alpha(g) is None


def test_certificate_at_its_cap_leaves_the_verdict_to_the_scan(monkeypatch, fig1):
    monkeypatch.setattr(cohen_macaulay, "SHEDDING_MEMO_CAP", 1)
    p7 = whiskered_path(7)
    assert cohen_macaulay._shedding_alpha(p7) is None
    for g in (p7, fig1):
        cx = independence_complex(g)
        for fields in PROFILE_FIELD_LISTS:
            assert cm_characteristic_profile(g, fields) == cohen_macaulay._reisner_scan(
                cx, fields
            ), (g.edges, fields)


def test_certificate_on_k512_keeps_its_own_stack():
    # every vertex of K_512 sheds, one mask per vertex deleted: 512 frames
    # deep, with Ind(K_512) the 512 points
    reports = cm_characteristic_profile(oracles.complete_graph(512), [Q, F2, F3])
    assert reports == [CMReport(f, True, None) for f in (Q, F2, F3)]


def test_reisner_scan_builds_no_face_level_above_its_witness():
    # Ind(C4 + whiskered P5) has 1,147 faces up to dimension 6; the scan
    # over Q stops at a face of 2 vertices
    cx = independence_complex(oracles.c4_beside_whiskered_path(5))
    report = reisner_cm(cx, Q)
    assert report.witness == HomologyWitness((11, 13), 3)
    assert cx.dimension() == 6
    assert sorted(cx._faces_by_dim) == [0, 1]


def test_reports_are_deterministic(fig1):
    cx = independence_complex(fig1)
    assert reisner_cm(cx, F2) == reisner_cm(cx, F2)


# ---------------------------------------------------------------------------
# bipartite matching orderings


def test_ordering_exists_for_path_on_four_vertices():
    g = oracles.path_graph(4)
    order = bipartite_cm_ordering(g)
    assert order is not None
    assert hh_conditions_hold(g, order.pairs)
    assert not hh_conditions_hold(g, tuple(reversed(order.pairs)))


def test_ordering_pairs_form_a_perfect_matching():
    # path 1-2-3 with a pendant vertex hung on each path vertex
    g = oracles.graph_from_edges(6, [(1, 2), (2, 3), (1, 4), (2, 5), (3, 6)])
    order = bipartite_cm_ordering(g)
    assert order is not None
    seen = [v for pair in order.pairs for v in pair]
    assert sorted(seen) == list(range(1, 7))
    assert all(tuple(sorted(p)) in set(g.edges) for p in order.pairs)


def test_no_ordering_for_k22_or_c6():
    assert bipartite_cm_ordering(oracles.complete_bipartite(2, 2)) is None
    assert bipartite_cm_ordering(oracles.cycle_graph(6)) is None


def test_unequal_parts_give_none_and_nonbipartite_raises():
    assert bipartite_cm_ordering(oracles.path_graph(3)) is None
    with pytest.raises(ValueError):
        bipartite_cm_ordering(oracles.complete_graph(3))


def test_single_edge_ordering():
    order = bipartite_cm_ordering(oracles.path_graph(2))
    assert order is not None and order.pairs == ((1, 2),)


def test_ordering_matches_the_every_matching_search_on_every_bipartite_class_to_n9():
    # connected or not: the one augmenting-path matching gives the ordering
    # the reference finds by trying every perfect matching in turn
    graphs = enumerate_graphs_up_to(9, GraphFilters(r_partite=2)).graphs
    found = 0
    for g in graphs:
        order = bipartite_cm_ordering(g)
        assert order == oracles.hh_ordering_reference(g), g.edges
        found += order is not None
    assert found > 0 and not is_connected(graphs[0])


def test_ordering_exists_exactly_when_poset_graphs_to_14_vertices_are_cm():
    # beyond the exhaustive classes: poset graphs are CM, and a toggled
    # cross edge may break that; the degree sort must find every ordering
    graphs = oracles.poset_graphs(400, 7, seed=25)
    cm_count = 0
    for g in graphs:
        order = bipartite_cm_ordering(g)
        is_cm = cm_characteristic_profile(g, [Q])[0].is_cm
        assert (order is not None) == is_cm, g.edges
        assert order is None or hh_conditions_hold(g, order.pairs)
        cm_count += is_cm
    assert max(g.n for g in graphs) == 14 and 0 < cm_count < len(graphs)


def test_pairs_that_are_not_edges_fail_the_conditions():
    # one pair leaves conditions (2) and (3) nothing to check
    assert hh_conditions_hold(oracles.path_graph(2), ((1, 2),))
    assert not hh_conditions_hold(Graph(2, []), ((1, 2),))
    p4 = oracles.path_graph(4)
    assert hh_conditions_hold(p4, ((3, 4), (1, 2)))
    assert not hh_conditions_hold(p4, ((1, 3), (2, 4)))


def test_no_ordering_for_k10_10_without_enumerating_its_matchings():
    # the every-matching search tries all 10! perfect matchings here
    assert bipartite_cm_ordering(oracles.complete_bipartite(10, 10)) is None


def test_hh_conditions_equal_the_verbatim_triple_loop_on_random_pair_orders():
    # pairs of poset graphs: their orderings, those orderings shuffled, and
    # random pairings of the two parts, either way round
    rng = random.Random(26)
    verdicts = []
    for g in oracles.poset_graphs(300, 6, seed=26):
        left, right = r_partition(g, 2)
        candidates = []
        order = bipartite_cm_ordering(g)
        if order is not None:
            candidates.append(order.pairs)
            candidates += [tuple(rng.sample(order.pairs, len(order.pairs))) for _ in range(3)]
        for _ in range(3):
            vs, ws = rng.sample(left, len(left)), rng.sample(right, len(right))
            if rng.random() < 0.5:
                vs, ws = ws, vs
            candidates.append(tuple(zip(vs, ws)))
        for pairs in candidates:
            held = hh_conditions_hold(g, pairs)
            assert held == oracles.hh_conditions_hold_reference(g, pairs), (g.edges, pairs)
            verdicts.append(held)
    assert 0 < sum(verdicts) < len(verdicts)


def test_pair_rows_equal_the_rows_built_with_has_edge():
    # seeded random pairs on random graphs, with vertices 0, -1 and n + 1
    # to 2 * n among them: a vertex outside 1..n is adjacent to nothing
    rng = random.Random(35)
    for _ in range(200):
        n = rng.randint(1, 9)
        g = Graph(n, [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.4])
        pairs = tuple(
            (rng.randint(-1, 2 * n), rng.randint(-1, 2 * n)) for _ in range(rng.randint(0, 8))
        )
        rows = [
            sum(1 << j for j, (_, w) in enumerate(pairs) if g.has_edge(v, w)) for v, _ in pairs
        ]
        assert cohen_macaulay._pair_rows(g, pairs) == rows, (g.edges, pairs)
        assert hh_conditions_hold(g, pairs) == oracles.hh_conditions_hold_reference(g, pairs)


def test_hh_conditions_read_pairs_once_and_reject_what_is_not_pairs():
    c4 = oracles.cycle_graph(4)
    assert not hh_conditions_hold(c4, [(1, 2), (3, 4)])
    assert not hh_conditions_hold(c4, (pair for pair in [(1, 2), (3, 4)]))
    with pytest.raises(ValueError, match="^pairs 5 is not iterable$"):
        hh_conditions_hold(c4, 5)
    with pytest.raises(ValueError, match=r"^pair \(1,\) is not a pair$"):
        hh_conditions_hold(c4, [(1,)])


@pytest.mark.parametrize("bad", [True, 1.0, "1", None])
def test_pair_rows_reject_a_vertex_that_is_not_an_integer(bad):
    p4 = oracles.path_graph(4)
    for pairs in (((1, 2), (3, bad)), ((bad, 2),), ((3, 4), (bad, 9))):
        with pytest.raises(ValueError, match="is not an integer"):
            hh_conditions_hold(p4, pairs)


def test_ordering_of_a_whiskered_path_on_800_vertices_in_quadratic_time():
    # the conditions test each v_i ~ w_j once, not once per third pair
    g = whiskered_path(400)
    start = time.process_time()
    order = bipartite_cm_ordering(g)
    assert time.process_time() - start < 0.5
    assert order is not None and len(order.pairs) == 400


@pytest.mark.parametrize("k", [20, 100])
def test_no_ordering_without_a_perfect_matching_in_polynomial_time(k):
    g = hall_violator(k)
    assert is_connected(g) and r_partition(g, 2) == (
        tuple(range(1, k + 1)),
        tuple(range(k + 1, 2 * k + 1)),
    )
    start = time.process_time()
    assert bipartite_cm_ordering(g) is None
    assert time.process_time() - start < 1.0


def test_ordering_existence_matches_reisner_on_connected_bipartite_graphs():
    """The matching-order test and the homological test agree, n <= 7.

    Connectivity matters: the edgeless graph on two vertices is
    Cohen-Macaulay (its independence complex is a simplex) yet has no
    perfect matching at all.
    """
    for g in enumerate_graphs_up_to(7).graphs:
        if r_partition(g, 2) is None or not is_connected(g):
            continue
        exists = bipartite_cm_ordering(g) is not None
        assert exists == cm_characteristic_profile(g, [Q])[0].is_cm, g.edges
        assert exists == cm_characteristic_profile(g, [F2])[0].is_cm, g.edges
