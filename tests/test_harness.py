import hashlib
import itertools
import json
import os
import random
import re
import tracemalloc
import weakref

import pytest

import oracles
from cmgraph import cohen_macaulay, harness
from cmgraph.cli import main
from cmgraph.complexes import SimplicialComplex, independence_complex, is_shellable
from cmgraph.covers import (
    alpha_clique_cover,
    degree_r_minus_1_vertices,
    perfect_r_matchings,
)
from cmgraph.graphs import (
    MAX_CANONICAL_N,
    Graph,
    _augment,
    _complement_masks,
    _free_classes,
    all_r_partitions,
    canonical_form,
    cliques_of_size,
    is_connected,
    is_k_colorable,
    is_perfect,
    is_unmixed,
    maximal_cliques,
    r_partition,
)
from cmgraph.harness import (
    CLAIMS,
    GraphEnsemble,
    GraphFilters,
    enumerate_graphs,
    enumerate_graphs_up_to,
    run_battery,
)
from cmgraph.homology import FieldSpec

Q = FieldSpec(0)
F2 = FieldSpec(2)
F3 = FieldSpec(3)

# unlabeled graph counts, n = 1..7 (OEIS A000088)
UNFILTERED_COUNTS = [1, 2, 4, 11, 34, 156, 1044]

# Every class the r=3, n<=9 degree sweep reports, in canonical order, as
# (canonical form, edges labelled by canonical position).  Each is certified
# by the oracles alone in test_acceptance.py: CM over Q and F_2, a unique
# 3-partition, only triangles as maximal cliques, three cliques cover it,
# a unique perfect 3-matching, and minimum degree 3 rather than r - 1 = 2.
R3_DEGREE_COUNTEREXAMPLES = (
    ("9:0.0.0.1.4.10.f.6b.eb", (
        (1, 6), (1, 8), (1, 9), (2, 5), (2, 8), (2, 9), (3, 4), (3, 7),
        (3, 9), (4, 7), (4, 8), (5, 7), (5, 9), (6, 7), (6, 8), (7, 8),
        (7, 9), (8, 9),
    )),
    ("9:0.0.0.1.5.13.1b.5d.d7", (
        (1, 6), (1, 8), (1, 9), (2, 5), (2, 7), (2, 9), (3, 4), (3, 7),
        (3, 8), (4, 5), (4, 6), (4, 8), (4, 9), (5, 6), (5, 7), (5, 8),
        (6, 7), (6, 9), (7, 8), (7, 9), (8, 9),
    )),
    ("9:0.0.0.1.5.15.35.75.3f", (
        (1, 6), (1, 7), (1, 8), (2, 5), (2, 7), (2, 8), (3, 4), (3, 6),
        (3, 8), (3, 9), (4, 5), (4, 7), (4, 9), (5, 6), (5, 8), (5, 9),
        (6, 7), (6, 9), (7, 8), (7, 9), (8, 9),
    )),
    ("9:0.0.0.1.9.d.3a.5b.5f", (
        (1, 5), (1, 7), (1, 8), (2, 6), (2, 7), (2, 9), (3, 4), (3, 6),
        (3, 7), (3, 8), (4, 5), (4, 8), (4, 9), (5, 6), (5, 7), (5, 9),
        (6, 8), (6, 9), (7, 8), (7, 9), (8, 9),
    )),
    ("9:0.0.0.4.4.7.2e.67.77", (
        (1, 4), (1, 7), (1, 8), (2, 5), (2, 8), (2, 9), (3, 6), (3, 7),
        (3, 9), (4, 6), (4, 7), (4, 9), (5, 6), (5, 7), (5, 8), (6, 8),
        (6, 9), (7, 8), (7, 9), (8, 9),
    )),
    ("9:0.0.0.4.4.7.39.5d.5f", (
        (1, 4), (1, 7), (1, 8), (2, 5), (2, 7), (2, 9), (3, 6), (3, 7),
        (3, 8), (4, 6), (4, 8), (4, 9), (5, 6), (5, 8), (5, 9), (6, 7),
        (6, 9), (7, 8), (7, 9), (8, 9),
    )),
    ("9:0.1.0.0.1.5.1d.5d.cf", (
        (1, 2), (1, 8), (1, 9), (2, 7), (2, 9), (3, 6), (3, 7), (3, 8),
        (4, 5), (4, 7), (4, 8), (5, 6), (5, 8), (5, 9), (6, 7), (6, 9),
        (7, 8), (7, 9), (8, 9),
    )),
    ("9:0.1.0.0.2.3.39.5d.5f", (
        (1, 2), (1, 7), (1, 8), (2, 7), (2, 9), (3, 5), (3, 7), (3, 8),
        (4, 6), (4, 8), (4, 9), (5, 6), (5, 8), (5, 9), (6, 7), (6, 9),
        (7, 8), (7, 9), (8, 9),
    )),
)


# Every class the r=4, n<=8 degree sweep reports, in the same form.  Each is
# certified by the oracles alone in test_acceptance.py: CM over Q and F_2, a
# unique 4-partition, only K4 as maximal cliques, two cliques cover it, a
# unique perfect 4-matching, and minimum degree 4 rather than r - 1 = 3.
R4_DEGREE_COUNTEREXAMPLES = (
    ("8:0.0.1.4.7.17.37.77", (
        (1, 4), (1, 6), (1, 7), (1, 8), (2, 3), (2, 5), (2, 7), (2, 8),
        (3, 5), (3, 6), (3, 8), (4, 5), (4, 6), (4, 7), (5, 6), (5, 7),
        (5, 8), (6, 7), (6, 8), (7, 8),
    )),
    ("8:0.0.1.5.d.1d.1f.5f", (
        (1, 4), (1, 5), (1, 6), (1, 8), (2, 3), (2, 5), (2, 6), (2, 7),
        (3, 4), (3, 6), (3, 7), (3, 8), (4, 5), (4, 7), (4, 8), (5, 6),
        (5, 7), (5, 8), (6, 7), (6, 8), (7, 8),
    )),
)


# ---------------------------------------------------------------------------
# enumeration


def test_unfiltered_class_counts():
    for n, expected in enumerate(UNFILTERED_COUNTS, start=1):
        assert len(enumerate_graphs(n).graphs) == expected


def test_connected_count_n4():
    ens = enumerate_graphs(4, GraphFilters(connected=True))
    assert len(ens.graphs) == 6


def test_enumeration_is_deterministic_and_canonically_sorted():
    ens = enumerate_graphs(5)
    canons = [canonical_form(g) for g in ens.graphs]
    assert canons == sorted(canons)
    assert len(set(canons)) == len(canons)
    assert enumerate_graphs(5).graphs == ens.graphs


def test_filters_agree_with_post_hoc_predicates():
    filters = GraphFilters(
        connected=True, r_partite=2, max_clique_size=2, unmixed=True,
        perfect=True, class_g=True,
    )
    got = enumerate_graphs_up_to(5, filters).graphs
    expected = [
        g
        for g in enumerate_graphs_up_to(5).graphs
        if is_connected(g)
        and r_partition(g, 2) is not None
        and {len(c) for c in maximal_cliques(g)} == {2}
        and is_unmixed(g)
        and is_perfect(g)
        and alpha_clique_cover(g) is not None
    ]
    assert list(got) == expected


def test_enumeration_size_limit():
    with pytest.raises(ValueError):
        enumerate_graphs(MAX_CANONICAL_N + 1)


@pytest.mark.parametrize("n", [0, -3])
def test_no_vertex_bound_below_one_gives_a_vacuous_sweep(n):
    for call in (
        lambda: enumerate_graphs(n),
        lambda: enumerate_graphs_up_to(n),
        lambda: run_battery(n, r=2),
        lambda: run_battery(n, r=3),
    ):
        with pytest.raises(ValueError, match="n must be at least 1"):
            call()


def _plain_family(n, chi, omega):
    """The enumeration without twin pruning: every neighbourhood of every
    parent, ascending, each child validated by Graph.__init__, the first
    child of each class kept."""
    levels = [(Graph(1, ()),)]
    for k in range(2, n + 1):
        seen = {}
        for p in levels[-1]:
            for nbrs in range(1 << (k - 1)):
                child = Graph(k, p.edges + tuple(
                    (v, k) for v in range(1, k) if nbrs >> (v - 1) & 1
                ))
                if omega is not None and max(len(c) for c in maximal_cliques(child)) > omega:
                    continue
                if chi is not None and not is_k_colorable(child, chi):
                    continue
                seen.setdefault(canonical_form(child), child)
        levels.append(tuple(seen[key] for key in sorted(seen)))
    return levels


def _fields(graphs):
    """Graph.__eq__ compares n and edges only; the reports also read the
    masks, so every field must match."""
    return [tuple(getattr(g, s) for s in Graph.__slots__) for g in graphs]


@pytest.mark.parametrize("chi, omega", [(None, None), (2, 2), (3, 3)])
def test_twin_pruning_keeps_every_representative(chi, omega):
    assert [_fields(level) for level in harness._hereditary_family(7, chi, omega)] == [
        _fields(level) for level in _plain_family(7, chi, omega)
    ]


_REFERENCE_PREDICATES = {
    "connected": lambda g, _: is_connected(g),
    "r_partite": lambda g, r: r_partition(g, r) is not None,
    "max_clique_size": lambda g, s: {len(c) for c in maximal_cliques(g)} == {s},
    "unmixed": lambda g, _: is_unmixed(g),
    "perfect": lambda g, _: is_perfect(g),
    "class_g": lambda g, _: alpha_clique_cover(g) is not None,
}


def _unfiltered_family(n, chi, omega):
    """The enumeration with its top level built in full: every packed
    neighbourhood of every parent that passes the clique and colouring
    bounds, the first child of each class kept."""
    levels = [(Graph(1, ()),)]
    for _ in range(2, n + 1):
        seen = {}
        for p in levels[-1]:
            for nbrs in harness._packed_masks(p):
                if omega is not None and harness._mask_has_clique(p._masks, nbrs, omega):
                    continue
                child = _augment(p, nbrs)
                if chi is not None and not is_k_colorable(child, chi):
                    continue
                seen.setdefault(canonical_form(child), child)
        levels.append(tuple(seen[key] for key in sorted(seen)))
    return tuple(levels)


def _reference_ensembles(n_max, filter_sets, n_min=1):
    """harness._ensembles as a slow path: the unfiltered family, then every
    post-filter predicate, r_partition included, on every graph."""
    ((chi, omega),) = {harness._family_bounds(f) for f in filter_sets}
    graphs = [g for level in _unfiltered_family(n_max, chi, omega)[n_min - 1 :] for g in level]
    return [
        GraphEnsemble(n_max, f, tuple(
            g for g in graphs
            if all(
                predicate(g, getattr(f, field))
                for field, predicate in _REFERENCE_PREDICATES.items()
                if getattr(f, field) not in (None, False)
            )
        ))
        for f in filter_sets
    ]


def _battery_filter_sets(r):
    return list({cl.ensemble: cl.filters(r) for cl in CLAIMS.values() if cl.filters(r)}.values())


@pytest.mark.parametrize("r", [2, 3, 4])
def test_top_level_cut_keeps_every_ensemble_and_report_byte(tmp_path, monkeypatch, r):
    """The battery's ensembles up to n = 8, and its report and summary
    bytes, equal those of the slow path that builds the top level in full."""
    filter_sets = _battery_filter_sets(r)
    got = harness._ensembles(8, filter_sets)
    expected = _reference_ensembles(8, filter_sets)
    assert [_fields(e.graphs) for e in got] == [_fields(e.graphs) for e in expected]
    assert got == expected

    def reference(n_max, sets, n_min=1):
        # the slow path's graphs in (n, canonical form) order, each with
        # the indices of the ensembles that hold it
        assert (n_max, sets, n_min) == (8, filter_sets, 1)
        kept = {g for e in expected for g in e.graphs}
        for g in sorted(kept, key=lambda g: (g.n, canonical_form(g))):
            yield harness._Facts(g), [i for i, e in enumerate(expected) if g in e.graphs]

    fast, slow = tmp_path / "fast.jsonl", tmp_path / "slow.jsonl"
    fast_summary = run_battery(8, r=r, report_path=str(fast))
    monkeypatch.setattr(harness, "_scan", reference)
    slow_summary = run_battery(8, r=r, report_path=str(slow))
    assert fast.read_bytes() == slow.read_bytes()
    assert json.dumps(dict(fast_summary, report_path=None)) == json.dumps(
        dict(slow_summary, report_path=None)
    )


@pytest.mark.parametrize("filters, top", [
    (GraphFilters(), None),
    (GraphFilters(connected=True), 2),
    (GraphFilters(max_clique_size=2), 2),
    (GraphFilters(max_clique_size=3, unmixed=True), 3),
    (GraphFilters(max_clique_size=1), None),
    (GraphFilters(r_partite=3, max_clique_size=4), 4),
    (GraphFilters(r_partite=4, max_clique_size=4), 4),
])
def test_top_level_cut_keeps_enumerate_graphs(filters, top):
    assert harness._top_clique([filters]) == top
    got = enumerate_graphs(7, filters)
    (expected,) = _reference_ensembles(7, [filters], n_min=7)
    assert _fields(got.graphs) == _fields(expected.graphs)


def _in_s_cliques(g, s):
    """Whether every vertex and every edge of g lies in an s-clique, by
    subset enumeration."""
    cliques = [
        set(c) for c in itertools.combinations(g.vertices, s) if oracles.is_clique(g, c)
    ]
    return all(any(v in c for c in cliques) for v in g.vertices) and all(
        any(set(e) <= c for c in cliques) for e in g.edges
    )


def _accepted(g, chi, omega, s):
    """Whether g belongs to the top level of the family, by the oracles."""
    return (
        _in_s_cliques(g, s)
        and (omega is None or oracles.clique_number_brute(g) <= omega)
        and (chi is None or oracles.chromatic_number_brute(g) <= chi)
    )


def _needed(level, chi, omega, s):
    """The classes of a complete level that the level above needs: those
    meeting the clique condition for s themselves and the parents of an
    accepted child, found over every neighbourhood mask."""
    needed = []
    for p in level:
        k = p.n + 1
        if _in_s_cliques(p, s) or any(
            _accepted(Graph(k, p.edges + tuple(
                (v, k) for v in range(1, k) if nbrs >> (v - 1) & 1
            )), chi, omega, s)
            for nbrs in range(1 << p.n)
        ):
            needed.append(p)
    return needed


def _bare_ends(g, s):
    """The mask of the vertices and edge ends of g in no s-clique, by
    subset enumeration."""
    cliques = [
        set(c) for c in itertools.combinations(g.vertices, s) if oracles.is_clique(g, c)
    ]
    bare = [{v} for v in g.vertices] + [set(e) for e in g.edges]
    return sum(
        1 << v for v in set().union(*(b for b in bare if not any(b <= c for c in cliques)))
    )


@pytest.mark.parametrize("args", [(7, 3, 3, 3), (8, 4, 4, 4)])
def test_packed_masks_holding_x_are_the_packed_masks_admits_can_pass(args):
    """For every parent of the family and every clique size s from 2 to
    the top one, X, the vertices and edge ends in no s-clique, equals its
    subset enumeration, and the packed masks built to hold X are the packed
    masks that hold it, in the same order."""
    forced_parents = 0
    for level in harness._hereditary_family(*args)[:-1]:
        for p in level:
            for s in range(2, args[3] + 1):
                forced = harness._clique_tests(p, s)[0]
                assert forced == _bare_ends(p, s), (p.edges, s)
                assert harness._packed_masks(p, forced) == [
                    m for m in harness._packed_masks(p) if not forced & ~m
                ], (p.edges, s)
                forced_parents += forced != 0
    assert forced_parents > 100


_CUT_CASES = [(None, None, 2), (None, None, 3), (2, 2, 2), (3, 3, 3), (4, 4, 4)]


@pytest.mark.parametrize("chi, omega, top", _CUT_CASES)
def test_top_level_keeps_exactly_the_classes_meeting_the_clique_condition(chi, omega, top):
    """The cut drops no class it should keep and keeps none it should drop:
    the levels below n - 1 are complete, level n - 1 holds exactly the
    classes level n needs, and level n exactly the classes meeting the
    clique condition."""
    got = harness._hereditary_family(7, chi, omega, top)
    full = _unfiltered_family(7, chi, omega)
    assert [_fields(level) for level in got[:-2]] == [_fields(level) for level in full[:-2]]
    assert _fields(got[-2]) == _fields(_needed(full[-2], chi, omega, top))
    kept = [g for g in full[-1] if _in_s_cliques(g, top)]
    assert kept and _fields(got[-1]) == _fields(kept)


@pytest.mark.parametrize("chi, omega, top", _CUT_CASES)
def test_level_n_minus_1_drops_no_parent_of_an_accepted_child(chi, omega, top):
    """By brute force over every mask, for n = 3..6 (n = 7 is the test
    above): no class the cut drops from level n - 1 has an accepted child,
    and at chi = omega = s = 3, where the test is exact, every class it
    keeps has one or meets the clique condition itself."""
    for n in range(3, 7):
        got = harness._hereditary_family(n, chi, omega, top)
        full = harness._hereditary_family(n - 1, chi, omega)[-1]
        kept = set(got[-2])
        assert kept <= set(full)
        needed = set(_needed(full, chi, omega, top))
        assert needed <= kept, n
        if (chi, omega, top) == (3, 3, 3):
            assert kept == needed, n


@pytest.mark.parametrize("chi", [2, 3, 4])
def test_free_classes_decide_every_childs_colourability(chi):
    """The family's colour test, a neighbourhood missing one of the parent's
    free classes, equals is_k_colorable on every labelled child the
    enumeration builds up to n = 8."""
    children = 0
    for level in harness._hereditary_family(7, chi, chi):
        for p in level:
            free = _free_classes(p, chi)
            for nbrs in harness._packed_masks(p):
                misses_one = any(not nbrs & b for b in free)
                assert misses_one == is_k_colorable(_augment(p, nbrs), chi), (p.edges, nbrs)
                children += 1
    assert children > 8000


def test_free_classes_are_the_minimal_sets_leaving_k_minus_1_colours():
    """_free_classes against its definition, by the oracles, on every
    labelled graph up to n = 5 and k = 1..4: the inclusion-minimal
    independent sets whose removal leaves chromatic number below k."""
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
            for k in range(1, 5):
                free = []
                for size in range(n + 1):
                    for b in itertools.combinations(g.vertices, size):
                        rest = [v for v in g.vertices if v not in b]
                        if (
                            oracles.is_independent(g, b)
                            and not any(set(c) <= set(b) for c in free)
                            and oracles.chromatic_number_brute(
                                oracles.graph_from_edges(len(rest), [
                                    (rest.index(u) + 1, rest.index(v) + 1)
                                    for u, v in g.edges if u in rest and v in rest
                                ])
                            ) < k
                        ):
                            free.append(b)
                got = [tuple(v for v in g.vertices if b >> v & 1) for b in _free_classes(g, k)]
                assert got == free, (g.edges, k)


# Filter set lists that share a family but not a clique size.
@pytest.mark.parametrize("filter_sets, top", [
    # a connected set only implies no isolated vertex
    ([GraphFilters(r_partite=2, max_clique_size=2),
      GraphFilters(r_partite=2, max_clique_size=3, unmixed=True),
      GraphFilters(r_partite=2, connected=True)], 2),
    # edgeless graphs pass max_clique_size = 1, so that set implies nothing
    ([GraphFilters(max_clique_size=1),
      GraphFilters(max_clique_size=1, connected=True)], None),
    # every edge in a K4 implies every edge in a triangle
    ([GraphFilters(r_partite=3, max_clique_size=4, perfect=True),
      GraphFilters(r_partite=3, max_clique_size=3),
      GraphFilters(r_partite=3, max_clique_size=4, unmixed=True)], 3),
])
def test_top_level_cut_keeps_mixed_filter_sets(filter_sets, top):
    assert harness._top_clique(filter_sets) == top
    got = harness._ensembles(7, filter_sets)
    expected = _reference_ensembles(7, filter_sets)
    assert [_fields(e.graphs) for e in got] == [_fields(e.graphs) for e in expected]
    assert any(e.graphs for e in got)


def test_enumeration_matches_the_networkx_atlas():
    """graph_atlas_g lists every graph on at most 7 vertices once, from code
    that shares nothing with the package."""
    networkx = pytest.importorskip("networkx")
    atlas: dict[int, set[bytes]] = {}
    for h in networkx.graph_atlas_g():
        n = h.number_of_nodes()
        if n >= 1:
            g = Graph(n, [(u + 1, v + 1) for u, v in h.edges()])
            atlas.setdefault(n, set()).add(canonical_form(g))
    ours: dict[int, set[bytes]] = {}
    for g in enumerate_graphs_up_to(7).graphs:
        ours.setdefault(g.n, set()).add(canonical_form(g))
    assert {n: len(f) for n, f in atlas.items()} == dict(enumerate(UNFILTERED_COUNTS, 1))
    assert ours == atlas


# ---------------------------------------------------------------------------
# sweeps


def claim_ensemble(claim, n_max, r):
    """The ensemble a claim of the table reads, up to n_max vertices."""
    return enumerate_graphs_up_to(n_max, CLAIMS[claim].filters(r))


def verdict_of(summary, name):
    """The one verdict of a run_battery summary with that full claim name."""
    (verdict,) = [v for v in summary["verdicts"] if v["claim"] == name]
    return verdict


def test_degree_sweep_holds_for_bipartite_through_n6():
    verdict = verdict_of(run_battery(6, r=2), "main-theorem r=2 char=0")
    assert verdict["counterexamples"] == []
    assert verdict["graphs_checked"] == len(claim_ensemble("main-theorem", 6, 2).graphs)


def test_uniqueness_sweep_holds_for_bipartite_through_n6():
    verdict = verdict_of(run_battery(6, r=2), "uniqueness-corollary r=2 char=0")
    assert verdict["counterexamples"] == []


def test_bipartite_equivalences_small():
    verdict = verdict_of(run_battery(6, r=2), "bipartite-equivalences n<=6")
    assert verdict["counterexamples"] == []
    assert verdict["graphs_checked"] == 27  # connected bipartite classes, n 2..6


def test_converse_fails_already_at_n6():
    """Degree-one vertex plus unique matching does not force Cohen-Macaulay."""
    ens = claim_ensemble("converse", 6, 2)
    by_canon = {canonical_form(g).decode(): g for g in ens.graphs}
    found = [by_canon[canon] for canon in run_battery(6, r=2)["converse_candidates"]["0"]]
    assert [(g.n, g.edges) for g in found] == [
        (6, ((1, 4), (1, 5), (2, 5), (2, 6), (3, 6)))  # a relabeled 6-path
    ]


def _blocks_matched_brute(g, a, b):
    """Equal blocks with a perfect matching between them, by permutations."""
    return len(a) == len(b) and any(
        all(oracles.is_clique(g, (u, w)) for u, w in zip(sorted(a), perm))
        for perm in itertools.permutations(sorted(b))
    )


@pytest.mark.parametrize("r", [2, 3])
def test_char_free_claims_agree_with_oracles_through_n6(r):
    """The counterexamples of the two claims that read no characteristic
    are exactly the ones the brute-force oracles find."""
    summary = run_battery(6, r)
    ens = claim_ensemble("alpha-clique-cover", 6, r)
    assert ens.graphs
    verdict = verdict_of(summary, f"alpha-clique-cover r={r}")
    expected = [
        canonical_form(g).decode()
        for g in ens.graphs
        if oracles.clique_cover_number_brute(g) != oracles.independence_number_brute(g)
    ]
    assert verdict["graphs_checked"] == len(ens.graphs)
    assert [canon for canon, _ in verdict["counterexamples"]] == expected

    ens = claim_ensemble("parts-equal-and-matched", 6, r)
    assert ens.graphs
    verdict = verdict_of(summary, f"parts-equal-and-matched r={r}")
    expected = [
        canonical_form(g).decode()
        for g in ens.graphs
        if not all(
            _blocks_matched_brute(g, a, b)
            for parts in oracles.all_r_partitions_brute(g, r)
            for a, b in itertools.combinations(parts, 2)
        )
    ]
    assert verdict["graphs_checked"] == len(ens.graphs)
    assert [canon for canon, _ in verdict["counterexamples"]] == expected


def test_char_free_records_skip_the_cm_decider(monkeypatch):
    def refuse(*args):
        raise AssertionError("the CM decider ran without characteristics")

    monkeypatch.setattr(harness, "_graph_cm", refuse)
    records = harness.compute_records(enumerate_graphs_up_to(4).graphs, 2, ())
    assert records and all(rec["cm"] == {} for _, rec in records.values())


def _certified_and_cm(n_max, r):
    """The size of the main ensemble at r on up to n_max vertices and how
    many of its graphs are unmixed and certified by shedding vertices,
    asserting on the way that these are exactly the graphs the Reisner scan
    finds CM over chars 0, 2 and 3, and that the records' verdicts agree."""
    graphs = enumerate_graphs_up_to(n_max, harness._main_filters(r)).graphs
    certified = 0
    for g in graphs:
        cx = independence_complex(g)
        q, f2, f3 = cohen_macaulay._reisner_scan(cx, [Q, F2, F3])
        hit = cohen_macaulay._shedding_alpha(g) is not None
        assert q.is_cm == f2.is_cm == f3.is_cm == hit, g.edges
        sets, co = list(cx.facets), _complement_masks(g)
        assert cohen_macaulay._graph_cm(g, sets, [Q, F2, F3], co) == [hit] * 3, g.edges
        certified += hit
    return len(graphs), certified


@pytest.mark.parametrize("r, sizes", [(2, (302, 19)), (3, (513, 5)), (4, (115, 15))])
def test_certificate_finds_exactly_the_cm_graphs_of_the_main_ensembles(r, sizes):
    assert _certified_and_cm(8, r) == sizes


@pytest.mark.extended
@pytest.mark.parametrize("r, sizes", [(2, (1118, 19)), (3, (4939, 158)), (4, (948, 15))])
def test_certificate_finds_exactly_the_cm_graphs_of_the_main_ensembles_at_n9(r, sizes):
    assert _certified_and_cm(9, r) == sizes


POOL = os.path.join(
    os.path.dirname(__file__), os.pardir, "perfbench", "data", "records-pool.txt"
)


def _pool_graphs(step):
    """Every step-th graph of the pinned 9-vertex pool of 3-partite graphs,
    with its pinned record digest.  A line holds the upper triangle of the
    adjacency matrix as hex, bit i for the i-th pair (u, v), u < v, in
    lexicographic order, then the digest."""
    pairs = list(itertools.combinations(range(1, 10), 2))
    with open(POOL, encoding="ascii") as fh:
        lines = [line.split() for line in fh if line.strip()][::step]
    return [
        (Graph(9, [e for i, e in enumerate(pairs) if int(code, 16) >> i & 1]), pinned)
        for code, pinned in lines
    ]


def _digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def _record_digest(canon_record):
    return _digest(list(canon_record))


@pytest.mark.extended
def test_canonical_form_equals_the_twin_pruned_search_on_the_level_8_children():
    # every labelled child the r = 3 family at n = 9 builds at level 8, and
    # the 2,500 graphs the records-n9-r3 benchmark draws with seed 1
    children = []
    for p in harness._hereditary_family(7, 3, 3)[-1]:
        for nbrs in harness._packed_masks(p):
            if not harness._mask_has_clique(p._masks, nbrs, 3):
                child = _augment(p, nbrs)
                if is_k_colorable(child, 3):
                    children.append(child)
    assert len(children) == 47188
    pool = _pool_graphs(1)
    sample = [g for g, _ in random.Random(1).sample(pool, 2500)]
    for g in children + sample:
        assert canonical_form(g) == oracles.canonical_form_twin_pruned(g), g.edges


def test_records_equal_the_pinned_pool_digests():
    pool = _pool_graphs(8)
    records = harness.compute_records(tuple(g for g, _ in pool), 3, (0, 2))
    assert [_record_digest(records[g]) for g, _ in pool] == [d for _, d in pool]


def _record_bytes(canon_record):
    return json.dumps(list(canon_record), sort_keys=True)


def test_records_are_built_once_per_class_and_equal_each_graphs_own(monkeypatch):
    # the pool's 750 graphs fall into 624 classes; a seeded relabelling of
    # each adds a second member to every class
    pool = _pool_graphs(8)
    rng = random.Random(40)
    relabelled = []
    for g, _ in pool:
        perm = [0] + rng.sample(range(1, 10), 9)
        relabelled.append(Graph(9, [(perm[u], perm[v]) for u, v in g.edges]))
    graphs = tuple(g for g, _ in pool) + tuple(relabelled)
    built = []
    real_record = harness._graph_record

    def counted_record(facts, r, fields):
        built.append(facts.g)
        return real_record(facts, r, fields)

    monkeypatch.setattr(harness, "_graph_record", counted_record)
    records = harness.compute_records(graphs, 3, (0, 2))
    monkeypatch.setattr(harness, "_graph_record", real_record)
    assert len(built) == len({canonical_form(g) for g in graphs}) == 624
    assert [_record_digest(records[g]) for g, _ in pool] == [d for _, d in pool]
    # a relabelling may equal a graph already given, which keeps its record
    assert all(records[g][1]["edges"] is g.edges for g in records)
    for g in graphs:
        alone = harness.compute_records((g,), 3, (0, 2))[g]
        assert _record_bytes(records[g]) == _record_bytes(alone), g.edges
    # changing one record of a class leaves every other record of it as it was
    members = {}
    for g in records:
        members.setdefault(records[g][0], []).append(records[g][1])
    for recs in members.values():
        before = [json.dumps(rec, sort_keys=True) for rec in recs]
        for i, rec in enumerate(recs):
            rec["cm"]["0"] = "changed"
            rec["maximal_clique_sizes"].append(99)
            for other, text in zip(recs[i + 1 :], before[i + 1 :]):
                assert json.dumps(other, sort_keys=True) == text


def test_a_repeated_characteristic_is_decided_once(monkeypatch):
    g = oracles.path_graph(4)
    once = harness.compute_records((g,), 2, (0,))
    seen = []
    real_cm = harness._graph_cm

    def counted_cm(g, sets, fields, co):
        seen.append(len(fields))
        return real_cm(g, sets, fields, co)

    monkeypatch.setattr(harness, "_graph_cm", counted_cm)
    twice = harness.compute_records((g,), 2, (0, 0))
    assert seen == [1]
    assert _record_bytes(twice[g]) == _record_bytes(once[g])


@pytest.mark.parametrize("member", [5, None])
def test_a_member_that_is_not_a_graph_is_rejected_before_any_record(monkeypatch, member):
    def refuse(*args):
        raise AssertionError("a record was built before every member was checked")

    monkeypatch.setattr(harness, "_graph_record", refuse)
    with pytest.raises(ValueError, match=f"^graph {member!r} is not a Graph$"):
        harness.compute_records((oracles.path_graph(4), member), 2, ())


def _count_searches(monkeypatch):
    """Count calls on every module's binding of the two searches, as the
    record path may reach them through any module.  The independent sets
    are counted at the mask search that maximal_independent_sets wraps,
    which the records call on their facts' complement masks."""
    from cmgraph import cohen_macaulay, complexes, covers, graphs

    calls = {"_maximal_independent_sets": 0, "maximal_cliques": 0}
    for name in calls:
        fn = getattr(graphs, name)

        def counted(arg, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(arg)

        for mod in (graphs, complexes, covers, cohen_macaulay, harness):
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted)
    return calls


def test_records_compute_each_graph_fact_once(monkeypatch):
    calls = _count_searches(monkeypatch)
    pool = _pool_graphs(500)
    assert len(pool) == 12
    records = harness.compute_records(tuple(g for g, _ in pool), 3, (0, 2))
    assert calls == {"_maximal_independent_sets": 12, "maximal_cliques": 12}
    assert [_record_digest(records[g]) for g, _ in pool] == [d for _, d in pool]


def test_battery_records_reuse_the_facts_of_the_ensemble_scan(monkeypatch, tmp_path):
    # the scan that picks the 513 classes finds their independent sets, and
    # the records read them from the same facts; the report and summary keep
    # the digests pinned for the benchmark's sweep-n8-r3 workload
    calls = _count_searches(monkeypatch)
    report = tmp_path / "report.jsonl"
    summary = run_battery(8, r=3, characteristics=(0, 2), report_path=str(report))
    assert summary["graphs_checked"] == 513
    assert calls["_maximal_independent_sets"] == 513
    with open(os.path.join(os.path.dirname(POOL), "sweep-n8-r3.json"), encoding="ascii") as fh:
        pinned = json.load(fh)
    assert [_digest(line) for line in report.read_text().splitlines()] == pinned["lines"]
    assert _digest(dict(summary, report_path=None)) == pinned["summary"]


def test_battery_builds_each_record_while_only_its_graphs_facts_live(monkeypatch):
    # the sweep frees a graph's facts once its record is built, so it never
    # holds the facts of two kept graphs at once, and it checks the claims
    # on a record as soon as it is built, so it keeps no table of records:
    # when the next record is built, at most the last one is alive.  Records
    # keep the graph's own edge tuple instead of a copy.  The test holds
    # records by weak reference only.
    live = weakref.WeakSet()
    alive_at_record = []
    records_at_record = []
    record_refs = []
    built = []
    real_record = harness._graph_record

    class Tracked(harness._Facts):
        def __init__(self, *args):
            super().__init__(*args)
            live.add(self)

    class Record(dict):
        pass

    def tracked_record(facts, r, chars):
        alive_at_record.append(len(live))
        records_at_record.append(sum(ref() is not None for ref in record_refs))
        canon, rec = real_record(facts, r, chars)
        rec = Record(rec)
        record_refs.append(weakref.ref(rec))
        built.append((rec["edges"] is facts.g.edges, type(rec["degree_r_minus_1"]) is tuple))
        return canon, rec

    monkeypatch.setattr(harness, "_Facts", Tracked)
    monkeypatch.setattr(harness, "_graph_record", tracked_record)
    summary = run_battery(8, r=3)
    assert len(built) == summary["graphs_checked"] == 513
    assert max(alive_at_record) == 1
    assert max(records_at_record) == 1
    assert all(same for same, _ in built)
    assert all(is_tuple for _, is_tuple in built)
    assert not live
    pool = tuple(g for g, _ in _pool_graphs(500))
    records = harness.compute_records(pool, 3, (0, 2))
    assert max(alive_at_record[513:]) == 1
    assert all(records[g][1]["edges"] is g.edges for g in pool)


@pytest.mark.extended
def test_battery_n9_r3_python_heap_peak_stays_small():
    # the facts of every kept graph held to the end of the sweep, and a
    # list copy of every edge tuple, put the peak at 27.95 MB
    tracemalloc.start()
    try:
        summary = run_battery(9, r=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary["graphs_checked"] > 0
    assert peak < 16 * 2**20


def test_battery_records_reuse_the_canonical_forms_of_the_enumeration(monkeypatch, tmp_path):
    # the family computes the canonical form of each class it keeps, and
    # the records read it from the class's facts: every call of a sweep is
    # made inside the family, 513 fewer than when each record made its own.
    # The family canonicalises its 7,380 children from their masks and
    # builds a Graph only for the 1,141 whose class it has not seen.
    calls = {"all": 0, "family": 0, "children": 0, "built": 0}
    real_canonical, real_family = harness.canonical_form, harness._hereditary_family
    real_core, real_augment = harness._canonical, harness._augment

    def counted_canonical(g):
        calls["all"] += 1
        return real_canonical(g)

    def counted_core(*args):
        calls["children"] += 1
        return real_core(*args)

    def counted_augment(*args):
        calls["built"] += 1
        return real_augment(*args)

    def counted_family(*args):
        before = calls["all"]
        levels = real_family(*args)
        calls["family"] += calls["all"] - before
        return levels

    monkeypatch.setattr(harness, "canonical_form", counted_canonical)
    monkeypatch.setattr(harness, "_hereditary_family", counted_family)
    monkeypatch.setattr(harness, "_canonical", counted_core)
    monkeypatch.setattr(harness, "_augment", counted_augment)
    report = tmp_path / "report.jsonl"
    summary = run_battery(8, r=3, characteristics=(0, 2), report_path=str(report))
    assert summary["graphs_checked"] == 513
    assert calls["family"] > 0 and calls["all"] == calls["family"]
    assert (calls["children"], calls["built"]) == (7380, 1141)
    with open(os.path.join(os.path.dirname(POOL), "sweep-n8-r3.json"), encoding="ascii") as fh:
        pinned = json.load(fh)
    assert [_digest(line) for line in report.read_text().splitlines()] == pinned["lines"]
    assert _digest(dict(summary, report_path=None)) == pinned["summary"]
    # records of bare graphs compute each canonical form once
    calls["all"] = 0
    pool = [g for g, _ in _pool_graphs(500)]
    harness.compute_records(tuple(pool), 3, ())
    assert calls["all"] == len(pool)


def test_smallest_degree_sweep_counterexample_is_genuine():
    """The smallest graph class the r=3 degree sweep reports is real.

    This nine-vertex graph sits in the swept ensemble, is Cohen-Macaulay
    over every field (it is even pure shellable), has a unique perfect
    3-matching, yet its minimum degree is 3, not r - 1 = 2.
    """
    from cmgraph.complexes import is_shellable, is_shelling_order
    from cmgraph.cohen_macaulay import cm_characteristic_profile
    from cmgraph.covers import (
        alpha_clique_cover,
        degree_r_minus_1_vertices,
        perfect_r_matchings,
    )
    from cmgraph.graphs import Graph, maximal_cliques

    g = Graph(9, [
        (1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (1, 9), (2, 6), (2, 7),
        (2, 8), (3, 6), (3, 7), (3, 9), (4, 5), (4, 6), (5, 7), (6, 7),
        (6, 8), (7, 9),
    ])
    assert canonical_form(g) == b"9:0.0.0.1.4.10.f.6b.eb"
    assert r_partition(g, 3) is not None
    assert {len(c) for c in maximal_cliques(g)} == {3}
    assert alpha_clique_cover(g) == ((1, 4, 5), (2, 6, 8), (3, 7, 9))

    assert degree_r_minus_1_vertices(g, 3) == ()
    assert len(perfect_r_matchings(g, 3, limit=2)) == 1
    for char in (0, 2, 3):
        assert cm_characteristic_profile(g, [FieldSpec(char)])[0].is_cm
    assert oracles.is_cm_brute(g, 0) and oracles.is_cm_brute(g, 2)
    res = is_shellable(independence_complex(g))
    assert res.status == "shellable" and is_shelling_order(res.order)


# ---------------------------------------------------------------------------
# battery and report


def test_run_battery_summary_and_report(tmp_path):
    path = tmp_path / "report.jsonl"
    summary = run_battery(5, r=2, report_path=str(path))
    assert summary["violations_total"] == 0
    assert summary["graphs_checked"] == summary["ensemble_sizes"]["main"] == 12
    assert {v["claim"] for v in summary["verdicts"]} == {
        "main-theorem r=2 char=0",
        "uniqueness-corollary r=2 char=0",
        "main-theorem r=2 char=2",
        "uniqueness-corollary r=2 char=2",
        "alpha-clique-cover r=2",
        "parts-equal-and-matched r=2",
        "bipartite-equivalences n<=5",
    }
    assert all(v["counterexamples"] == [] for v in summary["verdicts"])

    lines = path.read_text().splitlines()
    assert len(lines) == 12
    records = [json.loads(line) for line in lines]
    assert [r["canon"] for r in records] == sorted(r["canon"] for r in records)
    expected_keys = {
        "n", "m", "edges", "r", "connected", "unmixed", "perfect",
        "independence_number", "maximal_clique_sizes", "degree_r_minus_1",
        "has_alpha_clique_cover", "perfect_r_matching_exists",
        "unique_perfect_r_matching", "all_r_partitions_equal_and_matched",
        "hh_exists", "cm", "converse_candidate_chars",
    }
    for rec in records:
        assert set(rec) == {"canon", "properties", "violations"}
        assert set(rec["properties"]) == expected_keys
        assert set(rec["properties"]["cm"]) == {"0", "2"}


def test_run_battery_report_is_byte_stable(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run_battery(4, r=2, report_path=str(a))
    run_battery(4, r=2, report_path=str(b))
    assert a.read_bytes() == b.read_bytes()


def test_repeated_characteristics_are_swept_once():
    assert run_battery(6, r=2, characteristics=(0, 2, 0)) == run_battery(
        6, r=2, characteristics=(0, 2)
    )


def test_a_claim_without_its_characteristics_builds_no_ensemble():
    # bipartite-equivalences reads chars 0 and 2, so at (0,) neither the
    # claim nor its ensemble appears
    summary = run_battery(6, r=2, characteristics=(0,))
    assert "bipartite" not in summary["ensemble_sizes"]
    assert set(summary["ensemble_sizes"]) == {"main", "alpha-cover", "parts"}
    assert not any(v["claim"].startswith("bipartite-equivalences") for v in summary["verdicts"])
    assert len(summary["verdicts"]) == 4


def test_no_characteristic_is_rejected():
    with pytest.raises(ValueError) as err:
        run_battery(5, characteristics=())
    assert str(err.value) == "at least one characteristic is required"


def test_battery_records_match_direct_computation(tmp_path):
    from cmgraph.cohen_macaulay import cm_characteristic_profile
    from cmgraph.graphs import Graph

    path = tmp_path / "report.jsonl"
    run_battery(5, r=2, report_path=str(path))
    for line in path.read_text().splitlines():
        rec = json.loads(line)["properties"]
        g = Graph(rec["n"], [tuple(e) for e in rec["edges"]])
        assert rec["cm"]["0"] == cm_characteristic_profile(g, [Q])[0].is_cm
        unique = len(perfect_r_matchings(g, 2, limit=2)) == 1
        assert rec["unique_perfect_r_matching"] == unique
        assert rec["independence_number"] == oracles.independence_number_brute(g)


def test_record_matchings_equal_the_public_search():
    # records take the r-cliques from the maximal cliques when no clique
    # outgrows r and enumerate them otherwise; K_4 and larger cliques at
    # r = 2 and 3 take the second path
    graphs = enumerate_graphs_up_to(6).graphs
    for r in (1, 2, 3):
        records = harness.compute_records(graphs, r, ())
        for g in graphs:
            rec = records[g][1]
            found = perfect_r_matchings(g, r, limit=2)
            assert rec["perfect_r_matching_exists"] == bool(found), (g.edges, r)
            assert rec["unique_perfect_r_matching"] == (len(found) == 1), (g.edges, r)
            # records reach the alpha search through _Facts, which hands in
            # alpha and the maximal cliques
            has_cover = alpha_clique_cover(g) is not None
            assert rec["has_alpha_clique_cover"] == has_cover, (g.edges, r)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# sha256 of run_battery(7, r) report bytes and of its summary (report_path
# None) as compact sorted JSON, pinned before the claim table replaced the
# hand-written sweeps.
PINNED_BATTERY_SHA256 = {
    2: (
        "d630902b5b1cdbafecec565c3458c8c913b97fad7c24239b97b571f94a86c091",
        "4a0303c4253fa0f5ed9693e513c3be521e5f3b38a9760ae9515ceca70e3d3011",
    ),
    3: (
        "ecb69bee4e80131dfa7323e25053a7474cb5f1aaaec7e95e42b6a6231d2370f9",
        "30e5f4e7b107c5ab652805523c0cab6e630c66a9a66b8014eac91cb7b4167d4b",
    ),
}


@pytest.mark.parametrize("r", [2, 3])
def test_battery_report_and_summary_bytes_are_pinned(tmp_path, r):
    path = tmp_path / "report.jsonl"
    run_battery(7, r=r, report_path=str(path))
    summary = run_battery(7, r=r)
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    assert (_sha(path.read_bytes()), _sha(text.encode())) == PINNED_BATTERY_SHA256[r]


def test_enumeration_keeps_no_state_between_calls(monkeypatch):
    # the colour test reads each parent's free classes, found anew per call
    calls = []
    real_free_classes = harness._free_classes

    def counting_free_classes(g, k, *args):
        calls.append(k)
        return real_free_classes(g, k, *args)

    monkeypatch.setattr(harness, "_free_classes", counting_free_classes)
    filters = GraphFilters(r_partite=2)
    first = enumerate_graphs_up_to(6, filters)
    after_first = len(calls)
    second = enumerate_graphs_up_to(6, filters)
    assert after_first > 0
    assert len(calls) - after_first == after_first
    assert first == second


def test_battery_builds_each_family_once(monkeypatch):
    built = []
    real_family = harness._hereditary_family

    def recording_family(n, chi, omega, *rest, **kwargs):
        built.append((n, chi, omega))
        return real_family(n, chi, omega, *rest, **kwargs)

    monkeypatch.setattr(harness, "_hereditary_family", recording_family)
    run_battery(6, r=2)
    assert built == [(6, 2, 2)]


@pytest.mark.parametrize("r", [0, -1])
def test_r_below_one_is_rejected(capsys, r):
    """GraphFilters and run_battery reject r < 1 before any graph is built."""
    with pytest.raises(ValueError, match="r must be at least 1"):
        run_battery(3, r=r)
    with pytest.raises(ValueError, match="^r must be at least 1$"):
        enumerate_graphs(3, GraphFilters(r_partite=r))
    assert main(["harness", "--n-max", "3", "--r", str(r)]) == 2
    assert capsys.readouterr().err == "cmgraph: error: r must be at least 1\n"


@pytest.mark.parametrize(
    "bounds, message",
    [
        ({"r_partite": 2.0}, "r 2.0 is not an integer"),
        ({"r_partite": True}, "r True is not an integer"),
        ({"max_clique_size": 2.0}, "max_clique_size 2.0 is not an integer"),
        ({"max_clique_size": True}, "max_clique_size True is not an integer"),
        ({"max_clique_size": 0}, "max_clique_size must be at least 1"),
        ({"r_partite": 3, "max_clique_size": -1}, "max_clique_size must be at least 1"),
    ],
)
def test_graph_filters_reject_a_bound_that_is_not_a_positive_integer(bounds, message):
    """A float or bool bound once read as the int it equals (True as 1), or
    failed deep in the enumeration; 0 or less selects no graph."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GraphFilters(**bounds)


@pytest.mark.parametrize("flag", ["connected", "unmixed", "perfect", "class_g"])
@pytest.mark.parametrize("value", ["no", 1, None])
def test_graph_filters_reject_a_flag_that_is_not_a_bool(flag, value):
    """A flag was once read as a truth value: connected="no" kept only the
    connected graphs, as connected=True does."""
    with pytest.raises(ValueError, match=f"^{re.escape(f'{flag} {value!r} is not a bool')}$"):
        GraphFilters(**{flag: value})


P4 = oracles.path_graph(4)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: cliques_of_size(P4, 2.0), "clique size 2.0"),
        (lambda: is_k_colorable(P4, 2.0), "k 2.0"),
        (lambda: r_partition(P4, 2.0), "r 2.0"),
        (lambda: all_r_partitions(P4, True), "r True"),
        (lambda: perfect_r_matchings(P4, 2.0), "r 2.0"),
        (lambda: perfect_r_matchings(P4, 2, limit=1.0), "limit 1.0"),
        (lambda: degree_r_minus_1_vertices(P4, 2.0), "r 2.0"),
        (lambda: is_shellable(SimplicialComplex(2, [(1, 2)]), budget=10.0), "budget 10.0"),
        (lambda: enumerate_graphs(3.0), "n 3.0"),
        (lambda: run_battery(3.0), "n 3.0"),
        (lambda: run_battery(4, r=2.0), "r 2.0"),
        (lambda: run_battery(4, r=True), "r True"),
        (lambda: run_battery(4, characteristics=(0, 2.0)), "characteristic 2.0"),
        (lambda: run_battery(4, characteristics=(0, False)), "characteristic False"),
        (lambda: harness.compute_records((P4,), None, ()), "r None"),
        (lambda: harness.compute_records((P4,), "3", ()), "r '3'"),
        (lambda: harness.compute_records((), 2.0, ()), "r 2.0"),
    ],
)
def test_a_count_that_is_not_an_integer_is_rejected(call, message):
    """r, k, limit, budget, n and characteristics must be ints, bool
    excluded: a float or a bool raises ValueError, never TypeError or a
    result that carries it."""
    with pytest.raises(ValueError, match=f"^{message} is not an integer$"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: run_battery(4, characteristics=5), "characteristics 5"),
        (lambda: run_battery(4, characteristics=None), "characteristics None"),
        (lambda: harness.compute_records((P4,), 2, 0), "characteristics 0"),
        (lambda: harness.compute_records(5, 2, ()), "graphs 5"),
    ],
)
def test_an_argument_that_is_not_iterable_is_rejected(call, message):
    """These once escaped as TypeError: 'int' object is not iterable."""
    with pytest.raises(ValueError, match=f"^{message} is not iterable$"):
        call()


def test_a_report_path_that_is_not_a_str_is_rejected():
    # an int, True included, was once opened as that file descriptor,
    # written to and closed
    r, w = os.pipe()
    try:
        with pytest.raises(ValueError, match=f"^report_path {w} is not a str$"):
            run_battery(3, report_path=w)
        os.fstat(w)
    finally:
        os.close(r)
        os.close(w)
    with pytest.raises(ValueError, match="^report_path 5.0 is not a str$"):
        run_battery(3, report_path=5.0)
