import itertools
import random

import pytest

import oracles
from cmgraph import covers, harness
from cmgraph.covers import (
    BasicCliqueCover,
    RMatching,
    _bipartite_matching,
    _r_partitions_matched,
    alpha_clique_cover,
    basic_clique_cover,
    degree_r_minus_1_vertices,
    pairwise_part_matchings,
    perfect_r_matchings,
)
from cmgraph.graphs import Graph, all_r_partitions, independence_number
from cmgraph.harness import enumerate_graphs_up_to


def bowtie():
    return oracles.graph_from_edges(5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])


# ---------------------------------------------------------------------------
# perfect r-matchings


def test_c6_has_exactly_two_perfect_matchings():
    got = perfect_r_matchings(oracles.cycle_graph(6), 2)
    assert got == [
        RMatching(r=2, cliques=((1, 2), (3, 4), (5, 6))),
        RMatching(r=2, cliques=((1, 6), (2, 3), (4, 5))),
    ]


def test_matchings_match_brute_force():
    corpus = list(enumerate_graphs_up_to(6).graphs) + oracles.random_graphs(
        10, 8, seed=41
    )
    for g in corpus:
        for r in (2, 3):
            got = {frozenset(m.cliques) for m in perfect_r_matchings(g, r)}
            assert got == oracles.perfect_r_matchings_brute(g, r), (g.edges, r)


def test_k9_triple_matchings_count():
    assert len(perfect_r_matchings(oracles.complete_graph(9), 3)) == 280


def test_matchings_misc_edges():
    assert perfect_r_matchings(oracles.path_graph(3), 2) == []
    assert perfect_r_matchings(Graph(0, []), 2) == [
        RMatching(r=2, cliques=())
    ]
    with pytest.raises(ValueError):
        perfect_r_matchings(oracles.path_graph(2), 0)
    with pytest.raises(ValueError, match="^limit must be positive$"):
        perfect_r_matchings(oracles.path_graph(2), 2, limit=0)


def test_matching_limit_truncates_deterministically():
    c6 = oracles.cycle_graph(6)
    assert perfect_r_matchings(c6, 2, limit=1) == perfect_r_matchings(c6, 2)[:1]


def stack_corpus():
    """Every class up to n = 7, seeded 9-vertex graphs and K_9."""
    return (
        list(enumerate_graphs_up_to(7).graphs)
        + oracles.random_graphs(20, 9, seed=53)
        + oracles.random_graphs(20, 9, seed=54, p=0.8)
        + [oracles.complete_graph(9)]
    )


def test_matchings_keep_the_recursive_order():
    for g in stack_corpus():
        for r in (1, 2, 3, 4):
            for limit in (None, 1, 2):
                got = perfect_r_matchings(g, r, limit)
                assert all(m.r == r for m in got)
                expected = oracles.perfect_r_matchings_recursive(g, r, limit)
                assert [m.cliques for m in got] == expected, (g.edges, r, limit)


def test_pruned_matchings_keep_the_recursive_order_on_bridged_cliques():
    # after any first clique but the bridge (1, 8), K_7 keeps an odd rest:
    # the subtrees the component test cuts
    k7 = [(u, v) for u in range(1, 8) for v in range(u + 1, 8)]
    g = Graph(14, k7 + [(u + 7, v + 7) for u, v in k7] + [(1, 8)])
    for limit in (None, 1, 2):
        got = perfect_r_matchings(g, 2, limit)
        assert [m.cliques for m in got] == oracles.perfect_r_matchings_recursive(g, 2, limit)
    assert len(perfect_r_matchings(g, 2)) == 15 * 15


def test_matching_cut_keeps_the_recursive_order_on_bipartite_rests():
    # hall_violator leaves even, bipartite, unmatched rests; the random
    # graphs on parts 1..k and k+1..2k, some with the edge (1, 2) inside a
    # part, mix matched and unmatched, bipartite and non-bipartite rests
    rng = random.Random(19)
    graphs = [oracles.hall_violator(k) for k in range(3, 8)]
    for k in (4, 5, 6):
        for _ in range(15):
            edges = [
                (u, w) for u in range(1, k + 1) for w in range(k + 1, 2 * k + 1)
                if rng.random() < 0.4
            ]
            if rng.random() < 0.3:
                edges.append((1, 2))
            graphs.append(Graph(2 * k, edges))
    found = 0
    for g in graphs:
        for limit in (None, 1):
            got = perfect_r_matchings(g, 2, limit)
            assert [m.cliques for m in got] == oracles.perfect_r_matchings_recursive(
                g, 2, limit
            ), (g.edges, limit)
        found += bool(got)
    assert 0 < found < len(graphs)


def test_unique_perfect_matching():
    assert len(perfect_r_matchings(oracles.path_graph(2), 2, limit=2)) == 1
    assert len(perfect_r_matchings(oracles.cycle_graph(6), 2, limit=2)) == 2
    assert perfect_r_matchings(oracles.path_graph(3), 2, limit=2) == []  # none at all
    assert len(perfect_r_matchings(oracles.complete_graph(3), 3, limit=2)) == 1


# ---------------------------------------------------------------------------
# clique covers


def test_basic_cover_disjointifies_in_order():
    got = basic_clique_cover(bowtie(), [[1, 2, 3], [3, 4, 5]])
    assert got == BasicCliqueCover(cliques=((1, 2, 3), (4, 5)), dropped=())


def test_basic_cover_records_dropped_positions():
    got = basic_clique_cover(bowtie(), [[1, 2, 3], [3, 4, 5], [3]])
    assert got == BasicCliqueCover(cliques=((1, 2, 3), (4, 5)), dropped=(2,))


def test_basic_cover_residuals_must_stay_cliques():
    # {1,4} is not an edge of the bowtie
    with pytest.raises(ValueError, match="not a clique"):
        basic_clique_cover(bowtie(), [[1, 4]])
    with pytest.raises(ValueError, match="misses vertices"):
        basic_clique_cover(bowtie(), [[1, 2, 3]])


def test_basic_cover_rejects_non_int_vertices():
    # a float must not escape as TypeError from sorted(), nor True pass as vertex 1
    for bad in ([[1.5, 2], [3]], [[True, 2], [3]], [["1", 2], [3]]):
        with pytest.raises(ValueError, match="not an integer"):
            basic_clique_cover(oracles.path_graph(3), bad)


@pytest.mark.parametrize(
    "cover, message",
    [
        ([[1, 2], [], [3]], "cover members must be nonempty"),
        ([[1, 2, 1], [3]], "cover member (1, 1, 2) has a repeated vertex"),
        ([[1, 2], [3, 4]], "vertex 4 out of range 1..3"),
        ([[1.5, 2], [3]], "vertex 1.5 is not an integer"),
        # these two once escaped as TypeError: 'int' object is not iterable
        ([[1, 2], 3], "cover member 3 is not iterable"),
        (5, "cover 5 is not iterable"),
    ],
)
def test_basic_cover_rejects_bad_members(cover, message):
    with pytest.raises(ValueError) as err:
        basic_clique_cover(oracles.path_graph(3), cover)
    assert str(err.value) == message


def test_alpha_cover_known_values():
    assert alpha_clique_cover(oracles.cycle_graph(4)) == ((1, 2), (3, 4))
    assert alpha_clique_cover(oracles.cycle_graph(6)) == ((1, 2), (3, 4), (5, 6))
    assert alpha_clique_cover(oracles.path_graph(3)) == ((1, 2), (2, 3))
    assert alpha_clique_cover(oracles.cycle_graph(5)) is None
    assert alpha_clique_cover(Graph(0, [])) == ()


def test_alpha_cover_keeps_the_recursive_first_cover():
    for g in stack_corpus():
        expected = oracles.alpha_cover_recursive(g, independence_number(g))
        assert alpha_clique_cover(g) == expected, g.edges


def test_searches_keep_their_own_stack_on_1200_vertices():
    # one level per chosen clique: 1,200 levels deep
    edgeless = Graph(1200)
    singletons = tuple((v,) for v in range(1, 1201))
    assert perfect_r_matchings(edgeless, 1, limit=1) == [
        RMatching(r=1, cliques=singletons)
    ]
    assert alpha_clique_cover(edgeless) == singletons


def test_fig1_has_no_cover_by_three_cliques(fig1):
    assert independence_number(fig1) == 3
    assert alpha_clique_cover(fig1) is None


def test_alpha_cover_existence_matches_cover_number_oracle():
    """A cover by independence-number many cliques exists exactly when the
    minimum clique cover size equals the independence number."""
    for g in enumerate_graphs_up_to(6).graphs:
        cover = alpha_clique_cover(g)
        alpha = oracles.independence_number_brute(g)
        expected = oracles.clique_cover_number_brute(g) == alpha
        assert (cover is not None) == expected, g.edges
        if cover is not None:
            assert len(cover) == alpha
            covered = set(v for c in cover for v in c)
            assert covered == set(range(1, g.n + 1))
            for c in cover:
                assert oracles.is_clique(g, c)


# ---------------------------------------------------------------------------
# degree counts and part matchings


def test_degree_r_minus_1_vertices():
    star = oracles.graph_from_edges(4, [(1, 2), (1, 3), (1, 4)])
    assert degree_r_minus_1_vertices(star, 2) == (2, 3, 4)
    assert degree_r_minus_1_vertices(oracles.cycle_graph(4), 2) == ()
    assert degree_r_minus_1_vertices(oracles.path_graph(3), 2) == (1, 3)
    with pytest.raises(ValueError, match="^r must be at least 1$"):
        degree_r_minus_1_vertices(star, 0)


def test_pairwise_part_matchings():
    assert pairwise_part_matchings(oracles.cycle_graph(4), [(1, 3), (2, 4)])
    # vertex 2 has no neighbour in the other part
    sparse = oracles.graph_from_edges(4, [(1, 3), (1, 4)])
    assert not pairwise_part_matchings(sparse, [(1, 2), (3, 4)])
    # unequal part sizes can never be matched
    assert not pairwise_part_matchings(oracles.path_graph(3), [(1, 3), (2,)])


def test_pairwise_part_matchings_validates_input():
    with pytest.raises(ValueError, match="not independent"):
        pairwise_part_matchings(oracles.complete_graph(3), [(1, 2), (3,)])
    with pytest.raises(ValueError, match="partition"):
        pairwise_part_matchings(oracles.path_graph(3), [(1,), (2,)])


def test_pairwise_part_matchings_rejects_a_repeated_vertex():
    with pytest.raises(ValueError, match="^blocks must partition the vertex set$"):
        pairwise_part_matchings(oracles.path_graph(3), [(1, 3), (2, 3)])
    with pytest.raises(ValueError, match="^blocks must partition the vertex set$"):
        pairwise_part_matchings(oracles.path_graph(3), [(1, 1, 3), (2,)])


@pytest.mark.parametrize(
    "parts, message",
    [
        # True once read as vertex 1 and the 4-cycle passed; the others
        # escaped as TypeError
        ([[True, 3], [2, 4]], "vertex True is not an integer"),
        ([[1.0, 3], [2, 4]], "vertex 1.0 is not an integer"),
        ([[1, "a"], [2, 4]], "vertex 'a' is not an integer"),
        (5, "parts 5 is not iterable"),
        ([1, [2, 3, 4]], "block 1 is not iterable"),
    ],
)
def test_pairwise_part_matchings_rejects_parts_that_are_no_vertex_blocks(parts, message):
    with pytest.raises(ValueError) as err:
        pairwise_part_matchings(oracles.cycle_graph(4), parts)
    assert str(err.value) == message


def test_pairwise_part_matchings_rejects_a_missing_vertex():
    with pytest.raises(ValueError, match="^blocks must partition the vertex set$"):
        pairwise_part_matchings(oracles.path_graph(4), [(1, 3), (2,)])


def test_pairwise_part_matchings_names_the_first_edge_of_a_dependent_block():
    # the pairs of block members in lex order: (1, 2), (1, 3) and (1, 4) are
    # no edges, (2, 3) is the first that is, though 2 ~ 4 too
    g = oracles.graph_from_edges(5, [(2, 3), (2, 4), (3, 4), (1, 5)])
    with pytest.raises(ValueError, match=r"^block \(1, 2, 3, 4\) is not independent: 2 ~ 3$"):
        pairwise_part_matchings(g, [(4, 3, 2, 1), (5,)])


def _mask(vertices) -> int:
    return sum(1 << v for v in vertices)


def has_perfect_matching_brute(g, left, right) -> bool:
    return len(left) == len(right) and any(
        all(g.has_edge(u, w) for u, w in zip(left, partners))
        for partners in itertools.permutations(right)
    )


def test_bipartite_matching_matches_brute_force_on_every_split_to_n7():
    # edges inside a side are ignored; both orientations of every split
    for g in enumerate_graphs_up_to(7).graphs:
        vertices = range(1, g.n + 1)
        for size in range(g.n + 1):
            for left in itertools.combinations(vertices, size):
                right = tuple(v for v in vertices if v not in left)
                got = _bipartite_matching(g, _mask(left), _mask(right))
                if got is None:
                    assert not has_perfect_matching_brute(g, left, right)
                    continue
                assert [u for u, _ in got] == list(left), (g.edges, left)
                assert sorted(w for _, w in got) == list(right)
                assert all(g.has_edge(u, w) for u, w in got)


def test_pairwise_part_matchings_on_a_1500_step_augmenting_path():
    """The path v1 .. v3002 with v(2i) labelled i, v(2i+1) labelled 1501 + i
    and v1 labelled 3002.  Each left vertex but v1 first takes its lower
    neighbour, so v1 comes last and augments along the whole path."""
    k = 1501
    label = {1: 2 * k}
    label.update({2 * i: i for i in range(1, k + 1)})
    label.update({2 * i + 1: k + i for i in range(1, k)})
    g = Graph(2 * k, [(label[j], label[j + 1]) for j in range(1, 2 * k)])
    left, right = range(k + 1, 2 * k + 1), range(1, k + 1)
    assert pairwise_part_matchings(g, [left, right])
    pairs = _bipartite_matching(g, _mask(left), _mask(right))
    assert pairs[-1] == (2 * k, 1) and pairs[0] == (k + 1, 2)


# ---------------------------------------------------------------------------
# the records' r-partition check


def _record_field(g, r):
    return harness.compute_records((g,), r, ())[g][1]["all_r_partitions_equal_and_matched"]


def test_r_partition_check_equals_the_reference_on_every_class_to_n7():
    for g in enumerate_graphs_up_to(7).graphs:
        for r in (1, 2, 3, 4):
            expected = oracles.r_partitions_matched_reference(g, r)
            assert _r_partitions_matched(g, r) == expected, (g.edges, r)
            assert _record_field(g, r) == expected, (g.edges, r)


@pytest.mark.parametrize("n", [8, 9])
def test_r_partition_check_equals_the_reference_on_seeded_graphs(n):
    # sparse graphs, so that many are 3- or 4-colourable
    for g in oracles.random_graphs(60, n, seed=1610 + n, p=0.35):
        for r in (2, 3, 4):
            expected = oracles.r_partitions_matched_reference(g, r)
            assert _r_partitions_matched(g, r) == expected, (g.edges, r)
            assert _record_field(g, r) == expected, (g.edges, r)


# 9-vertex graphs with no perfect 3-matching, found by a seeded search over
# graphs planted on the blocks {1, 2, 3}, {4, 5, 6}, {7, 8, 9}
_LATER_PARTITION_FAILS = oracles.graph_from_edges(9, [
    (1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (1, 9), (2, 5), (2, 7), (2, 9), (3, 4),
    (3, 5), (3, 6), (3, 8), (3, 9), (4, 7), (4, 9), (5, 8), (6, 7), (6, 9),
])
_FIRST_AND_LAST_BLOCKS_UNMATCHED = oracles.graph_from_edges(9, [
    (1, 4), (1, 5), (1, 6), (1, 9), (2, 4), (2, 5), (2, 7), (2, 8), (2, 9), (3, 6),
    (3, 9), (4, 8), (4, 9), (5, 7), (5, 8), (5, 9), (6, 9),
])


def test_r_partition_check_reads_past_the_first_partition_and_pair():
    # the first of three partitions passes, a later one fails
    g = _LATER_PARTITION_FAILS
    parts = all_r_partitions(g, 3)
    assert len(parts) == 3 and pairwise_part_matchings(g, parts[0])
    # the one partition has its first two and last two blocks matched, but
    # not its first and last
    h = _FIRST_AND_LAST_BLOCKS_UNMATCHED
    ((a, b, c),) = all_r_partitions(h, 3)
    assert _bipartite_matching(h, _mask(a), _mask(b)) and _bipartite_matching(h, _mask(b), _mask(c))
    assert _bipartite_matching(h, _mask(a), _mask(c)) is None
    for x in (g, h):
        assert not perfect_r_matchings(x, 3, limit=1)
        assert not oracles.r_partitions_matched_reference(x, 3)
        assert not _r_partitions_matched(x, 3)
        assert _record_field(x, 3) is False


def test_a_record_with_a_perfect_r_matching_runs_no_partition_search(monkeypatch):
    searched = []
    real_search = covers._partition_search

    def counting_search(g, r, order):
        searched.append((g, r))
        return real_search(g, r, order)

    monkeypatch.setattr(covers, "_partition_search", counting_search)
    # two disjoint triangles: a perfect 3-matching
    triangles = oracles.graph_from_edges(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
    assert perfect_r_matchings(triangles, 3, limit=1)
    assert _record_field(triangles, 3) is True
    assert searched == []
    # the path on three vertices has no perfect 2-matching: the search runs
    # and its first partition, {1, 3} and {2}, has unequal blocks
    assert _record_field(oracles.path_graph(3), 2) is False
    assert searched == [(oracles.path_graph(3), 2)]
