import itertools
import pickle
import random
import time

import pytest

import oracles
from cmgraph import graphs
from cmgraph.covers import alpha_clique_cover
from cmgraph.graphs import (
    MAX_CANONICAL_N,
    Graph,
    GraphFormatError,
    _augment,
    _bron_kerbosch,
    _component,
    _full_mask,
    _has_odd_hole,
    _mask_has_clique,
    _mask_to_tuple,
    _refine,
    all_r_partitions,
    canonical_form,
    cliques_of_size,
    complement,
    format_graph,
    independence_number,
    is_connected,
    is_k_colorable,
    is_perfect,
    is_unmixed,
    maximal_cliques,
    maximal_independent_sets,
    parse_graph,
    r_partition,
)
from cmgraph.harness import enumerate_graphs_up_to


def small_corpus(n_max=6):
    return enumerate_graphs_up_to(n_max).graphs


def seeded_corpus():
    return oracles.random_graphs(25, 8, seed=20240817)


# ---------------------------------------------------------------------------
# container and text format


def test_graph_normalizes_and_validates():
    g = Graph(4, [(3, 4), (1, 2)])
    assert g.edges == ((1, 2), (3, 4))
    assert g._masks[2] == 1 << 1 and oracles.neighbours(g)[2] == frozenset({1})
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 4)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        Graph(-1, [])


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (3, [(True, 2)], "vertex True is not an integer"),
        (3, [(1.0, 2)], "vertex 1.0 is not an integer"),
        (3, [(1, "2")], "vertex '2' is not an integer"),
        (True, [], "vertex count True is not an integer"),
        (3.0, [], "vertex count 3.0 is not an integer"),
    ],
)
def test_graph_rejects_non_integer_vertices(n, edges, message):
    # True once passed as vertex 1 and was then written as 'True 2'
    with pytest.raises(ValueError) as err:
        Graph(n, edges)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "edges, message",
    [
        # the first two once escaped as TypeError, the third as "too many
        # values to unpack (expected 2)"
        ([1], "edge 1 is not a pair"),
        (5, "edge list 5 is not iterable"),
        ([(1, 2, 3)], "edge (1, 2, 3) is not a pair"),
        ([(1, 2), (3,)], "edge (3,) is not a pair"),
        ([None], "edge None is not a pair"),
    ],
)
def test_graph_rejects_an_edge_list_or_an_edge_of_the_wrong_shape(edges, message):
    with pytest.raises(ValueError) as err:
        Graph(3, edges)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "reader, args, message",
    [
        # True once answered for vertex 1, and the others escaped as TypeError
        ("degree", (True,), "vertex True is not an integer"),
        ("degree", (1.5,), "vertex 1.5 is not an integer"),
        ("degree", ("1",), "vertex '1' is not an integer"),
        ("has_edge", (True, 2), "vertex True is not an integer"),
        ("has_edge", (1.5, 2), "vertex 1.5 is not an integer"),
        ("has_edge", (1, 2.0), "vertex 2.0 is not an integer"),
    ],
)
def test_vertex_readers_reject_a_vertex_that_is_not_an_integer(reader, args, message):
    g = Graph(3, [(1, 2)])
    with pytest.raises(ValueError) as err:
        getattr(g, reader)(*args)
    assert str(err.value) == message


def mask_reader_corpus() -> list[Graph]:
    """Every class up to n = 7 and seeded random graphs up to n = 9."""
    corpus = list(enumerate_graphs_up_to(7).graphs)
    for n in range(8, 10):
        for i, p in enumerate((0.2, 0.5, 0.8)):
            corpus += oracles.random_graphs(10, n, seed=1800 + 10 * n + i, p=p)
    return corpus


def test_mask_readers_match_the_edge_list():
    for g in mask_reader_corpus():
        nb = oracles.neighbours(g)
        assert g._masks == tuple(sum(1 << v for v in s) for s in nb), g.edges
        assert complement(g) == oracles.complement_brute(g), g.edges
        for u in g.vertices:
            assert g.degree(u) == len(nb[u])
            # v = -1, 0 and n + 1 are no vertex, so never a neighbour
            adjacent = [v for v in range(-1, g.n + 2) if g.has_edge(u, v)]
            assert adjacent == sorted(nb[u]), (g.edges, u)


def test_vertex_readers_check_the_range():
    # -1 read vertex 3 through Python's negative index, 4 raised IndexError
    g = Graph(3, [(2, 3)])
    assert not g.has_edge(-1, 2) and not g.has_edge(4, 1)
    for v in (-1, 0, 4):
        with pytest.raises(ValueError, match=rf"^vertex {v} out of range 1\.\.3$"):
            g.degree(v)
    for g in mask_reader_corpus():
        nb = oracles.neighbours(g)
        ends = range(-1, g.n + 2)
        for u in ends:
            inside = 1 <= u <= g.n
            adjacent = [v for v in ends if g.has_edge(u, v)]
            assert adjacent == (sorted(nb[u]) if inside else []), (g.edges, u)
            if inside:
                assert g.degree(u) == len(nb[u])
            else:
                with pytest.raises(ValueError):
                    g.degree(u)


def assert_refinement_classes(g):
    """_refine's classes, in colour order and each ascending, equal the
    reference, and have one degree each, ascending: the invariant that lets
    count vectors stand in for sorted tuples."""
    colours, count = _refine(g.n, g._masks, g.edges)
    groups: list[list[int]] = [[] for _ in range(count)]
    for v in g.vertices:
        groups[colours[v]].append(v)
    assert groups == oracles._wl_groups_reference(g), g.edges
    degrees = [{g.degree(v) for v in grp} for grp in groups]
    assert all(len(d) == 1 for d in degrees), g.edges
    assert [min(d) for d in degrees] == sorted(min(d) for d in degrees), g.edges


def test_wl_groups_match_the_reference():
    for g in mask_reader_corpus():
        assert_refinement_classes(g)


def test_wl_groups_match_the_reference_on_every_labelled_graph_up_to_6():
    for n in range(7):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            assert_refinement_classes(
                Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
            )


def test_refinement_splits_no_vertex_transitive_regular_graph():
    # the first round ranks equal degrees, so the loop must see that round
    # split nothing and stop with one class
    triangles = _disjoint_triangles(3)
    cube = Graph(8, [
        (u + 1, v + 1) for u in range(8) for v in range(u + 1, 8) if (u ^ v).bit_count() == 1
    ])
    wagner = Graph(8, [(i, i % 8 + 1) for i in range(1, 9)] + [(i, i + 4) for i in range(1, 5)])
    for g in (
        oracles.cycle_graph(9),
        triangles,
        oracles.complement_brute(triangles),
        cube,
        wagner,
    ):
        assert_refinement_classes(g)
        assert _refine(g.n, g._masks, g.edges)[1] == 1, g.edges
        assert canonical_form(g) == oracles.canonical_form_twin_pruned(g), g.edges
    for g in (cube, wagner):
        assert canonical_form(g) == oracles.canonical_form_reference(g), g.edges


def test_graph_equality_hash_pickle():
    a = Graph(3, [(1, 2)])
    b = Graph(3, [(2, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != Graph(4, [(1, 2)])
    assert pickle.loads(pickle.dumps(a)) == a


def test_parse_format_round_trip(fig1):
    for g in (fig1, oracles.cycle_graph(5), Graph(3, []), Graph(0, [])):
        assert parse_graph(format_graph(g)) == g


def test_parse_accepts_comments_and_blank_lines():
    text = "# a graph\n\n3 1\n  # comment\n1 2\n\n"
    assert parse_graph(text) == Graph(3, [(1, 2)])


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty document"),
        ("x y\n", "line 1"),
        ("3\n", "expected header"),
        ("-1 0\n", "nonnegative"),
        ("3 1\n1 2\n2 3\n", "expected 1 edge lines, found 2"),
        ("3 2\n1 2\n", "expected 2 edge lines, found 1"),
        ("3 1\n1 4\n", "out of range"),
        ("3 1\n2 2\n", "loop"),
        ("3 1\n2 1\n", "expected u < v"),
        ("3 2\n1 2\n1 2\n", "duplicate edge"),
        ("3 1\n1 2 3\n", "expected 'u v'"),
        ("3 1\na b\n", "two integers"),
    ],
)
def test_parse_rejects(text, fragment):
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    assert fragment in str(err.value)


# ---------------------------------------------------------------------------
# complement and deletion


def test_complement_is_involution():
    for g in small_corpus(5) + tuple(seeded_corpus()):
        assert complement(complement(g)) == g
        assert complement(g) == oracles.complement_brute(g)


def test_complement_of_complete_graph_is_empty():
    assert complement(oracles.complete_graph(5)).edges == ()


def test_c5_is_self_complementary():
    c5 = oracles.cycle_graph(5)
    assert canonical_form(complement(c5)) == canonical_form(c5)


# ---------------------------------------------------------------------------
# independent sets and cliques


def test_maximal_independent_sets_match_brute():
    for g in small_corpus() + tuple(seeded_corpus()):
        assert maximal_independent_sets(g) == oracles.maximal_independent_sets_brute(g)


def test_maximal_independent_sets_p3():
    assert maximal_independent_sets(oracles.path_graph(3)) == [(1, 3), (2,)]


def test_maximal_independent_sets_of_a_large_edgeless_graph():
    # one maximal set of 1,100 vertices: deeper than Python's default
    # recursion limit, so the search must keep its own stack
    assert maximal_independent_sets(Graph(1100)) == [tuple(range(1, 1101))]


def test_pivot_scan_cut_keeps_every_pivot_on_3000_seeded_graphs():
    """The pivot scan stops at the first vertex that covers as many
    candidates as any can; the full scan picks that vertex too, so both
    searches emit the same cliques in the same order."""
    rng = random.Random(20261018)
    for _ in range(3000):
        n = rng.randint(0, 12)
        p = rng.random()
        g = Graph(n, [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < p])
        full = _full_mask(n)
        co = [full & ~m & ~(1 << v) if v else 0 for v, m in enumerate(g._masks)]
        for nbr in (g._masks, co):
            assert _bron_kerbosch(nbr, full) == oracles.bron_kerbosch_full_scan(nbr, full)


def test_independence_number_of_a_large_edgeless_graph_stops_each_pivot_scan_early():
    # every vertex is a candidate and none is excluded, so the first vertex
    # of each scan covers all the others and ends the scan; independence_number
    # splits the graph into 1200 components, so the whole-graph search is
    # asked for directly
    start = time.process_time()
    assert independence_number(Graph(1200)) == 1200
    assert maximal_independent_sets(Graph(1200)) == [tuple(range(1, 1201))]
    assert time.process_time() - start < 0.5


@pytest.mark.parametrize(
    "check, expected",
    [
        (independence_number, 12),
        (is_unmixed, True),
        (alpha_clique_cover, tuple((3 * i + 1, 3 * i + 2, 3 * i + 3) for i in range(12))),
    ],
    ids=["independence_number", "is_unmixed", "alpha_clique_cover"],
)
def test_twelve_disjoint_triangles_are_split_into_components(check, expected):
    # the whole graph has 3^12 maximal independent sets; its components
    # have three each
    g = oracles.disjoint_triangles(12)
    start = time.process_time()
    assert check(g) == expected
    assert time.process_time() - start < 0.25


def test_independence_number_and_unmixed_match_brute():
    for g in small_corpus() + tuple(seeded_corpus()):
        assert independence_number(g) == oracles.independence_number_brute(g)
        assert is_unmixed(g) == oracles.is_unmixed_brute(g)


def test_maximal_cliques_match_brute():
    for g in small_corpus(5) + tuple(seeded_corpus()):
        assert maximal_cliques(g) == oracles.maximal_cliques_brute(g)


def test_cliques_of_size_lists_all_in_lex_order():
    k4 = oracles.complete_graph(4)
    assert cliques_of_size(k4, 2) == list(itertools.combinations(range(1, 5), 2))
    assert cliques_of_size(k4, 3) == list(itertools.combinations(range(1, 5), 3))
    for g in small_corpus() + tuple(seeded_corpus()):
        for r in (1, 2, 3, 4):
            expected = [
                c
                for c in itertools.combinations(range(1, g.n + 1), r)
                if oracles.is_clique(g, c)
            ]
            assert cliques_of_size(g, r) == expected


@pytest.mark.parametrize(
    "search, size, message",
    [
        (cliques_of_size, 0, "clique size must be at least 1"),
        (is_k_colorable, -1, "k must be nonnegative"),
        (r_partition, 0, "r must be at least 1"),
        (all_r_partitions, 0, "r must be at least 1"),
    ],
)
def test_size_below_its_bound_is_rejected(search, size, message):
    with pytest.raises(ValueError) as err:
        search(oracles.path_graph(3), size)
    assert str(err.value) == message


def test_cliques_of_size_keeps_its_own_stack_on_k1100():
    # one level per clique member: 1,100 levels deep, then every shorter
    # branch is dropped for lack of candidates
    k = Graph(1100, itertools.combinations(range(1, 1101), 2))
    assert cliques_of_size(k, 1100) == [tuple(range(1, 1101))]


def test_mask_has_clique_keeps_its_own_stack_on_k1100():
    # the masks of K_1100: one level per clique member, 1,100 levels deep
    full = _full_mask(1100)
    masks = [full & ~(1 << v) if v else 0 for v in range(1101)]
    assert _mask_has_clique(masks, full, 1100)
    assert not _mask_has_clique(masks, full, 1101)


def test_mask_has_clique_matches_brute_on_every_labelled_graph_up_to_5():
    for g in oracles.labelled_graphs(5):
        full = _full_mask(g.n)
        clique = {
            c
            for k in range(g.n + 1)
            for c in itertools.combinations(g.vertices, k)
            if oracles.is_clique(g, c)
        }
        for avail in range(0, full + 1, 2):
            vs = _mask_to_tuple(avail)
            for size in range(-1, 6):
                expected = size >= 0 and any(
                    c in clique for c in itertools.combinations(vs, size)
                )
                assert _mask_has_clique(g._masks, avail, size) == expected, (g.edges, vs, size)


# ---------------------------------------------------------------------------
# connectivity and coloring


def test_is_connected():
    assert is_connected(oracles.path_graph(5))
    assert not is_connected(Graph(4, [(1, 2), (3, 4)]))
    assert is_connected(Graph(1, []))
    assert not is_connected(Graph(2, []))


def _is_connected_reference(g):
    return g.n <= 1 or len(oracles.component_reference(g, g.vertices)[0]) == g.n


def test_component_matches_the_reference_on_every_labelled_graph_up_to_5():
    for g in oracles.labelled_graphs(5):
        assert _component(g._masks, 0) == (0, 0)
        for rest in range(2, _full_mask(g.n) + 1, 2):
            comp, even = oracles.component_reference(g, _mask_to_tuple(rest))
            got = _component(g._masks, rest)
            assert tuple(map(_mask_to_tuple, got)) == (tuple(sorted(comp)), tuple(sorted(even)))


def test_is_connected_matches_the_reference():
    classes = enumerate_graphs_up_to(7).graphs
    assert len(classes) == 1252
    for g in classes + tuple(oracles.random_graphs(300, 9, seed=20261019, p=0.25)):
        assert is_connected(g) == _is_connected_reference(g), g.edges


def _has_chromatic_number(g, chi):
    return not is_k_colorable(g, chi - 1) and is_k_colorable(g, chi)


def test_chromatic_number_known_values():
    assert _has_chromatic_number(oracles.cycle_graph(5), 3)
    assert _has_chromatic_number(oracles.cycle_graph(6), 2)
    assert _has_chromatic_number(oracles.complete_graph(4), 4)
    assert _has_chromatic_number(oracles.petersen_graph(), 3)
    assert _has_chromatic_number(Graph(3, []), 1)
    # the Mycielski graph M5: 23 vertices, no triangle, chromatic number 5
    m5 = oracles.mycielski(oracles.mycielski(oracles.cycle_graph(5)))
    assert m5.n == 23 and max(len(c) for c in maximal_cliques(m5)) == 2
    assert _has_chromatic_number(m5, 5)


def test_chromatic_number_matches_brute():
    for g in small_corpus() + tuple(seeded_corpus()):
        chi = oracles.chromatic_number_brute(g)
        for k in range(chi + 2):
            assert is_k_colorable(g, k) == (k >= chi), (g.edges, k)


def test_colouring_keeps_its_own_stack_on_1200_vertices():
    # each search goes one level per vertex: 1,200 levels deep
    assert is_k_colorable(Graph(1200), 1)
    matching = Graph(1200, [(v, v + 1) for v in range(1, 1200, 2)])
    assert is_k_colorable(matching, 2)
    assert not is_k_colorable(matching, 1)
    assert r_partition(matching, 2) == (
        tuple(range(1, 1201, 2)),
        tuple(range(2, 1201, 2)),
    )


# ---------------------------------------------------------------------------
# r-partitions


def test_r_partition_c4():
    assert r_partition(oracles.cycle_graph(4), 2) == ((1, 3), (2, 4))


def test_r_partition_requires_r_nonempty_parts():
    assert r_partition(oracles.complete_graph(3), 2) is None
    assert r_partition(Graph(1, []), 2) is None


def test_r_partition_parts_are_independent_and_cover():
    for g in small_corpus(5):
        for r in (2, 3):
            parts = r_partition(g, r)
            if parts is None:
                continue
            assert len(parts) == r and all(parts)
            assert sorted(v for p in parts for v in p) == list(range(1, g.n + 1))
            for p in parts:
                assert oracles.is_independent(g, p)


def test_all_r_partitions_match_brute():
    for g in small_corpus(5):
        for r in (2, 3):
            got = all_r_partitions(g, r)
            as_sets = {frozenset(frozenset(p) for p in parts) for parts in got}
            assert len(as_sets) == len(got), "duplicate partition emitted"
            assert as_sets == oracles.all_r_partitions_brute(g, r)


def test_partitions_keep_the_reference_order_on_every_class_to_n7():
    # the class-mask search visits colours in the order of the per-vertex
    # colour array it replaced, so both lists come out in the same order
    for g in small_corpus(7):
        for r in (2, 3, 4):
            ref = oracles.partition_search_reference(g, r, collect_all=True)
            assert all_r_partitions(g, r) == ref, (g.edges, r)
            first = oracles.partition_search_reference(g, r, collect_all=False)
            assert r_partition(g, r) == (first[0] if first else None), (g.edges, r)


# ---------------------------------------------------------------------------
# perfection


def test_is_perfect_known_values():
    assert not is_perfect(oracles.cycle_graph(5))
    assert is_perfect(oracles.cycle_graph(6))
    assert not is_perfect(oracles.cycle_graph(7))
    assert not is_perfect(complement(oracles.cycle_graph(7)))
    assert is_perfect(oracles.complete_graph(5))
    assert is_perfect(oracles.path_graph(4))


def test_is_perfect_matches_brute():
    for g in small_corpus():
        assert is_perfect(g) == oracles.is_perfect_brute(g)


def test_odd_hole_search_matches_brute_on_every_class_to_n7():
    for g in small_corpus(7):
        co = complement(g)
        assert _has_odd_hole(g._masks) == oracles.has_odd_hole_brute(g), g.edges
        assert _has_odd_hole(co._masks) == oracles.has_odd_hole_brute(co), g.edges


def _random_set(n):
    return [
        g
        for i, p in enumerate((0.3, 0.5, 0.7))
        for g in oracles.random_graphs(400, n, seed=7100 + 10 * n + i, p=p)
    ]


@pytest.mark.parametrize("n", [8, 9])
def test_odd_hole_search_matches_brute_on_random_graphs(n):
    graphs = _random_set(n)
    holes = [oracles.has_odd_hole_brute(g) for g in graphs]
    assert 0 < sum(holes) < len(graphs)
    assert [_has_odd_hole(g._masks) for g in graphs] == holes


def test_is_perfect_matches_brute_on_random_9_vertex_graphs():
    for g in _random_set(9)[::2]:
        assert is_perfect(g) == oracles.is_perfect_brute(g), g.edges


def _grid(rows, cols):
    def at(i, j):
        return i * cols + j + 1

    right = [(at(i, j), at(i, j + 1)) for i in range(rows) for j in range(cols - 1)]
    down = [(at(i, j), at(i + 1, j)) for i in range(rows - 1) for j in range(cols)]
    return Graph(rows * cols, right + down)


def test_is_perfect_at_scale():
    # far beyond subset enumeration: the 5 x 6 grid has about 2^29 odd subsets
    assert is_perfect(_grid(5, 6))
    assert is_perfect(oracles.path_graph(40))
    assert not is_perfect(oracles.cycle_graph(41))
    assert not is_perfect(complement(oracles.cycle_graph(41)))


@pytest.mark.extended
def test_is_perfect_matches_brute_n7():
    for g in enumerate_graphs_up_to(7).graphs:
        assert is_perfect(g) == oracles.is_perfect_brute(g)


# ---------------------------------------------------------------------------
# canonical forms


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(7)
    for g in oracles.random_graphs(20, 7, seed=11):
        base = canonical_form(g)
        for _ in range(5):
            order = list(range(1, 8))
            rng.shuffle(order)
            perm = {i + 1: order[i] for i in range(7)}
            assert canonical_form(oracles.relabeled(g, perm)) == base


def test_canonical_form_distinguishes_nonisomorphic_graphs():
    p4 = oracles.path_graph(4)
    star = Graph(4, [(1, 2), (1, 3), (1, 4)])
    c4 = oracles.cycle_graph(4)
    forms = {canonical_form(p4), canonical_form(star), canonical_form(c4)}
    assert len(forms) == 3


def test_labeled_4_cycles_collapse_to_one_class():
    cycles = [
        Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
        Graph(4, [(1, 2), (2, 4), (3, 4), (1, 3)]),
        Graph(4, [(1, 3), (2, 3), (2, 4), (1, 4)]),
    ]
    assert len(set(cycles)) == 3
    assert len({canonical_form(g) for g in cycles}) == 1


def test_canonical_form_size_limit():
    with pytest.raises(ValueError):
        canonical_form(Graph(MAX_CANONICAL_N + 1, []))


def test_canonical_form_matches_reference_on_labelled_graphs_up_to_5():
    for n in range(6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
            assert canonical_form(g) == oracles.canonical_form_reference(g), g.edges


def test_forced_orderings_equal_the_twin_pruned_search_on_labelled_graphs_up_to_6(monkeypatch):
    """When every refinement class is one chain of twins, canonical_form
    reads the rows of the one ordering left off the edges.  On every
    labelled graph up to n = 6 its forms equal the twin-pruned search of
    the oracles, and that path serves graphs whose refinement is not
    discrete."""
    served = []
    real_rows = graphs._rows_at

    def counted(n, edges, position):
        served.append(edges)
        return real_rows(n, edges, position)

    monkeypatch.setattr(graphs, "_rows_at", counted)
    forced = 0
    for n in range(7):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
            del served[:]
            assert canonical_form(g) == oracles.canonical_form_twin_pruned(g), g.edges
            if served and _refine(n, g._masks, g.edges)[1] < n:
                forced += 1
    assert forced > 10000


def test_canonical_form_matches_reference_on_every_child_of_the_n6_classes():
    """Every one-vertex augmentation of every class on at most 6 vertices:
    11,290 labelled graphs on 2..7 vertices, many with twins.  The trusted
    constructor the enumeration uses must build the same graph."""
    for p in enumerate_graphs_up_to(6).graphs:
        k = p.n + 1
        for nbrs in range(0, 1 << k, 2):
            child = Graph(k, p.edges + tuple((v, k) for v in range(1, k) if nbrs >> v & 1))
            fast = _augment(p, nbrs)
            assert [getattr(fast, s) for s in Graph.__slots__] == [
                getattr(child, s) for s in Graph.__slots__
            ]
            assert canonical_form(child) == oracles.canonical_form_reference(child)


def test_canonical_form_matches_reference_on_random_graphs():
    # the core the enumeration calls on a child's masks takes the edges in
    # any order
    rng = random.Random(26)
    for n in (7, 8, 9):
        for i, p in enumerate((0.2, 0.5, 0.8)):
            for g in oracles.random_graphs(40, n, seed=10 * n + i, p=p):
                form = oracles.canonical_form_reference(g)
                assert canonical_form(g) == form, g.edges
                edges = rng.sample(g.edges, len(g.edges))
                assert graphs._canonical(g.n, g._masks, edges) == form, g.edges


def _disjoint_triangles(count):
    return Graph(3 * count, [
        (3 * i + a, 3 * i + b) for i in range(count) for a, b in ((1, 2), (1, 3), (2, 3))
    ])


@pytest.mark.parametrize("g, form", [
    (Graph(9), "9:0.0.0.0.0.0.0.0.0"),
    (oracles.complete_graph(9), "9:0.1.3.7.f.1f.3f.7f.ff"),
    (_disjoint_triangles(3), "9:0.0.0.1.3.8.11.40.81"),
    (oracles.complement_brute(_disjoint_triangles(3)), "9:0.0.0.7.e.1c.3f.7e.fc"),
    (oracles.cycle_graph(9), "9:0.0.0.0.1.5.14.50.c0"),
], ids=["empty", "K9", "3K3", "K333", "C9"])
def test_canonical_form_of_symmetric_9_vertex_graphs_is_pinned(g, form):
    # Computed with oracles.canonical_form_reference, which needs about 2 s
    # each on the empty graph and K9; the twin-pruned search needs under 1 ms.
    assert canonical_form(g).decode() == form
