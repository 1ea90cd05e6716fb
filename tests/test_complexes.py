import contextlib
import itertools
import random
import re
import signal
import time
import tracemalloc

import pytest

import oracles
from cmgraph.complexes import (
    BUDGET_EXHAUSTED,
    NOT_SHELLABLE,
    SHELLABLE,
    ComplexFormatError,
    SimplicialComplex,
    format_complex,
    independence_complex,
    is_shellable,
    is_shelling_order,
    link,
    parse_complex,
)
from cmgraph.fixtures import FIG1_EDGES, fig1_graph
from cmgraph.graphs import Graph, GraphFormatError, parse_graph
from cmgraph.harness import enumerate_graphs_up_to

RP2_FACETS = [
    (1, 2, 3), (1, 2, 6), (1, 3, 4), (1, 4, 5), (1, 5, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
]


def boundary_sphere(d):
    """Boundary of the (d+1)-simplex, a triangulated d-sphere."""
    return SimplicialComplex(d + 2, itertools.combinations(range(1, d + 3), d + 1))


def hollow_triangle():
    return SimplicialComplex(3, [(1, 2), (1, 3), (2, 3)])


# ---------------------------------------------------------------------------
# construction and faces


def test_facets_are_normalized_and_validated():
    cx = SimplicialComplex(3, [(2, 1), (3,)])
    assert cx.facets == ((1, 2), (3,))
    with pytest.raises(ValueError):
        SimplicialComplex(3, [(1, 2, 2)])
    with pytest.raises(ValueError):
        SimplicialComplex(2, [(1, 3)])
    with pytest.raises(ValueError):
        SimplicialComplex(3, [(1, 2)])  # vertex 3 uncovered
    with pytest.raises(ValueError):
        SimplicialComplex(3, [(1, 2, 3), (1, 2)])  # contained facet


@pytest.mark.parametrize(
    "n, facets, message",
    [
        (2, [("1", 2)], "vertex '1' is not an integer"),
        (2, [(True, 2)], "vertex True is not an integer"),
        (2, [(1, 2.0)], "vertex 2.0 is not an integer"),
        (False, [], "vertex count False is not an integer"),
        (2.0, [(1, 2)], "vertex count 2.0 is not an integer"),
    ],
)
def test_complex_rejects_non_integer_vertices(n, facets, message):
    with pytest.raises(ValueError) as err:
        SimplicialComplex(n, facets)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "n, facets, message",
    [
        (-1, [], "vertex count must be nonnegative"),
        (2, [], "a complex on n >= 1 vertices needs at least one facet"),
    ],
)
def test_complex_rejects_a_negative_count_or_no_facets(n, facets, message):
    with pytest.raises(ValueError) as err:
        SimplicialComplex(n, facets)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "facets, message",
    [
        ([[1, 2], 3], "facet 3 is not iterable"),
        (5, "facet list 5 is not iterable"),
    ],
)
def test_complex_rejects_a_facet_list_that_is_not_iterable(facets, message):
    # both once escaped as TypeError: 'int' object is not iterable
    with pytest.raises(ValueError) as err:
        SimplicialComplex(3, facets)
    assert str(err.value) == message


def test_faces_of_dim_outside_the_dimensions_is_empty():
    cx = hollow_triangle()
    assert cx.faces_of_dim(-1) == [()]
    assert cx.faces_of_dim(-2) == [] and cx.faces_of_dim(2) == []
    assert SimplicialComplex(0, []).faces_of_dim(0) == []


def test_header_vertex_count_sizes_no_allocation():
    # per-vertex incidence sized by n peaked near 80 MB at n = 10**7
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            SimplicialComplex(10**7, [(1, 2)])
        with pytest.raises(ComplexFormatError) as parse_err:
            parse_complex("10000000 1\n1 2\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == str(parse_err.value) == "vertex 3 lies in no facet"
    assert peak < 2**20


def test_first_contained_facet_matches_the_pairwise_loop():
    rng = random.Random(17)
    raised = 0
    for _ in range(2000):
        n = rng.randint(1, 7)
        facets = [
            rng.sample(range(1, n + 1), rng.randint(0, n))
            for _ in range(rng.randint(1, 8))
        ]
        expected = oracles.contained_facet_reference(facets)
        if expected is None:
            # the facets are an antichain; only an uncovered vertex is left
            try:
                SimplicialComplex(n, facets)
            except ValueError as exc:
                assert str(exc).endswith("lies in no facet"), (n, facets)
            continue
        with pytest.raises(ValueError) as info:
            SimplicialComplex(n, facets)
        assert str(info.value) == expected, (n, facets)
        raised += 1
    assert raised > 500


def test_facet_validation_is_not_quadratic():
    # comparing every pair of facets took 1.3 s on this 4,000-facet path
    start = time.process_time()
    cx = SimplicialComplex(4001, [(i, i + 1) for i in range(1, 4001)])
    assert time.process_time() - start < 0.3
    assert len(cx.facets) == 4000


def test_empty_complex():
    cx = SimplicialComplex(0, [])
    assert cx.facets == ((),)
    assert cx.dimension() == -1
    assert cx.f_vector() == (1,)
    assert list(cx.all_faces()) == [()]


def test_dimension_purity_f_vector():
    ind_p3 = independence_complex(oracles.path_graph(3))
    assert ind_p3.facets == ((1, 3), (2,))
    assert ind_p3.dimension() == 1
    assert not ind_p3.is_pure()
    assert ind_p3.f_vector() == (1, 3, 1)

    simplex = SimplicialComplex(3, [(1, 2, 3)])
    assert simplex.is_pure()
    assert simplex.f_vector() == (1, 3, 3, 1)


def _links(cx, face) -> bool:
    """Whether link accepts face, which it does exactly for a face."""
    try:
        link(cx, face)
    except ValueError:
        return False
    return True


def test_all_faces_ordering_and_membership():
    cx = hollow_triangle()
    assert list(cx.all_faces()) == [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]
    assert _links(cx, ())
    assert _links(cx, (3, 1))
    assert not _links(cx, (1, 2, 3))
    assert cx.faces_of_dim(1) == [(1, 2), (1, 3), (2, 3)]
    # a repeated or out-of-range vertex makes no face
    for bad in ((1, 1), (2, 1, 2), (0,), (4,), (1, 4), (-1,)):
        assert not _links(cx, bad)
    assert _links(SimplicialComplex(0, []), ())
    assert not _links(SimplicialComplex(0, []), (1,))
    for bad in ((3, 2, 1), (1, 1), (4,)):
        message = f"{tuple(sorted(bad))} is not a face of the complex"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            link(cx, bad)
    # link accepts exactly the sets in the list of all faces
    others = [boundary_sphere(2), SimplicialComplex(6, RP2_FACETS)]
    others.append(SimplicialComplex(5, [(1, 2, 4), (2, 3, 4), (1, 5), (3, 5)]))
    for other in others:
        faces = set(other.all_faces())
        for size in range(other.n + 1):
            for s in itertools.combinations(range(1, other.n + 1), size):
                assert _links(other, s) == (s in faces)


def test_parse_format_round_trip():
    for cx in (hollow_triangle(), boundary_sphere(2), SimplicialComplex(0, [])):
        assert parse_complex(format_complex(cx)) == cx


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty document"),
        ("2 1\n1 2 2\n", "repeated vertex"),
        ("3 2\n1 2\n1 2 3\n", "is contained in"),
        ("2 1\n1 3\n", "out of range"),
        ("3 1\n1 2\n", "lies in no facet"),
        ("2 1\n1 x\n", "expected vertex indices"),
    ],
)
def test_parse_rejects(text, fragment):
    with pytest.raises(ComplexFormatError) as err:
        parse_complex(text)
    assert fragment in str(err.value)


def test_parse_skips_whitespace_only_lines_between_facets():
    assert parse_complex("3 3\n1 2\n \t \n1 3\n\n2 3\n") == hollow_triangle()


@pytest.mark.parametrize(
    "text,graph_message,complex_message",
    [
        ("", "empty document: expected a header line 'n m'",
         "empty document: expected a header line 'n k'"),
        ("# note\n\n3\n", "line 3: expected header 'n m', got '3'",
         "line 3: expected header 'n k', got '3'"),
        ("a b\n", "line 1: expected two integers in header, got 'a b'",
         "line 1: expected two integers in header, got 'a b'"),
        ("-1 0\n", "line 1: header values must be nonnegative",
         "line 1: header values must be nonnegative"),
        ("3 2\n1 2\n", "expected 2 edge lines, found 1",
         "expected 2 facet lines, found 1"),
    ],
)
def test_shared_header_errors_keep_each_format_wording(text, graph_message, complex_message):
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    assert str(err.value) == graph_message
    with pytest.raises(ComplexFormatError) as err:
        parse_complex(text)
    assert str(err.value) == complex_message


# ---------------------------------------------------------------------------
# independence complexes and Stanley-Reisner data


def test_independence_complex_facets_are_the_maximal_independent_sets():
    for g in oracles.random_graphs(10, 7, seed=5):
        cx = independence_complex(g)
        assert cx.n == g.n
        assert list(cx.facets) == oracles.maximal_independent_sets_brute(g)


def test_stanley_reisner_generators_of_independence_complex_are_the_edges(fig1):
    # the oracle that filters flag complexes out of the property tests
    assert oracles.stanley_reisner_generators(independence_complex(fig1)) == list(FIG1_EDGES)
    c5 = oracles.cycle_graph(5)
    assert oracles.stanley_reisner_generators(independence_complex(c5)) == list(c5.edges)


def test_stanley_reisner_generators_generic():
    assert oracles.stanley_reisner_generators(hollow_triangle()) == [(1, 2, 3)]
    assert oracles.stanley_reisner_generators(SimplicialComplex(3, [(1, 2, 3)])) == []
    # minimality: every generator is a nonface whose proper subsets are faces
    cx = independence_complex(oracles.random_graphs(1, 7, seed=9)[0])
    for gen in oracles.stanley_reisner_generators(cx):
        assert not _links(cx, gen)
        for sub in itertools.combinations(gen, len(gen) - 1):
            assert _links(cx, sub)


# ---------------------------------------------------------------------------
# links


def test_link_of_vertex_in_sphere_boundary():
    cx = boundary_sphere(2)
    lk = link(cx, (1,))
    assert lk == hollow_triangle()


def test_link_of_edge():
    lk = link(boundary_sphere(2), (1, 2))
    assert lk.facets == ((1,), (2,))


def test_link_of_empty_face_is_the_complex():
    cx = hollow_triangle()
    assert link(cx, ()) == cx


def test_link_relabels_order_preserving():
    cx = SimplicialComplex(4, [(1, 2, 4), (2, 3, 4)])
    lk = link(cx, (2, 4))
    assert lk.facets == ((1,), (2,))  # vertices 1 and 3 renumbered


def test_link_matches_the_set_reference_on_every_face():
    # facet containment is one AND against the facet masks kept on the complex
    complexes = [boundary_sphere(2), hollow_triangle(), SimplicialComplex(6, RP2_FACETS)]
    complexes.append(SimplicialComplex(5, [(1, 2, 4), (2, 3, 4), (1, 5), (3, 5)]))
    complexes += [independence_complex(g) for g in enumerate_graphs_up_to(6).graphs]
    for cx in complexes:
        for face in cx.all_faces():
            lk = link(cx, face)
            assert (lk.n, lk.facets) == oracles.link_reference(cx.facets, face)


def test_link_rejects_nonface():
    with pytest.raises(ValueError):
        link(hollow_triangle(), (1, 2, 3))


@contextlib.contextmanager
def cpu_bound(seconds):
    """Raise TimeoutError, rather than hang, once the block has spent
    seconds of user CPU time."""

    def expire(signum, frame):
        raise TimeoutError(f"over {seconds} s of CPU time")

    previous = signal.signal(signal.SIGVTALRM, expire)
    signal.setitimer(signal.ITIMER_VIRTUAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, previous)


def test_link_takes_no_facet_mask():
    # a mask of the facets above the face handed in by the caller could
    # disagree with the face (0b10 gave ((1, 2),)) or never end (-1)
    cx = independence_complex(oracles.path_graph(3))
    with cpu_bound(0.5):
        assert link(cx, (1,)).facets == ((1,),)
        for above in (0b10, -1):
            with pytest.raises(TypeError):
                link(cx, (1,), above=above)


@pytest.mark.parametrize(
    "face, message",
    [
        ((True,), "vertex True is not an integer"),
        ((1, False), "vertex False is not an integer"),
        ((1.0,), "vertex 1.0 is not an integer"),
        (("1",), "vertex '1' is not an integer"),
        ((-1,), "(-1,) is not a face of the complex"),
        ((1, -2), "(-2, 1) is not a face of the complex"),
        ((4,), "(4,) is not a face of the complex"),
        ((0,), "(0,) is not a face of the complex"),
        ((1, 2**70), f"(1, {2**70}) is not a face of the complex"),
        # these two once escaped as TypeError: 'int' object is not iterable
        (1, "face 1 is not iterable"),
        (None, "face None is not iterable"),
    ],
)
def test_link_rejects_a_vertex_that_is_no_vertex_of_a_face(face, message):
    # True and 1.0 once read as vertex 1
    cx = independence_complex(oracles.path_graph(3))
    with cpu_bound(0.5):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            link(cx, face)


def test_links_and_independence_complexes_pass_the_validating_constructor():
    # link and independence_complex skip the containment checks, since their
    # facets are an antichain by construction; the checked constructor must
    # accept them and give the same complex
    from test_homology import scan_links

    built = scan_links()
    built += [independence_complex(g) for g in enumerate_graphs_up_to(7).graphs]
    for cx in built:
        assert cx == SimplicialComplex(cx.n, cx.facets), cx.facets


# ---------------------------------------------------------------------------
# shelling order verification


def test_is_shelling_order_accepts_known_good_orders():
    assert is_shelling_order([(1, 2), (1, 3), (2, 3)])
    assert is_shelling_order([(1, 2, 3)])
    assert is_shelling_order([(1, 2, 3), (2, 3, 4), (1, 2, 4), (1, 3, 4)])


def test_is_shelling_order_rejects_bad_orders():
    assert not is_shelling_order([(1, 2), (3, 4)])
    assert not is_shelling_order([(1, 2, 3), (3, 4, 5)])


# ---------------------------------------------------------------------------
# shellability search


def test_spheres_and_simplices_are_shellable():
    for cx in (boundary_sphere(1), boundary_sphere(2), boundary_sphere(3),
               SimplicialComplex(4, [(1, 2, 3, 4)])):
        res = is_shellable(cx)
        assert res.status == SHELLABLE
        assert sorted(res.order) == sorted(cx.facets)
        assert is_shelling_order(res.order)


def test_one_dimensional_complexes():
    star = SimplicialComplex(4, [(1, 2), (1, 3), (1, 4)])
    assert is_shellable(star).status == SHELLABLE
    hexagon = independence_complex(oracles.cycle_graph(6))
    assert not hexagon.is_pure()  # C6 has mixed independent set sizes
    path = SimplicialComplex(4, [(1, 2), (2, 3), (3, 4)])
    assert is_shellable(path).status == SHELLABLE


def test_disconnected_pure_1_complex_is_not_shellable():
    res = is_shellable(SimplicialComplex(4, [(1, 2), (3, 4)]))
    assert res.status == NOT_SHELLABLE
    assert res.order is None


def test_projective_plane_is_not_shellable():
    res = is_shellable(SimplicialComplex(6, RP2_FACETS))
    assert res.status == NOT_SHELLABLE
    assert res.order is None


def test_nonpure_complex_is_rejected():
    with pytest.raises(ValueError):
        is_shellable(independence_complex(oracles.path_graph(3)))


def test_budget_exhaustion_reports_unknown():
    res = is_shellable(boundary_sphere(2), budget=1)
    assert res.status == BUDGET_EXHAUSTED
    assert res.order is None
    assert res.steps >= 1


def test_single_facet_short_circuit():
    res = is_shellable(SimplicialComplex(2, [(1, 2)]))
    assert res.status == SHELLABLE and res.order == ((1, 2),)


def test_long_path_complex_is_shellable_without_recursion():
    # 1,100 facets: a search with one recursion level per facet placed
    # raised RecursionError here
    cx = SimplicialComplex(1101, [(i, i + 1) for i in range(1, 1101)])
    res = is_shellable(cx)
    assert res.status == SHELLABLE
    assert sorted(res.order) == sorted(cx.facets)
    assert is_shelling_order(res.order)


def test_shelling_search_start_up_is_not_quadratic_in_memory():
    # Two facets-by-facets tables built before the first step would peak at
    # 10.8 MB on this 400-edge path (134 MB at 1,100 edges).  tracemalloc
    # slows every big-int temporary of the search, so the 1,100-edge path
    # would take about 20 s under it; 400 edges keep the test near 2 s.
    cx = SimplicialComplex(401, [(i, i + 1) for i in range(1, 401)])
    tracemalloc.start()
    try:
        res = is_shellable(cx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status == SHELLABLE
    assert peak < 2 * 2**20


def test_shelling_search_on_a_star_keeps_no_copy_per_frame():
    # 400 triangles on the edge {1, 2}: the first push puts that ridge on a
    # placed facet and logs one entry per triangle; a copy of every facet's
    # uncovered set per frame would hold 400 sets per frame, 400 frames deep
    # (61 MB on 600 triangles)
    cx = SimplicialComplex(402, [(1, 2, k) for k in range(3, 403)])
    tracemalloc.start()
    try:
        res = is_shellable(cx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.status, res.steps) == (SHELLABLE, 400)
    assert peak < 2 * 2**20


@pytest.mark.parametrize("budget", [10**8, 17, 3])
@pytest.mark.parametrize(
    "facets",
    [
        [(1, 2, k) for k in range(3, 203)],
        [(i, i + 1, i + 2) for i in range(1, 201)],
    ],
    ids=["star-200", "strip-200"],
)
def test_shelling_search_on_a_star_and_a_strip_matches_the_recursive_reference(
    facets, budget
):
    # one ridge on all 200 facets, and 199 ridges on two facets each
    cx = SimplicialComplex(202, facets)
    res = is_shellable(cx, budget)
    assert (res.status, res.order, res.steps) == oracles.shelling_search_recursive(
        cx.facets, budget
    )


@pytest.mark.parametrize("budget", [10**8, 17, 3])
def test_shelling_search_matches_the_recursive_reference(budget):
    checked = 0
    for g in enumerate_graphs_up_to(6).graphs:
        cx = independence_complex(g)
        if not cx.is_pure():
            continue
        res = is_shellable(cx, budget)
        assert (res.status, res.order, res.steps) == oracles.shelling_search_recursive(
            cx.facets, budget
        ), g.edges
        checked += 1
    assert checked == 73


def whiskered_tree(n, spine):
    """The tree on 1..n given by spine, with a pendant vertex v + n on each v."""
    return Graph(2 * n, spine + [(v, v + n) for v in range(1, n + 1)])


C4_PLUS_WHISKERED_P5 = Graph(
    14,
    [(1, 2), (2, 3), (3, 4), (1, 4)]
    + [(i, i + 1) for i in range(5, 9)]
    + [(v, v + 5) for v in range(5, 10)],
)


@pytest.mark.parametrize(
    "g, status, steps",
    [
        (fig1_graph(), NOT_SHELLABLE, 32_936),
        (C4_PLUS_WHISKERED_P5, NOT_SHELLABLE, 10_330),
        (oracles.whiskered_path(7), SHELLABLE, 34),
        (whiskered_tree(6, [(1, 2), (2, 3), (1, 4), (4, 5), (1, 6)]), SHELLABLE, 22),
    ],
    ids=["fig1", "C4+whiskered-P5", "whiskered-P7", "whiskered-spider6"],
)
def test_shelling_search_on_the_cm_decide_complexes(g, status, steps):
    # the four complexes of the cm-decide benchmark, at its budget
    cx = independence_complex(g)
    res = is_shellable(cx, 200_000)
    assert (res.status, res.steps) == (status, steps)
    assert (res.status, res.order, res.steps) == oracles.shelling_search_recursive(
        cx.facets, 200_000
    )
