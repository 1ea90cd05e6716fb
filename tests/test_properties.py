"""Property tests of the CM decider, its links, the shelling search and
the records' r-partition check, on graphs with at most 10 vertices and on
complexes with at most 9.

Examples are drawn with hypothesis, derandomized so every run checks the
same graphs and complexes.
"""

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

import oracles
from cmgraph import cohen_macaulay, harness
from cmgraph.cohen_macaulay import cm_characteristic_profile, reisner_cm
from cmgraph.covers import _r_partitions_matched, perfect_r_matchings
from cmgraph.complexes import (
    SimplicialComplex,
    independence_complex,
    is_shellable,
    link,
)
from cmgraph.graphs import Graph, _complement_masks
from cmgraph.homology import FieldSpec, _strong_core, reduced_betti

Q = FieldSpec(0)
F2 = FieldSpec(2)
F3 = FieldSpec(3)


@st.composite
def graphs(draw, max_n: int = 8) -> Graph:
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(n, sorted(edges))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(graphs())
def test_cm_over_f2_or_f3_implies_cm_over_q(g):
    # a matrix has no larger rank over F_p than over Q, so F_p Betti numbers
    # bound the rational ones from above in every link
    if (
        cm_characteristic_profile(g, [F2])[0].is_cm
        or cm_characteristic_profile(g, [F3])[0].is_cm
    ):
        assert cm_characteristic_profile(g, [Q])[0].is_cm


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.data())
def test_relabelling_keeps_cm_verdicts_and_betti_vectors(data):
    g = data.draw(graphs())
    images = data.draw(st.permutations(range(1, g.n + 1)))
    h = oracles.relabeled(g, dict(zip(range(1, g.n + 1), images)))
    cx_g, cx_h = independence_complex(g), independence_complex(h)
    for field in (Q, F2, F3):
        assert (
            cm_characteristic_profile(h, [field])[0].is_cm
            == cm_characteristic_profile(g, [field])[0].is_cm
        )
        assert reduced_betti(cx_h, field) == reduced_betti(cx_g, field)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(graphs())
def test_link_of_a_face_is_the_independence_complex_off_its_closed_neighbourhood(g):
    # a link of Ind(G) is again an independence complex, of G - N[F], so
    # faces with the same V - N[F] have equal links
    cx = independence_complex(g)
    for face in cx.all_faces():
        h = oracles.without_closed_neighbourhood(g, face)
        assert link(cx, face) == independence_complex(h)


def whiskered(g: Graph) -> Graph:
    """g with a pendant vertex v + n hung on each vertex v: always vertex
    decomposable and unmixed, so the certificate settles it."""
    return Graph(2 * g.n, list(g.edges) + [(v, v + g.n) for v in g.vertices])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.one_of(graphs(max_n=10), graphs(max_n=5).map(whiskered)))
def test_graph_profile_equals_the_scan_and_certified_graphs_are_cm(g):
    # the shedding certificate only ever stands in for a scan that passes
    # every field, and a disconnected link for one that fails every field;
    # the reference scan confirms the records' verdicts
    cx = independence_complex(g)
    fields = [F2, Q, F3, F2]
    assert cm_characteristic_profile(g, fields) == cohen_macaulay._reisner_scan(cx, fields)
    reference = [oracles.reisner_cm_reference(cx, f).is_cm for f in fields]
    sets = [sum(1 << v for v in f) for f in cx.facets]
    assert cohen_macaulay._graph_cm(g, sets, fields, _complement_masks(g)) == reference
    if cohen_macaulay._shedding_alpha(g) is not None:
        assert all(reference)


def _complex_on_used_vertices(facets) -> SimplicialComplex:
    """The complex of the inclusion-maximal sets among facets, on the
    vertices they use, relabelled in order to 1..n'."""
    sets = [set(k) for k in facets]
    maximal = {tuple(sorted(k)) for k in sets if not any(k < other for other in sets)}
    used = sorted(set().union(*sets))
    relabel = {v: i for i, v in enumerate(used, 1)}
    return SimplicialComplex(len(used), [[relabel[v] for v in k] for k in maximal])


@st.composite
def pure_complexes(draw, max_n: int = 7) -> SimplicialComplex:
    n = draw(st.integers(3, max_n))
    size = draw(st.integers(2, n - 1))
    candidates = list(itertools.combinations(range(1, n + 1), size))
    return _complex_on_used_vertices(draw(st.sets(st.sampled_from(candidates), min_size=3)))


@st.composite
def complexes(draw, max_n: int = 7) -> SimplicialComplex:
    n = draw(st.integers(1, max_n))
    subsets = st.sets(st.integers(1, n), min_size=1)
    return _complex_on_used_vertices(draw(st.lists(subsets, min_size=1, max_size=8)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(complexes())
def test_reduced_betti_of_the_strong_core_equals_the_smith_oracle(cx):
    # the core is a valid complex, sorted as the validating constructor
    # sorts it, with no dominated vertex left, and it keeps every Betti number
    core = _strong_core(cx, [sum(1 << v for v in f) for f in cx.facets])
    assert SimplicialComplex(core.n, core.facets).facets == core.facets
    assert core.n <= cx.n
    for v in range(1, core.n + 1):
        meet = set.intersection(*[set(k) for k in core.facets if v in k])
        assert meet == {v}, (core.facets, v)
    for field in (Q, F2, F3):
        assert reduced_betti(cx, field) == oracles.betti_brute(cx.facets, field.characteristic)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(pure_complexes())
def test_reisner_cm_matches_the_reference_scan_on_pure_complexes_that_are_not_flag(cx):
    # a flag complex is Ind of a graph; these have a minimal nonface of 3 or
    # more vertices, so they reach the bare-complex scan only
    assume(any(len(s) > 2 for s in oracles.stanley_reisner_generators(cx)))
    for field in (Q, F2, F3):
        assert reisner_cm(cx, field) == oracles.reisner_cm_reference(cx, field)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(complexes())
def test_a_face_that_is_not_an_intersection_of_facets_has_an_acyclic_link(cx):
    # some vertex outside F lies in every facet containing F, so the link
    # is a cone over it: the scan skips these faces
    facets = [set(k) for k in cx.facets]
    for face in cx.all_faces():
        meet = set.intersection(*[k for k in facets if set(face) <= k])
        if meet != set(face):
            lk = link(cx, face)
            for field in (Q, F2, F3):
                assert not any(reduced_betti(lk, field)), (face, field)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(complexes(), pure_complexes()))
def test_face_levels_built_on_first_use_equal_every_subset_of_every_facet(cx):
    # each level is built when first asked for, so each entry point goes
    # first on a fresh complex, and the levels are asked for top down
    subsets = {s for f in cx.facets for k in range(len(f) + 1) for s in itertools.combinations(f, k)}
    faces = sorted(subsets, key=lambda s: (len(s), s))
    dim = cx.dimension()
    sizes = tuple(sum(1 for s in faces if len(s) == k) for k in range(dim + 2))
    assert SimplicialComplex(cx.n, cx.facets).f_vector() == sizes
    assert list(SimplicialComplex(cx.n, cx.facets).all_faces()) == faces
    for d in range(dim + 2, -3, -1):
        assert cx.faces_of_dim(d) == [s for s in faces if len(s) == d + 1], d
    assert list(cx.all_faces()) == faces and cx.f_vector() == sizes


@st.composite
def small_pure_complexes(draw) -> SimplicialComplex:
    """Pure complexes on at most 9 vertices, of dimension 1 to 3, with at
    most 14 facets."""
    n = draw(st.integers(3, 9))
    size = draw(st.integers(2, min(4, n - 1)))
    candidates = list(itertools.combinations(range(1, n + 1), size))
    return _complex_on_used_vertices(
        draw(st.sets(st.sampled_from(candidates), min_size=2, max_size=14))
    )


@pytest.mark.parametrize("budget", [10**8, 17, 3, 1])
@settings(derandomize=True, deadline=None, max_examples=150)
@given(small_pure_complexes())
def test_shelling_search_matches_the_recursive_reference_on_complexes_that_are_not_flag(
    budget, cx
):
    # independence complexes are flag; these have a minimal nonface of 3 or
    # more vertices
    assume(any(len(s) > 2 for s in oracles.stanley_reisner_generators(cx)))
    res = is_shellable(cx, budget)
    assert (res.status, res.order, res.steps) == oracles.shelling_search_recursive(
        cx.facets, budget
    )


@st.composite
def r_factor_graphs(draw) -> tuple[int, Graph]:
    """(r, g) with g on at most 9 vertices holding a perfect r-matching, its
    cliques the runs of r in a random labelling, and r-colourable: the j-th
    member of every clique has colour j, and further edges join vertices of
    different colours only."""
    r = draw(st.integers(1, 4))
    k = draw(st.integers(1, 9 // r))
    n = r * k
    labels = draw(st.permutations(range(1, n + 1)))
    colour = {v: i % r for i, v in enumerate(labels)}
    cliques = [labels[i * r : (i + 1) * r] for i in range(k)]
    forced = {tuple(sorted(e)) for c in cliques for e in itertools.combinations(c, 2)}
    pairs = [
        e for e in itertools.combinations(range(1, n + 1), 2)
        if colour[e[0]] != colour[e[1]] and e not in forced
    ]
    extra = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return r, Graph(n, sorted(forced | extra))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(r_factor_graphs())
def test_a_perfect_r_matching_matches_the_blocks_of_every_r_partition(case):
    # each clique of the matching meets every independent block once
    r, g = case
    assert perfect_r_matchings(g, r, limit=1)
    assert oracles.all_r_partitions_brute(g, r)
    assert oracles.r_partitions_matched_reference(g, r)
    assert _r_partitions_matched(g, r)
    assert harness.compute_records((g,), r, ())[g][1]["all_r_partitions_equal_and_matched"]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(complexes())
def test_link_verdicts_equal_the_first_reduced_betti_failure(cx):
    # the connectivity shortcut and the F_2 screen give what reducing over
    # each field gives
    first = cohen_macaulay._link_failures(cx, [Q, F2, F3])
    d = cx.dimension()
    for field in (Q, F2, F3):
        betti = reduced_betti(cx, field)
        expected = next((i for i in range(-1, d) if betti[i + 1]), None)
        assert first[field] == expected, field
