"""Property tests of the CM decider and its link memo, on graphs with at most
8 vertices.

Examples are drawn with hypothesis, derandomized so every run checks the
same graphs.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import oracles
from cmgraph.cohen_macaulay import cm_graph
from cmgraph.complexes import independence_complex, link
from cmgraph.graphs import Graph
from cmgraph.homology import FieldSpec, reduced_betti

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
    if cm_graph(g, F2).is_cm or cm_graph(g, F3).is_cm:
        assert cm_graph(g, Q).is_cm


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.data())
def test_relabelling_keeps_cm_verdicts_and_betti_vectors(data):
    g = data.draw(graphs())
    images = data.draw(st.permutations(range(1, g.n + 1)))
    h = oracles.relabeled(g, dict(zip(range(1, g.n + 1), images)))
    cx_g, cx_h = independence_complex(g), independence_complex(h)
    for field in (Q, F2, F3):
        assert cm_graph(h, field).is_cm == cm_graph(g, field).is_cm
        assert reduced_betti(cx_h, field) == reduced_betti(cx_g, field)


def without_closed_neighbourhood(g: Graph, face: tuple[int, ...]) -> Graph:
    """G - N[F], relabelled in order to 1..n'."""
    removed = set(face).union(*(g.adj[v] for v in face))
    kept = {u: i for i, u in enumerate((u for u in g.vertices if u not in removed), 1)}
    edges = [(kept[a], kept[b]) for a, b in g.edges if a in kept and b in kept]
    return Graph(len(kept), edges)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(graphs())
def test_link_of_a_face_is_the_independence_complex_off_its_closed_neighbourhood(g):
    # the CM scan keys link verdicts by the vertex mask V - N[F]: this is
    # the identity that makes equal masks give equal links
    cx = independence_complex(g)
    for face in cx.all_faces():
        assert link(cx, face) == independence_complex(without_closed_neighbourhood(g, face))
