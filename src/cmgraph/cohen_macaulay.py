"""Cohen-Macaulayness of complexes and graphs, with checkable witnesses.

Two deciders live here.  reisner_cm applies the homological criterion: a
complex is Cohen-Macaulay over a field K iff for every face F (including the
empty face) the link of F has vanishing reduced homology in all degrees
strictly below its dimension.  bipartite_cm_ordering applies the
Herzog-Hibi combinatorial criterion for bipartite graphs, which is
characteristic-free.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .complexes import SimplicialComplex, independence_complex, link
from .graphs import Graph, r_partition
from .homology import FieldSpec, reduced_betti

_F2 = FieldSpec(2)


@dataclass(frozen=True)
class HomologyWitness:
    """A face whose link has nonvanishing reduced homology in degree index."""

    face: tuple[int, ...]
    index: int


@dataclass(frozen=True)
class PurityWitness:
    """Two facets of different cardinality, disproving purity."""

    facet_small: tuple[int, ...]
    facet_large: tuple[int, ...]


@dataclass(frozen=True)
class CMReport:
    field: FieldSpec
    is_cm: bool
    witness: HomologyWitness | PurityWitness | None


def cm_report_json(report: CMReport) -> dict:
    """The documented JSON shape: characteristic, verdict, optional witness."""
    w = report.witness
    if w is None:
        jw = None
    elif isinstance(w, HomologyWitness):
        jw = {"face": list(w.face), "index": w.index}
    else:
        jw = {"kind": "purity", "facets": [list(w.facet_small), list(w.facet_large)]}
    return {
        "characteristic": report.field.characteristic,
        "is_cm": report.is_cm,
        "witness": jw,
    }


def reisner_cm(cx: SimplicialComplex, field: FieldSpec) -> CMReport:
    """Decide Cohen-Macaulayness over the field, with a witness on failure.

    Non-pure complexes fail immediately with a purity witness (a
    Cohen-Macaulay complex is always pure).  Otherwise faces are scanned in
    canonical order (dimension, then lex) and the first face whose link has
    homology below its dimension is returned.  Links of dimension <= 0 are
    skipped: they are nonempty, so there is nothing to check below degree 0.

    Distinct faces often have equal links.  A link's facets determine it,
    since every vertex lies in a facet, so a link seen to pass is kept by
    its facets for the rest of the call and not computed again.  Over the
    rationals a link is first tried over F_2: no integer matrix has larger
    rank over F_2 than over Q, so F_2 Betti numbers bound the rational ones
    from above, and vanishing F_2 homology below the link's dimension passes
    it without fraction-free elimination.  Any other link (2-torsion, or
    rational homology) gets its rational Betti numbers.  The first failing
    link still ends the scan, so the witness is that of the plain scan.
    """
    if not cx.is_pure():
        by_size = sorted(cx.facets, key=len)
        return CMReport(field, False, PurityWitness(by_size[0], by_size[-1]))
    passed: set[tuple[tuple[int, ...], ...]] = set()
    for face in cx.all_faces():
        lk = link(cx, face)
        d = lk.dimension()
        if d <= 0 or lk.facets in passed:
            continue
        if field.characteristic != 0 or any(reduced_betti(lk, _F2)[: d + 1]):
            betti = reduced_betti(lk, field)
            for i in range(-1, d):
                if betti[i + 1]:
                    return CMReport(field, False, HomologyWitness(face, i))
        passed.add(lk.facets)
    return CMReport(field, True, None)


def cm_graph(g: Graph, field: FieldSpec) -> CMReport:
    """Cohen-Macaulayness of a graph, i.e. of its independence complex."""
    return reisner_cm(independence_complex(g), field)


def cm_characteristic_profile(g: Graph, fields: list[FieldSpec]) -> list[CMReport]:
    """One report per requested field, sharing a single complex construction."""
    if not fields:
        raise ValueError("at least one field is required")
    cx = independence_complex(g)
    return [reisner_cm(cx, f) for f in fields]


@dataclass(frozen=True)
class HHOrdering:
    """A certificate ordering for the Herzog-Hibi bipartite criterion.

    pairs[i] = (v_{i+1}, w_{i+1}): matched vertices listed in an order under
    which every cross edge points forward and forwarding composes.
    """

    pairs: tuple[tuple[int, int], ...]


def hh_conditions_hold(g: Graph, pairs: tuple[tuple[int, int], ...]) -> bool:
    """Check the three ordering conditions verbatim against the graph.

    With pairs (v_1, w_1), ..., (v_k, w_k): (1) v_i ~ w_i for all i;
    (2) v_i ~ w_j implies i <= j; (3) v_i ~ w_j and v_j ~ w_k imply v_i ~ w_k
    for i < j < k.
    """
    k = len(pairs)
    for i in range(k):
        if not g.has_edge(pairs[i][0], pairs[i][1]):
            return False
    for i in range(k):
        for j in range(k):
            if i > j and g.has_edge(pairs[i][0], pairs[j][1]):
                return False
    for i in range(k):
        for j in range(i + 1, k):
            for t in range(j + 1, k):
                if (
                    g.has_edge(pairs[i][0], pairs[j][1])
                    and g.has_edge(pairs[j][0], pairs[t][1])
                    and not g.has_edge(pairs[i][0], pairs[t][1])
                ):
                    return False
    return True


def _perfect_matchings_between(
    g: Graph, left: tuple[int, ...], right: tuple[int, ...]
):
    """Perfect matchings of the bipartite graph, lexicographic by partner list."""
    k = len(left)
    free = set(right)
    partner = [0] * k

    def assign(i: int):
        if i == k:
            yield tuple(zip(left, partner))
            return
        for w in sorted(g.adj[left[i]] & free):
            free.discard(w)
            partner[i] = w
            yield from assign(i + 1)
            free.add(w)

    yield from assign(0)


def bipartite_cm_ordering(g: Graph) -> HHOrdering | None:
    """Search for a Herzog-Hibi ordering; None means the graph is not CM.

    Requires a bipartite graph with both parts nonempty.  Parts of unequal
    size never admit an ordering.  For each perfect matching, cross edges
    orient the pairs; an ordering compatible with condition (2) exists iff
    that orientation is acyclic, and condition (3) holds for one topological
    order iff it holds for all, so a single deterministic topological sort
    per matching decides the matter.
    """
    parts = r_partition(g, 2)
    if parts is None:
        raise ValueError("graph is not bipartite with two nonempty parts")
    left, right = parts
    if len(left) != len(right):
        return None
    for matching in _perfect_matchings_between(g, left, right):
        ordered = _topological_pair_order(g, matching)
        if ordered is not None and hh_conditions_hold(g, ordered):
            return HHOrdering(ordered)
    return None


def _topological_pair_order(
    g: Graph, matching: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, int], ...] | None:
    """Sort pairs so every cross edge v_a ~ w_b points forward; None on a cycle.

    Deterministic: among ready pairs the one with the smallest (v, w) comes
    first.
    """
    k = len(matching)
    succ: list[list[int]] = [[] for _ in range(k)]
    indeg = [0] * k
    for a in range(k):
        for b in range(k):
            if a != b and g.has_edge(matching[a][0], matching[b][1]):
                succ[a].append(b)
                indeg[b] += 1
    ready = [(matching[a], a) for a in range(k) if indeg[a] == 0]
    heapq.heapify(ready)
    out: list[tuple[int, int]] = []
    while ready:
        pair, a = heapq.heappop(ready)
        out.append(pair)
        for b in succ[a]:
            indeg[b] -= 1
            if indeg[b] == 0:
                heapq.heappush(ready, (matching[b], b))
    if len(out) != k:
        return None
    return tuple(out)
