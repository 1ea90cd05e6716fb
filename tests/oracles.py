"""Brute-force reference implementations used to cross-check the package.

Everything here trades speed for obviousness: subsets are enumerated
directly, colorings come from a subset DP, and homology ranks come from
integer Smith diagonalization.  No algorithmic code is shared with the
package; only the Graph container is reused so results are comparable.
The slow paths at the end keep earlier forms of the package's own searches
to compare its fast paths with; the Reisner scan among them calls the
package's link and reduces each link whole, with no strong collapse
(homology._betti, which the oracles above check on their own), the
Herzog-Hibi search its pair sort key, and the r-partition check the
partition list and the part matchings.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

from cmgraph.cohen_macaulay import (
    CMReport,
    HHOrdering,
    HomologyWitness,
    PurityWitness,
)
from cmgraph.complexes import independence_complex, link
from cmgraph.covers import pairwise_part_matchings
from cmgraph.graphs import Graph, all_r_partitions
from cmgraph.homology import _betti


# ---------------------------------------------------------------------------
# small graph builders


def graph_from_edges(n: int, edges) -> Graph:
    return Graph(n, [tuple(sorted(e)) for e in edges])


def path_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, i + 1) for i in range(1, n)])


def whiskered_path(n: int) -> Graph:
    """The path 1..n with a pendant vertex v + n hung on each v."""
    return graph_from_edges(
        2 * n, [(i, i + 1) for i in range(1, n)] + [(v, v + n) for v in range(1, n + 1)]
    )


def c4_beside_whiskered_path(n: int) -> Graph:
    """The 4-cycle 1..4 beside the whiskered path P_n on 5..2n + 4: Ind is
    pure but not CM, and its failing links are mostly dominated vertices."""
    w = whiskered_path(n)
    return graph_from_edges(
        w.n + 4, [(1, 2), (2, 3), (3, 4), (1, 4)] + [(u + 4, v + 4) for u, v in w.edges]
    )


def cycle_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def disjoint_triangles(k: int) -> Graph:
    """k disjoint triangles: 3^k maximal independent sets, three per component."""
    triangle = ((1, 2), (1, 3), (2, 3))
    return Graph(3 * k, [(3 * i + a, 3 * i + b) for i in range(k) for a, b in triangle])


def triangle_chain(k: int) -> Graph:
    """k triangles joined in a chain by the k - 1 edges (3i, 3i + 1): one
    component, with alpha = k and a number of maximal independent sets
    exponential in k."""
    chain = [(3 * i, 3 * i + 1) for i in range(1, k)]
    return Graph(3 * k, list(disjoint_triangles(k).edges) + chain)


def complete_graph(n: int) -> Graph:
    return graph_from_edges(n, itertools.combinations(range(1, n + 1), 2))


def complete_bipartite(a: int, b: int) -> Graph:
    left = range(1, a + 1)
    right = range(a + 1, a + b + 1)
    return graph_from_edges(a + b, itertools.product(left, right))


def hall_violator(k: int) -> Graph:
    """A connected bipartite graph on parts 1..k and k+1..2k with no perfect
    matching: left k - 1 and k both see only 2k - 1.  Backtracking over
    matchings grows about tenfold per pair on it."""
    edges = [(u, w) for u in range(1, k - 1) for w in range(k + 1, 2 * k)]
    edges += [(k - 1, 2 * k - 1), (k, 2 * k - 1), (1, 2 * k)]
    return Graph(2 * k, edges)


def petersen_graph() -> Graph:
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]
    return graph_from_edges(10, outer + spokes + inner)


def mycielski(g: Graph) -> Graph:
    """The Mycielskian: g, a copy v + n of each v adjacent to the neighbours
    of v, and an apex 2n + 1 on every copy.  It keeps the clique number
    (at least 2) and raises the chromatic number by one."""
    n = g.n
    edges = list(g.edges)
    edges += [e for u, v in g.edges for e in ((u, v + n), (v, u + n))]
    edges += [(v + n, 2 * n + 1) for v in range(1, n + 1)]
    return graph_from_edges(2 * n + 1, edges)


def clique_join(h: Graph, parts) -> Graph:
    """H + K for the parts Q_1, ..., Q_r of an r-partition of h: an r-clique
    k_i = h.n + i, with k_i joined to every vertex of h outside Q_i."""
    n = h.n
    r = len(parts)
    edges = list(h.edges)
    edges += itertools.combinations(range(n + 1, n + r + 1), 2)
    edges += [(v, n + i) for i, q in enumerate(parts, 1) for v in range(1, n + 1) if v not in q]
    return graph_from_edges(n + r, edges)


def relabeled(g: Graph, perm: dict[int, int]) -> Graph:
    return graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def random_graphs(count: int, n: int, seed: int, p: float = 0.5) -> list[Graph]:
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    return [
        Graph(n, [e for e in pairs if rng.random() < p]) for _ in range(count)
    ]


def poset_graphs(count: int, m_max: int, seed: int) -> list[Graph]:
    """Seeded graphs of random partial orders on 2..m_max elements: x_p ~ y_q
    iff p <= q, the Herzog-Hibi form of a Cohen-Macaulay bipartite graph,
    with the 2m vertices' labels shuffled.  Every second graph has one edge
    x_p y_q with p != q toggled, which keeps every x_p ~ y_p and so leaves
    no vertex isolated."""
    rng = random.Random(seed)
    graphs = []
    for i in range(count):
        m = rng.randint(2, m_max)
        # a random relation, forward in a shuffled order, closed transitively
        order = rng.sample(range(m), m)
        below = {(p, p) for p in range(m)}
        below |= {
            (order[a], order[b])
            for a in range(m) for b in range(a + 1, m) if rng.random() < 0.3
        }
        for mid in range(m):
            below |= {(p, q) for p, t in below if t == mid for s, q in below if s == mid}
        if i % 2:
            p, q = rng.sample(range(m), 2)
            below ^= {(p, q)}
        label = rng.sample(range(1, 2 * m + 1), 2 * m)
        graphs.append(graph_from_edges(2 * m, [(label[p], label[m + q]) for p, q in below]))
    return graphs


# ---------------------------------------------------------------------------
# graph predicates by subset enumeration


def _edge_set(g: Graph) -> set[frozenset[int]]:
    return {frozenset(e) for e in g.edges}


def neighbours(g: Graph) -> tuple[frozenset[int], ...]:
    """The neighbours of each vertex (index 0 unused, empty), read from
    g.edges and not from the package's neighbour masks."""
    nb: list[set[int]] = [set() for _ in range(g.n + 1)]
    for u, v in g.edges:
        nb[u].add(v)
        nb[v].add(u)
    return tuple(frozenset(s) for s in nb)


def is_independent(g: Graph, vs) -> bool:
    es = _edge_set(g)
    return all(frozenset(p) not in es for p in itertools.combinations(vs, 2))


def is_clique(g: Graph, vs) -> bool:
    es = _edge_set(g)
    return all(frozenset(p) in es for p in itertools.combinations(vs, 2))


def labelled_graphs(n_max: int):
    """Every labelled graph on 0..n_max vertices, each vertex count in turn."""
    for n in range(n_max + 1):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            yield Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


def component_reference(g: Graph, vs) -> tuple[frozenset[int], frozenset[int]]:
    """The component of the least vertex of the nonempty set vs in the
    subgraph of g induced on vs, and its vertices at even distance from that
    vertex: a breadth-first search over neighbour sets that records each
    vertex's distance."""
    vs = set(vs)
    nb = neighbours(g)
    start = min(vs)
    dist = {start: 0}
    layer = [start]
    while layer:
        nxt = []
        for u in layer:
            for w in sorted(nb[u] & vs):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        layer = nxt
    return frozenset(dist), frozenset(v for v, d in dist.items() if d % 2 == 0)


def maximal_independent_sets_brute(g: Graph) -> list[tuple[int, ...]]:
    verts = range(1, g.n + 1)
    found = []
    for k in range(g.n + 1):
        for vs in itertools.combinations(verts, k):
            if not is_independent(g, vs):
                continue
            others = [v for v in verts if v not in vs]
            if all(not is_independent(g, vs + (v,)) for v in others):
                found.append(vs)
    return sorted(found)


def independence_number_brute(g: Graph) -> int:
    """The largest k with an independent k-subset, trying k = n, n - 1, ...
    over every k-subset, against one set of g's edges."""
    es = _edge_set(g)
    for k in range(g.n, 0, -1):
        for vs in itertools.combinations(range(1, g.n + 1), k):
            if all(frozenset(p) not in es for p in itertools.combinations(vs, 2)):
                return k
    return 0


def is_unmixed_brute(g: Graph) -> bool:
    sizes = {len(s) for s in maximal_independent_sets_brute(g)}
    return len(sizes) <= 1


def maximal_cliques_brute(g: Graph) -> list[tuple[int, ...]]:
    verts = range(1, g.n + 1)
    found = []
    for k in range(g.n + 1):
        for vs in itertools.combinations(verts, k):
            if not is_clique(g, vs):
                continue
            others = [v for v in verts if v not in vs]
            if all(not is_clique(g, vs + (v,)) for v in others):
                found.append(vs)
    return sorted(found)


def clique_number_brute(g: Graph) -> int:
    return max((len(c) for c in maximal_cliques_brute(g)), default=0)


def complement_brute(g: Graph) -> Graph:
    es = _edge_set(g)
    pairs = itertools.combinations(range(1, g.n + 1), 2)
    return graph_from_edges(g.n, [p for p in pairs if frozenset(p) not in es])


def without_closed_neighbourhood(g: Graph, face: tuple[int, ...]) -> Graph:
    """G - N[F], relabelled in order to 1..n'."""
    nb = neighbours(g)
    removed = set(face).union(*(nb[v] for v in face))
    kept = {u: i for i, u in enumerate((u for u in g.vertices if u not in removed), 1)}
    edges = [(kept[a], kept[b]) for a, b in g.edges if a in kept and b in kept]
    return Graph(len(kept), edges)


# ---------------------------------------------------------------------------
# coloring DP over vertex bitmasks (bit i encodes vertex i + 1)


def _mask_tables(g: Graph) -> tuple[list[int], list[int]]:
    """chi[S] and omega[S] for every induced subgraph, as bitmask arrays."""
    n = g.n
    nbr = [0] * n
    for u, v in g.edges:
        nbr[u - 1] |= 1 << (v - 1)
        nbr[v - 1] |= 1 << (u - 1)

    omega = [0] * (1 << n)
    for s in range(1, 1 << n):
        v = (s & -s).bit_length() - 1
        rest = s & ~(1 << v)
        omega[s] = max(omega[rest], 1 + omega[rest & nbr[v]])

    # the color class of the lowest vertex in an optimal coloring is some
    # independent set containing it, so minimizing over all of them is exact
    chi = [0] * (1 << n)
    for s in range(1, 1 << n):
        best = n
        v = (s & -s).bit_length() - 1
        stack = [(1 << v, s & ~(1 << v) & ~nbr[v])]
        while stack:
            ind, avail = stack.pop()
            if avail == 0:
                best = min(best, 1 + chi[s & ~ind])
                continue
            w = (avail & -avail).bit_length() - 1
            rest = avail & ~(1 << w)
            stack.append((ind | (1 << w), rest & ~nbr[w]))
            stack.append((ind, rest))
        chi[s] = best
    return chi, omega


def chromatic_number_brute(g: Graph) -> int:
    if g.n == 0:
        return 0
    chi, _ = _mask_tables(g)
    return chi[(1 << g.n) - 1]


def is_perfect_brute(g: Graph) -> bool:
    if g.n == 0:
        return True
    chi, omega = _mask_tables(g)
    return all(chi[s] == omega[s] for s in range(1 << g.n))


def _induced_is_cycle(nb: tuple[frozenset[int], ...], vs: tuple[int, ...]) -> bool:
    """Whether vs induces one cycle in the graph with neighbour sets nb:
    every member has exactly two neighbours inside vs, and vs is connected."""
    inside = set(vs)
    if any(len(nb[v] & inside) != 2 for v in vs):
        return False
    seen, frontier = {vs[0]}, [vs[0]]
    while frontier:
        for w in nb[frontier.pop()] & inside:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == len(vs)


def has_odd_hole_brute(g: Graph) -> bool:
    """An induced odd cycle on five or more vertices, by trying every odd
    vertex subset of that size."""
    nb = neighbours(g)
    return any(
        _induced_is_cycle(nb, vs)
        for size in range(5, g.n + 1, 2)
        for vs in itertools.combinations(range(1, g.n + 1), size)
    )


def all_r_partitions_brute(g: Graph, r: int) -> set[frozenset[frozenset[int]]]:
    """Distinct partitions into exactly r nonempty independent parts."""
    out = set()
    for assign in itertools.product(range(r), repeat=g.n):
        if len(set(assign)) != r:
            continue
        if any(assign[u - 1] == assign[v - 1] for u, v in g.edges):
            continue
        parts = frozenset(
            frozenset(v + 1 for v in range(g.n) if assign[v] == c)
            for c in range(r)
        )
        out.add(parts)
    return out


def partition_search_reference(
    g: Graph, r: int, collect_all: bool
) -> list[tuple[tuple[int, ...], ...]]:
    """Exactly-r colourings with colours in first-use order, one per
    partition, by a per-vertex colour array: the order in which r_partition
    and all_r_partitions must list the partitions."""
    n = g.n
    found: list[tuple[tuple[int, ...], ...]] = []
    if r > n:
        return found
    color = [0] * (n + 1)
    nb = neighbours(g)

    def place(v: int, used: int) -> bool:
        if v > n:
            if used == r:
                blocks: list[list[int]] = [[] for _ in range(r)]
                for u in range(1, n + 1):
                    blocks[color[u] - 1].append(u)
                found.append(tuple(tuple(b) for b in blocks))
                return not collect_all
            return False
        remaining = n - v
        for c in range(1, min(used + 1, r) + 1):
            if any(color[u] == c for u in nb[v]):
                continue
            new_used = max(used, c)
            if r - new_used > remaining:
                continue
            color[v] = c
            if place(v + 1, new_used):
                return True
            color[v] = 0
        return False

    place(1, 0)
    return found


# ---------------------------------------------------------------------------
# matchings and covers


def perfect_r_matchings_brute(g: Graph, r: int) -> set[frozenset[tuple[int, ...]]]:
    if r <= 0 or g.n % r != 0:
        return set()
    cliques = [
        c
        for c in itertools.combinations(range(1, g.n + 1), r)
        if is_clique(g, c)
    ]
    full = frozenset(range(1, g.n + 1))
    out = set()
    for combo in itertools.combinations(cliques, g.n // r):
        seen: set[int] = set()
        for c in combo:
            seen.update(c)
        if len(seen) == g.n and frozenset(seen) == full:
            out.add(frozenset(combo))
    return out


def clique_cover_number_brute(g: Graph) -> int:
    """Minimum number of cliques covering V(G); equals chi of the complement."""
    return chromatic_number_brute(complement_brute(g))


def link_reference(facets, face) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The link of face as (vertex count, sorted facets): K - F for every
    facet K containing F, relabelled order-preservingly, with sets."""
    f = set(face)
    raw = [tuple(v for v in k if v not in f) for k in facets if f <= set(k)]
    support = sorted({v for k in raw for v in k})
    relabel = {v: i for i, v in enumerate(support, start=1)}
    return len(support), tuple(sorted(tuple(relabel[v] for v in k) for k in raw))


def stanley_reisner_generators(cx) -> list[tuple[int, ...]]:
    """The minimal nonfaces of cx, sorted by size then lexicographically:
    the subsets of 1..n that are no face while every subset one smaller is.
    For the independence complex of a graph these are exactly its edges."""
    faces = set(faces_from_facets(cx.facets))
    return [
        s
        for size in range(1, cx.n + 1)
        for s in itertools.combinations(range(1, cx.n + 1), size)
        if s not in faces and all(s[:i] + s[i + 1 :] in faces for i in range(size))
    ]


# ---------------------------------------------------------------------------
# homology via integer Smith diagonalization


def faces_from_facets(facets) -> list[tuple[int, ...]]:
    faces = {()}
    for f in facets:
        for k in range(1, len(f) + 1):
            faces.update(itertools.combinations(sorted(f), k))
    return sorted(faces, key=lambda t: (len(t), t))


def boundary_int_matrices(facets) -> list[list[list[int]]]:
    """Dense augmented boundary matrices, degree 0 up to the dimension."""
    faces = faces_from_facets(facets)
    dim = max(len(f) for f in faces) - 1
    by_dim = {
        d: [f for f in faces if len(f) == d + 1] for d in range(-1, dim + 1)
    }
    mats = []
    for d in range(0, dim + 1):
        rows = by_dim[d - 1]
        cols = by_dim[d]
        index = {f: i for i, f in enumerate(rows)}
        mat = [[0] * len(cols) for _ in rows]
        for j, face in enumerate(cols):
            for t in range(len(face)):
                sub = face[:t] + face[t + 1 :]
                mat[index[sub]][j] = (-1) ** t
        mats.append(mat)
    return mats


def smith_diagonal(mat: list[list[int]]) -> list[int]:
    """Nonzero diagonal of an integer diagonalization by unimodular ops."""
    a = [row[:] for row in mat]
    diag = []
    while a and a[0]:
        entries = [
            (abs(a[i][j]), i, j)
            for i in range(len(a))
            for j in range(len(a[0]))
            if a[i][j]
        ]
        if not entries:
            break
        _, pi, pj = min(entries)
        a[0], a[pi] = a[pi], a[0]
        for row in a:
            row[0], row[pj] = row[pj], row[0]
        p = a[0][0]
        dirty = False
        for i in range(1, len(a)):
            q = a[i][0] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[0])]
            if a[i][0]:
                dirty = True
        for j in range(1, len(a[0])):
            q = a[0][j] // p
            if q:
                for row in a:
                    row[j] -= q * row[0]
            if a[0][j]:
                dirty = True
        if dirty:
            continue
        diag.append(p)
        a = [row[1:] for row in a[1:]]
        if not a or not a[0]:
            break
    return diag


def _rank_from_diag(diag: list[int], char: int) -> int:
    if char == 0:
        return len(diag)
    return sum(1 for d in diag if d % char != 0)


def betti_brute(facets, char: int) -> tuple[int, ...]:
    """Reduced Betti numbers b~(-1)..b~(dim) over Q or F_char."""
    facets = [tuple(sorted(f)) for f in facets]
    if not facets or facets == [()]:
        return (1,)
    faces = faces_from_facets(facets)
    dim = max(len(f) for f in faces) - 1
    counts = [sum(1 for f in faces if len(f) == d + 1) for d in range(-1, dim + 1)]
    mats = boundary_int_matrices(facets)
    ranks = [_rank_from_diag(smith_diagonal(m), char) for m in mats]
    ranks.append(0)
    betti = []
    for d in range(-1, dim + 1):
        f_d = counts[d + 1]
        below = ranks[d] if d >= 0 else 0
        above = ranks[d + 1] if d + 1 <= dim else 0
        betti.append(f_d - below - above)
    return tuple(betti)


def is_cm_brute(g: Graph, char: int) -> bool:
    """Reisner criterion evaluated from scratch on the independence complex."""
    facets = maximal_independent_sets_brute(g)
    if not facets:
        facets = [()]
    sizes = {len(f) for f in facets}
    if len(sizes) > 1:
        return False
    for face in faces_from_facets(facets):
        fset = set(face)
        lk = [tuple(v for v in k if v not in fset) for k in facets if fset <= set(k)]
        if not lk:
            continue
        dim_lk = max(len(f) for f in lk) - 1
        if dim_lk <= 0:
            continue
        betti = betti_brute(lk, char)
        if any(betti[i] != 0 for i in range(dim_lk + 1)):
            return False
    return True


def disconnected_link_brute(facets) -> bool:
    """Whether some face has a link of dimension 1 or more with nonzero
    reduced H_0, i.e. a disconnected link.  H_0 has no torsion, so one
    field serves for all."""
    for face in faces_from_facets(facets):
        _, lk = link_reference(facets, face)
        if max(len(k) for k in lk) >= 2 and betti_brute(lk, 2)[1]:
            return True
    return False


# ---------------------------------------------------------------------------
# shedding decompositions, read as shelling orders


def shedding_shelling_order(g: Graph, exact: bool = False) -> list[tuple[int, ...]] | None:
    """A shelling order of Ind(g) read off a shedding decomposition of g, or
    None when no decomposition by shedding vertices exists.

    A vertex v is taken as shedding when N[u] <= N[v] for some neighbour u;
    with exact, also when no independent S outside N[v] has every neighbour
    of v adjacent to a vertex of S, tested on every such subset S (Woodroofe,
    Proc. AMS 137, 2009).  Vertices without neighbours join every facet.
    The order is that of Ind(g - v), then v joined to each facet in the
    order of Ind(g - N[v]) (Bjorner & Wachs, Trans. AMS 349, 1997).  Every
    shedding vertex is tried on vertex sets, so the search is exhaustive;
    the caller checks the order with is_shelling_order.
    """

    nb = neighbours(g)

    def sheds(v: int, rest: frozenset[int]) -> bool:
        nv = (nb[v] & rest) | {v}
        if any((nb[u] & rest) | {u} <= nv for u in nb[v] & rest):
            return True
        if not exact:
            return False
        outside = sorted(rest - nv)
        for k in range(len(outside) + 1):
            for s in map(set, itertools.combinations(outside, k)):
                independent = not any(nb[a] & s for a in s)
                if independent and all(nb[w] & s for w in nb[v] & rest):
                    return False
        return True

    @functools.lru_cache(maxsize=None)
    def order(vs: frozenset[int]) -> tuple[tuple[int, ...], ...] | None:
        cones = frozenset(v for v in vs if not nb[v] & vs)
        rest = vs - cones
        if not rest:
            return (tuple(sorted(cones)),)
        for v in sorted(rest):
            if not sheds(v, rest):
                continue
            nv = (nb[v] & rest) | {v}
            deletion, lk = order(rest - {v}), order(rest - nv)
            if deletion is not None and lk is not None:
                facets = deletion + tuple(f + (v,) for f in lk)
                return tuple(tuple(sorted(f + tuple(cones))) for f in facets)
        return None

    found = order(frozenset(g.vertices))
    return None if found is None else list(found)


def h_vector_brute(g: Graph) -> list[int]:
    """The h-vector h_0..h_d of Ind(g), d = dim + 1, from the f-vector of
    independence_complex(g): h_k is the coefficient of t^(d-k) in the
    polynomial sum over i of f_(i-1) (t - 1)^(d-i), expanded by repeated
    multiplication."""
    f = independence_complex(g).f_vector()
    d = len(f) - 1
    poly = [0] * (d + 1)
    for i, fi in enumerate(f):
        term = [1]
        for _ in range(d - i):
            # times (t - 1), coefficients from t^0 up
            term = [a - b for a, b in zip([0] + term, term + [0])]
        for j, c in enumerate(term):
            poly[j] += fi * c
    return [poly[d - k] for k in range(d + 1)]


# ---------------------------------------------------------------------------
# dense rank oracles for the linear algebra layer


def fraction_rank(mat: list[list[int]]) -> int:
    a = [[Fraction(x) for x in row] for row in mat]
    rank = 0
    cols = len(a[0]) if a else 0
    for j in range(cols):
        piv = next((i for i in range(rank, len(a)) if a[i][j]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(len(a)):
            if i != rank and a[i][j]:
                factor = a[i][j] / a[rank][j]
                a[i] = [x - factor * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def mod_rank(mat: list[list[int]], p: int) -> int:
    a = [[x % p for x in row] for row in mat]
    rank = 0
    cols = len(a[0]) if a else 0
    for j in range(cols):
        piv = next((i for i in range(rank, len(a)) if a[i][j]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][j], p - 2, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][j]:
                f = a[i][j]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# canonical form: the slow path the package's search must match byte for byte


def _wl_groups_reference(g: Graph) -> list[list[int]]:
    n = g.n
    nb = neighbours(g)
    colors = [0] * (n + 1)
    for v in g.vertices:
        colors[v] = len(nb[v])
    prev: list[int] | None = None
    while True:
        sigs = {
            v: (colors[v], tuple(sorted(colors[u] for u in nb[v])))
            for v in g.vertices
        }
        rank = {s: i for i, s in enumerate(sorted(set(sigs.values())))}
        new = [0] * (n + 1)
        for v in g.vertices:
            new[v] = rank[sigs[v]]
        if new == prev:
            colors = new
            break
        prev = new
        colors = new
    n_classes = max(colors[1:]) + 1 if n else 0
    groups: list[list[int]] = [[] for _ in range(n_classes)]
    for v in g.vertices:
        groups[colors[v]].append(v)
    return groups


def canonical_form_reference(g: Graph) -> bytes:
    """The minimum adjacency-row sequence over every ordering compatible with
    colour refinement, searched without twin pruning and re-comparing the
    whole prefix with the best for each candidate.  This is the definition
    the package's canonical_form must reproduce; it is slow on dense or
    symmetric graphs (about 2 s for K9)."""
    n = g.n
    if n == 0:
        return b"0:"
    groups = _wl_groups_reference(g)
    slots: list[int] = []
    for gi, grp in enumerate(groups):
        slots.extend([gi] * len(grp))
    unplaced = [set(grp) for grp in groups]
    masks = [0] * (n + 1)
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    placed: list[int] = []
    rows: list[int] = []
    best: list[int] | None = None

    def rec() -> None:
        nonlocal best
        j = len(placed)
        if j == n:
            if best is None or rows < best:
                best = rows[:]
            return
        gi = slots[j]
        cands = []
        for v in unplaced[gi]:
            r = 0
            for u in placed:
                r = (r << 1) | (masks[v] >> u & 1)
            cands.append((r, v))
        cands.sort()
        for r, v in cands:
            if best is not None:
                prefix_cmp = 0
                for k in range(j):
                    if rows[k] != best[k]:
                        prefix_cmp = -1 if rows[k] < best[k] else 1
                        break
                if prefix_cmp > 0:
                    break
                if prefix_cmp == 0 and r > best[j]:
                    break
            rows.append(r)
            placed.append(v)
            unplaced[gi].discard(v)
            rec()
            unplaced[gi].add(v)
            placed.pop()
            rows.pop()

    rec()
    assert best is not None
    body = ".".join(format(r, "x") for r in best)
    return f"{n}:{body}".encode("ascii")


def _wl_groups_sorted_tuples(g: Graph) -> list[list[int]]:
    """Colour refinement on signatures (colour, sorted tuple of neighbour
    colours), stopped at the first round that splits no class: the form the
    package's count-vector refinement replaced."""
    nb = neighbours(g)
    colors = [0] + [len(nb[v]) for v in g.vertices]
    n_classes = len(set(colors[1:]))
    while True:
        sigs = [
            (colors[v], tuple(sorted([colors[u] for u in nb[v]])))
            for v in g.vertices
        ]
        ranked = sorted(set(sigs))
        rank = {s: i for i, s in enumerate(ranked)}
        colors = [0] + [rank[s] for s in sigs]
        if len(ranked) in (n_classes, g.n):
            break
        n_classes = len(ranked)
    groups: list[list[int]] = [[] for _ in ranked]
    for v in g.vertices:
        groups[colors[v]].append(v)
    return groups


def canonical_form_twin_pruned(g: Graph) -> bytes:
    """canonical_form as the package computed it before its discrete path:
    refinement on sorted tuples, then the same prefix-pruned search over
    every refinement class, twins placed in ascending order only (swapping
    two unplaced twins fixes every placed vertex)."""
    n = g.n
    if n == 0:
        return b"0:"
    nb = neighbours(g)
    masks = [0] + [sum(1 << u for u in nb[v]) for v in g.vertices]
    slots: list[int] = []
    unplaced: list[int] = []
    for gi, grp in enumerate(_wl_groups_sorted_tuples(g)):
        slots.extend([gi] * len(grp))
        unplaced.append(sum(1 << v for v in grp))
    by_nbhd: dict[tuple[bool, int], list[int]] = {}
    for v in g.vertices:
        by_nbhd.setdefault((False, masks[v]), []).append(v)
        by_nbhd.setdefault((True, masks[v] | 1 << v), []).append(v)
    twin_before = [0] * (n + 1)
    for cls in by_nbhd.values():
        for a, b in zip(cls, cls[1:]):
            twin_before[b] = 1 << a
    placed: list[int] = []
    rows: list[int] = []
    best: list[int] = []

    def rec(j: int, eq: bool) -> None:
        if j == n:
            if not eq:
                best[:] = rows
            return
        gi = slots[j]
        free = unplaced[gi]
        cands = []
        for v in range(1, n + 1):
            if free >> v & 1 and not twin_before[v] & free:
                r = 0
                for u in placed:
                    r = (r << 1) | (masks[v] >> u & 1)
                cands.append((r, v))
        cands.sort()
        for r, v in cands:
            if eq and r > best[j]:
                break
            rows.append(r)
            placed.append(v)
            unplaced[gi] = free ^ (1 << v)
            rec(j + 1, eq and r == best[j])
            unplaced[gi] = free
            placed.pop()
            rows.pop()
            eq = True

    rec(0, False)
    body = ".".join(format(r, "x") for r in best)
    return f"{n}:{body}".encode("ascii")


# ---------------------------------------------------------------------------
# shelling search: the recursive form the package's iterative search replaced


def shelling_search_recursive(facets, budget: int):
    """(status, order, steps) of the memoized ordered shelling search on the
    sorted facets of a pure complex, one recursion level per facet placed.
    The package's is_shellable must return the same triple; this form runs
    into Python's recursion limit past about a thousand facets."""
    facets = tuple(facets)
    m = len(facets)
    if m == 1:
        return "shellable", (facets[0],), 0
    fsets = [frozenset(f) for f in facets]
    diff_bits = [[0] * m for _ in range(m)]
    single_bit = [[0] * m for _ in range(m)]
    neighbor_count = [0] * m
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            d = 0
            for v in fsets[i] - fsets[j]:
                d |= 1 << v
            diff_bits[i][j] = d
            if d.bit_count() == 1:
                single_bit[i][j] = d
                neighbor_count[i] += 1
    order = sorted(range(m), key=lambda i: (-neighbor_count[i], i))
    full = (1 << m) - 1
    dead: set[int] = set()
    steps = 0

    class Exhausted(Exception):
        pass

    def extend(mask, prefix):
        nonlocal steps
        if mask == full:
            return prefix
        if mask in dead:
            return None
        for i in order:
            if mask >> i & 1:
                continue
            if mask:
                rid = 0
                for j in range(m):
                    if mask >> j & 1:
                        rid |= single_bit[i][j]
                if not rid:
                    continue
                if any(mask >> j & 1 and not diff_bits[i][j] & rid for j in range(m)):
                    continue
            steps += 1
            if steps > budget:
                raise Exhausted
            prefix.append(i)
            got = extend(mask | (1 << i), prefix)
            if got is not None:
                return got
            prefix.pop()
        dead.add(mask)
        return None

    try:
        found = extend(0, [])
    except Exhausted:
        return "budget_exhausted", None, steps
    if found is None:
        return "not_shellable", None, steps
    return "shellable", tuple(facets[i] for i in found), steps


# ---------------------------------------------------------------------------
# Reisner scan: the slow path the package's CM decider must match


def reisner_cm_reference(cx, field):
    """The CMReport of the plain Reisner scan: every face in canonical order,
    every link's Betti numbers over the field itself, each link reduced
    whole with no strong collapse, nothing remembered between faces, one
    field at a time.  This is the slow path both entry points of the
    package's one-scan decider must match, witness face and index
    included: reisner_cm(cx, field) on any complex, and each report of
    cm_characteristic_profile(g, fields) when cx = Ind(g)."""
    if not cx.is_pure():
        by_size = sorted(cx.facets, key=len)
        return CMReport(field, False, PurityWitness(by_size[0], by_size[-1]))
    for face in cx.all_faces():
        lk = link(cx, face)
        d = lk.dimension()
        if d <= 0:
            continue
        betti = _betti(lk, field.characteristic, d)
        for i in range(-1, d):
            if betti[i + 1]:
                return CMReport(field, False, HomologyWitness(face, i))
    return CMReport(field, True, None)


# ---------------------------------------------------------------------------
# facet validation: the pairwise containment loop the package replaced


def contained_facet_reference(facets) -> str | None:
    """The error SimplicialComplex raises for a facet inside another, by the
    pairwise loop its incidence masks replaced: over the facets sorted and
    deduplicated, the first ordered pair (i, j), i != j, with facet i inside
    facet j; None when the facets are an antichain."""
    norm = sorted({tuple(sorted(f)) for f in facets})
    sets = [frozenset(f) for f in norm]
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            if i != j and a <= b:
                return f"facet {norm[i]} is contained in facet {norm[j]}"
    return None


# ---------------------------------------------------------------------------
# Herzog-Hibi ordering: the every-matching search the package replaced


def hh_conditions_hold_reference(g: Graph, pairs) -> bool:
    """hh_conditions_hold as a verbatim triple loop: (1) v_i ~ w_i;
    (2) v_i ~ w_j implies i <= j; (3) v_i ~ w_j and v_j ~ w_t imply
    v_i ~ w_t for i < j < t."""
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


def hh_ordering_reference(g: Graph) -> HHOrdering | None:
    """bipartite_cm_ordering as a slow path: every perfect matching between
    the two parts, lexicographic by partner list, each sorted by the
    package's key (the degree of w, then the pair) and checked by
    hh_conditions_hold_reference; the first that passes gives the ordering.  The
    package tries only the unique perfect matching and must return the
    same ordering."""
    found = partition_search_reference(g, 2, collect_all=False)
    if not found:
        raise ValueError("graph is not bipartite with two nonempty parts")
    left, right = found[0]
    if len(left) != len(right):
        return None
    k = len(left)
    nb = neighbours(g)
    free = set(right)
    partner = [0] * k

    def matchings(i: int):
        if i == k:
            yield tuple(zip(left, partner))
            return
        for w in sorted(nb[left[i]] & free):
            free.discard(w)
            partner[i] = w
            yield from matchings(i + 1)
            free.add(w)

    for matching in matchings(0):
        ordered = tuple(sorted(matching, key=lambda pair: (g.degree(pair[1]), pair)))
        if hh_conditions_hold_reference(g, ordered):
            return HHOrdering(ordered)
    return None


# ---------------------------------------------------------------------------
# clique searches: the recursive forms the package's stack searches replaced


def _cliques_in_lex_order(g: Graph, r: int) -> list[tuple[int, ...]]:
    return [
        c for c in itertools.combinations(range(1, g.n + 1), r) if is_clique(g, c)
    ]


def perfect_r_matchings_recursive(
    g: Graph, r: int, limit: int | None = None
) -> list[tuple[tuple[int, ...], ...]]:
    """The clique lists of perfect_r_matchings(g, r, limit), in its order:
    one recursion level per clique, branching on the lowest uncovered vertex
    with its r-cliques in lexicographic order.  It runs into Python's
    recursion limit past about a thousand cliques."""
    by_vertex: dict[int, list[tuple[int, ...]]] = {}
    for c in _cliques_in_lex_order(g, r):
        by_vertex.setdefault(c[0], []).append(c)
    out: list[tuple[tuple[int, ...], ...]] = []
    chosen: list[tuple[int, ...]] = []

    def cover(covered: set[int]) -> bool:
        if len(covered) == g.n:
            out.append(tuple(chosen))
            return limit is not None and len(out) >= limit
        v = min(set(range(1, g.n + 1)) - covered)
        for c in by_vertex.get(v, []):
            if covered.isdisjoint(c):
                chosen.append(c)
                if cover(covered | set(c)):
                    return True
                chosen.pop()
        return False

    if g.n % r == 0:
        cover(set())
    return out


def alpha_cover_recursive(g: Graph, alpha: int) -> tuple[tuple[int, ...], ...] | None:
    """The first cover of the vertices by alpha maximal cliques in the order
    of the package's alpha_clique_cover: one recursion level per clique,
    branching on the lowest uncovered vertex with its maximal cliques in
    lexicographic order, pruned when the uncovered vertices outnumber what
    the cliques left can hold."""
    cliques = maximal_cliques_brute(g)
    omega = max((len(c) for c in cliques), default=0)
    chosen: list[tuple[int, ...]] = []

    def cover(covered: set[int], left: int) -> bool:
        uncovered = set(range(1, g.n + 1)) - covered
        if not uncovered:
            return True
        if left == 0 or len(uncovered) > left * omega:
            return False
        v = min(uncovered)
        for c in cliques:
            if v in c:
                chosen.append(c)
                if cover(covered | set(c), left - 1):
                    return True
                chosen.pop()
        return False

    return tuple(chosen) if cover(set(), alpha) else None


# ---------------------------------------------------------------------------
# the records' r-partition check and the Bron-Kerbosch pivot, as first written


def r_partitions_matched_reference(g: Graph, r: int) -> bool:
    """The record field all_r_partitions_equal_and_matched as it was first
    defined: every r-partition listed, each validated and matched pair by
    pair by pairwise_part_matchings."""
    return all(pairwise_part_matchings(g, p) for p in all_r_partitions(g, r))


def bron_kerbosch_full_scan(nbr, full: int) -> list[int]:
    """graphs._bron_kerbosch with the pivot scan over every vertex of P | X:
    the maximal cliques as masks, in the order that search emits them."""
    out: list[int] = []
    stack = [(0, full, 0)]
    while stack:
        r, p, x = stack.pop()
        if p == 0 and x == 0:
            out.append(r)
            continue
        pivot, best = -1, -1
        for u in range(len(nbr)):
            if (p | x) >> u & 1:
                c = bin(p & nbr[u]).count("1")
                if c > best:
                    pivot, best = u, c
        cand = p & ~nbr[pivot]
        for v in range(len(nbr)):
            if cand >> v & 1:
                b = 1 << v
                stack.append((r | b, p & nbr[v], x & nbr[v]))
                p ^= b
                x |= b
    return out
