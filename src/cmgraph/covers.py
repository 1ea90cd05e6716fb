"""Clique covers and perfect r-matchings.

A perfect r-matching is a partition of the vertices into r-cliques.  A basic
cover is derived from an arbitrary clique cover by making the cliques
disjoint in order.  alpha_clique_cover decides whether the vertices can be
covered by as few cliques as the independence number allows, which is the
minimum conceivable number since a clique meets an independent set at most
once.  One stack search, _clique_covers, finds both kinds of cover, in
two modes: by disjoint r-cliques for matchings, skipping a node whose
uncovered vertices have a connected component that no matching fits
(graphs._component grows each component), and by overlapping cliques for
alpha covers, skipping a node with more uncovered vertices than the cliques
still allowed can hold.  One augmenting-path matching decides whether two
vertex sets are perfectly matched, for pairwise_part_matchings, the
records' check of every r-partition, that pruning at r = 2 and the
Herzog-Hibi search.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .graphs import (
    Graph,
    _Value,
    _as_tuple,
    _component,
    _full_mask,
    _mask_to_tuple,
    _partition_search,
    _require_at_least,
    _require_int,
    _vertex_set,
    cliques_of_size,
    independence_number,
    maximal_cliques,
)


class RMatching(_Value):
    """A set of pairwise disjoint r-cliques covering 1..n."""

    __slots__ = ("r", "cliques")
    r: int
    cliques: tuple[tuple[int, ...], ...]


def perfect_r_matchings(
    g: Graph, r: int, limit: int | None = None
) -> list[RMatching]:
    """All partitions of the vertices into r-cliques, canonically ordered.

    The search always branches on the lowest uncovered vertex with its
    cliques in lexicographic order, so matchings appear in lexicographic
    order of their sorted clique lists.  With a limit, enumeration stops
    after that many matchings.  A node whose uncovered vertices induce a
    connected component with a size not divisible by r is not expanded:
    each r-clique lies inside one component, so no matching lies below it.
    At r = 2 neither is a node with a bipartite component whose two sides
    are not perfectly matched.  The search is _clique_covers in its
    disjoint mode, so its depth is not bounded by Python's recursion limit.
    """
    _require_at_least(r, "r", 1)
    if limit is not None:
        _require_int(limit, "limit")
        if limit < 1:
            raise ValueError("limit must be positive")
    if g.n % r != 0:
        return []
    return [
        RMatching(r, c)
        for c in _clique_covers(g, cliques_of_size(g, r), g.n // r, r, limit)
    ]


def _clique_covers(
    g: Graph, cliques: list[tuple[int, ...]], most: int, r: int, limit: int | None
) -> list[tuple[tuple[int, ...], ...]]:
    """The covers of the vertices by at most most of the given cliques, in
    search order, up to limit of them.

    The search branches on the lowest uncovered vertex, trying the cliques
    through it in their given order, and keeps its own stack, one frame per
    chosen clique, so its depth is not bounded by Python's recursion limit.
    r selects the mode and with it the one prune a node runs:
    - r > 0, disjoint: the cliques are r-cliques, indexed by their lowest
      vertex only, a clique meeting the covered vertices is skipped, and a
      node is expanded only when _components_fit holds on the uncovered
      vertices.  Every such cover has n / r cliques, so most is not read.
    - r = 0, overlapping: the cliques are indexed by every member, and a
      node is expanded only when at most left * omega vertices are
      uncovered, with left cliques still allowed and omega the largest
      clique size.
    """
    n = g.n
    by_vertex: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(n + 1)]
    for c in cliques:
        m = 0
        for v in c:
            m |= 1 << v
        for v in c[:1] if r else c:
            by_vertex[v].append((m, c))
    omega = 0 if r else max(map(len, cliques), default=0)
    full = _full_mask(n)
    out: list[tuple[tuple[int, ...], ...]] = []
    chosen: list[tuple[int, ...]] = []
    # one frame per node with cliques to try: the mask it covers and the
    # cliques through its lowest uncovered vertex, in the disjoint mode only
    # those that avoid the mask
    stack: list[tuple[int, Iterator[tuple[int, tuple[int, ...]]]]] = []
    mask = 0
    while True:
        rest = full & ~mask
        if not rest:
            out.append(tuple(chosen))
            if len(out) == limit:
                return out
            expand = False
        elif r:
            expand = _components_fit(g, rest, r)
        else:
            left = most - len(chosen)
            expand = left > 0 and rest.bit_count() <= left * omega
        if expand:
            options = by_vertex[(rest & -rest).bit_length() - 1]
            if r:
                options = [(m, c) for m, c in options if not m & mask]
            stack.append((mask, iter(options)))
        elif chosen:
            chosen.pop()
        while stack:
            base, options = stack[-1]
            step = next(options, None)
            if step is not None:
                break
            stack.pop()
            if chosen:
                chosen.pop()
        else:
            return out
        m, c = step
        chosen.append(c)
        mask = base | m


def _components_fit(g: Graph, rest: int, r: int) -> bool:
    """Whether every connected component of the subgraph induced on the
    vertex mask rest has a size divisible by r and, at r = 2, when it is
    bipartite, a perfect matching between its two sides.

    A component is bipartite iff neither of the sides that _component
    returns, its vertices at even and at odd distance from its lowest
    vertex, holds an edge.  A perfect 2-matching of a bipartite component
    matches its two sides perfectly, so a component without one leaves no
    matching below.
    """
    masks = g._masks
    while rest:
        comp, even = _component(masks, rest)
        if comp.bit_count() % r:
            return False
        if r == 2:
            odd = comp ^ even
            # bipartite: no vertex has a neighbour on its own side
            bipartite = not any(
                masks[v] & (odd if odd >> v & 1 else even) for v in _mask_to_tuple(comp)
            )
            if bipartite and _bipartite_matching(g, even, odd) is None:
                return False
        rest ^= comp
    return True


class BasicCliqueCover(_Value):
    """Disjoint residual cliques Q'_i = Q_i \\ (Q_1 u ... u Q_{i-1}).

    dropped lists the 0-based input positions whose residual came out empty
    and was removed.
    """

    __slots__ = ("cliques", "dropped")
    cliques: tuple[tuple[int, ...], ...]
    dropped: tuple[int, ...]


def _check_clique(g: Graph, vs: Sequence[int]) -> tuple[int, ...]:
    t = _vertex_set(vs, g.n, "cover member")
    if not t:
        raise ValueError("cover members must be nonempty")
    for i, u in enumerate(t):
        for v in t[i + 1 :]:
            if not g.has_edge(u, v):
                raise ValueError(f"cover member {t} is not a clique: {u} !~ {v}")
    return t


def basic_clique_cover(
    g: Graph, cover: Iterable[Sequence[int]]
) -> BasicCliqueCover:
    """Disjointify a clique cover in input order, dropping emptied members.

    The input must be a list of cliques of g, each a sequence of int
    vertices (bool excluded), whose union is all vertices; anything else
    raises ValueError.  Residuals of cliques are cliques, so the result is
    again a cover, now by pairwise disjoint cliques.
    """
    members = [_check_clique(g, c) for c in _as_tuple(cover, "cover")]
    union = set().union(*map(set, members)) if members else set()
    if union != set(g.vertices):
        missing = sorted(set(g.vertices) - union)
        raise ValueError(f"cover misses vertices {missing}")
    seen: set[int] = set()
    residuals: list[tuple[int, ...]] = []
    dropped: list[int] = []
    for pos, c in enumerate(members):
        residual = tuple(v for v in c if v not in seen)
        seen.update(c)
        if residual:
            residuals.append(residual)
        else:
            dropped.append(pos)
    return BasicCliqueCover(tuple(residuals), tuple(dropped))


def alpha_clique_cover(g: Graph) -> tuple[tuple[int, ...], ...] | None:
    """A cover of the vertices by independence_number(g) cliques, or None.

    Only maximal cliques are tried: any cover clique extends to a maximal
    one, so this loses no instances.  Branches on the lowest uncovered
    vertex, as _clique_covers does in its overlapping mode; the first cover
    in the deterministic search order is returned.
    """
    covers = _clique_covers(g, maximal_cliques(g), independence_number(g), 0, 1)
    return covers[0] if covers else None


def degree_r_minus_1_vertices(g: Graph, r: int) -> tuple[int, ...]:
    """Vertices of degree exactly r - 1, ascending."""
    _require_at_least(r, "r", 1)
    return tuple(v for v in g.vertices if g._masks[v].bit_count() == r - 1)


def _bipartite_matching(
    g: Graph, left: int, right: int
) -> tuple[tuple[int, int], ...] | None:
    """A perfect matching between two vertex sets, given as masks (bit v for
    vertex v), as (left, right) pairs sorted by left vertex, or None when
    there is none (parts of unequal size included).

    Kuhn's augmenting paths on neighbour masks: each left vertex in turn,
    lowest first, grows an alternating path depth first, lowest right vertex
    first, until it reaches an unmatched right vertex; each right vertex
    enters the path at most once per left vertex so augmented.  The path is
    a list, so its length is not bounded by Python's recursion limit.
    """
    if left.bit_count() != right.bit_count():
        return None
    masks = g._masks
    partner: dict[int, int] = {}  # right vertex -> its left vertex
    rest = left
    while rest:
        root = rest & -rest
        rest ^= root
        seen = 0
        path = [root.bit_length() - 1]  # left vertices; path[i + 1] is partner[taken[i]]
        taken: list[int] = []
        while path:
            free = masks[path[-1]] & right & ~seen
            if not free:
                path.pop()
                if taken:
                    taken.pop()
                continue
            low = free & -free
            seen |= low
            w = low.bit_length() - 1
            taken.append(w)
            if w not in partner:
                for u, x in zip(path, taken):
                    partner[x] = u
                break
            path.append(partner[w])
        else:
            return None
    return tuple(sorted((u, w) for w, u in partner.items()))


def pairwise_part_matchings(
    g: Graph, parts: Sequence[Sequence[int]]
) -> bool:
    """Whether every two blocks of the partition are perfectly matched in g.

    The blocks must partition 1..n into independent sets; invalid partitions
    raise ValueError, as do parts or a block that is not iterable and a
    vertex that is not an integer (bool included).  A block is independent
    when no member's neighbour mask meets the block's mask.  Returns False
    as soon as two blocks lack a perfect matching between them, which blocks
    of different sizes always do.
    """
    blocks = [_as_tuple(p, "block") for p in _as_tuple(parts, "parts")]
    flat = [v for b in blocks for v in b]
    for v in flat:
        _require_int(v, "vertex")
    if len(flat) != len(set(flat)) or set(flat) != set(g.vertices):
        raise ValueError("blocks must partition the vertex set")
    blocks = [tuple(sorted(b)) for b in blocks]
    masks = g._masks
    block_masks = []
    for b in blocks:
        bm = 0
        for v in b:
            bm |= 1 << v
        for u in b:
            # the first member with a neighbour in the block meets only
            # later members: an earlier one would have met it
            inside = masks[u] & bm
            if inside:
                v = (inside & -inside).bit_length() - 1
                raise ValueError(f"block {b} is not independent: {u} ~ {v}")
        block_masks.append(bm)
    return _blocks_matched(g, block_masks)


def _blocks_matched(g: Graph, blocks: Sequence[int]) -> bool:
    """Whether every two of the block masks are perfectly matched in g."""
    for i, a in enumerate(blocks):
        for b in blocks[i + 1 :]:
            if _bipartite_matching(g, a, b) is None:
                return False
    return True


def _r_partitions_matched(g: Graph, r: int) -> bool:
    """Whether every partition of g into r nonempty independent blocks has
    blocks of one size, every two perfectly matched; True when there is no
    such partition.

    The partitions are searched lazily, and the first whose blocks differ
    in size or miss a matching ends the search.  Callers that hold a
    perfect r-matching know the answer without it: each of its r-cliques
    meets every independent block exactly once, so every block has n / r
    vertices and the cliques' edges match every two blocks.
    """
    for blocks in _partition_search(g, r, g.vertices):
        size = blocks[0].bit_count()
        if any(b.bit_count() != size for b in blocks) or not _blocks_matched(g, blocks):
            return False
    return True
