"""Clique covers and perfect r-matchings.

A perfect r-matching is a partition of the vertices into r-cliques.  A basic
cover is derived from an arbitrary clique cover by making the cliques
disjoint in order.  alpha_clique_cover decides whether the vertices can be
covered by as few cliques as the independence number allows, which is the
minimum conceivable number since a clique meets an independent set at most
once.  One augmenting-path matching decides whether two vertex sets are
perfectly matched, for pairwise_part_matchings, the records' check of every
r-partition and the Herzog-Hibi search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .graphs import (
    Graph,
    _partition_search,
    _require_int,
    cliques_of_size,
    independence_number,
    maximal_cliques,
)


@dataclass(frozen=True)
class RMatching:
    """A set of pairwise disjoint r-cliques; perfect when they cover 1..n."""

    r: int
    cliques: tuple[tuple[int, ...], ...]
    perfect: bool


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
    The search keeps its own stack, one frame per chosen clique, so its
    depth is not bounded by Python's recursion limit.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")
    if g.n % r != 0:
        return []
    return _perfect_r_matchings(g, r, limit, cliques_of_size(g, r))


def _perfect_r_matchings(
    g: Graph, r: int, limit: int | None, candidates: list[tuple[int, ...]]
) -> list[RMatching]:
    """perfect_r_matchings(g, r, limit), given r dividing g.n and the
    r-cliques of g in lexicographic order."""
    n = g.n
    masks = g._masks
    by_vertex: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(n + 1)]
    for c in candidates:
        m = 0
        for v in c:
            m |= 1 << v
        by_vertex[c[0]].append((m, c))
    full = ((1 << (n + 1)) - 1) & ~1
    out: list[RMatching] = []
    chosen: list[tuple[int, ...]] = []
    # one frame per node with cliques to try: the mask it covers and the
    # cliques through its lowest uncovered vertex that avoid the mask
    stack: list[tuple[int, Iterator[tuple[int, tuple[int, ...]]]]] = []
    mask = 0
    while True:
        if mask == full:
            out.append(RMatching(r, tuple(chosen), True))
            if limit is not None and len(out) >= limit:
                return out
            if chosen:
                chosen.pop()
        else:
            rest = full & ~mask
            if _components_divisible(masks, rest, r):
                v = (rest & -rest).bit_length() - 1
                options = iter([(m, c) for m, c in by_vertex[v] if not m & mask])
                stack.append((mask, options))
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


def _components_divisible(masks: Sequence[int], rest: int, r: int) -> bool:
    """Whether every connected component of the subgraph induced on the
    vertex mask rest has a size divisible by r."""
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = masks[low.bit_length() - 1] & rest & ~comp
            comp |= new
            frontier |= new
        if comp.bit_count() % r:
            return False
        rest ^= comp
    return True


@dataclass(frozen=True)
class BasicCliqueCover:
    """Disjoint residual cliques Q'_i = Q_i \\ (Q_1 u ... u Q_{i-1}).

    dropped lists the 0-based input positions whose residual came out empty
    and was removed.
    """

    cliques: tuple[tuple[int, ...], ...]
    dropped: tuple[int, ...]


def _check_clique(g: Graph, vs: Sequence[int]) -> tuple[int, ...]:
    for v in vs:
        _require_int(v, "cover member vertex")
    t = tuple(sorted(vs))
    if not t:
        raise ValueError("cover members must be nonempty")
    if len(set(t)) != len(t):
        raise ValueError(f"cover member {t} has a repeated vertex")
    for v in t:
        if not 1 <= v <= g.n:
            raise ValueError(f"vertex {v} out of range 1..{g.n}")
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
    members = [_check_clique(g, c) for c in cover]
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
    vertex; the first cover in the deterministic search order is returned.
    """
    return _alpha_cover(g, independence_number(g), maximal_cliques(g))


def _alpha_cover(
    g: Graph, alpha: int, cliques: list[tuple[int, ...]]
) -> tuple[tuple[int, ...], ...] | None:
    """alpha_clique_cover(g), given g's independence number and its maximal
    cliques in lexicographic order.  The search keeps its own stack, one
    frame per chosen clique."""
    n = g.n
    if n == 0:
        return ()
    omega = max(len(c) for c in cliques)
    masks = []
    for c in cliques:
        m = 0
        for v in c:
            m |= 1 << v
        masks.append(m)
    by_vertex: list[list[int]] = [[] for _ in range(n + 1)]
    for idx, c in enumerate(cliques):
        for v in c:
            by_vertex[v].append(idx)
    full = ((1 << (n + 1)) - 1) & ~1
    chosen: list[int] = []
    # one frame per node with cliques to try: the mask it covers and the
    # cliques through its lowest uncovered vertex
    stack: list[tuple[int, Iterator[int]]] = []
    mask = 0
    while True:
        uncovered = full & ~mask
        if not uncovered:
            return tuple(cliques[i] for i in chosen)
        left = alpha - len(chosen)
        if left and uncovered.bit_count() <= left * omega:
            v = (uncovered & -uncovered).bit_length() - 1
            stack.append((mask, iter(by_vertex[v])))
        elif chosen:
            chosen.pop()
        while stack:
            base, options = stack[-1]
            idx = next(options, None)
            if idx is not None:
                break
            stack.pop()
            if chosen:
                chosen.pop()
        else:
            return None
        chosen.append(idx)
        mask = base | masks[idx]


def degree_r_minus_1_vertices(g: Graph, r: int) -> tuple[int, ...]:
    """Vertices of degree exactly r - 1, ascending."""
    if r < 1:
        raise ValueError("r must be at least 1")
    return tuple(v for v in g.vertices if g.degree(v) == r - 1)


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
    raise ValueError.  A block is independent when no member's neighbour
    mask meets the block's mask.  Returns False as soon as two blocks lack
    a perfect matching between them, which blocks of different sizes always
    do.
    """
    blocks = [tuple(sorted(p)) for p in parts]
    flat = [v for b in blocks for v in b]
    if len(flat) != len(set(flat)) or set(flat) != set(g.vertices):
        raise ValueError("blocks must partition the vertex set")
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
