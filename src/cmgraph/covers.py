"""Clique covers and perfect r-matchings.

A perfect r-matching is a partition of the vertices into r-cliques.  A basic
cover is derived from an arbitrary clique cover by making the cliques
disjoint in order.  alpha_clique_cover decides whether the vertices can be
covered by as few cliques as the independence number allows, which is the
minimum conceivable number since a clique meets an independent set at most
once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import Graph, cliques_of_size, independence_number, maximal_cliques


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
    after that many matchings.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")
    n = g.n
    if n % r != 0:
        return []
    if n == 0:
        return [RMatching(r, (), True)]
    candidates = cliques_of_size(g, r)
    by_vertex: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(n + 1)]
    for c in candidates:
        m = 0
        for v in c:
            m |= 1 << v
        by_vertex[c[0]].append((m, c))
    full = ((1 << (n + 1)) - 1) & ~1
    out: list[RMatching] = []
    chosen: list[tuple[int, ...]] = []

    def cover(mask: int) -> bool:
        if mask == full:
            out.append(RMatching(r, tuple(chosen), True))
            return limit is not None and len(out) >= limit
        v = ((~mask & full) & -(~mask & full)).bit_length() - 1
        for m, c in by_vertex[v]:
            if m & mask:
                continue
            chosen.append(c)
            if cover(mask | m):
                return True
            chosen.pop()
        return False

    cover(0)
    return out


def has_unique_perfect_r_matching(g: Graph, r: int) -> bool:
    return len(perfect_r_matchings(g, r, limit=2)) == 1


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
        # bool is a subclass of int, but True is no vertex
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError(f"cover member vertex {v!r} is not an integer")
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
    cliques in lexicographic order."""
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

    def cover(mask: int, left: int) -> bool:
        if mask == full:
            return True
        if left == 0 or (full & ~mask).bit_count() > left * omega:
            return False
        uncovered = full & ~mask
        v = (uncovered & -uncovered).bit_length() - 1
        for idx in by_vertex[v]:
            chosen.append(idx)
            if cover(mask | masks[idx], left - 1):
                return True
            chosen.pop()
        return False

    if not cover(0, alpha):
        return None
    return tuple(cliques[i] for i in chosen)


def degree_r_minus_1_vertices(g: Graph, r: int) -> tuple[int, ...]:
    """Vertices of degree exactly r - 1, ascending."""
    if r < 1:
        raise ValueError("r must be at least 1")
    return tuple(v for v in g.vertices if g.degree(v) == r - 1)


def _parts_have_perfect_matching(
    g: Graph, a: tuple[int, ...], b: tuple[int, ...]
) -> bool:
    """Kuhn's augmenting-path matching between two vertex sets of equal size."""
    match_b: dict[int, int] = {}

    def try_augment(u: int, seen: set[int]) -> bool:
        for w in sorted(g.adj[u] & set(b)):
            if w in seen:
                continue
            seen.add(w)
            if w not in match_b or try_augment(match_b[w], seen):
                match_b[w] = u
                return True
        return False

    for u in a:
        if not try_augment(u, set()):
            return False
    return True


def pairwise_part_matchings(
    g: Graph, parts: Sequence[Sequence[int]]
) -> bool:
    """Whether every two blocks of the partition are perfectly matched in g.

    The blocks must partition 1..n into independent sets; invalid partitions
    raise ValueError.  Returns False as soon as two blocks have different
    sizes or lack a perfect matching between them.
    """
    blocks = [tuple(sorted(p)) for p in parts]
    flat = [v for b in blocks for v in b]
    if len(flat) != len(set(flat)) or set(flat) != set(g.vertices):
        raise ValueError("blocks must partition the vertex set")
    for b in blocks:
        for i, u in enumerate(b):
            for v in b[i + 1 :]:
                if g.has_edge(u, v):
                    raise ValueError(f"block {b} is not independent: {u} ~ {v}")
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            if len(blocks[i]) != len(blocks[j]):
                return False
            if not _parts_have_perfect_matching(g, blocks[i], blocks[j]):
                return False
    return True
