"""Abstract simplicial complexes given by their facets, plus shellability.

A complex on n vertices stores its inclusion-maximal faces as sorted tuples.
The empty complex {{}} (n = 0, single empty facet) is allowed; for n >= 1
every vertex must lie in some facet.  Faces are always iterated in canonical
order: increasing dimension, then lexicographic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .graphs import Graph, _as_tuple, _mask_to_tuple, _require_int, _vertex_set, maximal_independent_sets, parse_counted_lines

SHELLABLE = "shellable"
NOT_SHELLABLE = "not_shellable"
BUDGET_EXHAUSTED = "budget_exhausted"

DEFAULT_SHELLING_BUDGET = 10**8


class ComplexFormatError(ValueError):
    """Malformed facet-list document."""


class SimplicialComplex:
    """An abstract simplicial complex presented by its facets.

    A malformed facet list raises ValueError; so do a vertex count or a
    vertex that is not an integer (``bool`` included).
    """

    __slots__ = ("n", "facets", "_faces_by_dim", "_incidence")

    def __init__(self, n: int, facets: Iterable[Iterable[int]]):
        _require_int(n, "vertex count")
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = [_vertex_set(f, n, "facet") for f in _as_tuple(facets, "facet list")]
        if n == 0:
            norm = [()]
        if not norm:
            raise ValueError("a complex on n >= 1 vertices needs at least one facet")
        self.n = n
        self.facets = tuple(sorted(set(norm)))
        self._faces_by_dim: list[list[tuple[int, ...]]] | None = None
        self._incidence: dict[int, int] | None = None
        # the lowest bit other than i among the facets above facet i is the
        # first j with facets[i] <= facets[j]
        for i, f in enumerate(self.facets):
            above = self._above(f) ^ 1 << i
            if above:
                j = (above & -above).bit_length() - 1
                raise ValueError(f"facet {f} is contained in facet {self.facets[j]}")
        # every vertex occurs in 1..n, so the lowest one missing is the
        # first gap counting up from 1
        missing = 1
        while missing in self._vertex_facets():
            missing += 1
        if missing <= n:
            raise ValueError(f"vertex {missing} lies in no facet")

    @classmethod
    def _antichain(cls, n: int, facets: Iterable[tuple[int, ...]]) -> SimplicialComplex:
        """A complex from facets already known to be valid and sorted as in
        __init__: no facet inside another, every vertex 1..n in some facet,
        none repeated or out of range, each an increasing tuple and the
        list in lexicographic order.  Nothing is checked or sorted.
        """
        cx = cls.__new__(cls)
        cx.n = n
        cx.facets = tuple(facets) if n else ((),)
        cx._faces_by_dim = None
        cx._incidence = None
        return cx

    def dimension(self) -> int:
        return max(len(f) for f in self.facets) - 1

    def is_pure(self) -> bool:
        return len({len(f) for f in self.facets}) == 1

    def _faces(self) -> list[list[tuple[int, ...]]]:
        if self._faces_by_dim is None:
            dim = self.dimension()
            by_dim: list[set[tuple[int, ...]]] = [set() for _ in range(dim + 1)]
            for f in self.facets:
                for size in range(1, len(f) + 1):
                    by_dim[size - 1].update(itertools.combinations(f, size))
            self._faces_by_dim = [sorted(s) for s in by_dim]
        return self._faces_by_dim

    def faces_of_dim(self, d: int) -> list[tuple[int, ...]]:
        """Faces of dimension d in lexicographic order; d = -1 gives [()],
        and a d outside the complex's dimensions gives []."""
        if d == -1:
            return [()]
        faces = self._faces()
        if 0 <= d < len(faces):
            return list(faces[d])
        return []

    def all_faces(self) -> Iterator[tuple[int, ...]]:
        """Every face including the empty one, by dimension then lex order."""
        yield ()
        for level in self._faces():
            yield from level

    def _vertex_facets(self) -> dict[int, int]:
        """The facet incidence: the facets containing vertex v, bit i for
        facets[i], kept for the vertices that occur only, so nothing is
        sized by n.  Built on first use."""
        if self._incidence is None:
            incidence: dict[int, int] = {}
            for i, f in enumerate(self.facets):
                for v in f:
                    incidence[v] = incidence.get(v, 0) | 1 << i
            self._incidence = incidence
        return self._incidence

    def _above(self, face: tuple[int, ...]) -> int:
        """The facets containing face, bit i for facets[i]: the AND of its
        vertices' incidence.  A face with a repeated vertex, or one in no
        facet (outside 1..n, say), has none."""
        if len(set(face)) != len(face):
            return 0
        incidence = self._vertex_facets()
        above = (1 << len(self.facets)) - 1
        for v in face:
            above &= incidence.get(v, 0)
        return above

    def f_vector(self) -> tuple[int, ...]:
        return (1,) + tuple(len(level) for level in self._faces())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.n == other.n and self.facets == other.facets

    def __hash__(self) -> int:
        return hash((self.n, self.facets))

    def __reduce__(self):
        return (SimplicialComplex, (self.n, self.facets))

    def __repr__(self) -> str:
        return f"SimplicialComplex(n={self.n}, facets={len(self.facets)})"


def parse_complex(text: str) -> SimplicialComplex:
    """Parse a facet-list document: header ``n k``, then k lines of vertices.

    Blank lines are skipped; ``#`` starts a comment line.
    """
    n, body = parse_counted_lines(text, ComplexFormatError, "n k", "facet")
    facets: list[tuple[int, ...]] = []
    for lineno, line in body:
        try:
            facets.append(tuple(int(p) for p in line.split()))
        except ValueError:
            raise ComplexFormatError(
                f"line {lineno}: expected vertex indices, got {line!r}"
            ) from None
    try:
        return SimplicialComplex(n, facets)
    except ValueError as exc:
        raise ComplexFormatError(str(exc)) from None


def format_complex(cx: SimplicialComplex) -> str:
    """Serialize to the facet-list format accepted by parse_complex."""
    facets = [f for f in cx.facets if f]
    lines = [f"{cx.n} {len(facets)}"]
    lines.extend(" ".join(str(v) for v in f) for f in facets)
    return "\n".join(lines) + "\n"


def independence_complex(g: Graph) -> SimplicialComplex:
    """The complex whose faces are the independent sets of g."""
    # the maximal independent sets are an antichain covering every vertex
    return SimplicialComplex._antichain(g.n, maximal_independent_sets(g))


def link(cx: SimplicialComplex, face: Iterable[int]) -> SimplicialComplex:
    """The link of a face, relabeled order-preservingly to vertices 1..n'.

    lk(F) = { G : G disjoint from F, G union F a face }.  Its facets are
    exactly K \\ F for the facets K containing F, which are an antichain as
    the K are.  Raises ValueError when a vertex is not an integer (bool
    included) or the given set is not a face: a repeated vertex, or one in
    no facet, such as one outside 1..n.

    The facets come out sorted, since removing F from lex-sorted facets
    that all hold F keeps their order.  Say K < K' first differ at position
    j, so K[j] < K'[j].  K[j] is not in F: it would then lie in K', but K'
    agrees with K before j, where K is below K[j], and K' is above K[j] from
    j on.  So K - F and K' - F agree up to K[j], where K' - F holds a
    larger vertex or ends; and it cannot end, since K - F would then
    contain K' - F, and K would contain K'.  An order-preserving relabelling
    keeps the order; its labels start at 1, so dropping the labels that are
    missing drops exactly F.
    """
    f = _as_tuple(face, "face")
    for v in f:
        _require_int(v, "vertex")
    f = tuple(sorted(f))
    above = cx._above(f)
    if not above:
        raise ValueError(f"{f} is not a face of the complex")
    facets = [cx.facets[i] for i in _mask_to_tuple(above)]
    rest = sorted({v for k in facets for v in k}.difference(f))
    relabel = {v: i for i, v in enumerate(rest, start=1)}
    return SimplicialComplex._antichain(
        len(relabel), [tuple(filter(None, map(relabel.get, k))) for k in facets]
    )


@dataclass(frozen=True)
class ShellingResult:
    """Outcome of a shelling search.

    status is one of "shellable", "not_shellable", "budget_exhausted";
    order is the witness facet order when shellable, else None; steps counts
    the prefix extensions the search performed.
    """

    status: str
    order: tuple[tuple[int, ...], ...] | None
    steps: int


def is_shelling_order(facets: Iterable[tuple[int, ...]]) -> bool:
    """Check the shelling condition directly on an ordered facet list.

    For every j < i there must be l in F_i \\ F_j and k < i with
    F_i \\ F_k = {l}.  Implemented verbatim with sets, independently of the
    search in is_shellable.
    """
    fs = [frozenset(f) for f in facets]
    for i in range(1, len(fs)):
        singles = {next(iter(fs[i] - fs[k])) for k in range(i) if len(fs[i] - fs[k]) == 1}
        for j in range(i):
            if not (fs[i] - fs[j]) & singles:
                return False
    return True


def is_shellable(
    cx: SimplicialComplex, budget: int = DEFAULT_SHELLING_BUDGET
) -> ShellingResult:
    """Decide shellability of a pure complex by exhaustive ordered search.

    Whether a partial order of facets can be completed depends only on the
    set of facets placed, so the search memoizes dead facet-sets and is a
    complete decision procedure within the budget.  Each attempted prefix
    extension costs one step; exceeding the budget returns
    "budget_exhausted".  Non-pure input raises ValueError.  The search keeps
    its own stack, so its depth, one level per facet, is not bounded by
    Python's recursion limit.

    Facet sets are bitsets, numbered by search order.  A facet F extends the
    placed set P when every placed facet misses some vertex v whose ridge
    F - v lies in a placed facet: one OR per ridge of F and one AND against
    P, with no loop over the placed facets.  Candidates come from P's
    frontier, the unplaced facets sharing a ridge with a placed one, since
    no other facet can extend P.  Every witness is checked again by
    is_shelling_order.
    """
    if not cx.is_pure():
        raise ValueError("shellability search requires a pure complex")
    _require_int(budget, "budget")
    if budget < 1:
        raise ValueError("budget must be positive")
    facets = cx.facets
    m = len(facets)
    if m == 1:
        return ShellingResult(SHELLABLE, (facets[0],), 0)

    # Each facet's ridges (the facet minus one vertex) as vertex masks.  In a
    # pure complex two facets differ in a single vertex iff they share a
    # ridge, and they share at most one.  The search visits facets by
    # decreasing neighbour count, then index.
    ridge_masks = []
    for f in facets:
        fm = sum(1 << v for v in f)
        ridge_masks.append([fm ^ (1 << v) for v in f])
    count: dict[int, int] = {}
    for rs in ridge_masks:
        for r in rs:
            count[r] = count.get(r, 0) + 1
    neighbor_count = [sum(count[r] for r in rs) - len(rs) for rs in ridge_masks]
    order = sorted(range(m), key=lambda i: (-neighbor_count[i], i))

    # From here on bit p of a facet set is facet order[p], so taking the set
    # bits of a candidate set lowest first follows the search order.  One
    # pass over the facets' vertices gives the facets on each ridge and the
    # facets with each vertex; lacks[v], the facets without v, is kept only
    # for the vertices that lie in a facet.
    full = (1 << m) - 1
    owners: dict[int, int] = {}
    has: dict[int, int] = {}
    for p, i in enumerate(order):
        bit = 1 << p
        for v, r in zip(facets[i], ridge_masks[i]):
            owners[r] = owners.get(r, 0) | bit
            has[v] = has.get(v, 0) | bit
    lacks = {v: full ^ bits for v, bits in has.items()}
    # Per facet F, one pair per ridge F - v shared with another facet: the
    # other facets on that ridge, and lacks[v].  adj[p] is F's neighbours.
    ridges: list[list[tuple[int, int]]] = []
    adj: list[int] = []
    for p, i in enumerate(order):
        bit = 1 << p
        pairs = [
            (owners[r] ^ bit, lacks[v])
            for v, r in zip(facets[i], ridge_masks[i])
            if owners[r] != bit
        ]
        near = 0
        for others, _ in pairs:
            near |= others
        ridges.append(pairs)
        adj.append(near)

    dead: set[int] = set()
    steps = 0
    prefix: list[int] = []
    # Depth-first search with an explicit stack, one frame per facet placed:
    # [the set P of facets placed, its frontier, the candidates left to try].
    # The root frame has nothing placed, an empty frontier and every facet
    # as a candidate; below it the candidates are the frontier.
    stack = [[0, 0, full]]
    while stack:
        frame = stack[-1]
        placed, frontier, cand = frame
        while cand:
            b = cand & -cand
            cand ^= b
            p = b.bit_length() - 1
            if placed:
                # cover: the facets missing some v with F_p - v on a placed
                # facet; F_p extends P iff cover holds all of P
                cover = 0
                for others, lack in ridges[p]:
                    if others & placed:
                        cover |= lack
                if placed & ~cover:
                    continue
            steps += 1
            if steps > budget:
                return ShellingResult(BUDGET_EXHAUSTED, None, steps)
            child = placed | b
            if child == full:
                witness = tuple(facets[order[k]] for k in prefix + [p])
                if not is_shelling_order(witness):
                    raise RuntimeError("internal error: search produced an invalid shelling")
                return ShellingResult(SHELLABLE, witness, steps)
            if child not in dead:
                frame[2] = cand
                prefix.append(p)
                below = (frontier | adj[p]) & ~child
                stack.append([child, below, below])
                break
        else:
            dead.add(placed)
            stack.pop()
            if prefix:
                prefix.pop()
    return ShellingResult(NOT_SHELLABLE, None, steps)
