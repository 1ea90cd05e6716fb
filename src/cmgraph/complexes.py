"""Abstract simplicial complexes given by their facets, plus shellability.

A complex on n vertices stores its inclusion-maximal faces as sorted tuples.
The empty complex {{}} (n = 0, single empty facet) is allowed; for n >= 1
every vertex must lie in some facet.  Faces are always iterated in canonical
order: increasing dimension, then lexicographic.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .graphs import Graph, _Value, _as_tuple, _mask_to_tuple, _require_int, _vertex_set, maximal_independent_sets, parse_counted_lines

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
        self._faces_by_dim: dict[int, list[tuple[int, ...]]] = {}
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
        cx._faces_by_dim = {}
        cx._incidence = None
        return cx

    def dimension(self) -> int:
        return max(len(f) for f in self.facets) - 1

    def is_pure(self) -> bool:
        return len({len(f) for f in self.facets}) == 1

    def _level(self, d: int) -> list[tuple[int, ...]]:
        """The faces of dimension d, for 0 <= d <= dimension, in lexicographic
        order.  Each level is built on first use, so a scan that stops early
        builds no level above the faces it reached."""
        level = self._faces_by_dim.get(d)
        if level is None:
            faces: set[tuple[int, ...]] = set()
            for f in self.facets:
                if len(f) > d:
                    faces.update(itertools.combinations(f, d + 1))
            level = self._faces_by_dim[d] = sorted(faces)
        return level

    def faces_of_dim(self, d: int) -> list[tuple[int, ...]]:
        """Faces of dimension d in lexicographic order; d = -1 gives [()],
        and a d outside the complex's dimensions gives []."""
        if d == -1:
            return [()]
        if 0 <= d <= self.dimension():
            return list(self._level(d))
        return []

    def all_faces(self) -> Iterator[tuple[int, ...]]:
        """Every face including the empty one, by dimension then lex order."""
        yield ()
        for d in range(self.dimension() + 1):
            yield from self._level(d)

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
        return (1,) + tuple(len(self._level(d)) for d in range(self.dimension() + 1))

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


class ShellingResult(_Value):
    """Outcome of a shelling search.

    status is one of "shellable", "not_shellable", "budget_exhausted";
    order is the witness facet order when shellable, else None; steps counts
    the prefix extensions the search performed.
    """

    __slots__ = ("status", "order", "steps")
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
    F - v lies in a placed facet.  The search keeps, for every facet, the
    placed facets that no such v covers yet, and F extends P iff none is
    left: one AND against P, with no loop over F's ridges or over P.  These
    sets change only when a push puts a ridge on a placed facet for the
    first time; every facet F' = ridge + v on that ridge then drops the
    facets holding v.  The push logs each value it overwrites and the pop
    restores them, so one uncovered set per facet serves the whole stack,
    and the logs on the stack hold at most one entry per pair of a facet
    and a ridge it shares: memory is linear in the facet-ridge incidences.
    Candidates come from P's frontier, the unplaced facets sharing a ridge
    with a placed one, since no other facet can extend P.  Every witness is
    checked again by is_shelling_order.
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
    # facets with each vertex.
    full = (1 << m) - 1
    owners: dict[int, int] = {}
    has: dict[int, int] = {}
    for p, i in enumerate(order):
        bit = 1 << p
        for v, r in zip(facets[i], ridge_masks[i]):
            owners[r] = owners.get(r, 0) | bit
            has[v] = has.get(v, 0) | bit
    # Per ridge, one pair (p + 1, has[v]) per facet order[p] = ridge + v on
    # it.  Per facet, its ridges shared with another facet as (owners, pairs),
    # the pair list stored once per ridge, and adj[p], its neighbours.
    on_ridge: dict[int, list[tuple[int, int]]] = {}
    shared: list[list[tuple[int, list[tuple[int, int]]]]] = []
    adj: list[int] = []
    for p, i in enumerate(order):
        bit = 1 << p
        rs = []
        near = 0
        for v, r in zip(facets[i], ridge_masks[i]):
            pairs = on_ridge.setdefault(r, [])
            pairs.append((p + 1, has[v]))
            if owners[r] != bit:
                rs.append((owners[r], pairs))
                near |= owners[r]
        shared.append(rs)
        adj.append(near & ~bit)

    # uncovered[p + 1]: the facets holding every v whose ridge F_p - v lies
    # on a placed facet, the AND of has[v] over those v; F_p extends P iff
    # no facet of P is left in it.  It is indexed by b.bit_length() for
    # facet p's bit b.
    uncovered = [full] * (m + 1)
    dead: set[int] = set()
    steps = 0
    prefix: list[int] = []
    # Depth-first search with an explicit stack, one frame per facet placed:
    # [the set P of facets placed, its frontier, the candidates left to try,
    # the (index, old value) log of the uncovered sets its push changed].
    # The root frame has nothing placed, an empty frontier and every facet
    # as a candidate; below it the candidates are the frontier.
    stack = [[0, 0, full, []]]
    while stack:
        frame = stack[-1]
        placed, frontier, cand, _ = frame
        while cand:
            b = cand & -cand
            cand ^= b
            if placed & uncovered[b.bit_length()]:
                continue
            steps += 1
            if steps > budget:
                return ShellingResult(BUDGET_EXHAUSTED, None, steps)
            child = placed | b
            if child == full:
                prefix.append(b.bit_length() - 1)
                witness = tuple(facets[order[k]] for k in prefix)
                if not is_shelling_order(witness):
                    raise RuntimeError("internal error: search produced an invalid shelling")
                return ShellingResult(SHELLABLE, witness, steps)
            if child not in dead:
                p = b.bit_length() - 1
                frame[2] = cand
                prefix.append(p)
                log = []
                for own, pairs in shared[p]:
                    if not own & placed:
                        for k, holds in pairs:
                            log.append((k, uncovered[k]))
                            uncovered[k] &= holds
                below = (frontier | adj[p]) & ~child
                stack.append([child, below, below, log])
                break
        else:
            dead.add(placed)
            # reversed: F_p itself lies on each of its ridges, so its own
            # entry can be logged more than once in one push
            for k, old in reversed(stack.pop()[3]):
                uncovered[k] = old
            if prefix:
                prefix.pop()
    return ShellingResult(NOT_SHELLABLE, None, steps)
