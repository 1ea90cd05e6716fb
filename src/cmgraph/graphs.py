"""Simple graphs on the vertex set {1, ..., n} and exact graph predicates.

Vertices are 1-indexed everywhere.  Graphs are immutable; every function is
pure and every returned collection is in a deterministic canonical order
(vertex sets as sorted tuples, lists of sets sorted lexicographically).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence

# canonical_form does a labelled search; past this size it is not a sensible
# tool and callers get an explicit error instead of an open-ended computation.
MAX_CANONICAL_N = 9

# parse_graph rejects a header vertex count above this before Graph allocates
# anything per vertex.  Every decider of the package is exponential long
# before it.
MAX_PARSE_N = 512


class GraphFormatError(ValueError):
    """Malformed edge-list document."""


def _require_int(x: object, what: str) -> None:
    # bool is a subclass of int, but True is no vertex
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} {x!r} is not an integer")


def _as_tuple(x: object, what: str) -> tuple:
    try:
        return tuple(x)
    except TypeError:
        raise ValueError(f"{what} {x!r} is not iterable") from None


def _vertex_set(x: object, n: int, what: str) -> tuple[int, ...]:
    """x as an ascending tuple of distinct vertices of 1..n; ValueError when
    x is not iterable or holds a vertex that is not an integer (bool
    included), a repeated vertex or one outside 1..n."""
    vs = _as_tuple(x, what)
    for v in vs:
        _require_int(v, "vertex")
    t = tuple(sorted(vs))
    if len(set(t)) != len(t):
        raise ValueError(f"{what} {t} has a repeated vertex")
    for v in t:
        if not 1 <= v <= n:
            raise ValueError(f"vertex {v} out of range 1..{n}")
    return t


def _require_at_least(x: object, what: str, least: int) -> None:
    _require_int(x, what)
    if x < least:
        raise ValueError(f"{what} must be at least {least}")


class _Value:
    """An immutable value whose fields are its class's __slots__, in order.

    It is built from its fields positionally or by keyword; a field left out
    takes its value from the class's _defaults, and a missing, unknown or
    repeated field raises TypeError.  _check, called once the fields are
    set, is the one validation hook: a class whose fields need checking
    overrides it and raises ValueError.  A value equals only a value of its
    own class with equal fields, hashes and pickles by its fields and reprs
    as Name(field=value, ...).  Setting or deleting a field raises
    AttributeError.
    """

    __slots__ = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        # one attrgetter per class: hash and == read every field in one call
        cls._key = attrgetter(*cls.__slots__)

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            # the fields after the positional ones come from kwargs, the
            # rest of them from _defaults
            rest = names[len(args) :]
            given = {**self._defaults, **kwargs}
            if len(args) > len(names) or not set(kwargs) <= set(rest) <= given.keys():
                raise TypeError(f"{type(self).__name__} takes the fields {names}")
            args += tuple(given[n] for n in rest)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self._check()

    def _check(self) -> None:
        pass

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __reduce__(self):
        return (type(self), tuple(getattr(self, n) for n in self.__slots__))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Graph:
    """Undirected simple graph: no loops, no parallel edges.

    ``edges`` is the sorted tuple of pairs ``(u, v)`` with ``u < v``.  The
    adjacency is kept once, as neighbour masks: bit u of ``_masks[v]`` is
    set when u and v are adjacent (index 0 unused).  ``has_edge`` and
    ``degree`` read the masks: ``has_edge`` is False when either end is
    outside 1..n, and ``degree`` raises ValueError there.  A vertex count,
    edge end or vertex asked about that is not an integer (``bool``
    included), an edge list that is not iterable and an edge that is not a
    pair raise ValueError.
    """

    __slots__ = ("n", "edges", "_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        _require_int(n, "vertex count")
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen: set[tuple[int, int]] = set()
        norm: list[tuple[int, int]] = []
        for e in _as_tuple(edges, "edge list"):
            try:
                u, v = e
            except (TypeError, ValueError):
                raise ValueError(f"edge {e!r} is not a pair") from None
            _require_int(u, "vertex")
            _require_int(v, "vertex")
            if u == v:
                raise ValueError(f"loop edge at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u}, {v}) out of range 1..{n}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        norm.sort()
        self.n = n
        self.edges = tuple(norm)
        masks = [0] * (n + 1)
        for u, v in norm:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._masks = tuple(masks)

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def degree(self, v: int) -> int:
        _require_int(v, "vertex")
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} out of range 1..{self.n}")
        return self._masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        _require_int(u, "vertex")
        _require_int(v, "vertex")
        # a negative shift raises, and no mask has a bit above n
        return 1 <= u <= self.n and v > 0 and self._masks[u] >> v & 1 == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __reduce__(self):
        return (Graph, (self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


def _child(p: Graph, nbrs: int) -> tuple[list[int], tuple[tuple[int, int], ...]]:
    """The neighbour masks and the edges, p's first and the new ones after
    them, of p plus a vertex k = p.n + 1 adjacent to the vertices of the
    mask nbrs (bit v for vertex v)."""
    k = p.n + 1
    bit = 1 << k
    masks = list(p._masks)
    new = []
    rest = nbrs
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        masks[v] |= bit
        new.append((v, k))
    masks.append(nbrs)
    return masks, p.edges + tuple(new)


def _augment(p: Graph, nbrs: int) -> Graph:
    """p plus a vertex k = p.n + 1 adjacent to the vertices of the mask nbrs
    (bit v for vertex v).

    Built from _child without Graph.__init__'s validation, for the
    enumeration; the result equals Graph(k, edges) in every slot.
    """
    masks, edges = _child(p, nbrs)
    g = Graph.__new__(Graph)
    g.n = p.n + 1
    g.edges = tuple(sorted(edges))
    g._masks = tuple(masks)
    return g


def parse_counted_lines(
    text: str, error: type[ValueError], header: str, unit: str
) -> tuple[int, list[tuple[int, str]]]:
    """The skeleton of the line formats: a two-integer header, then a body.

    Blank lines are skipped and ``#`` starts a comment line.  The header
    (named ``header``, e.g. 'n m') gives n and the number of ``unit`` lines
    that must follow.  Returns n and the body as (line number, text) pairs;
    a malformed header or a wrong body count raises ``error``.
    """
    rows: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            rows.append((lineno, line))
    if not rows:
        raise error(f"empty document: expected a header line '{header}'")
    lineno, head = rows[0]
    parts = head.split()
    if len(parts) != 2:
        raise error(f"line {lineno}: expected header '{header}', got {head!r}")
    try:
        n, count = int(parts[0]), int(parts[1])
    except ValueError:
        raise error(
            f"line {lineno}: expected two integers in header, got {head!r}"
        ) from None
    if n < 0 or count < 0:
        raise error(f"line {lineno}: header values must be nonnegative")
    body = rows[1:]
    if len(body) != count:
        raise error(f"expected {count} {unit} lines, found {len(body)}")
    return n, body


def parse_graph(text: str) -> Graph:
    """Parse an edge-list document: header ``n m``, then m lines ``u v``.

    Blank lines are skipped; ``#`` starts a comment line.  Raises
    GraphFormatError on a malformed line, n above MAX_PARSE_N, a vertex
    outside 1..n, a loop, a duplicate edge, or a wrong number of edge lines.
    """
    n, body = parse_counted_lines(text, GraphFormatError, "n m", "edge")
    if n > MAX_PARSE_N:
        raise GraphFormatError(f"header: n = {n} exceeds the limit of {MAX_PARSE_N} vertices")
    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    for lineno, line in body:
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(
                f"line {lineno}: expected two integers, got {line!r}"
            ) from None
        if not (1 <= u <= n) or not (1 <= v <= n):
            raise GraphFormatError(f"line {lineno}: vertex out of range 1..{n}")
        if u == v:
            raise GraphFormatError(f"line {lineno}: loop edge at vertex {u}")
        if u > v:
            raise GraphFormatError(f"line {lineno}: expected u < v, got {line!r}")
        if (u, v) in seen:
            raise GraphFormatError(f"line {lineno}: duplicate edge ({u}, {v})")
        seen.add((u, v))
        edges.append((u, v))
    return Graph(n, edges)


def format_graph(g: Graph) -> str:
    """Serialize a graph back to the edge-list format accepted by parse_graph."""
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def complement(g: Graph) -> Graph:
    co = _complement_masks(g)
    return Graph(g.n, [(u, v) for u in g.vertices for v in _mask_to_tuple(co[u]) if u < v])


def _mask_to_tuple(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


def _bron_kerbosch(nbr: tuple[int, ...] | list[int], full: int) -> list[int]:
    """All maximal cliques of the graph given by neighbour masks, as masks.

    Pivoting on the vertex covering the most candidates keeps the tree small;
    the pivot choice is deterministic (max cover, then lowest vertex), and
    the scan for it stops at a vertex that covers as many as any can.  The
    search keeps its own stack of (clique, candidates, excluded) frames, so a
    clique of any size is found without deep recursion.  A node's children
    do not depend on each other's results, so each is pushed as soon as it
    is known; the output comes in no fixed order, and callers sort it.
    """
    out: list[int] = []
    stack = [(0, full, 0)]
    while stack:
        r, p, x = stack.pop()
        if p == 0 and x == 0:
            out.append(r)
            continue
        # a vertex is not its own neighbour, so only a vertex of x can cover
        # all of p; the first to cover this most is the max-then-lowest pivot
        most = p.bit_count() - (0 if x else 1)
        pivot, best = -1, -1
        px = p | x
        while px:
            b = px & -px
            u = b.bit_length() - 1
            c = (p & nbr[u]).bit_count()
            if c > best:
                pivot, best = u, c
                if c == most:
                    break
            px ^= b
        cand = p & ~nbr[pivot]
        while cand:
            b = cand & -cand
            v = b.bit_length() - 1
            stack.append((r | b, p & nbr[v], x & nbr[v]))
            p ^= b
            x |= b
            cand ^= b
    return out


def _full_mask(n: int) -> int:
    """The mask of the vertices 1..n (bit v for vertex v)."""
    return (1 << n + 1) - 2


def _complement_masks(g: Graph) -> list[int]:
    """The complement's neighbour masks: index v holds the vertices other
    than v that are not adjacent to v (index 0 unused, 0)."""
    full = _full_mask(g.n)
    return [full & ~m & ~(1 << v) if v else 0 for v, m in enumerate(g._masks)]


def maximal_independent_sets(g: Graph) -> list[tuple[int, ...]]:
    """All inclusion-maximal independent sets, sorted lexicographically.

    These are the maximal cliques of the complement, found by the pivoting
    Bron-Kerbosch search on non-neighbour masks.
    """
    return _maximal_independent_sets(_complement_masks(g))


def _maximal_independent_sets(co: list[int]) -> list[tuple[int, ...]]:
    """maximal_independent_sets of the graph whose complement has the
    neighbour masks co (_complement_masks)."""
    return sorted(_mask_to_tuple(m) for m in _bron_kerbosch(co, _full_mask(len(co) - 1)))


def maximal_cliques(g: Graph) -> list[tuple[int, ...]]:
    """All inclusion-maximal cliques, sorted lexicographically."""
    full = _full_mask(g.n)
    return sorted(_mask_to_tuple(m) for m in _bron_kerbosch(g._masks, full))


def _component_set_sizes(g: Graph) -> Iterator[set[int]]:
    """The sizes of the maximal independent sets of each connected component
    of g, a component at a time.

    A maximal independent set of g is one of each component, so only the
    components' sets are listed: Bron-Kerbosch on g's complement masks,
    restricted to the component's vertex mask.
    """
    co = _complement_masks(g)
    rest = _full_mask(g.n)
    while rest:
        comp = _component(g._masks, rest)[0]
        rest ^= comp
        yield {m.bit_count() for m in _bron_kerbosch(co, comp)}


def independence_number(g: Graph) -> int:
    """The largest size of an independent set: the sum, over the connected
    components, of each one's largest maximal independent set."""
    return sum(max(sizes) for sizes in _component_set_sizes(g))


def is_unmixed(g: Graph) -> bool:
    """True when all maximal independent sets have one common cardinality,
    that is, when each connected component's do.

    Equivalently, all minimal vertex covers have the same size.
    """
    return all(len(sizes) == 1 for sizes in _component_set_sizes(g))


def cliques_of_size(g: Graph, r: int) -> list[tuple[int, ...]]:
    """All cliques with exactly r vertices, in lexicographic order."""
    _require_at_least(r, "clique size", 1)
    return list(_cliques(g._masks, _full_mask(g.n), r))


def _cliques(
    nbr: Sequence[int], avail: int, size: int
) -> Iterator[tuple[int, ...]]:
    """The cliques with size >= 1 vertices inside the vertex mask avail of
    the graph given by neighbour masks, in lexicographic order, each
    yielded when it is found.

    The search keeps its own stack, one frame per chosen vertex: the
    candidates of its frame still to try after it.  rest holds the current
    frame's candidates, the common neighbours of the chosen vertices above
    the last one.  A frame with fewer candidates than the clique still
    lacks is dropped, which loses no clique.
    """
    members: list[int] = []
    stack: list[int] = []
    rest = avail
    need = size
    while True:
        if rest.bit_count() < need:
            if not stack:
                return
            rest = stack.pop()
            members.pop()
            need += 1
            continue
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        if need == 1:
            yield (*members, v)
        else:
            members.append(v)
            stack.append(rest)
            rest &= nbr[v]
            need -= 1


def _mask_has_clique(nbr: Sequence[int], avail: int, size: int) -> bool:
    """Whether the vertices in avail contain a clique of the given size.

    Sizes up to 2 are answered without a search: the empty clique is in
    every mask, a vertex in every nonempty one, an edge in a mask where
    some vertex has a neighbour above it, and no clique has a negative
    size.  Larger sizes take the first clique of _cliques.
    """
    if size == 2:
        rest = avail
        while rest:
            low = rest & -rest
            rest ^= low
            if nbr[low.bit_length() - 1] & rest:
                return True
        return False
    if size <= 1:
        return size == 0 or size == 1 and avail != 0
    return next(_cliques(nbr, avail, size), None) is not None


def _component(nbr: Sequence[int], rest: int) -> tuple[int, int]:
    """The connected component of the lowest vertex of the mask rest in the
    subgraph that the neighbour masks nbr induce on rest, and the vertices
    of that component at even distance from the lowest vertex.

    The component is grown breadth first, layer by layer, so a layer holds
    the vertices at one distance.  Its edges join consecutive layers or lie
    inside one, so it is bipartite iff neither of its two sides, the even
    and the odd layers, holds an edge.
    """
    even = rest & -rest
    # the first layer: the neighbours of the lowest vertex, which is not its
    # own neighbour
    layer = nbr[even.bit_length() - 1] & rest
    comp = even | layer
    odd = True
    while layer:
        reached = 0
        while layer:
            low = layer & -layer
            layer ^= low
            reached |= nbr[low.bit_length() - 1]
        layer = reached & rest & ~comp
        comp |= layer
        odd = not odd
        if not odd:
            even |= layer
    return comp, even


def is_connected(g: Graph) -> bool:
    """True for graphs with at most one vertex and for connected graphs."""
    full = _full_mask(g.n)
    return g.n <= 1 or _component(g._masks, full)[0] == full


def is_k_colorable(g: Graph, k: int) -> bool:
    """Exact k-colourability.

    With more than k vertices, a k-colouring exists iff a partition into
    exactly k nonempty independent blocks does (split a block of two or more
    to add one), so the partition search decides it, visiting vertices by
    decreasing degree.
    """
    _require_int(k, "k")
    if k < 0:
        raise ValueError("k must be nonnegative")
    masks = g._masks
    order = sorted(g.vertices, key=lambda v: (-masks[v].bit_count(), v))
    return g.n <= k or next(_partition_search(g, k, order), None) is not None


def _free_classes(g: Graph, k: int, fits: Callable[[int], bool] | None = None) -> list[int]:
    """The free classes of g for k >= 1 colours, as vertex masks: the
    inclusion-minimal independent sets B such that g - B is
    (k-1)-colourable, by ascending size.  With fits, a test of vertex
    masks that fails on every superset of a mask it fails on, only the
    classes that pass it.

    g plus a vertex w is k-colourable iff N(w) misses one of them: w takes
    B's colour, and conversely w's colour class minus w contains one.  The
    independent sets are grown by size, each from its members but the
    highest, so each is met once; a set that fails fits or holds a class
    found is skipped, and a class is not grown.  Each colourability test
    is the partition search on g - B, visiting its vertices by decreasing
    degree.
    """
    _require_at_least(k, "k", 1)
    masks = g._masks
    order = sorted(g.vertices, key=lambda v: (-masks[v].bit_count(), v))
    full = _full_mask(g.n)
    classes: list[int] = []
    # (independent set, the vertices it blocks: its members, their
    # neighbours and every vertex below its highest member)
    frontier = [(0, 1)]
    while frontier:
        grown = []
        for b, blocked in frontier:
            if fits is not None and not fits(b) or any(c & b == c for c in classes):
                continue
            rest = [v for v in order if not b >> v & 1]
            if len(rest) < k or next(_partition_search(g, k - 1, rest), None) is not None:
                classes.append(b)
                continue
            cand = full & ~blocked
            while cand:
                low = cand & -cand
                cand ^= low
                v = low.bit_length() - 1
                grown.append((b | low, blocked | masks[v] | (low << 1) - 1))
        frontier = grown
    return classes


def _partition_search(
    g: Graph, r: int, order: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """Proper colourings of the subgraph induced on the vertices of order
    with exactly r nonempty classes, one per unordered partition, visiting
    the vertices in the given order; each is yielded as its blocks' vertex
    masks (bit v for vertex v) when it is found.

    Colours are introduced in first-use order, so every partition into
    independent blocks appears exactly once, with blocks ordered by their
    first member in the visit order.  Each colour class is kept as a vertex
    mask, so the test whether a vertex may join it is one AND with the
    vertex's neighbour mask.  The search keeps its own stack: the colour
    tried at each depth, so its depth is not bounded by the recursion limit.
    """
    n = len(order)
    if r > n:
        return
    bits = [1 << v for v in order]
    nbrs = [g._masks[v] for v in order]
    block = [0] * r
    # colour[i]: the colour of the i-th visited vertex, -1 while it has none;
    # used[i]: the number of colours in use before it
    colour = [-1] * n
    used = [0] * (n + 1)
    i = 0
    while i >= 0:
        if i == n:
            yield tuple(block)
            i -= 1
            continue
        c = colour[i]
        if c >= 0:
            block[c] ^= bits[i]
        u = used[i]
        top = u + 1 if u < r else r
        # the n - 1 - i vertices after this one must open every colour still
        # unused, so each leaf has exactly r
        need = r - (n - 1 - i)
        c += 1
        while c < top and (block[c] & nbrs[i] or (c + 1 if c >= u else u) < need):
            c += 1
        if c < top:
            block[c] |= bits[i]
            colour[i] = c
            i += 1
            used[i] = c + 1 if c >= u else u
        else:
            colour[i] = -1
            i -= 1


def r_partition(g: Graph, r: int) -> tuple[tuple[int, ...], ...] | None:
    """A partition of the vertices into exactly r nonempty independent blocks.

    Returns the first partition in the deterministic search order, or None
    when the graph admits no such partition.
    """
    _require_at_least(r, "r", 1)
    first = next(_partition_search(g, r, g.vertices), None)
    return None if first is None else tuple(_mask_to_tuple(b) for b in first)


def all_r_partitions(g: Graph, r: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every partition into exactly r nonempty independent blocks, each once."""
    _require_at_least(r, "r", 1)
    return [
        tuple(_mask_to_tuple(b) for b in blocks)
        for blocks in _partition_search(g, r, g.vertices)
    ]


def _has_odd_hole(nbr: tuple[int, ...] | list[int]) -> bool:
    """Whether the graph given by neighbour masks (index v for vertex v,
    index 0 unused) has an induced odd cycle on five or more vertices.

    Every hole is grown as a chordless path from its least vertex s.  A path
    s, p_1, ..., p_k extends by a neighbour w of p_k above s that avoids the
    path and the neighbourhoods of p_1, ..., p_{k-1}; so no vertex after p_1
    is adjacent to an earlier one but its predecessor.  A w adjacent to s
    closes the hole s, p_1, ..., p_k, w of length k + 2 instead, and since
    it would be a chord of any longer path, it is never appended.  The
    search keeps its own stack, so the path length is not bounded by the
    recursion limit.
    """
    rest = _full_mask(len(nbr) - 1)
    while rest.bit_count() >= 5:
        s = (rest & -rest).bit_length() - 1
        rest ^= 1 << s
        ns = nbr[s] & rest
        if ns.bit_count() < 2:
            continue
        # Each hole is met in both directions; keep the one whose closing
        # vertex lies above p_1, and drop a path once no vertex that may
        # close it is left to follow.  Frames: (last vertex p_k, number of
        # path vertices after s, the vertices that may follow p_k, the
        # vertices that may close the hole).
        stack = []
        first = ns
        while first:
            b = first & -first
            first ^= b
            close = ns & ~((b << 1) - 1)
            if close:
                stack.append((b.bit_length() - 1, 1, rest & ~b, close))
        while stack:
            end, k, avail, close = stack.pop()
            cand = nbr[end] & avail
            later = avail & ~nbr[end]
            while cand:
                b = cand & -cand
                cand ^= b
                if b & ns:
                    if b & close and k > 1 and k & 1:
                        return True
                elif later & close:
                    stack.append((b.bit_length() - 1, k + 1, later, close))
    return False


def is_perfect(g: Graph) -> bool:
    """Perfection via the strong perfect graph theorem.

    A graph is perfect iff neither it nor its complement contains an induced
    odd cycle of length >= 5.  Both are searched by _has_odd_hole, the
    complement on its neighbour masks, without building it.
    """
    return _is_perfect(g._masks, _complement_masks(g))


def _is_perfect(masks: tuple[int, ...], co: list[int]) -> bool:
    """is_perfect of the graph with neighbour masks masks and complement
    masks co (_complement_masks)."""
    return not _has_odd_hole(masks) and not _has_odd_hole(co)


def _refine(
    n: int, masks: Sequence[int], edges: Sequence[tuple[int, int]]
) -> tuple[list[int], int]:
    """Stable colour refinement of the graph on 1..n with neighbour masks
    masks and edges edges, in any order: the colours (index v for vertex v;
    index 0, no vertex, repeats vertex 1's) and their number.

    The colours start as the ranks of the degrees, ranked once before the
    loop.  Each round ranks the signatures (colour of v, sorted tuple of
    the colours of v's neighbours), so the classes only split.  The colour
    leads the signature, so a round that splits no class keeps every
    colour: the loop returns the colours it has, without ranking the round,
    and stops there, since the next round would be the same.  The colours
    are ranks in the sorted order of the signatures, an
    isomorphism-invariant order.

    Each signature is encoded as one integer that sorts as the pair does.
    Every colour refines the degree, so two vertices of one colour have
    tuples of one length, and two sorted tuples of one length compare, at
    the least colour c whose counts differ, as the tuple with more copies
    of c first.  So the tuples sort as the count vectors (count of colour
    0, of colour 1, ...) in descending lexicographic order, and the pair
    sorts as colour << dn minus the sum over the neighbours u of
    1 << d(n - 1 - colour(u)), with d = n.bit_length(): a count is at most
    n - 1 < 1 << d, so each d-bit digit holds it with no carry, and the sum
    stays below 1 << dn.  One pass over the edges builds every key.
    """
    if n == 0:
        return [0], 0
    # a degree's rank is the number of smaller degrees that occur; index 0
    # is no vertex, and its empty mask would add the degree 0
    present = 0
    for m in masks[1:]:
        present |= 1 << m.bit_count()
    colours = [(present & (1 << m.bit_count()) - 1).bit_count() for m in masks]
    colours[0] = colours[1]
    count = present.bit_count()
    d = n.bit_length()
    top = d * n
    weights = [1 << d * (n - 1 - c) for c in range(n)]
    while count < n:
        w = [weights[c] for c in colours]
        keys = [c << top for c in colours]
        for u, v in edges:
            keys[u] -= w[v]
            keys[v] -= w[u]
        # index 0 is no vertex: vertex 1's key adds no class
        keys[0] = keys[1]
        distinct = set(keys)
        if len(distinct) == count:
            break
        rank = {k: i for i, k in enumerate(sorted(distinct))}
        colours = [rank[k] for k in keys]
        count = len(distinct)
    return colours, count


def _twin_classes(g: Graph) -> list[list[int]]:
    """The twin classes of g with at least two members, each ascending.

    Twins have the same open or the same closed neighbourhood, and swapping
    two of them is an automorphism that fixes every other vertex.  Open twins
    are non-adjacent and closed twins adjacent, so no vertex has both kinds.
    """
    by_nbhd: dict[tuple[bool, int], list[int]] = {}
    for v in g.vertices:
        m = g._masks[v]
        by_nbhd.setdefault((False, m), []).append(v)
        by_nbhd.setdefault((True, m | 1 << v), []).append(v)
    return [c for c in by_nbhd.values() if len(c) > 1]


def canonical_form(g: Graph) -> bytes:
    """A label-independent byte string: equal iff the graphs are isomorphic.

    Minimizes the sequence of adjacency rows (row j = bits of vertex j versus
    the vertices placed before it, the first placed highest) over all
    labelings, restricted to orderings compatible with colour refinement:
    the vertices of colour 0 first, then those of colour 1, and so on.
    Raises ValueError for n > 9.

    A search places the vertices.  It places twins in ascending order only:
    swapping two unplaced twins fixes every placed vertex, so both branches
    give the same rows.  Twins always share a colour, so they are looked for
    inside each class of two or more.  When every class is one chain of
    twins (a class of one vertex is a chain too, so this holds whenever
    refinement leaves n classes), that leaves one ordering, and its rows are
    read off the edges without a search; when refinement leaves n classes,
    the colours are the positions.  Each node knows whether its rows so far
    equal the best sequence's prefix; they do after the first child
    returns, since that child reached a leaf or was pruned against an equal
    prefix.
    """
    return _canonical(g.n, g._masks, g.edges)


def _canonical(
    n: int, masks: Sequence[int], edges: Sequence[tuple[int, int]]
) -> bytes:
    """canonical_form of the graph on 1..n with neighbour masks masks
    (index 0 unused, 0) and edges edges, each edge once, in any order.  The
    enumeration hands it a child's masks and edges before it builds the
    child as a Graph."""
    if n > MAX_CANONICAL_N:
        raise ValueError(f"canonical_form supports at most {MAX_CANONICAL_N} vertices")
    if n == 0:
        return b"0:"
    colours, count = _refine(n, masks, edges)
    if count == n:
        return _form_bytes(n, _rows_at(n, edges, colours))
    unplaced = [0] * count
    for v in range(1, n + 1):
        unplaced[colours[v]] |= 1 << v
    # twin_before[v]: the bit of the twin placed just before v, if any.  One
    # dict keys open and closed neighbourhoods: N(x) = N[y] would put y in
    # N(x), so x in N[y] = N(x), which cannot be.  No vertex has twins of
    # both kinds.
    twin_before = [0] * (n + 1)
    last: dict[int, int] = {}
    for cls in unplaced:
        if cls & (cls - 1):
            rest = cls
            while rest:
                b = rest & -rest
                rest ^= b
                v = b.bit_length() - 1
                m = masks[v]
                twin_before[v] = last.get(m, 0) | last.get(m | b, 0)
                last[m] = last[m | b] = b
    # index 0 is no vertex and has no twin before it
    if twin_before.count(0) - 1 == count:
        # every class is one chain of twins, placed in ascending order
        position = [0] * (n + 1)
        j = 0
        for cls in unplaced:
            while cls:
                b = cls & -cls
                cls ^= b
                position[b.bit_length() - 1] = j
                j += 1
        return _form_bytes(n, _rows_at(n, edges, position))
    slots = sorted(colours[1:])
    placed: list[int] = []
    rows = []
    best: list[int] = []

    def rec(j: int, eq: bool) -> None:
        if j == n:
            if not eq:
                best[:] = rows
            return
        gi = slots[j]
        free = unplaced[gi]
        cands = []
        rest = free
        while rest:
            b = rest & -rest
            rest ^= b
            v = b.bit_length() - 1
            if twin_before[v] & free:
                continue
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
    return _form_bytes(n, best)


def _rows_at(
    n: int, edges: Sequence[tuple[int, int]], position: list[int]
) -> list[int]:
    """The adjacency rows of the ordering of the n vertices that puts
    vertex v at position[v] (0 first), read off the edges."""
    rows = [0] * n
    for u, v in edges:
        a, b = position[u], position[v]
        if a < b:
            rows[b] |= 1 << (b - 1 - a)
        else:
            rows[a] |= 1 << (a - 1 - b)
    return rows


def _form_bytes(n: int, rows: list[int]) -> bytes:
    body = ".".join(["%x" % r for r in rows])
    return f"{n}:{body}".encode("ascii")
