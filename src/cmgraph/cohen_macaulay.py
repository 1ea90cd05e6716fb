"""Cohen-Macaulayness of complexes and graphs, with checkable witnesses.

Two deciders live here.  reisner_cm applies the homological criterion: a
complex is Cohen-Macaulay over a field K iff for every face F (including the
empty face) the link of F has vanishing reduced homology in all degrees
strictly below its dimension.  It, cm_characteristic_profile and the
harness records share one scan, which links only the faces that are
intersections of facets and decides each distinct link once with
_link_failures: a connectivity test on the link's 1-skeleton settles
disconnected links and links of dimension 1, and the rest are
strong-collapsed to their cores and reduced, over Q after an F_2 screen.
bipartite_cm_ordering applies the Herzog-Hibi combinatorial criterion for
bipartite graphs, which is characteristic-free.

On a graph the scan is skipped when a characteristic-free certificate
holds: Ind(G) pure and G vertex decomposable by shedding vertices, which
makes Ind(G) shellable and so CM over every field.  _shedding_alpha decides
both on G's vertex masks, so cm_characteristic_profile builds Ind(G) only
for graphs it does not certify; reisner_cm on a bare complex always scans.
The harness records keep verdicts only, so _graph_cm first refutes CM over
every field when G's maximal independent sets differ in size or a face
found on G's vertex masks has a disconnected link of dimension 1 or more,
and then tries the certificate and the scan.
"""

from __future__ import annotations

from typing import Iterable

from .complexes import SimplicialComplex, independence_complex, link
from .covers import _bipartite_matching
from .graphs import Graph, _Value, _as_tuple, _cliques, _component, _full_mask, _mask_to_tuple, _partition_search, _require_int
from .homology import FieldSpec, _betti, _require_field, _strong_core

# The shedding-vertex certificate gives up once this many core masks (vertex
# masks with their cone points dropped) are memoised or on its stack, and
# the Reisner scan decides the graph instead.
SHEDDING_MEMO_CAP = 4096


class HomologyWitness(_Value):
    """A face whose link has nonvanishing reduced homology in degree index."""

    __slots__ = ("face", "index")
    face: tuple[int, ...]
    index: int


class PurityWitness(_Value):
    """Two facets of different cardinality, disproving purity."""

    __slots__ = ("facet_small", "facet_large")
    facet_small: tuple[int, ...]
    facet_large: tuple[int, ...]


class CMReport(_Value):
    __slots__ = ("field", "is_cm", "witness")
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
    homology below its dimension is returned.  See _reisner_scan.
    """
    _require_field(field)
    return _reisner_scan(cx, [field])[0]


def cm_characteristic_profile(g: Graph, fields: Iterable[FieldSpec]) -> list[CMReport]:
    """One report per requested field, from a single scan of Ind(g)'s faces,
    or from none when Ind(g) is certified CM over every field.

    Each report equals reisner_cm(independence_complex(g), field).  A graph
    that _shedding_alpha certifies makes Ind(g) pure and vertex
    decomposable, hence shellable and CM over every field (Provan &
    Billera, 1980), and the scan of a CM complex reports a pass with no
    witness for each entry of fields; Ind(g) is built only for the scan.
    fields is read once, so any iterable of FieldSpecs will do.
    """
    fields = _as_tuple(fields, "fields")
    for f in fields:
        _require_field(f)
    if not fields:
        raise ValueError("at least one field is required")
    if _shedding_alpha(g) is not None:
        return [CMReport(f, True, None) for f in fields]
    return _reisner_scan(independence_complex(g), fields)


def _graph_cm(
    g: Graph, sets: list[tuple[int, ...]], fields: list[FieldSpec], co: list[int]
) -> list[bool]:
    """The verdicts of cm_characteristic_profile(g, fields), with no
    witness; sets holds g's maximal independent sets and co its complement
    masks (graphs._complement_masks).

    Sets of different sizes make Ind(g) impure, and a face whose link has
    dimension 1 or more and is disconnected fails Reisner's criterion in
    degree 0 over every field; either settles every field as False before
    the certificate and the scan decide the rest.  The face
    _has_disconnected_link finds need not be the one the canonical scan
    would name, which is why callers that print witnesses take
    cm_characteristic_profile.
    """
    alpha = len(sets[0])
    if any(len(s) != alpha for s in sets) or _has_disconnected_link(co, alpha - 1):
        return [False] * len(fields)
    if _shedding_alpha(g) is not None:
        return [True] * len(fields)
    # the maximal independent sets are an antichain covering every vertex
    cx = SimplicialComplex._antichain(g.n, sets)
    return [report.is_cm for report in _reisner_scan(cx, fields)]


def _has_disconnected_link(co: list[int], dim: int) -> bool:
    """Whether Ind(g), pure of dimension dim, has a face whose link has
    dimension 1 or more and is disconnected, for the graph g whose
    complement has the neighbour masks co (graphs._complement_masks).

    In a pure complex lk(F) has dimension dim - |F|, so the faces to try are
    the independent sets F with |F| <= dim - 1.  In a flag complex
    lk(F) = Ind(g - N[F]), whose 1-skeleton is the complement of g on the
    mask V - N[F] (bit v for vertex v), and a complex is connected iff its
    1-skeleton is: the link is connected iff graphs._component, run on co,
    reaches all of V - N[F].  The independent k-sets of g are the k-cliques
    of its complement, so F is the empty set and then, size by size, each
    clique of graphs._cliques on co; V - N[F] is the AND of co[v] over F.
    The search stops at the first disconnected link.
    """
    if dim < 1:
        return False
    full = _full_mask(len(co) - 1)
    for size in range(dim):
        for face in _cliques(co, full, size) if size else [()]:
            rest = full
            for v in face:
                rest &= co[v]
            if _component(co, rest)[0] != rest:
                return True
    return False


def _shedding_alpha(g: Graph) -> int | None:
    """alpha(g) when Ind(g) is pure and g decomposes by this search over its
    vertex masks (bit v for vertex v), None otherwise: an induced subgraph
    is one mask.

    Vertices isolated in a mask are cone points: each is dropped and adds 1
    to alpha, and an empty core (a mask with its cones dropped) answers 0.
    A vertex v of a core is a shedding vertex when N[u] <= N[v] inside the
    core for some neighbour u (Woodroofe, 2009).  The facets of Ind(core)
    are then those of Ind(core - v) plus v joined to those of
    Ind(core - N[v]), so v decomposes the core into a pure complex iff both
    halves answer and alpha(core - v) = alpha(core - N[v]) + 1.  Each
    shedding vertex is tried in turn, and answers are memoised by core for
    this call only.  None means no decomposition was found, or the cores
    memoised or on the stack reached SHEDDING_MEMO_CAP; the caller then
    scans.  The search keeps its own stack, one frame per core being
    decided with the number of cones its parent dropped, so its depth is
    not bounded by Python's recursion limit.
    """
    masks = g._masks
    closed = [m | 1 << v for v, m in enumerate(masks)]

    def without_cones(mask: int) -> tuple[int, int]:
        rest, cones = mask, 0
        while rest:
            low = rest & -rest
            rest ^= low
            if not masks[low.bit_length() - 1] & mask:
                mask ^= low
                cones += 1
        return mask, cones

    def decide(mask: int):
        # a generator: it yields the masks it needs decided and is sent
        # their answers
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            nv = closed[v] & mask
            others = masks[v] & mask
            while others:
                u_bit = others & -others
                others ^= u_bit
                if not closed[u_bit.bit_length() - 1] & mask & ~nv:
                    alpha = yield mask ^ low
                    if alpha is not None and (yield mask & ~nv) == alpha - 1:
                        return alpha
                    break
        return None

    memo: dict[int, int | None] = {}
    top, cones = without_cones(_full_mask(g.n))
    if not top:
        return cones
    stack = [(top, decide(top), cones)]
    answer = None
    while stack:
        mask, search, cones = stack[-1]
        try:
            sub = search.send(answer)
        except StopIteration as done:
            stack.pop()
            sub = mask
            memo[mask] = done.value
        else:
            sub, cones = without_cones(sub)
            if sub and sub not in memo:
                if len(memo) + len(stack) >= SHEDDING_MEMO_CAP:
                    return None
                stack.append((sub, decide(sub), cones))
                answer = None
                continue
        alpha = memo[sub] if sub else 0
        answer = None if alpha is None else alpha + cones
    return answer


def _link_failures(lk: SimplicialComplex, fields: list[FieldSpec]) -> dict[FieldSpec, int | None]:
    """The link lk's first failing degree for each field: the least i below
    lk's dimension with nonzero reduced homology in degree i, or None when
    the link passes.

    A link of dimension 1 or more is settled over every field without a
    reduction when it is disconnected (reduced homology first in degree 0,
    one less than the number of components) or has dimension 1 (connected,
    so nothing below degree 1).  A complex is connected iff its 1-skeleton
    is, and graphs._component searches the 1-skeleton on neighbour masks:
    each facet's mask OR-ed into the masks of its vertices.

    Otherwise the link is strong-collapsed once (homology._strong_core,
    which keeps every reduced Betti number), and its core is reduced for
    the fields.  The F_2 Betti vector is reduced at most once.  It answers
    F_2, and it screens Q: no integer matrix has larger rank over F_2 than
    over Q, so F_2 Betti numbers bound the rational ones from above, and
    vanishing F_2 homology below the dimension passes the link without
    reducing over Q.  Both go through the same reducer, but mod 2 every
    entry stays -1, 0 or 1, where over Q entries grow and every column
    joining the basis costs a gcd, so the screen costs less than the
    reduction it saves.
    """
    d = lk.dimension()
    masks = [sum(1 << v for v in facet) for facet in lk.facets]
    if d >= 1:
        nbr = [0] * (lk.n + 1)
        for m, facet in zip(masks, lk.facets):
            for v in facet:
                nbr[v] |= m
        full = _full_mask(lk.n)
        if _component(nbr, full)[0] != full:
            return dict.fromkeys(fields, 0)
        if d == 1:
            return dict.fromkeys(fields)
    core = _strong_core(lk, masks)
    f2 = None
    first: dict[FieldSpec, int | None] = {}
    for field in fields:
        c = field.characteristic
        if c in (0, 2) and f2 is None:
            f2 = _betti(core, 2, d)
        if c == 2 or c == 0 and not any(f2[: d + 1]):
            betti = f2
        else:
            betti = _betti(core, c, d)
        first[field] = next((i for i in range(-1, d) if betti[i + 1]), None)
    return first


def _reisner_scan(cx: SimplicialComplex, fields: list[FieldSpec]) -> list[CMReport]:
    """The Reisner scan of cx, once for every field: one report per entry.

    Faces are visited in canonical order and each still-undecided field
    checks the face's link; a field whose link fails drops out with that
    face as its witness, and the scan ends when no field is left.  So every
    report, witness included, is the one a scan for its field alone gives.

    Only faces whose link can fail are linked.  In a pure complex lk(F) has
    dimension dim - |F|, so the scan ends at the first face with |F| >= dim:
    from there on every link is nonempty with nothing to check below degree
    0.  A face F that is not the intersection of the facets containing it
    has a vertex v outside it in all of them, so lk(F) is a cone over v,
    acyclic over every field, and is skipped; cx's facet incidence gives
    the facets containing F and the vertices in all of them.  A link's
    facets determine it, since every vertex lies in a facet, so verdicts
    are kept by facets for the rest of the call: distinct faces often have
    equal links.  The scan calls _link_failures once per distinct link, for
    the fields active when it first meets the link; fields only drop out,
    so a later face with the same link asks no field that call left out.
    """
    if not cx.is_pure():
        by_size = sorted(cx.facets, key=len)
        witness = PurityWitness(by_size[0], by_size[-1])
        return [CMReport(f, False, witness) for f in fields]
    active = list(dict.fromkeys(fields))
    failed: dict[FieldSpec, HomologyWitness] = {}
    by_facets: dict[tuple[tuple[int, ...], ...], dict[FieldSpec, int | None]] = {}
    dim = cx.dimension()
    incidence = cx._vertex_facets().values()
    for face in cx.all_faces():
        if len(face) >= dim:
            break
        above = cx._above(face)
        if sum(1 for m in incidence if m & above == above) > len(face):
            continue
        lk = link(cx, face)
        first = by_facets.get(lk.facets)
        if first is None:
            first = by_facets[lk.facets] = _link_failures(lk, active)
        dropped = False
        for field in active:
            i = first[field]
            if i is not None:
                failed[field] = HomologyWitness(face, i)
                dropped = True
        if dropped:
            active = [f for f in active if f not in failed]
            if not active:
                break
    return [CMReport(f, f not in failed, failed.get(f)) for f in fields]


class HHOrdering(_Value):
    """A certificate ordering for the Herzog-Hibi bipartite criterion.

    pairs[i] = (v_{i+1}, w_{i+1}): matched vertices listed in an order under
    which every cross edge points forward and forwarding composes.
    """

    __slots__ = ("pairs",)
    pairs: tuple[tuple[int, int], ...]


def hh_conditions_hold(g: Graph, pairs: Iterable[tuple[int, int]]) -> bool:
    """Check the three ordering conditions against the graph.

    With pairs (v_1, w_1), ..., (v_k, w_k): (1) v_i ~ w_i for all i;
    (2) v_i ~ w_j implies i <= j; (3) v_i ~ w_j and v_j ~ w_k imply v_i ~ w_k
    for i < j < k.

    Each v_i ~ w_j is tested once, into row i, a mask with bit j set when
    it holds (_pair_rows).  Under (1) and (2) row j holds j and nothing
    below it, so (3) asks, for each j > i in row i, that row i hold row j's
    bits above j.
    """
    rows = _pair_rows(g, pairs)
    for i, row in enumerate(rows):
        if not row >> i & 1 or row & (1 << i) - 1:
            return False
        later = row >> i + 1 << i + 1
        while later:
            low = later & -later
            later ^= low
            if rows[low.bit_length() - 1] & ~row & ~((low << 1) - 1):
                return False
    return True


def _pair_rows(g: Graph, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Row i per pair (v_i, w_i): bit j set when v_i ~ w_j in g.

    pairs is read once.  Each vertex is checked once, and one that is not
    an integer (bool included) raises ValueError, as in Graph.has_edge, as
    do pairs that are not iterable and a pair that is not two vertices; a
    vertex outside 1..n is adjacent to nothing.  Row i ORs, over the
    neighbours w of v_i, the bits j with w_j = w.
    """
    columns: dict[int, int] = {}
    heads = []
    for j, pair in enumerate(_as_tuple(pairs, "pairs")):
        try:
            v, w = pair
        except (TypeError, ValueError):
            raise ValueError(f"pair {pair!r} is not a pair") from None
        _require_int(v, "vertex")
        _require_int(w, "vertex")
        columns[w] = columns.get(w, 0) | 1 << j
        heads.append(v)
    rows = []
    for v in heads:
        row = 0
        if 1 <= v <= g.n:
            for w in _mask_to_tuple(g._masks[v]):
                row |= columns.get(w, 0)
        rows.append(row)
    return rows


def bipartite_cm_ordering(g: Graph) -> HHOrdering | None:
    """Search for a Herzog-Hibi ordering; None means the graph is not CM.

    Requires a bipartite graph with both parts nonempty.  Under an HH
    ordering v_i ~ w_j only when i <= j, so the adjacency is triangular and
    its matching is the only perfect matching; parts of unequal size have
    none.  One augmenting-path search finds a perfect matching, and the
    pairs are sorted by the degree of their w, then by the pair.

    Write v_a ~ w_b for pairs a != b as an arc a -> b.  Every neighbour of
    w_b is the v of some pair, so b has deg(w_b) - 1 arcs coming in.  When
    an ordering exists the matching is unique, so the arcs have no cycle
    (a cycle is an alternating cycle), and condition (3) makes the arcs
    transitive: it holds for one topological order iff it holds for all.
    An arc a -> b then sends every arc into a on to b as well, and adds a
    itself, so deg(w_b) > deg(w_a) and the degree sort is a topological
    order, for which condition (3) holds.  When no ordering exists
    hh_conditions_hold rejects every order of the pairs, the sorted one
    included.
    """
    parts = next(_partition_search(g, 2, g.vertices), None)
    if parts is None:
        raise ValueError("graph is not bipartite with two nonempty parts")
    matching = _bipartite_matching(g, *parts)
    if matching is None:
        return None
    ordered = tuple(sorted(matching, key=lambda pair: (g.degree(pair[1]), pair)))
    if hh_conditions_hold(g, ordered):
        return HHOrdering(ordered)
    return None
