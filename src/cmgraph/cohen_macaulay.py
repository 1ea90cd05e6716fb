"""Cohen-Macaulayness of complexes and graphs, with checkable witnesses.

Two deciders live here.  reisner_cm applies the homological criterion: a
complex is Cohen-Macaulay over a field K iff for every face F (including the
empty face) the link of F has vanishing reduced homology in all degrees
strictly below its dimension.  It, cm_characteristic_profile and the
harness records share one scan, which links only the faces that are
intersections of facets and decides each distinct link once with
_link_failures: the link's 1-skeleton, grown by graphs._component,
settles disconnected links and links of dimension 1, and the rest are
reduced, over Q after an F_2 screen.  bipartite_cm_ordering applies the
Herzog-Hibi combinatorial criterion for bipartite graphs, which is
characteristic-free.

On a graph the scan is skipped when a characteristic-free certificate
holds: Ind(G) pure and G vertex decomposable by shedding vertices, which
makes Ind(G) shellable and so CM over every field.  cm_characteristic_profile
tries it through _graph_profile; reisner_cm on a bare complex always scans.
The harness records keep verdicts only, so _graph_cm first looks on G's
vertex masks for a face with a disconnected link of dimension 1 or more,
which refutes CM over every field, and then reads _graph_profile's
verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import SimplicialComplex, independence_complex, link
from .covers import _bipartite_matching
from .graphs import Graph, _component, _full_mask, _partition_search
from .homology import FieldSpec, reduced_betti

_F2 = FieldSpec(2)

# The shedding-vertex certificate gives up once this many vertex masks are
# memoised or on its stack, and the Reisner scan decides the graph instead.
SHEDDING_MEMO_CAP = 4096


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
    homology below its dimension is returned.  See _reisner_scan.
    """
    return _reisner_scan(cx, [field])[0]


def cm_characteristic_profile(g: Graph, fields: list[FieldSpec]) -> list[CMReport]:
    """One report per requested field, from a single scan of Ind(g)'s faces,
    or from none when Ind(g) is certified CM over every field.

    Each report equals reisner_cm(independence_complex(g), field).
    """
    if not fields:
        raise ValueError("at least one field is required")
    return _graph_profile(g, independence_complex(g), fields)


def _graph_profile(
    g: Graph, cx: SimplicialComplex, fields: list[FieldSpec]
) -> list[CMReport]:
    """_reisner_scan(cx, fields) for cx = Ind(g), skipping the scan when cx
    is pure and g is vertex decomposable by shedding vertices.  This is the
    path of the callers that print witnesses; the harness records, which
    keep only verdicts, take _graph_cm.

    A pure vertex-decomposable complex is shellable, hence CM over every
    field (Provan & Billera, 1980), and the scan of a CM complex reports a
    pass with no witness for each entry of fields.
    """
    if cx.is_pure() and _shedding_certified(g):
        return [CMReport(f, True, None) for f in fields]
    return _reisner_scan(cx, fields)


def _graph_cm(
    g: Graph, cx: SimplicialComplex, fields: list[FieldSpec], co: list[int]
) -> list[bool]:
    """The verdicts of _graph_profile(g, cx, fields), with no witness; co
    holds g's complement masks (graphs._complement_masks).

    A face whose link has dimension 1 or more and is disconnected fails
    Reisner's criterion in degree 0 over every field, so such a face,
    looked for by _has_disconnected_link, settles every field as False
    before _graph_profile's certificate and scan decide the rest.  It need
    not be the face the canonical scan would name, which is why callers
    that print witnesses keep _graph_profile.
    """
    if not cx.is_pure() or _has_disconnected_link(co, cx.dimension()):
        return [False] * len(fields)
    return [report.is_cm for report in _graph_profile(g, cx, fields)]


def _has_disconnected_link(co: list[int], dim: int) -> bool:
    """Whether Ind(g), pure of dimension dim, has a face whose link has
    dimension 1 or more and is disconnected, for the graph g whose
    complement has the neighbour masks co (graphs._complement_masks).

    In a pure complex lk(F) has dimension dim - |F|, so the faces to try are
    the independent sets F with |F| <= dim - 1.  In a flag complex
    lk(F) = Ind(g - N[F]), whose 1-skeleton is the complement of g on the
    mask V - N[F] (bit v for vertex v), and a complex is connected iff its
    1-skeleton is: the link is connected iff graphs._component, run on co,
    reaches all of V - N[F].  The search grows F one vertex at a time,
    higher vertices only, on its own stack of (V - N[F], vertices that may
    extend F, |F|) frames, and stops at the first disconnected link.
    """
    if dim < 1:
        return False
    full = _full_mask(len(co) - 1)
    stack = [(full, full, 0)]
    while stack:
        rest, extend, size = stack.pop()
        if _component(co, rest)[0] != rest:
            return True
        if size < dim - 1:
            while extend:
                low = extend & -extend
                extend ^= low
                sub = rest & co[low.bit_length() - 1]
                stack.append((sub, sub & extend, size + 1))
    return False


def _shedding_certified(g: Graph) -> bool:
    """Whether g is vertex decomposable by this search over its vertex masks
    (bit v for vertex v): an induced subgraph is one mask.

    Vertices isolated in a mask are cone points and are dropped; an empty
    mask is decomposable.  A vertex v of a mask is a shedding vertex when
    N[u] <= N[v] inside the mask for some neighbour u (Woodroofe, 2009), and
    v decomposes the mask when both mask - v and mask - N[v] are
    decomposable.  Each shedding vertex is tried in turn, and verdicts are
    memoised by mask for this call only.  False means no decomposition was
    found, or the masks memoised or on the stack reached SHEDDING_MEMO_CAP;
    the caller then scans.  The search keeps its own stack, one frame per
    mask being decided, so its depth is not bounded by Python's recursion
    limit.
    """
    masks = g._masks
    closed = [m | 1 << v for v, m in enumerate(masks)]

    def without_cones(mask: int) -> int:
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            if not masks[low.bit_length() - 1] & mask:
                mask ^= low
        return mask

    def decide(mask: int):
        # a generator: it yields the masks it needs decided and is sent
        # their verdicts
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
                    if (yield mask ^ low) and (yield mask & ~nv):
                        return True
                    break
        return False

    memo: dict[int, bool] = {}
    top = without_cones(_full_mask(g.n))
    if not top:
        return True
    stack = [(top, decide(top))]
    verdict = None
    while stack:
        mask, search = stack[-1]
        try:
            sub = search.send(verdict)
        except StopIteration as done:
            stack.pop()
            verdict = memo[mask] = done.value
            continue
        sub = without_cones(sub)
        if not sub:
            verdict = True
        elif sub in memo:
            verdict = memo[sub]
        elif len(memo) + len(stack) >= SHEDDING_MEMO_CAP:
            return False
        else:
            stack.append((sub, decide(sub)))
            verdict = None
    return verdict


def _link_failures(lk: SimplicialComplex, fields: list[FieldSpec]) -> dict[FieldSpec, int | None]:
    """The link lk's first failing degree for each field: the least i below
    lk's dimension with nonzero reduced homology in degree i, or None when
    the link passes.

    A link of dimension 1 or more is settled over every field without a
    reduction when it is disconnected (reduced homology first in degree 0,
    one less than the number of components) or has dimension 1 (connected,
    so nothing below degree 1).  A complex is connected iff its 1-skeleton
    is, and graphs._component grows the 1-skeleton's component from its
    neighbour masks: a vertex's mask is the union of the facets holding it,
    and its own bit there does not change the component.

    Otherwise the F_2 Betti vector is reduced at most once.  It answers F_2,
    and it screens Q: no integer matrix has larger rank over F_2 than over
    Q, so F_2 Betti numbers bound the rational ones from above, and
    vanishing F_2 homology below the dimension passes the link without
    reducing over Q, which costs more than reducing bitsets over F_2.
    """
    d = lk.dimension()
    if d >= 1:
        nbr = [0] * (lk.n + 1)
        for facet, m in zip(lk.facets, lk._facet_masks()):
            for v in facet:
                nbr[v] |= m
        full = _full_mask(lk.n)
        if _component(nbr, full)[0] != full:
            return dict.fromkeys(fields, 0)
        if d == 1:
            return dict.fromkeys(fields)
    f2 = None
    first: dict[FieldSpec, int | None] = {}
    for field in fields:
        c = field.characteristic
        if c in (0, 2) and f2 is None:
            f2 = reduced_betti(lk, _F2)
        if c == 2 or c == 0 and not any(f2[: d + 1]):
            betti = f2
        else:
            betti = reduced_betti(lk, field)
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
    acyclic over every field, and is skipped.  A link's facets determine it,
    since every vertex lies in a facet, so verdicts are kept by facets for
    the rest of the call: distinct faces often have equal links.  The scan
    calls _link_failures once per distinct link, for the fields active when
    it first meets the link; fields only drop out, so a later face with the
    same link asks no field that call left out.
    """
    if not cx.is_pure():
        by_size = sorted(cx.facets, key=len)
        witness = PurityWitness(by_size[0], by_size[-1])
        return [CMReport(f, False, witness) for f in fields]
    active = list(dict.fromkeys(fields))
    failed: dict[FieldSpec, HomologyWitness] = {}
    by_facets: dict[tuple[tuple[int, ...], ...], dict[FieldSpec, int | None]] = {}
    dim = cx.dimension()
    # incidence[v]: the facets containing vertex v, bit i for the i-th facet
    masks = cx._facet_masks()
    incidence = [sum(1 << i for i, m in enumerate(masks) if m >> v & 1) for v in range(cx.n + 1)]
    every = (1 << len(cx.facets)) - 1
    for face in cx.all_faces():
        if len(face) >= dim:
            break
        above = every
        for v in face:
            above &= incidence[v]
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


@dataclass(frozen=True)
class HHOrdering:
    """A certificate ordering for the Herzog-Hibi bipartite criterion.

    pairs[i] = (v_{i+1}, w_{i+1}): matched vertices listed in an order under
    which every cross edge points forward and forwarding composes.
    """

    pairs: tuple[tuple[int, int], ...]


def hh_conditions_hold(g: Graph, pairs: tuple[tuple[int, int], ...]) -> bool:
    """Check the three ordering conditions against the graph.

    With pairs (v_1, w_1), ..., (v_k, w_k): (1) v_i ~ w_i for all i;
    (2) v_i ~ w_j implies i <= j; (3) v_i ~ w_j and v_j ~ w_k imply v_i ~ w_k
    for i < j < k.

    Each v_i ~ w_j is tested once, into row i, a mask with bit j set when
    it holds.  Under (1) and (2) row j holds j and nothing below it, so (3)
    asks, for each j > i in row i, that row i hold row j's bits above j.
    """
    rows = [
        sum(1 << j for j, (_, w) in enumerate(pairs) if g.has_edge(v, w))
        for v, _ in pairs
    ]
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
