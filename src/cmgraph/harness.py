"""Exhaustive small-graph enumeration and theorem-verification sweeps.

Graphs are enumerated up to isomorphism by vertex augmentation: every graph
on n vertices arises from one on n - 1 by attaching a new vertex to some
neighbourhood, so augmenting each (n-1)-vertex graph with every subset and
deduplicating by canonical form is complete.  Subsets that differ only by a
permutation of the parent's twins give isomorphic children; only the first
of them in ascending order is tried.  Hereditary constraints
(colorability, clique bounds) prune during generation, the colouring by
one AND per free class of the parent; so does, at the top level only, a
clique condition every filter set of the call needs, which also cuts the
level below to the parents the top level uses.  That condition forces a
set X of the parent's vertices into every neighbourhood, so the top
levels generate only the neighbourhoods that hold X.  A child stays
neighbour masks and edges until its canonical form is known, and it is
built as a Graph only when its class is new.  The other filters are
applied afterwards.  Nothing is cached between calls.

Every claim the harness checks is one entry of CLAIMS: its name, the filters
of the ensemble it reads, whether it runs once per characteristic, and a
check that reduces a per-graph property record to a counterexample reason.
Post-filters and records read one facts object per graph (_Facts), which
computes each fact the first time it is asked for, at most once per graph.
compute_records builds one record per isomorphism class of its graphs and
gives each later graph of a class a copy with its own labelled fields.
run_battery runs the whole table in one pass over its ensemble scan: it
builds each graph's record as soon as the scan keeps the graph, from the
facts the filters already filled, canonical forms from the enumeration
included, checks every claim whose ensemble holds the graph on that record,
and renders the graph's report line, then lets the facts and the record go
before the next graph.  No table of records is kept, so a sweep holds one
graph's facts and record at a time.  A record keeps only CM verdicts, never
a witness face, so it asks cohen_macaulay._graph_cm, which decides the
records' graphs by purity, a disconnected link, the h-vector and the
shedding-vertex certificates, and scans only the graphs they leave.
Reports are line-delimited JSON, one graph per line, sorted by canonical
form once before they are written, byte-identical across runs.
"""

from __future__ import annotations

import contextlib
import json
from typing import Callable, Iterator

from .cohen_macaulay import _graph_cm, bipartite_cm_ordering
from .covers import (
    _clique_covers,
    _r_partitions_matched,
    degree_r_minus_1_vertices,
    perfect_r_matchings,
)
from .graphs import (
    MAX_CANONICAL_N,
    Graph,
    _Value,
    _as_tuple,
    _augment,
    _bron_kerbosch,
    _canonical,
    _child,
    _complement_masks,
    _free_classes,
    _full_mask,
    _is_perfect,
    _mask_has_clique,
    _mask_to_tuple,
    _require_at_least,
    _twin_classes,
    canonical_form,
    is_connected,
    r_partition,
)
from .homology import FieldSpec


class GraphFilters(_Value):
    """Restrictions applied to an enumeration.

    r_partite and max_clique_size also prune during generation (both induce
    hereditary families); the rest are postconditions.  max_clique_size
    requires every inclusion-maximal clique to have exactly that size.
    Either bound, when set, is an int (bool excluded) of at least 1, and
    each flag is a bool, or ValueError names it.
    """

    __slots__ = ("connected", "r_partite", "max_clique_size", "unmixed", "perfect", "class_g")
    connected: bool
    r_partite: int | None
    max_clique_size: int | None
    unmixed: bool
    perfect: bool
    class_g: bool
    _defaults = dict(
        connected=False, r_partite=None, max_clique_size=None, unmixed=False, perfect=False, class_g=False
    )

    def _check(self) -> None:
        for bound, what in ((self.r_partite, "r"), (self.max_clique_size, "max_clique_size")):
            if bound is not None:
                _require_at_least(bound, what, 1)
        for flag in ("connected", "unmixed", "perfect", "class_g"):
            value = getattr(self, flag)
            if not isinstance(value, bool):
                raise ValueError(f"{flag} {value!r} is not a bool")


class GraphEnsemble(_Value):
    __slots__ = ("n_max", "filters", "graphs")
    n_max: int
    filters: GraphFilters
    graphs: tuple[Graph, ...]


def _packed_masks(p: Graph, forced: int = 0) -> list[int]:
    """The neighbourhoods (bit v for vertex v) to augment p with that hold
    the vertex mask forced, ascending: those that contain, within every
    twin class of p, its lowest members.

    Permuting a twin class is an automorphism of p, so any other mask gives
    a child isomorphic to that of its packed image, which is smaller and so
    reached first.  The clique prefilter and the colouring test do not tell
    isomorphic children apart, so skipping it keeps the first child seen.
    A packed mask holds a member of a twin class iff its prefix of the
    class reaches that member, so only the prefixes that reach the highest
    forced member are built.
    """
    classes = _twin_classes(p)
    out = [0]
    for v in set(p.vertices).difference(*classes):
        b = 1 << v
        out = [m | b for m in out] if forced & b else out + [m | b for m in out]
    for cls in classes:
        prefixes = [0]
        for v in cls:
            prefixes.append(prefixes[-1] | 1 << v)
        whole = prefixes[-1]
        out = [m | q for m in out for q in prefixes if not forced & whole & ~q]
    return sorted(out)


def _clique_tests(
    p: Graph, s: int
) -> tuple[int, Callable[[int], bool], Callable[[int], bool]]:
    """For s >= 2, the tests for the children of p whose every vertex and
    every edge must lie in an s-clique: X, a vertex mask that every
    neighbourhood of such a child holds; admits(nbrs), for an nbrs that
    holds X, whether _augment(p, nbrs) passes; and fits(B), for a vertex
    mask B, which admits(nbrs) implies for every B that nbrs misses.

    The new cliques are the new vertex plus a clique inside nbrs.  So the
    test needs: for each v in nbrs, an (s-2)-clique in nbrs & N(v), which
    covers the edge to v and, with nbrs nonempty, the new vertex; each
    vertex of p in no s-clique of p to be in nbrs; and each edge uv of p in
    no s-clique of p to be in nbrs, with an (s-3)-clique in
    nbrs & N(u) & N(v).  X is the mask of those vertices and edge ends.
    fits(B) asks that B miss X, and for an (s-2)-clique in N(x) - B for
    each x in X and an (s-3)-clique in N(u) & N(v) - B for each of those
    edges.  A B that fails fits makes every superset fail it, and when
    every vertex and edge of p lies in an s-clique, every B passes.
    """
    masks = p._masks
    ends = 0
    for v in p.vertices:
        if not _mask_has_clique(masks, masks[v], s - 1):
            ends |= 1 << v
    commons = []
    for u, v in p.edges:
        common = masks[u] & masks[v]
        if not _mask_has_clique(masks, common, s - 2):
            ends |= 1 << u | 1 << v
            # below s = 4 every edge holds the (s-3)-clique
            if s > 3:
                commons.append(common)

    def admits(nbrs: int) -> bool:
        if not nbrs:
            return False
        for common in commons:
            if not _mask_has_clique(masks, nbrs & common, s - 3):
                return False
        # every mask holds the empty clique s = 2 asks for
        rest = nbrs if s > 2 else 0
        while rest:
            b = rest & -rest
            rest ^= b
            if not _mask_has_clique(masks, nbrs & masks[b.bit_length() - 1], s - 2):
                return False
        return True

    xs = _mask_to_tuple(ends)

    def fits(b: int) -> bool:
        return not ends & b and all(
            _mask_has_clique(masks, masks[x] & ~b, s - 2) for x in xs
        ) and all(_mask_has_clique(masks, common & ~b, s - 3) for common in commons)

    return ends, admits, fits


def _check_n(n: int) -> None:
    _require_at_least(n, "n", 1)
    # classes are deduplicated by canonical form, so the enumeration stops
    # where canonical forms do
    if n > MAX_CANONICAL_N:
        raise ValueError(f"enumeration supports at most n = {MAX_CANONICAL_N}")


def _hereditary_family(
    n: int,
    chi_bound: int | None,
    clique_bound: int | None,
    top_clique: int | None = None,
) -> tuple[dict[Graph, bytes], ...]:
    """Levels 1..n of the graphs up to isomorphism with chromatic number at
    most chi_bound and clique number at most clique_bound, each level
    mapping its graphs, in canonical order, to their canonical forms.  A
    class is represented by its first child seen, with parents in canonical
    order and the packed neighbourhoods of each parent ascending.  A child
    is canonicalised from its masks and edges (graphs._child), and built
    as a Graph only when its form is new.

    A child passes the colouring bound iff its neighbourhood misses one of
    its parent's free classes (graphs._free_classes), found once per
    parent.  A neighbourhood that misses a free class holds no
    K_chi_bound, so the clique bound is tested apart only when it is below
    chi_bound.  No chi_bound means n, which every graph on n vertices
    meets: a parent has fewer than n vertices, so its one free class is the
    empty set.

    With top_clique = s (at least 2), level n keeps only the graphs whose
    every vertex and every edge lies in an s-clique (_clique_tests).  A
    neighbourhood that passes holds X, so only the packed neighbourhoods
    that hold X are generated, and it misses only free classes that pass
    fits, so the parents' class lists are cut to those.  A parent left
    with none has no child at level n; from two vertices up it also fails
    the condition itself, so level n - 1 drops it.  Level n - 1 needs only
    graphs that meet the condition or have a child that does, so for s >= 3
    its every vertex and every edge lies in an (s-1)-clique: that level is
    built with the same tests for s - 1, before any canonical form.  The
    levels below stay complete.  The tests are isomorphism invariants, so
    they drop whole classes, and the classes kept have the same
    representatives."""
    _check_n(n)
    if chi_bound is None:
        chi_bound = n
    if clique_bound is not None and clique_bound >= chi_bound:
        clique_bound = None
    first = Graph(1, ())
    levels = [{first: canonical_form(first)}]
    for k in range(2, n + 1):
        # the clique condition level k is built with: s at the top, s - 1
        # below it, none under 2
        need = None
        if top_clique is not None and k >= n - 1 and top_clique - (n - k) >= 2:
            need = top_clique - (n - k)
        seen: dict[bytes, Graph] = {}
        barren: set[Graph] = set()
        for p in levels[-1]:
            forced, admits, fits = 0, None, None
            if need is not None:
                forced, admits, fits = _clique_tests(p, need)
            free = _free_classes(p, chi_bound, fits)
            if not free:
                barren.add(p)
                continue
            for nbrs in _packed_masks(p, forced):
                if all(nbrs & b for b in free):
                    continue
                if admits is not None and not admits(nbrs):
                    continue
                if clique_bound is not None and _mask_has_clique(
                    p._masks, nbrs, clique_bound
                ):
                    continue
                key = _canonical(k, *_child(p, nbrs))
                if key not in seen:
                    seen[key] = _augment(p, nbrs)
        if barren and k == n > 2:
            levels[-1] = {g: key for g, key in levels[-1].items() if g not in barren}
        levels.append({seen[key]: key for key in sorted(seen)})
    return tuple(levels)


def _family_bounds(f: GraphFilters) -> tuple[int | None, int | None]:
    """The (chromatic, clique) bounds of the hereditary family f reads.

    A clique never outnumbers the colours, so the clique bound is capped at
    the chromatic one: the family is the same, and filter sets that differ
    only above the cap share it.  A bound equal to the chromatic one needs
    no test of its own, since the family's colour test implies it.
    """
    chi, omega = f.r_partite, f.max_clique_size
    if chi is not None and (omega is None or omega > chi):
        omega = chi
    return chi, omega


def _top_clique(filter_sets: list[GraphFilters]) -> int | None:
    """An s >= 2 such that, in every graph on two or more vertices that
    passes any of filter_sets, every vertex and every edge lies in an
    s-clique; None when some set implies no such s.

    max_clique_size = s >= 2 implies it for s, since a vertex or edge in no
    s-clique would lie in a smaller maximal clique; connected implies it for
    s = 2 (no isolated vertex).  The condition for s implies the one for any
    smaller s, so the sets share the least of theirs.
    """
    sizes = []
    for f in filter_sets:
        s = f.max_clique_size
        if s is None or s < 2:
            if not f.connected:
                return None
            s = 2
        sizes.append(s)
    return min(sizes)


class _once:
    """A property computed on first access and stored in the instance
    dict, which shadows it from then on: functools.cached_property without
    the lock that takes on every first access before Python 3.12."""

    def __init__(self, fn: Callable):
        self.fn = fn
        self.name = fn.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class _Facts:
    """The facts of one graph that post-filters and records read, each
    computed on first use and at most once.

    The maximal independent sets and the maximal cliques are kept as the
    vertex masks (bit v for vertex v) that graphs._bron_kerbosch returns,
    in its order, and are never turned into tuples here.  The independence
    number, unmixedness and the records' CM verdicts all come from the one
    list of independent sets, the clique sizes from bit counts of the
    cliques, and the alpha cover search reuses the independence number and
    the clique masks.  The independent sets, perfection and the records'
    disconnected-link search and h-vector read one list of complement
    masks.  The canonical form may be handed over by the enumeration that
    computed it.  The scan hands each graph's facts to its caller and keeps
    none, and run_battery drops them once the graph's record is built.
    """

    def __init__(self, g: Graph, key: bytes | None = None):
        self.g = g
        if key is not None:
            self.key = key

    @_once
    def key(self) -> bytes:
        return canonical_form(self.g)

    @_once
    def complement_masks(self) -> list[int]:
        return _complement_masks(self.g)

    @_once
    def independent_sets(self) -> list[int]:
        return _bron_kerbosch(self.complement_masks, _full_mask(self.g.n))

    @_once
    def cliques(self) -> list[int]:
        return _bron_kerbosch(self.g._masks, _full_mask(self.g.n))

    @_once
    def alpha(self) -> int:
        return max(s.bit_count() for s in self.independent_sets)

    @_once
    def unmixed(self) -> bool:
        return len({s.bit_count() for s in self.independent_sets}) == 1

    @_once
    def clique_sizes(self) -> list[int]:
        return sorted({c.bit_count() for c in self.cliques})

    @_once
    def connected(self) -> bool:
        return is_connected(self.g)

    @_once
    def perfect(self) -> bool:
        return _is_perfect(self.g._masks, self.complement_masks)

    @_once
    def has_alpha_cover(self) -> bool:
        return bool(_clique_covers(self.g, self.cliques, self.alpha, 0, 1))


def _passes(facts: _Facts, f: GraphFilters) -> bool:
    """Whether the graph of facts passes f's post-filters, tested in the
    order below and only up to the first that fails, so a fact is computed
    only when a filter reads it.

    The family is r-colourable when r_partite = r, so its graphs have an
    r-partition exactly when they have at least r vertices.
    """
    return (
        (not f.connected or facts.connected)
        and (f.r_partite is None or facts.g.n >= f.r_partite)
        and (f.max_clique_size is None or facts.clique_sizes == [f.max_clique_size])
        and (not f.unmixed or facts.unmixed)
        and (not f.perfect or facts.perfect)
        and (not f.class_g or facts.has_alpha_cover)
    )


def _scan(
    n_max: int, filter_sets: list[GraphFilters], n_min: int = 1
) -> Iterator[tuple[_Facts, list[int]]]:
    """The graphs on n_min..n_max vertices that pass any of filter_sets, in
    (n, canonical form) order, each as its facts and the indices of the
    sets it passes.  The filter sets share one hereditary family, which is
    built once, with its top level cut to the graphs that meet the clique
    condition the sets share, and walked once, evaluating every post-filter
    predicate at most once per graph.  The scan keeps no facts, so a
    graph's facts live only as long as the caller holds them."""
    ((chi, omega),) = {_family_bounds(f) for f in filter_sets}
    levels = _hereditary_family(n_max, chi, omega, _top_clique(filter_sets))
    for level in levels[n_min - 1 :]:
        for g, key in level.items():
            facts = _Facts(g, key)
            passed = [i for i, f in enumerate(filter_sets) if _passes(facts, f)]
            if passed:
                yield facts, passed


def _ensembles(
    n_max: int, filter_sets: list[GraphFilters], n_min: int = 1
) -> list[GraphEnsemble]:
    """One ensemble per filter set over n_min..n_max vertices, ordered by
    (n, canonical form), from one _scan."""
    picked: list[list[Graph]] = [[] for _ in filter_sets]
    for facts, passed in _scan(n_max, filter_sets, n_min):
        for i in passed:
            picked[i].append(facts.g)
    return [GraphEnsemble(n_max, f, tuple(p)) for f, p in zip(filter_sets, picked)]


def enumerate_graphs(n: int, filters: GraphFilters | None = None) -> GraphEnsemble:
    """All graphs on exactly n vertices (up to isomorphism) passing the filters.

    Raises ValueError for n outside 1..MAX_CANONICAL_N.
    """
    return _ensembles(n, [filters or GraphFilters()], n_min=n)[0]


def enumerate_graphs_up_to(
    n_max: int, filters: GraphFilters | None = None
) -> GraphEnsemble:
    """All graphs on 1..n_max vertices passing the filters, ordered by (n, canon).

    Raises ValueError for n_max outside 1..MAX_CANONICAL_N.
    """
    return _ensembles(n_max, [filters or GraphFilters()])[0]


def _labelled(g: Graph, r: int) -> dict:
    """The fields of g's record that depend on g's labelling, not only on
    its isomorphism class: its own edge tuple and its degree-(r-1)
    vertices."""
    return {"edges": g.edges, "degree_r_minus_1": degree_r_minus_1_vertices(g, r)}


def _graph_record(facts: _Facts, r: int, fields: list[FieldSpec]) -> tuple[str, dict]:
    """Everything the sweeps need to know about the graph of facts,
    JSON-ready.

    Every per-graph fact is read from facts.  The CM verdicts for all
    fields, which the caller builds once for all its graphs, come from
    _graph_cm on the independent-set masks: purity, a disconnected link or
    a negative h-vector refutes every field, a shedding-vertex certificate
    confirms every field, and one Reisner scan of Ind(g), built only then
    and not kept, decides the rest; the "cm" map keys each verdict by str
    of its characteristic.  Records keep no witness.  The perfect r-matching
    search takes its r-cliques from the maximal cliques when no clique has
    more than r vertices.  The fields that _labelled builds depend on g's
    labelling; every other field is an isomorphism invariant.
    """
    g = facts.g
    canon = facts.key.decode("ascii")
    verdicts = (
        _graph_cm(g, facts.independent_sets, fields, facts.complement_masks)
        if fields
        else []
    )
    if facts.clique_sizes[-1] <= r and g.n % r == 0:
        # no clique outgrows r, so the r-cliques are the maximal cliques of
        # size r; the number of matchings, capped at 2, does not depend on
        # their order.  Any other r goes to the public search
        r_cliques = [c for c in facts.cliques if c.bit_count() == r]
        n_matchings = len(_clique_covers(g, r_cliques, g.n // r, r, 2))
    else:
        n_matchings = len(perfect_r_matchings(g, r, limit=2))
    hh_exists: bool | None = None
    if r == 2 and r_partition(g, 2) is not None:
        hh_exists = bipartite_cm_ordering(g) is not None
    labelled = _labelled(g, r)
    record = {
        "n": g.n,
        "m": len(g.edges),
        "edges": labelled["edges"],
        "r": r,
        "connected": facts.connected,
        "unmixed": facts.unmixed,
        "perfect": facts.perfect,
        "independence_number": facts.alpha,
        "maximal_clique_sizes": facts.clique_sizes,
        "degree_r_minus_1": labelled["degree_r_minus_1"],
        "has_alpha_clique_cover": facts.has_alpha_cover,
        "perfect_r_matching_exists": n_matchings > 0,
        "unique_perfect_r_matching": n_matchings == 1,
        # a perfect r-matching matches the blocks of every r-partition
        "all_r_partitions_equal_and_matched": n_matchings > 0
        or _r_partitions_matched(g, r),
        "hh_exists": hh_exists,
        "cm": {str(f.characteristic): cm for f, cm in zip(fields, verdicts)},
    }
    return canon, record


def compute_records(
    graphs: tuple[Graph, ...], r: int, chars: tuple[int, ...]
) -> dict[Graph, tuple[str, dict]]:
    """Per-graph records, keyed by graph, computed once per isomorphism
    class within one call.

    The first graph of each class, by canonical form, gets its record from
    _graph_record; every later graph of the class computes only its
    canonical form and gets a copy of that record with its own "edges"
    (its own edge tuple) and "degree_r_minus_1" (_labelled), and lists and
    maps of its own, so no two records share a mutable value.  Each graph
    gets a _Facts of its own, and a class's record is computed before the
    next graph's facts are built, so no facts outlive their record.
    Nothing is kept between calls.  r, the FieldSpec of each char (a char
    given more than once is decided once) and every member of graphs are
    checked once, before any record, so an r below 1, an invalid char, a
    member that is not a Graph, or graphs or chars that are not iterable
    raise ValueError even with no graphs; so does a graph on more than
    MAX_CANONICAL_N vertices, through canonical_form.  With no chars the
    records carry an empty "cm" map.
    """
    _require_at_least(r, "r", 1)
    chars = _as_tuple(chars, "characteristics")
    fields = list(dict.fromkeys(FieldSpec(c) for c in chars))
    graphs = _as_tuple(graphs, "graphs")
    for g in graphs:
        if not isinstance(g, Graph):
            raise ValueError(f"graph {g!r} is not a Graph")
    classes: dict[bytes, tuple[str, dict]] = {}
    records = {}
    for g in dict.fromkeys(graphs):
        facts = _Facts(g)
        first = classes.get(facts.key)
        if first is None:
            records[g] = classes[facts.key] = _graph_record(facts, r, fields)
        else:
            canon, rec = first
            records[g] = canon, {
                **rec,
                **_labelled(g, r),
                "maximal_clique_sizes": list(rec["maximal_clique_sizes"]),
                "cm": dict(rec["cm"]),
            }
    return records


class Claim(_Value):
    """One entry of the claim table.

    name is formatted with r, char and the ensemble's n_max.  filters(r) is
    the ensemble the claim reads, or None when the claim does not apply at
    r; ensemble is its key in the summary's ensemble_sizes.  check(record,
    char) returns a counterexample reason or None, with char None unless
    per_char; needs_chars are the characteristics a char-free check reads.
    Hits of a claim that is not a violation are converse candidates.
    """

    __slots__ = ("name", "ensemble", "filters", "per_char", "check", "needs_chars", "violation")
    name: str
    ensemble: str
    filters: Callable[[int], GraphFilters | None]
    per_char: bool
    check: Callable[[dict, int | None], str | None]
    needs_chars: tuple[int, ...]
    violation: bool
    _defaults = dict(needs_chars=(), violation=True)


def _main_filters(r: int) -> GraphFilters:
    return GraphFilters(r_partite=r, max_clique_size=r, class_g=True)


def _check_bipartite_equiv(rec: dict, _) -> str | None:
    hh, cm0, cm2 = rec["hh_exists"], rec["cm"]["0"], rec["cm"]["2"]
    if not (hh == cm0 == cm2):
        return f"hh={hh} cm0={cm0} cm2={cm2} disagree"
    if rec["unmixed"] and cm0 != rec["unique_perfect_r_matching"]:
        return (
            f"unmixed: cm={cm0} but unique perfect 2-matching="
            f"{rec['unique_perfect_r_matching']}"
        )
    return None


CLAIMS: dict[str, Claim] = {
    # Every CM graph in the ensemble has a vertex of degree r - 1.
    "main-theorem": Claim(
        "main-theorem r={r} char={char}", "main", _main_filters, True,
        lambda rec, c: f"cm over char {c} but no vertex of degree r-1"
        if rec["cm"][str(c)] and not rec["degree_r_minus_1"] else None,
    ),
    # Every CM graph in the ensemble has exactly one perfect r-matching.
    "uniqueness-corollary": Claim(
        "uniqueness-corollary r={r} char={char}", "main", _main_filters, True,
        lambda rec, c: f"cm over char {c} without a unique perfect r-matching"
        if rec["cm"][str(c)] and not rec["unique_perfect_r_matching"] else None,
    ),
    # Every graph in the ensemble is coverable by independence_number cliques.
    "alpha-clique-cover": Claim(
        "alpha-clique-cover r={r}", "alpha-cover",
        lambda r: GraphFilters(r_partite=r, max_clique_size=r, unmixed=True, perfect=True),
        False,
        lambda rec, _: None if rec["has_alpha_clique_cover"]
        else "no cover by independence_number many cliques",
    ),
    # Every r-partition of every graph has equal, pairwise-matched blocks.
    "parts-equal-and-matched": Claim(
        "parts-equal-and-matched r={r}", "parts",
        lambda r: GraphFilters(r_partite=r, max_clique_size=r, unmixed=True),
        False,
        lambda rec, _: None if rec["all_r_partitions_equal_and_matched"]
        else "some r-partition has unequal or unmatched blocks",
    ),
    # On connected bipartite graphs the ordering criterion agrees with the
    # homological one over characteristics 0 and 2, and on the unmixed ones
    # CM-ness coincides with having a unique perfect 2-matching.
    "bipartite-equivalences": Claim(
        "bipartite-equivalences n<={n_max}", "bipartite",
        lambda r: GraphFilters(connected=True, r_partite=2) if r == 2 else None,
        False, _check_bipartite_equiv, needs_chars=(0, 2),
    ),
    # The converse of the main implication: a degree-(r-1) vertex and a
    # unique perfect r-matching, yet not CM.  Kept for inspection.
    "converse": Claim(
        "converse r={r} char={char}", "main", _main_filters, True,
        lambda rec, c: f"degree r-1 vertex and unique perfect r-matching, not cm over char {c}"
        if rec["degree_r_minus_1"] and rec["unique_perfect_r_matching"]
        and not rec["cm"][str(c)] else None,
        violation=False,
    ),
}


def run_battery(
    n_max: int,
    r: int = 2,
    characteristics: tuple[int, ...] = (0, 2),
    report_path: str | None = None,
) -> dict:
    """Run every claim of CLAIMS at the given bounds and assemble a summary.

    A claim runs when it applies at r and characteristics holds every
    characteristic its check reads (needs_chars); any other claim is left
    out, and so is its ensemble unless a running claim reads it too.
    The sweep is one pass over one hereditary family (_scan).  Each graph's
    record is built as soon as that pass keeps the graph, from the facts
    its filters filled, and every claim whose ensemble holds the graph is
    checked on it there; the graph's report line is rendered then too, so
    neither the facts nor the record outlive the graph's turn.  Records
    hold the graph's own edge tuple.  Counterexamples keep the scan's
    (n, canonical form) order, and report lines are sorted by canonical
    form once, before they are written.  The summary and the report are
    deterministic.  Each characteristic's FieldSpec is built once for the
    sweep; one given more than once is swept once, at its first position.
    The report is opened before any enumeration.  Raises ValueError for
    n_max outside 1..MAX_CANONICAL_N, no, invalid or non-iterable
    characteristics, r < 1, an n_max, r or characteristic that is not an
    int (bool included), or a report_path that is not None or a str or
    cannot be written.
    """
    characteristics = _as_tuple(characteristics, "characteristics")
    fields = list(dict.fromkeys(FieldSpec(c) for c in characteristics))
    chars = tuple(f.characteristic for f in fields)
    if not chars:
        raise ValueError("at least one characteristic is required")
    _check_n(n_max)
    _require_at_least(r, "r", 1)
    if report_path is not None and not isinstance(report_path, str):
        # open() would take an int or a bool as a file descriptor
        raise ValueError(f"report_path {report_path!r} is not a str")
    try:
        opened = (
            open(report_path, "w", encoding="ascii", newline="\n")
            if report_path is not None
            else contextlib.nullcontext()
        )
    except OSError as exc:
        raise ValueError(f"cannot write {report_path}: {exc}") from None
    with opened as report:
        claims = [
            cl
            for cl in CLAIMS.values()
            if cl.filters(r) is not None and set(cl.needs_chars) <= set(chars)
        ]
        filters = {cl.ensemble: cl.filters(r) for cl in claims}
        pairs = [(cl, c) for c in chars for cl in claims if cl.per_char]
        pairs += [(cl, None) for cl in claims if not cl.per_char]
        # each run: its claim, char, ensemble index, summary name and hits
        keys = list(filters)
        runs = [
            (cl, c, keys.index(cl.ensemble), cl.name.format(r=r, char=c, n_max=n_max), [])
            for cl, c in pairs
        ]
        sizes = [0] * len(filters)
        checked = 0
        lines = []
        for facts, passed in _scan(n_max, list(filters.values())):
            canon, rec = _graph_record(facts, r, fields)
            checked += 1
            for i in passed:
                sizes[i] += 1
            violated, converse_chars = [], []
            for cl, c, i, name, ces in runs:
                reason = cl.check(rec, c) if i in passed else None
                if reason:
                    ces.append([canon, reason])
                    if cl.violation:
                        violated.append(name)
                    else:
                        converse_chars.append(c)
            rec["converse_candidate_chars"] = sorted(converse_chars)
            if report is not None:
                obj = {"canon": canon, "properties": rec, "violations": sorted(violated)}
                lines.append((canon, json.dumps(obj, sort_keys=True, separators=(",", ":"))))
        if report is not None:
            report.writelines(line + "\n" for _, line in sorted(lines))

    verdicts = [
        {"claim": name, "graphs_checked": sizes[i], "counterexamples": ces}
        for cl, _, i, name, ces in runs
        if cl.violation
    ]
    return {
        "n_max": n_max,
        "r": r,
        "characteristics": list(chars),
        "graphs_checked": checked,
        "ensemble_sizes": dict(zip(filters, sizes)),
        "verdicts": verdicts,
        "converse_candidates": {
            str(c): sorted(canon for canon, _ in ces)
            for cl, c, _, _, ces in runs
            if not cl.violation
        },
        "violations_total": sum(len(v["counterexamples"]) for v in verdicts),
        "report_path": report_path,
    }
