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
computes each fact the first time it is asked for, at most once per graph;
run_battery's records read the facts its ensemble scan already filled,
canonical forms from the enumeration included.  A record keeps only CM
verdicts, never a witness face, so it asks cohen_macaulay._graph_cm, which
refutes most non-CM graphs by a disconnected link before any scan.
run_battery runs the whole table.  Reports are line-delimited JSON, one
graph per line, sorted by canonical form, byte-identical across runs.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass
from typing import Callable

from .cohen_macaulay import _graph_cm, bipartite_cm_ordering
from .covers import (
    _alpha_cover,
    _perfect_r_matchings,
    _r_partitions_matched,
    degree_r_minus_1_vertices,
    perfect_r_matchings,
)
from .graphs import (
    MAX_CANONICAL_N,
    Graph,
    _augment,
    _canonical,
    _child,
    _complement_masks,
    _free_classes,
    _is_perfect,
    _mask_has_clique,
    _mask_to_tuple,
    _maximal_independent_sets,
    _twin_classes,
    canonical_form,
    is_connected,
    maximal_cliques,
    r_partition,
)
from .homology import FieldSpec


@dataclass(frozen=True)
class GraphFilters:
    """Restrictions applied to an enumeration.

    r_partite and max_clique_size also prune during generation (both induce
    hereditary families); the rest are postconditions.  max_clique_size
    requires every inclusion-maximal clique to have exactly that size.
    """

    connected: bool = False
    r_partite: int | None = None
    max_clique_size: int | None = None
    unmixed: bool = False
    perfect: bool = False
    class_g: bool = False


@dataclass(frozen=True)
class GraphEnsemble:
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
    if n < 1:
        raise ValueError("n must be at least 1")
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
    if chi is not None and chi < 1:
        raise ValueError("r must be at least 1")
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

    The independence number, unmixedness and the records' Ind(g) all come
    from one list of maximal independent sets, and the alpha cover search
    reuses the independence number and the maximal cliques.  The
    independent sets, perfection and the records' disconnected-link search
    read one list of complement masks.  The canonical form may be handed
    over by the enumeration that computed it.
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
    def independent_sets(self) -> list[tuple[int, ...]]:
        return _maximal_independent_sets(self.complement_masks)

    @_once
    def cliques(self) -> list[tuple[int, ...]]:
        return maximal_cliques(self.g)

    @_once
    def alpha(self) -> int:
        return max(len(s) for s in self.independent_sets)

    @_once
    def unmixed(self) -> bool:
        return len({len(s) for s in self.independent_sets}) == 1

    @_once
    def clique_sizes(self) -> list[int]:
        return sorted({len(c) for c in self.cliques})

    @_once
    def connected(self) -> bool:
        return is_connected(self.g)

    @_once
    def perfect(self) -> bool:
        return _is_perfect(self.g._masks, self.complement_masks)

    @_once
    def alpha_cover(self) -> tuple[tuple[int, ...], ...] | None:
        return _alpha_cover(self.g, self.alpha, self.cliques)


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
        and (not f.class_g or facts.alpha_cover is not None)
    )


def _ensembles(
    n_max: int, filter_sets: list[GraphFilters], n_min: int = 1
) -> tuple[list[GraphEnsemble], dict[Graph, _Facts]]:
    """One ensemble per filter set over n_min..n_max vertices, ordered by
    (n, canonical form), and the facts of every graph they hold.  The filter
    sets share one hereditary family, which is built once, with its top
    level cut to the graphs that meet the clique condition the sets share,
    and scanned once, evaluating every post-filter predicate at most once
    per graph."""
    ((chi, omega),) = {_family_bounds(f) for f in filter_sets}
    picked: list[list[Graph]] = [[] for _ in filter_sets]
    kept: dict[Graph, _Facts] = {}
    levels = _hereditary_family(n_max, chi, omega, _top_clique(filter_sets))
    for level in levels[n_min - 1 :]:
        for g, key in level.items():
            facts = _Facts(g, key)
            for f, out in zip(filter_sets, picked):
                if _passes(facts, f):
                    out.append(g)
                    kept[g] = facts
    return [GraphEnsemble(n_max, f, tuple(p)) for f, p in zip(filter_sets, picked)], kept


def enumerate_graphs(n: int, filters: GraphFilters | None = None) -> GraphEnsemble:
    """All graphs on exactly n vertices (up to isomorphism) passing the filters.

    Raises ValueError for n outside 1..MAX_CANONICAL_N.
    """
    return _ensembles(n, [filters or GraphFilters()], n_min=n)[0][0]


def enumerate_graphs_up_to(
    n_max: int, filters: GraphFilters | None = None
) -> GraphEnsemble:
    """All graphs on 1..n_max vertices passing the filters, ordered by (n, canon).

    Raises ValueError for n_max outside 1..MAX_CANONICAL_N.
    """
    return _ensembles(n_max, [filters or GraphFilters()])[0][0]


def _graph_record(facts: _Facts, r: int, chars: tuple[int, ...]) -> tuple[str, dict]:
    """Everything the sweeps need to know about the graph of facts,
    JSON-ready.

    Every per-graph fact is read from facts.  The CM verdicts for all
    chars come from _graph_cm: a disconnected link found on g's masks or a
    non-pure Ind(g) refutes every char, the shedding-vertex certificate
    confirms every char, and one Reisner scan of Ind(g), built only then
    and not kept, decides the rest.  Records keep no witness.  The perfect
    r-matching search takes its r-cliques from the maximal cliques when no
    clique has more than r vertices.
    """
    g = facts.g
    canon = facts.key.decode("ascii")
    fields = [FieldSpec(c) for c in chars]
    verdicts = (
        _graph_cm(g, facts.independent_sets, fields, facts.complement_masks)
        if chars
        else []
    )
    if r >= 1 and facts.clique_sizes[-1] <= r and g.n % r == 0:
        # no clique outgrows r, so the r-cliques are the maximal cliques of
        # size r, in lexicographic order as the search needs them; any
        # other r, invalid ones included, goes to the public search
        r_cliques = [c for c in facts.cliques if len(c) == r]
        matchings = _perfect_r_matchings(g, r, 2, r_cliques)
    else:
        matchings = perfect_r_matchings(g, r, limit=2)
    hh_exists: bool | None = None
    if r == 2 and r_partition(g, 2) is not None:
        hh_exists = bipartite_cm_ordering(g) is not None
    record = {
        "n": g.n,
        "m": len(g.edges),
        "edges": [list(e) for e in g.edges],
        "r": r,
        "connected": facts.connected,
        "unmixed": facts.unmixed,
        "perfect": facts.perfect,
        "independence_number": facts.alpha,
        "maximal_clique_sizes": facts.clique_sizes,
        "degree_r_minus_1": list(degree_r_minus_1_vertices(g, r)),
        "has_alpha_clique_cover": facts.alpha_cover is not None,
        "perfect_r_matching_exists": bool(matchings),
        "unique_perfect_r_matching": len(matchings) == 1,
        # a perfect r-matching matches the blocks of every r-partition
        "all_r_partitions_equal_and_matched": bool(matchings)
        or _r_partitions_matched(g, r),
        "hh_exists": hh_exists,
        "cm": {str(c): cm for c, cm in zip(chars, verdicts)},
    }
    return canon, record


def compute_records(
    graphs: tuple[Graph | _Facts, ...], r: int, chars: tuple[int, ...]
) -> dict[Graph, tuple[str, dict]]:
    """Per-graph records, keyed by graph, computed once per distinct graph.

    An entry of graphs may be a graph's _Facts, whose facts found so far are
    reused; a bare graph gets a _Facts of its own.  Each record is computed
    before the next graph's facts are built, so no facts outlive their
    record here.  With no chars the records carry an empty "cm" map.
    """
    out: dict[Graph, tuple[str, dict]] = {}
    for g in dict.fromkeys(graphs):
        facts = g if isinstance(g, _Facts) else _Facts(g)
        out[facts.g] = _graph_record(facts, r, chars)
    return out


@dataclass(frozen=True)
class Claim:
    """One entry of the claim table.

    name is formatted with r, char and the ensemble's n_max.  filters(r) is
    the ensemble the claim reads, or None when the claim does not apply at
    r; ensemble is its key in the summary's ensemble_sizes.  check(record,
    char) returns a counterexample reason or None, with char None unless
    per_char; needs_chars are the characteristics a char-free check reads.
    Hits of a claim that is not a violation are converse candidates.
    """

    name: str
    ensemble: str
    filters: Callable[[int], GraphFilters | None]
    per_char: bool
    check: Callable[[dict, int | None], str | None]
    needs_chars: tuple[int, ...] = ()
    violation: bool = True


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


def report_lines(
    records: dict[Graph, tuple[str, dict]],
    violations: dict[str, list[str]],
) -> list[str]:
    """One compact JSON document per graph, sorted by canonical form."""
    by_canon = {canon: rec for canon, rec in records.values()}
    lines = []
    for canon in sorted(by_canon):
        obj = {
            "canon": canon,
            "properties": by_canon[canon],
            "violations": sorted(set(violations.get(canon, []))),
        }
        lines.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    return lines


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
    Every ensemble comes from one pass over one hereditary family.  Records
    are computed once per distinct graph and shared by all verdicts, and
    the summary and the report are deterministic.  A characteristic given
    more than once is swept once, at its first position.  The report is
    opened before any enumeration.  Raises ValueError for n_max outside
    1..MAX_CANONICAL_N, no or invalid characteristics, r < 1, or a
    report_path that cannot be written.
    """
    chars = tuple(dict.fromkeys(characteristics))
    if not chars:
        raise ValueError("at least one characteristic is required")
    for c in chars:
        FieldSpec(c)
    _check_n(n_max)
    if r < 1:
        raise ValueError("r must be at least 1")
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
        picked, facts = _ensembles(n_max, list(filters.values()))
        ensembles = dict(zip(filters, picked))
        records = compute_records(tuple(facts.values()), r, chars)

        runs = [(cl, c) for c in chars for cl in claims if cl.per_char]
        runs += [(cl, None) for cl in claims if not cl.per_char]
        violations: dict[str, list[str]] = {}
        verdicts: list[dict] = []
        converse: dict[str, list[str]] = {}
        for cl, c in runs:
            graphs = ensembles[cl.ensemble].graphs
            ces = []
            for g in graphs:
                canon, rec = records[g]
                reason = cl.check(rec, c)
                if reason:
                    ces.append([canon, reason])
            if not cl.violation:
                converse[str(c)] = sorted(canon for canon, _ in ces)
                continue
            name = cl.name.format(r=r, char=c, n_max=n_max)
            verdicts.append(
                {"claim": name, "graphs_checked": len(graphs), "counterexamples": ces}
            )
            for canon, _ in ces:
                violations.setdefault(canon, []).append(name)

        for canon, rec in records.values():
            rec["converse_candidate_chars"] = sorted(
                int(c) for c in converse if canon in converse[c]
            )

        if report is not None:
            report.writelines(line + "\n" for line in report_lines(records, violations))

    return {
        "n_max": n_max,
        "r": r,
        "characteristics": list(chars),
        "graphs_checked": len({canon for canon, _ in records.values()}),
        "ensemble_sizes": {name: len(ens.graphs) for name, ens in ensembles.items()},
        "verdicts": verdicts,
        "converse_candidates": converse,
        "violations_total": sum(len(v) for v in violations.values()),
        "report_path": report_path,
    }
