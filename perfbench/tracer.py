"""Spans around the package's public functions, recorded from outside it.

Tracer.install() rebinds each wrapped function in every cmgraph module that
holds it (harness.canonical_form as well as graphs.canonical_form), so calls
between modules and within one are both seen; uninstall() restores the
original bindings.  Spans are aggregated in memory by name and by
(caller, name): calls, inclusive time and self time, where self time is the
span's duration minus the time covered by the spans it caused.
per_layer() turns the aggregates into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

MODULES = ("graphs", "complexes", "homology", "cohen_macaulay", "covers", "harness")

# span name -> functions it covers, as (module, attribute).  Spans that feed
# no per-layer metric still keep their time out of their callers' self time.
SPANS = {
    "harness.run_battery": [("harness", "run_battery")],
    "harness.enumerate_graphs_up_to": [("harness", "enumerate_graphs_up_to")],
    "harness.enumerate_graphs": [("harness", "enumerate_graphs")],
    "harness.hereditary_family": [("harness", "_hereditary_family")],
    "harness.compute_records": [("harness", "compute_records")],
    "graphs.canonical_form": [("graphs", "canonical_form")],
    "graphs.is_k_colorable": [("graphs", "is_k_colorable")],
    "graphs.is_connected": [("graphs", "is_connected")],
    "graphs.is_unmixed": [("graphs", "is_unmixed")],
    "graphs.independence_number": [("graphs", "independence_number")],
    "graphs.maximal_independent_sets": [("graphs", "maximal_independent_sets")],
    "graphs.maximal_cliques": [("graphs", "maximal_cliques")],
    "graphs.partitions": [("graphs", "r_partition"), ("graphs", "all_r_partitions")],
    "graphs.is_perfect": [("graphs", "is_perfect")],
    "graphs.complement": [("graphs", "complement")],
    "covers.perfect_r_matchings": [("covers", "perfect_r_matchings")],
    "covers.alpha_clique_cover": [("covers", "alpha_clique_cover")],
    "covers.pairwise_part_matchings": [("covers", "pairwise_part_matchings")],
    "covers.degree_r_minus_1_vertices": [("covers", "degree_r_minus_1_vertices")],
    "complexes.independence_complex": [("complexes", "independence_complex")],
    "complexes.link": [("complexes", "link")],
    "complexes.is_shellable": [("complexes", "is_shellable")],
    "homology.reduced_betti": [("homology", "reduced_betti")],
    "homology.boundary_matrices": [("homology", "boundary_matrices")],
    "homology.rank": [("homology", "rank_over")],
    "cohen_macaulay.cm_characteristic_profile": [
        ("cohen_macaulay", "cm_characteristic_profile")
    ],
    "cohen_macaulay.reisner_cm": [("cohen_macaulay", "reisner_cm")],
}

HEREDITARY = "harness.hereditary_family"


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, incl, self
        self.edges = defaultdict(lambda: [0, 0.0])  # (caller, name) -> calls, incl
        self.stack: list[list] = []  # open spans: [name, time covered by children]
        self.rank_entries = defaultdict(int)
        self.kept: set[bytes] = set()
        self.links: set[tuple] = set()
        self.shelling_steps = 0
        self.records = 0
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, edges, stack = self.spans, self.edges, self.stack
        after = self._after.get(name)
        rank = name == "homology.rank"

        def wrapper(*args, **kwargs):
            span = name
            if rank:
                span = "homology.rank.q" if args[1].characteristic == 0 else "homology.rank.fp"
            caller = stack[-1][0] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                agg = spans[span]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                edge = edges[(caller, span)]
                edge[0] += 1
                edge[1] += dur
            if after is not None:
                after(self, span, caller, args, result)
            return result

        return wrapper

    def _after_rank(self, span, caller, args, result):
        m = args[0]
        self.rank_entries[span] += len(m.rows) * len(m.cols)

    def _after_canonical(self, span, caller, args, result):
        if caller == HEREDITARY:
            self.kept.add(result)

    def _after_link(self, span, caller, args, result):
        self.links.add((result.n, result.facets))

    def _after_shelling(self, span, caller, args, result):
        self.shelling_steps += result.steps

    def _after_records(self, span, caller, args, result):
        self.records += len(result)

    _after = {
        "homology.rank": _after_rank,
        "graphs.canonical_form": _after_canonical,
        "complexes.link": _after_link,
        "complexes.is_shellable": _after_shelling,
        "harness.compute_records": _after_records,
    }

    def install(self) -> None:
        mods = [importlib.import_module(f"cmgraph.{m}") for m in MODULES]
        for name, targets in SPANS.items():
            for mod, attr in targets:
                fn = getattr(importlib.import_module(f"cmgraph.{mod}"), attr)
                wrapper = self._wrap(name, fn)
                for m in mods:
                    if getattr(m, attr, None) is fn:
                        self._saved.append((m, attr, fn))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._saved):
            setattr(m, attr, fn)
        self._saved.clear()

    def counts(self) -> dict[str, int]:
        """The deterministic counts; they must repeat exactly between runs."""
        sp, ed = self.spans, self.edges
        return {
            "harness.records": self.records,
            "harness.enum.children": ed[(HEREDITARY, "graphs.is_k_colorable")][0],
            "harness.enum.canonicalised": ed[(HEREDITARY, "graphs.canonical_form")][0],
            "harness.enum.kept": len(self.kept),
            "graphs.canonical_form.calls": sp["graphs.canonical_form"][0],
            "graphs.is_k_colorable.calls": sp["graphs.is_k_colorable"][0],
            "graphs.maximal_independent_sets.calls": sp["graphs.maximal_independent_sets"][0],
            "complexes.link.calls": sp["complexes.link"][0],
            "complexes.link.distinct": len(self.links),
            "complexes.is_shellable.steps": self.shelling_steps,
            "cohen_macaulay.faces_scanned": ed[
                ("cohen_macaulay.reisner_cm", "complexes.link")
            ][0],
            "homology.rank.q.calls": sp["homology.rank.q"][0],
            "homology.rank.q.entries": self.rank_entries["homology.rank.q"],
            "homology.rank.fp.calls": sp["homology.rank.fp"][0],
            "homology.rank.fp.entries": self.rank_entries["homology.rank.fp"],
        }

    def per_layer(self) -> dict[str, float]:
        """Per-layer metrics of one traced repetition (see layers.json)."""
        sp, ed, c = self.spans, self.edges, self.counts()
        postfilter = sp["harness.enumerate_graphs"][1] - ed[
            ("harness.enumerate_graphs", HEREDITARY)
        ][1]
        out = {
            "harness.hereditary_family.self_s": sp[HEREDITARY][2],
            "harness.enum.children": c["harness.enum.children"],
            "harness.enum.kept_ratio": _ratio(
                c["harness.enum.kept"], c["harness.enum.canonicalised"]
            ),
            "harness.enumerate_graphs.postfilter_s": postfilter,
            "harness.compute_records.s": sp["harness.compute_records"][1],
            "harness.sweep.s": sp["harness.run_battery"][2],
            "graphs.canonical_form.calls": c["graphs.canonical_form.calls"],
            "graphs.canonical_form.self_s": sp["graphs.canonical_form"][2],
            "graphs.is_k_colorable.calls": c["graphs.is_k_colorable.calls"],
            "graphs.is_k_colorable.self_s": sp["graphs.is_k_colorable"][2],
            "graphs.maximal_independent_sets.calls_per_record": _ratio(
                c["graphs.maximal_independent_sets.calls"], c["harness.records"]
            ),
            "graphs.maximal_independent_sets.self_s": sp[
                "graphs.maximal_independent_sets"
            ][2],
            "graphs.maximal_cliques.self_s": sp["graphs.maximal_cliques"][2],
            "graphs.partitions.self_s": sp["graphs.partitions"][2],
            "graphs.is_perfect.self_s": sp["graphs.is_perfect"][2],
            "covers.perfect_r_matchings.self_s": sp["covers.perfect_r_matchings"][2],
            "covers.alpha_clique_cover.self_s": sp["covers.alpha_clique_cover"][2],
            "covers.pairwise_part_matchings.self_s": sp[
                "covers.pairwise_part_matchings"
            ][2],
            "complexes.independence_complex.self_s": sp[
                "complexes.independence_complex"
            ][2],
            "complexes.link.calls": c["complexes.link.calls"],
            "complexes.link.self_s": sp["complexes.link"][2],
            "complexes.link.distinct_ratio": _ratio(
                c["complexes.link.distinct"], c["complexes.link.calls"]
            ),
            "complexes.is_shellable.steps": c["complexes.is_shellable.steps"],
            "complexes.is_shellable.self_s": sp["complexes.is_shellable"][2],
            "homology.boundary_matrices.self_s": sp["homology.boundary_matrices"][2],
            "cohen_macaulay.reisner_cm.self_s": sp["cohen_macaulay.reisner_cm"][2],
            "cohen_macaulay.faces_scanned": c["cohen_macaulay.faces_scanned"],
        }
        for field in ("q", "fp"):
            span = f"homology.rank.{field}"
            out[f"{span}.calls"] = c[f"{span}.calls"]
            out[f"{span}.self_s"] = sp[span][2]
            out[f"{span}.entries"] = c[f"{span}.entries"]
        return out

    def dump(self) -> dict:
        """Every span and caller edge, for the trace file."""
        return {
            "spans": {k: {"calls": v[0], "incl_s": v[1], "self_s": v[2]} for k, v in self.spans.items()},
            "edges": [
                {"caller": a, "span": b, "calls": v[0], "incl_s": v[1]}
                for (a, b), v in self.edges.items()
            ],
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
