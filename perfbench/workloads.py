"""The three benchmark workloads: inputs from a seed, the timed body, the checks.

Each workload is a class with

- ``setup(seed)``: builds the inputs; counted in ``setup_s``;
- ``body(inputs)``: the timed calls into the package, nothing else;
- ``check(inputs, result)``: compares every op with its pinned output and
  returns ``(attempted, failed, mismatches)``;
- ``items(inputs, result)``: units of work done, for the printed throughput.

``expected(inputs, result)`` renders a result in the pinned form; pin.py uses
it to write the files under data/ and check() compares against them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time

from cmgraph import cohen_macaulay, complexes, harness
from cmgraph.fixtures import fig1_graph
from cmgraph.graphs import Graph
from cmgraph.homology import FieldSpec

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
OUT_DIR = ".perfbench_out"


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def load_json(name: str):
    with open(os.path.join(DATA, name), encoding="ascii") as fh:
        return json.load(fh)


def compare(expected: list, got: list) -> tuple[int, int, list]:
    """Position-wise comparison of pinned and produced op outputs."""
    attempted = max(len(expected), len(got))
    bad = [
        i
        for i in range(attempted)
        if i >= len(expected) or i >= len(got) or expected[i] != got[i]
    ]
    return attempted, len(bad), bad[:5]


class SweepN8R3:
    """run_battery(8, r=3, chars (0, 2)) with a report file.

    Exhaustive, so the seed does not change the input.  Ops: one per report
    line plus the summary.
    """

    name = "sweep-n8-r3"
    pins = "sweep-n8-r3.json"

    def setup(self, seed: int) -> dict:
        os.makedirs(OUT_DIR, exist_ok=True)
        return {"report": os.path.join(OUT_DIR, f"sweep-report-{os.getpid()}.jsonl")}

    def body(self, inputs: dict):
        return harness.run_battery(8, r=3, characteristics=(0, 2), report_path=inputs["report"])

    def expected(self, inputs: dict, summary) -> dict:
        """Digests of the report lines and of the summary; removes the report."""
        with open(inputs["report"], encoding="ascii") as fh:
            lines = fh.read().splitlines()
        os.remove(inputs["report"])
        summary = dict(summary, report_path=None)
        return {"lines": [digest(ln) for ln in lines], "summary": digest(summary)}

    def check(self, inputs: dict, summary) -> tuple[int, int, list]:
        pinned = load_json(self.pins)
        if summary is None:
            return compare(pinned["lines"] + [pinned["summary"]], [])
        got = self.expected(inputs, summary)
        return compare(
            pinned["lines"] + [pinned["summary"]], got["lines"] + [got["summary"]]
        )

    def items(self, inputs: dict, summary) -> int:
        return summary["graphs_checked"]


def read_pool() -> list[tuple[str, str]]:
    """(adjacency hex, record digest) pairs of the pinned 9-vertex pool."""
    with open(os.path.join(DATA, "records-pool.txt"), encoding="ascii") as fh:
        return [tuple(line.split()) for line in fh if line.strip()]


def graph_from_hex(code: str, n: int = 9) -> Graph:
    bits = int(code, 16)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


def graph_to_hex(g: Graph) -> str:
    pairs = [(u, v) for u in range(1, g.n + 1) for v in range(u + 1, g.n + 1)]
    bits = sum(1 << i for i, e in enumerate(pairs) if g.has_edge(*e))
    return format(bits, "09x")


def record_digest(canon_record: tuple[str, dict]) -> str:
    return digest(list(canon_record))


class RecordsN9R3:
    """compute_records(r=3, chars (0, 2)) on a seeded sample of the pool.

    The pool (data/records-pool.txt) holds distinct labelled 3-partite graphs
    on 9 vertices, half of them unmixed, each with its pinned record digest.
    Ops: one per record.
    """

    name = "records-n9-r3"
    sample_size = 2500

    def setup(self, seed: int) -> dict:
        pool = read_pool()
        picked = random.Random(seed).sample(pool, self.sample_size)
        return {
            "graphs": tuple(graph_from_hex(code) for code, _ in picked),
            "pinned": [d for _, d in picked],
        }

    def body(self, inputs: dict):
        return harness.compute_records(inputs["graphs"], r=3, chars=(0, 2))

    def expected(self, inputs: dict, records) -> list[str]:
        return [record_digest(records[g]) for g in inputs["graphs"]]

    def check(self, inputs: dict, records) -> tuple[int, int, list]:
        got = [] if records is None else self.expected(inputs, records)
        return compare(inputs["pinned"], got)

    def items(self, inputs: dict, records) -> int:
        return len(inputs["graphs"])


def whiskered(n: int, spine: list[tuple[int, int]]) -> Graph:
    """The tree on 1..n with a pendant vertex v + n attached to each v."""
    return Graph(2 * n, spine + [(v, v + n) for v in range(1, n + 1)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    return Graph(g.n + h.n, list(g.edges) + [(u + g.n, v + g.n) for u, v in h.edges])


def path(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(1, n)]


def cm_graphs() -> dict[str, Graph]:
    """The cm-decide mix.  Whiskered trees are CM, so every link is scanned;
    C4 + whiskered P5 is pure but not CM and not shellable; fig1 is CM except
    over F_2."""
    c4 = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    return {
        "whiskered-P7": whiskered(7, path(7)),
        "whiskered-spider6": whiskered(6, [(1, 2), (2, 3), (1, 4), (4, 5), (1, 6)]),
        "C4+whiskered-P5": disjoint_union(c4, whiskered(5, path(5))),
        "fig1": fig1_graph(),
    }


CM_CHARS = (0, 2, 3)
SHELLING_BUDGET = 200_000
_CM_OPS = tuple(f"char{c}" for c in CM_CHARS) + ("shelling",)


class CmDecide:
    """Per graph: cm_characteristic_profile over each of chars 0, 2, 3, then
    is_shellable with a fixed budget, as `cmgraph cm` and `cmgraph shellable`
    run them.  The seed orders the graphs; labellings are fixed because both
    the witness and the char-0 elimination cost depend on them.  Ops: one per
    (graph, field) verdict and one per shelling result.
    """

    name = "cm-decide"

    def setup(self, seed: int) -> dict:
        graphs = list(cm_graphs().items())
        random.Random(seed).shuffle(graphs)
        return {"graphs": graphs}

    def body(self, inputs: dict) -> dict:
        out = {}
        timings = {"verdict_q_s": 0.0, "verdict_fp_s": 0.0, "shelling_s": 0.0}
        for name, g in inputs["graphs"]:
            ops = {}
            for c in CM_CHARS:
                t0 = time.perf_counter()
                ops[f"char{c}"] = _guard(
                    lambda: cohen_macaulay.cm_report_json(
                        cohen_macaulay.cm_characteristic_profile(g, [FieldSpec(c)])[0]
                    )
                )
                timings["verdict_q_s" if c == 0 else "verdict_fp_s"] += (
                    time.perf_counter() - t0
                )
            t0 = time.perf_counter()
            ops["shelling"] = _guard(
                lambda: _shelling_json(
                    complexes.is_shellable(complexes.independence_complex(g), SHELLING_BUDGET)
                )
            )
            timings["shelling_s"] += time.perf_counter() - t0
            out[name] = ops
        return {"ops": out, "timings": timings}

    def expected(self, inputs: dict, result: dict) -> dict:
        return result["ops"]

    def check(self, inputs: dict, result: dict) -> tuple[int, int, list]:
        pinned = load_json("cm-decide.json")
        keys = [(name, op) for name, _ in inputs["graphs"] for op in _CM_OPS]
        return compare(
            [pinned[n][op] for n, op in keys],
            [result["ops"][n][op] for n, op in keys],
        )

    def items(self, inputs: dict, result: dict) -> int:
        return len(inputs["graphs"]) * len(_CM_OPS)


def _shelling_json(res) -> dict:
    order = [list(f) for f in res.order] if res.order else None
    return {"status": res.status, "order": order, "steps": res.steps}


def _guard(op):
    """Run one op; an exception becomes an output that matches no pin."""
    try:
        return op()
    except Exception as exc:  # every failure of one op is counted, not fatal
        return {"error": f"{type(exc).__name__}: {exc}"}


WORKLOADS = {w.name: w for w in (SweepN8R3(), RecordsN9R3(), CmDecide())}
