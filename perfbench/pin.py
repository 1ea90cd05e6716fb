"""Write the pinned inputs and expected outputs under perfbench/data/.

    PYTHONPATH=src python3 perfbench/pin.py [WORKLOAD ...]

The benchmark compares every op with these files, so they are written once,
from the commit that defines the benchmark.  A later change whose outputs
differ fails the correctness gate; re-pinning would hide that.
"""

from __future__ import annotations

import json
import os
import random
import sys

import workloads
from cmgraph.graphs import Graph, is_unmixed
from cmgraph.harness import compute_records

POOL_SIZE = 6000
POOL_SEED = 1210
DENSITIES = (0.55, 0.65, 0.75, 0.85)
BLOCK_SIZES = ((3, 3, 3), (2, 3, 4), (2, 2, 5), (1, 4, 4))


def random_tripartite(rng: random.Random) -> Graph:
    """A random graph on 9 vertices with a 3-partition into nonempty blocks."""
    verts = list(range(1, 10))
    rng.shuffle(verts)
    sizes = rng.choice(BLOCK_SIZES)
    block = {}
    start = 0
    for b, size in enumerate(sizes):
        for v in verts[start : start + size]:
            block[v] = b
        start += size
    p = rng.choice(DENSITIES)
    return Graph(
        9,
        [
            (u, v)
            for u in range(1, 10)
            for v in range(u + 1, 10)
            if block[u] != block[v] and rng.random() < p
        ],
    )


def make_pool() -> list[Graph]:
    """Distinct labelled graphs, half of them unmixed (so the CM decider
    scans their links) and half mixed (rejected as non-pure at once)."""
    rng = random.Random(POOL_SEED)
    halves: dict[bool, list[Graph]] = {True: [], False: []}
    seen: set[Graph] = set()
    while sum(len(h) for h in halves.values()) < POOL_SIZE:
        g = random_tripartite(rng)
        if g in seen:
            continue
        half = halves[is_unmixed(g)]
        if len(half) < POOL_SIZE // 2:
            seen.add(g)
            half.append(g)
    pool = halves[True] + halves[False]
    rng.shuffle(pool)
    return pool


def pin_records() -> None:
    pool = tuple(make_pool())
    records = compute_records(pool, r=3, chars=(0, 2))
    with open(os.path.join(workloads.DATA, "records-pool.txt"), "w", encoding="ascii") as fh:
        for g in pool:
            fh.write(f"{workloads.graph_to_hex(g)} {workloads.record_digest(records[g])}\n")


def pin_result(name: str, filename: str) -> None:
    wl = workloads.WORKLOADS[name]
    inputs = wl.setup(0)
    pinned = wl.expected(inputs, wl.body(inputs))
    with open(os.path.join(workloads.DATA, filename), "w", encoding="ascii") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(names: list[str]) -> int:
    for name in names or list(workloads.WORKLOADS):
        if name == "records-n9-r3":
            pin_records()
        else:
            pin_result(name, f"{name}.json")
        print(f"pinned {name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
