"""cmgraph benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload {sweep-n8-r3,records-n9-r3,cm-decide,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The package is imported from src/, so
nothing needs installing.  Every repetition runs in a fresh interpreter
(worker.py), one at a time: a closed loop with one client and jobs=1.
Repetitions continue until --seconds have passed, and at least two are run
(two rounds of a traced and an untraced one with --trace 1).
A few extra set-up-only interpreters make setup_s a median of several.

With --trace 0 the metrics are the end-to-end ones in BENCHMARK.json
(medians over repetitions).  Times are given at the nominal machine speed of
speed.py, because the raw times of this shared host swing with its load:
wall_nominal_s is the timed body and setup_s the interpreter start, import
and input generation, both in CPU time scaled by the ref() time measured
while they ran.
The raw medians (wall_s, setup_wall_s) are printed above the JSON line.
With --trace 1, traced and untraced repetitions alternate; the metrics are
the per-layer ones (medians over the traced repetitions, raw seconds) and
trace.overhead_s, the traced minus the untraced wall_nominal_s.
Deterministic counts must repeat exactly between traced repetitions.

Every op is compared with the outputs pinned in perfbench/data/; a mismatch
or an exception makes the result incorrect and the exit code 1.  The last
line of stdout is the JSON result; the lines before it print the same
metrics with units, plus error_rate and the workload's own throughput and
timing names.  Per-repetition data and every span go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
MIN_REPS = 2
SETUP_PROBES = 12
CHILD_TIMEOUT_S = 150

# the throughput printed for each workload: items of work per wall_nominal_s
ITEMS = {
    "sweep-n8-r3": "enum_classes_per_s",
    "records-n9-r3": "records_per_s",
    "cm-decide": "ops_per_s",
}
WORKLOADS = tuple(ITEMS)

# units of the printed metrics that BENCHMARK.json does not list
INFO_UNITS = {
    "wall_s": "s",
    "setup_wall_s": "s",
    "ref_ms": "ms",
    "error_rate": "ratio",
    "enum_classes_per_s": "1/s",
    "records_per_s": "1/s",
    "ops_per_s": "1/s",
    "verdict_q_s": "s",
    "verdict_fp_s": "s",
    "shelling_s": "s",
}


def load_units() -> dict[str, str]:
    with open("BENCHMARK.json", encoding="ascii") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def machine_note() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
    }


def spawn(workload: str, seed: int, mode: str) -> dict:
    """One worker interpreter; returns its JSON with its set-up times."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), mode]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"crashed": f"timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    rep = json.loads(lines[-1])
    rep["setup_wall_s"] = rep["ready"] - start
    # CPU time, not wall time: the hypervisor of a shared host steals whole
    # stretches of wall time from a vCPU, which process CPU time leaves out
    rep["setup_s"] = speed.scaled(rep["setup_cpu"], rep["ref_setup"])
    return rep


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    note = machine_note()
    setups = [spawn(workload, seed, "setup") for _ in range(SETUP_PROBES)]
    reps: list[dict] = []
    modes = ["1", "0"] if trace else ["0"]
    t0 = time.monotonic()
    while True:
        for mode in modes:
            rep = spawn(workload, seed, mode)
            rep["mode"] = mode
            reps.append(rep)
        elapsed = time.monotonic() - t0
        rounds = len(reps) // len(modes)
        # stop once another round would overrun --seconds
        if rounds >= MIN_REPS and elapsed * (rounds + 1) / rounds > seconds:
            break
        if any("crashed" in r for r in reps):
            break

    crashed = [r["crashed"] for r in reps + setups if "crashed" in r]
    good = [r for r in reps if "crashed" not in r]
    attempted = sum(r["attempted"] for r in good) + len(crashed)
    failed = sum(r["failed"] for r in good) + len(crashed)
    plain = [r for r in good if r["mode"] == "0"]
    traced = [r for r in good if r["mode"] == "1"]
    problems = list(crashed)
    problems += [
        f"rep {i}: {r['failed']} ops differ (first at {r['mismatched_ops']}) {r.get('error', '')}"
        for i, r in enumerate(good)
        if r["failed"]
    ]
    if traced and any(r["counts"] != traced[0]["counts"] for r in traced):
        problems.append("deterministic counts differ between traced repetitions")

    def med(key, rows=plain):
        return statistics.median(r[key] for r in rows)

    info: dict = {}
    metrics: dict = {}
    if plain:
        wall = med("wall_nominal_s")
        with_setup = [r for r in setups + plain if "setup_s" in r]
        info = {
            "wall_s": med("wall_s"),
            "setup_wall_s": med("setup_wall_s", with_setup),
            "ref_ms": 1000 * med("ref_body"),
            "error_rate": failed / attempted if attempted else 1.0,
            ITEMS[workload]: med("items") / wall,
        }
        for key in ("verdict_q_s", "verdict_fp_s", "shelling_s"):
            if "timings" in plain[0]:
                info[key] = statistics.median(r["timings"][key] for r in plain)
        if not trace:
            metrics = {
                "setup_s": med("setup_s", with_setup),
                "wall_nominal_s": wall,
                "peak_rss_mb": med("peak_rss_mb"),
            }
    if traced and plain:
        metrics = {
            name: statistics.median(r["per_layer"][name] for r in traced)
            for name in traced[0]["per_layer"]
        }
        metrics["trace.overhead_s"] = med("wall_nominal_s", traced) - wall

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(
            {"machine": note, "setups": setups, "reps": reps, "problems": problems},
            fh,
            indent=1,
        )
    return {
        "workload": workload,
        "machine": note,
        "reps": len(good),
        "correct": not problems and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "info": info,
        "traced": traced,
    }


def print_block(res: dict, seed: int, units: dict[str, str]) -> None:
    m = res["machine"]
    print(
        f"== {res['workload']} seed={seed} reps={res['reps']} "
        f"correct={res['correct']} failed={res['failed']}/{res['attempted']}"
    )
    print(
        f"   machine: nproc={m['nproc']} python={m['python']} cpu={m['cpu']!r} "
        f"loadavg={' '.join(f'{x:.2f}' for x in m['loadavg'])}"
    )
    for p in res["problems"][:10]:
        print(f"   PROBLEM {p}")
    for name, value in {**res["metrics"], **res["info"]}.items():
        print(f"   {name:<52} {value:.6g} {units[name]}")
    if res["traced"]:
        counts = res["traced"][0]["counts"]
        print("   deterministic counts: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
        print_self_time(res["traced"])


def print_self_time(traced: list[dict]) -> None:
    """Self time by span for the first traced repetition, largest first."""
    rep = traced[0]
    spans = rep["trace"]["spans"]
    wall = rep["wall_s"]
    covered = sum(s["self_s"] for s in spans.values())
    print(f"   self time of traced rep 1 (wall {wall:.3f} s; untraced remainder "
          f"{wall - covered:.3f} s):")
    for name, s in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])[:10]:
        print(f"     {name:<45} {s['self_s']:9.3f} s {100 * s['self_s'] / wall:5.1f}%"
              f"  {s['calls']} calls")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "cmgraph", "__init__.py")):
        print("run from the root of a cmgraph checkout: src/cmgraph not found", file=sys.stderr)
        return 2
    units = {**load_units(), **INFO_UNITS}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_block(res, args.seed, units)
        results.append(res)
    if len(results) == 1:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in results[0]["metrics"].items()}
    else:
        metrics = {
            f"{r['workload']}.{k}": {"value": v, "unit": units[k]}
            for r in results
            for k, v in {**r["metrics"], **r["info"]}.items()
        }
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
