"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRACE   (TRACE is 0, 1 or setup)

With TRACE "setup" the worker only sets up and reports when it was ready,
the CPU time it had used by then (interpreter start included) and the ref()
time (speed.py) measured at the start and at the end of its set-up.
Otherwise it also times the body, raw and at the nominal speed, checks every
op against the pinned outputs and, with TRACE 1, records spans around the
package's functions.  It prints one JSON object on stdout; run.py starts it
with src/ on PYTHONPATH.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import speed

REF_AT_START = speed.ref_median()

import workloads  # noqa: E402  (imports the package: part of set-up)


def main(argv: list[str]) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    wl = workloads.WORKLOADS[name]
    inputs = wl.setup(seed)
    out: dict = {"ready": time.monotonic(), "setup_cpu": time.process_time()}
    out["ref_setup"] = (REF_AT_START + speed.ref_median()) / 2
    if mode != "setup":
        tracer = None
        if mode == "1":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        meter = speed.Speedometer()
        meter.start()
        t0 = time.perf_counter()
        try:
            result = wl.body(inputs)
        except Exception as exc:  # the check below counts every op as failed
            result = None
            out["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            wall = time.perf_counter() - t0
            wall_nominal = meter.stop()
            if tracer is not None:
                tracer.uninstall()
        attempted, failed, bad = wl.check(inputs, result)
        out.update(
            wall_s=wall,
            wall_nominal_s=wall_nominal,
            ref_body=meter.ref_s(),
            attempted=attempted,
            failed=failed,
            mismatched_ops=bad,
            items=wl.items(inputs, result) if result is not None else 0,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        if isinstance(result, dict) and "timings" in result:
            out["timings"] = result["timings"]
        if tracer is not None:
            out["counts"] = tracer.counts()
            out["per_layer"] = tracer.per_layer()
            out["trace"] = tracer.dump()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
