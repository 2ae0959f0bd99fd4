"""One measured pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload hopf --seed 3 --mode measure --seconds 30

Modes:
  measure  untraced, runs units until --seconds have passed;
  trace    the same with the layer tracer installed;
  replay   untraced, runs exactly --units units (the count a trace pass
           completed), so the two passes do the same work.
In trace and replay modes the cli workload calls cli.main in-process,
because a child process cannot be traced from outside.

Prints one JSON object: per-item latencies and verdicts, wall time, units
run, peak RSS and, when traced, the layer metrics.  run.py turns these into
the benchmark's metrics; the module needs ``src`` on ``sys.path``.
"""

from __future__ import annotations

import argparse
import json
import resource
from time import perf_counter


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("measure", "trace", "replay"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--units", type=int, default=0)
    args = parser.parse_args()

    tracer = None
    if args.mode == "trace":
        import tracer as layer_tracer

        tracer = layer_tracer.Tracer()
        layer_tracer.install(tracer)

    from workloads import WORKLOADS

    in_process = args.mode != "measure"
    units = WORKLOADS[args.workload](args.seed, in_process, tracer)
    latencies, verdicts, done = [], [], 0
    start = perf_counter()
    for unit in units:
        for latency, ok in unit():
            latencies.append(latency)
            verdicts.append(bool(ok))
        done += 1
        if args.mode == "replay":
            if done >= args.units:
                break
        elif perf_counter() - start >= args.seconds:
            break
    wall = perf_counter() - start

    # a child-process workload's memory is that of its largest child
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" and not in_process else resource.RUSAGE_SELF
    out = {
        "latencies": latencies,
        "verdicts": verdicts,
        "units": done,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    if tracer is not None:
        caches, missing = layer_tracer.memo_cache_metrics()
        out["layers"] = {**tracer.layer_metrics(), **caches}
        out["missing_caches"] = missing
    print(json.dumps(out))


if __name__ == "__main__":
    main()
