"""The qsphere benchmark: one run of one workload.

    python3 perfbench/run.py --workload hopf --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the engine is imported from ``src/``.
Workloads, metrics and the predictions they support are described in
``perfbench/README.md``.

With ``--trace 0`` the run reports the end-to-end metrics: set-up time
(median of several fresh ``import qsphere.cli``), then a fresh worker
interpreter drives the workload as one closed-loop client for
``--seconds``.  With ``--trace 1`` a worker runs the workload for
``--seconds`` with the layer tracer installed, and a second, untraced
worker replays the same units to give the tracing overhead.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment.  Every item is checked exactly, so a wrong
answer counts in ``failed`` and ``correct`` turns false.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# set-up is timed this many times before the workload and as many after,
# so that its median spans more than one stretch of the machine's load
SETUP_REPEATS = 8
INTERP_REPEATS = 5
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import qsphere.cli; "
    "print(time.perf_counter() - t)"
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _python(args, env, timeout):
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        cwd=ROOT, env=env, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d:\n%s" % (" ".join(args[:2]), proc.returncode, proc.stderr))
    return proc.stdout


def setup_times(env):
    """Times of ``import qsphere.cli``, each in a fresh interpreter."""
    return [float(_python(["-c", _IMPORT_PROBE], env, 60)) for _ in range(SETUP_REPEATS)]


def interpreter_start_seconds(env):
    """Median wall time of a bare ``python -c pass``."""
    times = []
    for _ in range(INTERP_REPEATS):
        start = perf_counter()
        _python(["-c", "pass"], env, 60)
        times.append(perf_counter() - start)
    return statistics.median(times)


def worker(env, workload, seed, mode, seconds=0.0, units=0):
    out = _python([
        str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--mode", mode, "--seconds", str(seconds), "--units", str(units),
    ], env, 170)
    return json.loads(out.splitlines()[-1])


def p90(values):
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-9 * len(ordered) // 10) - 1)]


def end_to_end(run, setup_s):
    lat = run["latencies"]
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (len(lat) / sum(lat), "1/s"),
        "item_p50_ms": (1000 * statistics.median(lat), "ms"),
        "item_p90_ms": (1000 * p90(lat), "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }


def source_record():
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def git_commit():
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("hopf", "geometry", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "qsphere" / "cli.py").is_file():
        print("error: no qsphere sources under %s" % SRC, file=sys.stderr)
        return 2
    env = child_env()
    interp_s = interpreter_start_seconds(env)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": git_commit(), **source_record(), "interp_start_s": interp_s,
    }

    if args.trace:
        run = worker(env, args.workload, args.seed, "trace", seconds=args.seconds)
        replay = worker(env, args.workload, args.seed, "replay", units=run["units"])
        metrics = dict(run["layers"])
        metrics["interp.start_s"] = (interp_s, "s")
        metrics["trace.overhead_ratio"] = (run["wall_s"] / replay["wall_s"], "ratio")
        self_total = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
        # spans nest on one thread, so layer self times cannot exceed wall time
        consistent = self_total <= run["wall_s"]
        record.update(missing_caches=run["missing_caches"], replay_units=replay["units"],
                      self_s_total=self_total, traced_wall_s=run["wall_s"])
    else:
        _python(["-c", _IMPORT_PROBE], env, 60)  # leaves the bytecode cache warm
        setup = setup_times(env)
        run = worker(env, args.workload, args.seed, "measure", seconds=args.seconds)
        setup += setup_times(env)
        metrics = end_to_end(run, statistics.median(setup))
        consistent = True

    attempted = len(run["verdicts"])
    failed = attempted - sum(run["verdicts"])
    record.update(items=attempted, units=run["units"], wall_s=run["wall_s"])
    print(json.dumps({"env": record}))
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
