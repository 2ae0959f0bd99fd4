"""Paired benchmark runs of two checkouts, written as one JSON record.

    git worktree add ../base HEAD~1
    python3 tools/bench_pairs.py --parent ../base --change . \\
        --workloads hopf geometry:5 cli:5 \\
        --seeds 301 302 303 304 305 306 307 308 309 7919 --seconds 30 \\
        --out BENCH_28.json

Make the parent copy with ``git worktree add`` (as above) or ``git clone``,
so that the record can name its commit.

Each pair runs the unchanged benchmark command, ``perfbench/run.py
--workload W --seed S --seconds T --trace 0``, once in each checkout, as a
child whose working directory is that checkout.  Consecutive pairs swap
which side runs first, so a drift in the machine's speed falls on both.
Every child gets a fresh, empty ``PYTHONPYCACHEPREFIX``, so neither side
imports bytecode compiled by an earlier run.  Beside each point the record
keeps ``os.getloadavg()`` and the wall time of ``python -c pass``, both
taken just before the child starts.

``--workloads`` names each workload as ``NAME`` (one pair per seed) or
``NAME:N`` (the first N seeds).  For every end-to-end metric of
``BENCHMARK.json`` the record gives each side's median and quartiles, the
ratio of the medians (change / parent) and the number of pairs the change
won.  It also holds each side's commit, ``src/`` line count and ``src/``
hash, as the benchmark's own environment record reports them (the commit
from ``git -C CHECKOUT rev-parse HEAD`` where that record has none, as in
a worktree, whose ``.git`` is a file), and the
median wall time of 5 fresh ``python -m qsphere.cli --suite all --quiet``
children (``suite_all_s``), the two sides alternating, each child with its
own empty ``PYTHONPYCACHEPREFIX``.  ``memo_tables`` holds, for each side,
the ``cache_info()`` (hits, misses, currsize, maxsize) of every
``functools`` cache defined at the top level of a ``qsphere`` module, read
after one ``qsphere --suite all --seed 0`` run in a fresh child.  The
tables are found by scanning the loaded modules' globals, so a side that
has other tables than the other is recorded as it is.

The record goes to ``--out`` (standard output by default); progress goes
to standard error.  The exit code is 1 when any run reported a wrong
answer, 2 on a usage error.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SUITE_ALL_RUNS = 5


def end_to_end_metrics():
    """{name: "higher" or "lower"} for the end-to-end metrics of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def git_head(checkout):
    """The commit checked out in checkout, from git; None when git cannot tell."""
    try:
        proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=60)
    except OSError:
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def python_pass_seconds():
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return perf_counter() - start


@contextlib.contextmanager
def fresh_pycache(**extra):
    """The environment with extra and a new, empty PYTHONPYCACHEPREFIX,
    which is removed afterwards."""
    cache = tempfile.mkdtemp(prefix="bench-pycache-")
    try:
        yield dict(os.environ, PYTHONPYCACHEPREFIX=cache, **extra)
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def run_point(checkout, workload, seed, seconds):
    """One benchmark run in checkout: its result line, environment record
    and the load beside it."""
    loadavg = list(os.getloadavg())
    pass_s = python_pass_seconds()
    with fresh_pycache() as env:
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=checkout, env=env, capture_output=True, text=True,
            timeout=3 * seconds + 600,
        )
        wall = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError("perfbench/run.py exited %d in %s:\n%s"
                           % (proc.returncode, checkout, proc.stderr))
    env_line, result_line = proc.stdout.splitlines()[-2:]
    result = json.loads(result_line)
    point = {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "loadavg": loadavg,
        "python_pass_s": pass_s,
        "child_wall_s": wall,
    }
    return point, json.loads(env_line)["env"]


def suite_all_seconds(checkouts):
    """{side: median wall time of SUITE_ALL_RUNS --suite all children}."""
    times = {side: [] for side in SIDES}
    for i in range(SUITE_ALL_RUNS):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            with fresh_pycache(PYTHONPATH=str(checkouts[side] / "src")) as env:
                start = perf_counter()
                subprocess.run([sys.executable, "-m", "qsphere.cli", "--suite", "all", "--quiet"],
                               cwd=checkouts[side], env=env, check=True,
                               stdout=subprocess.DEVNULL, timeout=600)
                times[side].append(perf_counter() - start)
    return {side: statistics.median(t) for side, t in times.items()}


MEMO_TABLES_CHILD = """
import contextlib, io, json, sys
from qsphere import cli
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(["--suite", "all", "--seed", "0", "--quiet"])
if status != 0:
    raise SystemExit("--suite all --seed 0 exited %d" % status)
tables = {}
for name, module in sorted(sys.modules.items()):
    if name.startswith("qsphere."):
        for attr, value in vars(module).items():
            if hasattr(value, "cache_info") and getattr(value, "__module__", None) == name:
                tables[name + "." + attr] = value.cache_info()._asdict()
json.dump(tables, sys.stdout, sort_keys=True)
"""


def memo_tables(checkout):
    """{table: cache_info() as a dict} after one --suite all --seed 0 run
    in a fresh child in checkout."""
    with fresh_pycache(PYTHONPATH=str(checkout / "src")) as env:
        proc = subprocess.run([sys.executable, "-c", MEMO_TABLES_CHILD], cwd=checkout, env=env,
                              capture_output=True, text=True, check=True, timeout=600)
    return json.loads(proc.stdout)


def quartiles(values):
    """{"q1", "median", "q3"} of the values."""
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs, better):
    """Per metric: each side's quartiles, the median ratio and the wins."""
    out = {}
    for name, direction in better.items():
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        wins = sum(
            (c > p) if direction == "higher" else (c < p)
            for p, c in zip(values["parent"], values["change"])
        )
        parent_median = stats["parent"]["median"]
        out[name] = {
            "better": direction,
            **stats,
            "median_ratio": stats["change"]["median"] / parent_median if parent_median else None,
            "wins": wins,
            "pairs": len(pairs),
        }
    return out


def parse_workloads(specs, seeds):
    """[(workload, seeds)] from NAME or NAME:N specs."""
    out = []
    for spec in specs:
        name, _, count = spec.partition(":")
        n = int(count) if count else len(seeds)
        if not 0 < n <= len(seeds):
            raise ValueError("%s asks for %d pairs, but %d seeds are given" % (spec, n, len(seeds)))
        out.append((name, seeds[:n]))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout before the change")
    parser.add_argument("--change", required=True, type=Path, help="checkout with the change")
    parser.add_argument("--workloads", nargs="+", required=True, metavar="NAME[:N]")
    parser.add_argument("--seeds", nargs="+", required=True, type=int)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", default="-", help="output file, - for standard output")
    args = parser.parse_args(argv)
    try:
        plan = parse_workloads(args.workloads, args.seeds)
    except ValueError as exc:
        parser.error(str(exc))
    for side in SIDES:
        if not (getattr(args, side) / "perfbench" / "run.py").is_file():
            parser.error("--%s %s holds no perfbench/run.py" % (side, getattr(args, side)))

    better = end_to_end_metrics()
    checkouts = {side: getattr(args, side).resolve() for side in SIDES}
    sides, workloads, order = {}, {}, 0
    for workload, seeds in plan:
        pairs = []
        for seed in seeds:
            first = SIDES[order % 2]
            order += 1
            pair = {"seed": seed, "first": first}
            for side in (first, SIDES[1 - SIDES.index(first)]):
                print("%s seed %d: %s" % (workload, seed, side), file=sys.stderr, flush=True)
                pair[side], env = run_point(checkouts[side], workload, seed, args.seconds)
                if side not in sides:
                    sides[side] = {k: env[k] for k in ("commit", "src_lines", "src_sha256")}
                    sides[side]["commit"] = env["commit"] or git_head(checkouts[side])
            pairs.append(pair)
        workloads[workload] = {"seeds": seeds, "metrics": summarize(pairs, better), "pairs": pairs}

    print("--suite all, %d runs per side" % SUITE_ALL_RUNS, file=sys.stderr, flush=True)
    for side, seconds in suite_all_seconds(checkouts).items():
        sides[side]["suite_all_s"] = seconds
    for side in SIDES:
        sides[side]["memo_tables"] = memo_tables(checkouts[side])
    correct = all(p[side]["correct"] for w in workloads.values() for p in w["pairs"] for side in SIDES)
    record = {
        "command": "tools/bench_pairs.py --workloads %s --seeds %s --seconds %g" % (
            " ".join(args.workloads), " ".join(map(str, args.seeds)), args.seconds),
        "machine": {"platform": platform.platform(), "python": platform.python_version(),
                    "nproc": os.cpu_count()},
        "seconds": args.seconds,
        "sides": sides,
        "correct": correct,
        "workloads": workloads,
    }
    text = json.dumps(record, indent=1) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
