"""Compare per-operation latencies of one benchmark workload between two source trees.

    python3 tools/op_times.py OLD_TREE NEW_TREE --workload W [--rounds 8] [--seed 0[,1,...]]

W is one of the workloads bench/workloads.py lists; any other name is a
usage error, given before any tree is copied.

Each tree is a checkout with its package under src/markovkit.  That
package (without __pycache__) is first copied into a fresh temporary
directory per tree, and the copies are what is timed: a package timed in
place in a working tree has read 8-55% slower than the same source in a
fresh directory, for a cause not yet found, so the copy is a workaround.
Every round runs one fresh interpreter per tree and seed, with one BLAS
thread and MARKOVKIT_TOL unset; the tree that goes first alternates from
round to round, so a drift in machine speed falls on both sides alike.
--seed takes one seed or a comma-separated list.  The interpreter builds
the workload's operation list from its seed with bench/workloads.py of this
checkout (imported without writing bytecode, so the benchmark's directory
is left untouched), runs every operation once through the tree's
in-process ``markovkit.cli.main`` to warm up, then times each operation 3
times.  An operation listed more than once in a pass (the twirl workload
repeats its cheap ones) is timed once under its name.

Each operation, named "<seed>:<name>", keeps its minimum latency over all
rounds, and the minima of all seeds are pooled.  The summary gives each
tree's operation count, the sum of those minima in ms and the ops/s it
implies, over the operations that exit 0 in OLD, their median and their
tail percentile in ms, read as bench/run.py reads op_p50_ms and op_tail_ms
from per-operation medians (statistics.median, and np.percentile at the
workload's tail_pct in bench/workloads.py), beside the tree's peak
resident set size in MB (the interpreter's ru_maxrss, maximum over rounds
and seeds) and its report bytes per pass: the stdout of every operation
summed in the workload's pass order, repeats included, which is the text
bench/run.py keeps for each pass it runs (maximum over seeds), so that a
speedup's effect on peak_rss_mb can be sized before a benchmark run.  Then
with several seeds each seed's sums, since one seed's sum
can mislead, then the 6 largest per-operation gains and the 6 largest
losses in ms.  Exits 1 when some operation's exit code differs between
the trees, else 0.
Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3
SHOWN = 6


def import_workloads():
    """bench/workloads.py of this checkout, imported without writing
    bytecode, so the benchmark's directory is left untouched."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    return workloads


def collect(tree: Path, workload: str, seed: int, out_file: Path) -> None:
    """Time every operation of the workload through tree's cli.main in this
    one interpreter; write {"ops": {name: [exit code, minimum latency in s]},
    "peak_rss_mb": this interpreter's peak resident set size,
    "report_bytes": the stdout bytes of one pass}."""
    workloads = import_workloads()

    sys.path.insert(0, str(tree / "src"))
    import markovkit.cli as cli

    if Path(cli.__file__).resolve().parent != (tree / "src" / "markovkit").resolve():
        sys.exit(f"op_times: imported {cli.__file__}, not {tree}")

    def run(argv: list[str]) -> tuple[int, float, int]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, time.perf_counter() - start, len(out.getvalue().encode())

    with tempfile.TemporaryDirectory() as tmp:
        listed = workloads.build_ops(workload, seed, Path(tmp))
        ops = {op.name: list(op.argv) for op in listed}
        stdout_bytes = {name: run(argv)[2] for name, argv in ops.items()}
        results = {}
        for name, argv in ops.items():
            timings = [run(argv) for _ in range(REPEATS)]
            results[name] = [timings[0][0], min(t for _, t, _ in timings)]
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out_file.write_text(json.dumps({
        "ops": results, "peak_rss_mb": peak,
        "report_bytes": sum(stdout_bytes[op.name] for op in listed)}))


def run_tree(tree: Path, workload: str, seed: int, out_file: Path) -> dict:
    """One round's {"ops": {name: [exit code, latency]}, "peak_rss_mb": MB,
    "report_bytes": bytes} for tree, from a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "MARKOVKIT_TOL"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, __file__, "--collect", str(tree), workload,
                    str(seed), str(out_file)], env=env, check=True)
    return json.loads(out_file.read_text())


def fresh_copy(tree: Path, dest: Path) -> Path:
    """Copy tree's src/markovkit, without bytecode, to dest/src/markovkit;
    return dest, a tree that collect() can time."""
    shutil.copytree(tree / "src" / "markovkit", dest / "src" / "markovkit",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def main(argv=None) -> int:
    workloads = import_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--seed", default="0",
                        help="one seed or a comma-separated list")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    try:
        seeds = [int(seed) for seed in args.seed.split(",")]
    except ValueError:
        parser.error(f"--seed must be integers separated by commas, got {args.seed!r}")

    # side -> name -> [exit code, minimum latency over rounds]
    best: dict[str, dict[str, list]] = {"OLD": {}, "NEW": {}}
    peak_rss = {"OLD": 0.0, "NEW": 0.0}
    report_bytes = {"OLD": 0, "NEW": 0}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: fresh_copy(tree.resolve(), Path(tmp) / side)
                 for side, tree in (("OLD", args.old), ("NEW", args.new))}
        for r in range(args.rounds):
            order = ("OLD", "NEW") if r % 2 == 0 else ("NEW", "OLD")
            for side in order:
                for seed in seeds:
                    got = run_tree(trees[side], args.workload, seed,
                                   Path(tmp) / f"{side}.json")
                    peak_rss[side] = max(peak_rss[side], got["peak_rss_mb"])
                    report_bytes[side] = max(report_bytes[side], got["report_bytes"])
                    for name, (code, latency) in got["ops"].items():
                        seen = best[side].setdefault(f"{seed}:{name}", [code, latency])
                        seen[1] = min(seen[1], latency)

    # both trees time the same operation list, built by this checkout
    old, new = best["OLD"], best["NEW"]
    mismatched = [f"{name}: exit {old[name][0]} -> {new[name][0]}"
                  for name in old if old[name][0] != new[name][0]]
    passing = [name for name, (code, _) in old.items() if code == 0]

    print(f"{args.workload}, seeds {args.seed}, {args.rounds} rounds, "
          f"minimum of {REPEATS} timings per round")
    tail_pct = workloads.WORKLOADS[args.workload].tail_pct
    for side, times in (("OLD", old), ("NEW", new)):
        minima = [1e3 * times[name][1] for name in passing]
        total = sum(minima)
        rate = 1e3 * len(passing) / total if total > 0 else float("nan")
        p50, tail = ((statistics.median(minima), float(np.percentile(minima, tail_pct)))
                     if minima else (float("nan"),) * 2)
        print(f"{side}: {len(passing)} ops exiting 0 at OLD, {total:.1f} ms, "
              f"{rate:.1f} ops/s, p50 {p50:.2f} ms, p{tail_pct} {tail:.2f} ms, "
              f"peak RSS {peak_rss[side]:.1f} MB, "
              f"report {report_bytes[side] / 1e3:.1f} KB per pass")
    if len(seeds) > 1:
        for seed in seeds:
            names = [name for name in passing if name.startswith(f"{seed}:")]
            sums = {side: 1e3 * sum(times[name][1] for name in names)
                    for side, times in (("OLD", old), ("NEW", new))}
            change = (sums["NEW"] / sums["OLD"] - 1) * 100 if sums["OLD"] > 0 else float("nan")
            print(f"  seed {seed}: {len(names)} ops, OLD {sums['OLD']:.1f} ms, "
                  f"NEW {sums['NEW']:.1f} ms ({change:+.1f}%)")
    deltas = sorted(((old[name][1] - new[name][1]) * 1e3, name) for name in passing)
    print("largest gains (ms, OLD - NEW):")
    for delta, name in reversed(deltas[-SHOWN:]):
        if delta > 0:
            print(f"  {name}: {delta:+.2f}")
    print("largest losses (ms, OLD - NEW):")
    for delta, name in deltas[:SHOWN]:
        if delta < 0:
            print(f"  {name}: {delta:+.2f}")
    print(f"{len(mismatched)} exit-code mismatches")
    for line in mismatched:
        print(f"  {line}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    if len(sys.argv) == 6 and sys.argv[1] == "--collect":
        collect(Path(sys.argv[2]), sys.argv[3], int(sys.argv[4]), Path(sys.argv[5]))
    else:
        sys.exit(main())
