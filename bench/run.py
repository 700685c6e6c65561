"""markovkit benchmark: one closed-loop client running CLI operations in-process.

    python3 bench/run.py --workload recovery --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload's state files are generated
from --seed, then whole passes over its operation list go through
markovkit.cli.main until --seconds have elapsed (the pass in progress is
finished, and more passes run if the tail percentile still lacks ten
samples above it).  Every report is checked.  The last line of stdout is a
JSON object with "correct", "attempted", "failed" and "metrics": the
end-to-end metrics with --trace 0, the per-layer metrics of a traced run
with --trace 1.  Lines before it name each metric with its unit and record
the environment; the same record is written under .bench_out/.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: one BLAS thread, whatever the machine has.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS
os.environ.pop("MARKOVKIT_TOL", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
TAIL_SAMPLES = 10
END_TO_END = {  # name -> unit
    "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "ok_frac": "frac", "setup_s": "s", "peak_rss_mb": "MB",
    "recover_error_mean": "1",
}


def import_cli():
    """The checkout's markovkit.cli; exits non-zero if the sources are absent."""
    if not (SRC / "markovkit" / "cli.py").is_file():
        sys.exit(f"bench: {SRC / 'markovkit'} not found; run from a checkout")
    sys.path.insert(0, str(SRC))
    import markovkit.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "markovkit":
        sys.exit(f"bench: imported markovkit from {cli.__file__}, not {SRC}")
    return cli


# The machines this runs on are shared: other tenants slow a core down by up
# to 1.7x, for seconds and for minutes at a time.  Timings are therefore
# scaled to a fixed machine speed.  A fixed reference kernel runs after
# every timed operation; every time is multiplied by
# REFERENCE_S / (the kernel's median time in the run).  REFERENCE_S is the
# kernel's median time on the baseline machine, so scaled figures read as
# seconds there.
REFERENCE_S = 1.0e-3
_RNG = np.random.default_rng(0)
_REFERENCE_MATRIX = _RNG.standard_normal((12, 12)) + 1j * _RNG.standard_normal((12, 12))
_REFERENCE_MATRIX += _REFERENCE_MATRIX.conj().T
_EIGH = np.linalg.eigh  # bound before a traced run wraps numpy.linalg


def reference_kernel() -> float:
    """Wall time of fixed work shaped like markovkit's own: small Hermitian
    eigensolves with reconstruction, and Python dictionary updates."""
    start = time.perf_counter()
    for _ in range(10):
        vals, vecs = _EIGH(_REFERENCE_MATRIX)
        (vecs * vals) @ vecs.conj().T
    counts: dict[int, int] = {}
    for i in range(1500):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - start


def import_time() -> float:
    """Wall time of `import markovkit.cli` in a fresh interpreter."""
    start = time.perf_counter()
    # no timeout: waiting with one polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", "import markovkit.cli"],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def run_op(cli, op):
    """(latency s, failure reason or None, stdout, stderr) of one operation."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(op.argv))
    latency = time.perf_counter() - start
    return latency, workloads.check_report(op, code, out.getvalue()), \
        out.getvalue(), err.getvalue()


class Passes:
    """Results of whole passes over one operation list."""

    def __init__(self, ops, reference: list[float] | None = None):
        self.ops = ops
        self.reference = reference  # reference_kernel() times, if wanted
        self.walls: list[float] = []
        self.latencies: dict[str, list[float]] = {}  # successful runs, by op
        self.attempted = 0
        self.succeeded = 0
        self.failures: dict[str, str] = {}  # op name -> first reason
        self.unexpected: dict[str, str] = {}
        self.reports: dict[str, list[str]] = {}  # op name -> stdout per pass

    def run(self, cli, tracer=None) -> None:
        start = time.perf_counter()
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = i
            latency, reason, stdout, stderr = run_op(cli, op)
            if self.reference is not None:
                self.reference.append(reference_kernel())
            self.attempted += 1
            self.reports.setdefault(op.name, []).append(stdout)
            if reason is None:
                self.succeeded += 1
                self.latencies.setdefault(op.name, []).append(latency)
                continue
            self.failures.setdefault(op.name, reason)
            known = (op.ki_defect_prone and reason == "exit 2"
                     and workloads.KI_DEFECT_MESSAGE in stderr)
            if not known:
                self.unexpected.setdefault(
                    op.name, f"{reason}: {stderr.strip()[:300]}")
        self.walls.append(time.perf_counter() - start)

    @property
    def failed(self) -> int:
        return self.attempted - self.succeeded

    def typical(self) -> list[float]:
        """Each successful operation's median latency over the passes, in s."""
        return [statistics.median(runs) for runs in self.latencies.values()]

    def tail(self, pct: float, scale: float = 1.0) -> float:
        """pct-th percentile of the median latencies, in ms."""
        return float(np.percentile(self.typical(), pct)) * 1000.0 * scale

    def runs_above(self, pct: float) -> int:
        """Runs of the operations whose median lies above the tail."""
        tail = self.tail(pct) / 1000.0
        return sum(len(runs) for runs in self.latencies.values()
                   if statistics.median(runs) > tail)

    def ops_per_s(self, scale: float = 1.0) -> float:
        """Successful operations per second of a pass at median latencies."""
        typical = self.typical()
        return len(typical) / (scale * math.fsum(typical))

    def deterministic(self) -> bool:
        """Every operation printed the same bytes on every pass."""
        return all(len(set(outs)) == 1 for outs in self.reports.values())


def run_for(cli, ops, seconds: float, min_passes: int = 1, tail_pct=None,
            reference=None, setup=None) -> Passes:
    """Whole passes until `seconds` have elapsed, and until at least
    TAIL_SAMPLES runs lie above the tail_pct-th percentile, if given.

    With a `setup` list, SETUP_REPEATS import times are taken between
    passes, spread over the run like the operations themselves.
    """
    passes = Passes(ops, reference)
    start = time.perf_counter()
    while (len(passes.walls) < min_passes
           or time.perf_counter() - start < seconds
           or (tail_pct is not None and passes.runs_above(tail_pct) < TAIL_SAMPLES)):
        passes.run(cli)
        if setup is not None:
            due = SETUP_REPEATS * min(1.0, (time.perf_counter() - start) / seconds)
            while len(setup) < due:
                setup.append(import_time())
                reference.append(reference_kernel())
    return passes


def warm_up(cli, ops) -> Passes:
    """One run of each subcommand: lazy imports and first-call set-up."""
    first = {}
    for op in ops:
        first.setdefault(op.argv[0], op)
    warm = Passes(list(first.values()))
    warm.run(cli)
    return warm


def recover_errors(passes: Passes) -> list[float]:
    return [json.loads(outs[0])["error"] for name, outs in passes.reports.items()
            if name.startswith("recover/") and outs[0]]


def environment() -> dict:
    blas = {}
    with contextlib.suppress(Exception):  # numpy's build record is optional
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(), "cpu": cpu,
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "jobs": 1, "clients": 1}


def end_to_end(cli, ops, workload, seed: int, seconds: float, workdir: Path):
    import_time()  # writes the bytecode caches
    warm = warm_up(cli, ops)
    reference: list[float] = []
    setup: list[float] = []
    passes = run_for(cli, ops, seconds, tail_pct=workload.tail_pct,
                     reference=reference, setup=setup)
    setup_raw = statistics.median(setup)
    passes.unexpected.update(warm.unexpected)
    if workload.name == "recovery":
        errors = recover_errors(passes)
    else:  # the same recover operations, untimed
        probe = Passes([op for op in workloads.build_ops("recovery", seed, workdir)
                        if op.name.startswith("recover/")])
        probe.run(cli)
        passes.unexpected.update(probe.unexpected)
        errors = recover_errors(probe)
    scale = REFERENCE_S / statistics.median(reference)
    typical_ms = [1000.0 * scale * x for x in passes.typical()]
    metrics = {
        "ops_per_s": passes.ops_per_s(scale),
        "op_p50_ms": statistics.median(typical_ms),
        "op_tail_ms": passes.tail(workload.tail_pct, scale),
        "ok_frac": passes.succeeded / passes.attempted,
        "setup_s": scale * setup_raw,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "recover_error_mean": statistics.fmean(errors),
    }
    notes = {"passes": len(passes.walls), "samples": passes.succeeded,
             "pass_walls_s": [round(w, 4) for w in passes.walls],
             "tail_percentile": workload.tail_pct,
             "runs_above_tail": passes.runs_above(workload.tail_pct),
             "failed_frac": passes.failed / passes.attempted,
             "recover_ops": len(errors),
             "time_scale": scale, "reference_runs": len(reference),
             "reference_median_s": statistics.median(reference),
             "unscaled": {"ops_per_s": passes.ops_per_s(), "setup_s": setup_raw}}
    return passes, metrics, END_TO_END, notes


def traced(cli, ops, seconds: float, spans_path: Path):
    warm = warm_up(cli, ops)
    plain_reference: list[float] = []
    plain = run_for(cli, ops, seconds / 2, min_passes=2, reference=plain_reference)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    snapshots = [tracer.snapshot()]
    traced_reference: list[float] = []
    try:
        passes = Passes(ops, traced_reference)
        start = time.perf_counter()
        while len(passes.walls) < 2 or time.perf_counter() - start < seconds / 2:
            passes.run(cli, tracer)
            snapshots.append(tracer.snapshot())
    finally:
        tracing.uninstall(undo)
    tracer.write_spans(spans_path)
    per_pass = [{k: after[k] - before[k] for k in after}
                for before, after in zip(snapshots, snapshots[1:])]
    counts_repeat = all(p == per_pass[0] for p in per_pass)
    if not counts_repeat:
        passes.unexpected["trace"] = "call or work counts differ between passes"
    if any(plain.reports[name][0] != outs[0] for name, outs in passes.reports.items()):
        passes.unexpected["trace"] = "tracing changed a report"
    passes.unexpected.update(warm.unexpected)
    passes.unexpected.update(plain.unexpected)
    metrics = tracing.layer_metrics(tracer, len(passes.walls))
    metrics["trace.ops_per_s_untraced"] = plain.ops_per_s(
        REFERENCE_S / statistics.median(plain_reference))
    metrics["trace.ops_per_s_traced"] = passes.ops_per_s(
        REFERENCE_S / statistics.median(traced_reference))
    metrics["trace.overhead_ops_per_s"] = (metrics["trace.ops_per_s_untraced"]
                                           - metrics["trace.ops_per_s_traced"])
    units = {name: unit for name, unit, _ in tracing.metric_names()}
    notes = {"untraced_passes": len(plain.walls), "traced_passes": len(passes.walls),
             "spans": len(tracer.cols["id"]), "spans_file": str(spans_path),
             "counts_repeat": counts_repeat}
    return passes, metrics, units, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"inputs-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        ops = workloads.build_ops(args.workload, args.seed, workdir)
        if args.trace:
            passes, metrics, units, notes = traced(
                cli, ops, args.seconds, OUT / f"spans-{tag}.tsv")
        else:
            passes, metrics, units, notes = end_to_end(
                cli, ops, workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not passes.deterministic():
        passes.unexpected["determinism"] = "an operation's report changed between passes"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "notes": notes,
              "failures": passes.failures, "unexpected_failures": passes.unexpected,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"environment: {json.dumps(record['environment'])}")
    print(f"notes: {json.dumps(notes)}")
    for name, reason in sorted(passes.failures.items()):
        known = "" if name in passes.unexpected else " (known ki_decompose defect)"
        print(f"failed: {name}: {reason}{known}")
    for name, reason in sorted(passes.unexpected.items()):
        print(f"UNEXPECTED: {name}: {reason}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value!r} {units[name]}")
    print(json.dumps({"correct": not passes.unexpected,
                      "attempted": passes.attempted, "failed": passes.failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
