"""Compare markovkit command-line reports between two source trees.

    python3 tools/cli_diff.py OLD_TREE NEW_TREE [--tol 1e-12] [--seeds 0,1,2]
    python3 tools/cli_diff.py --write-golden DIR

Each tree is a checkout with its package under src/markovkit.  One fixed
command list runs through the tree's in-process ``markovkit.cli.main``, one
tree at a time, each in its own interpreter with one BLAS thread and
MARKOVKIT_TOL unset.  The list is every operation of the benchmark's three
workloads (bench/workloads.py of this checkout) for each seed, and info,
qcmi, ki --part A and C, markov-check, markov-decompose, recover in both
directions, cost, and markovianize and measure-sim at -n 1 and 2 on each
tests/data/*.json of this checkout, the harnesses that draw their own
states (verify appendix-a at the default dims and at --dims 3,2,2, verify
lemma1 at the default dims, verify lemma6 at -n 1 and 2 with and without
--eps, with --eps 0.05 at --dims 2,3,2 and 3,3,3, with --eps 0.3, and at
--dims 3,2,2, where the correlated inputs leave rho_A a kernel, without
--eps and at -n 2 with --eps 0.05, and probe-conjecture at the default dims
and at --dims 2,3,2).  Then the output paths: random-state with default, ranked and pure-labelled draws; --tol,
MARKOVKIT_TOL and both set to a value; --out for a report and for a drawn
state; markovianize --save-output at -n 1 and 2; probe-conjecture --csv;
cost, markovianize, measure-sim and info on a density file that is a pure
projector (near_cutoff_b's vector made into its density); and measure-sim
--zeta-trials 6, which runs each zeta family twice, on a random pure
(2,2,2) vector file drawn from a fixed seed; and measure-sim and
markovianize --save-output on a pure (3,2,2) vector file whose rho_A has
rank 2, so the twirl's completion on the kernel of rho_A is reached;
and markovianize --save-output at -n 3 on bell_ac, a 64 x 64 output.
Last come a few invocations that must fail while parsing, loading,
resolving a subsystem label, reading a grouping (a repeated label, a
non-partition, four groups), reading a tolerance (--tol 0,
MARKOVKIT_TOL=abc) or matching --labels to --dims, and, appended last so
that no earlier command moves, qcmi on a state file whose matrix holds a
string leaf, so the exit codes and stderr of that path are compared too.
A command's leading NAME=VALUE words set environment variables for that
call alone.  The files a command writes go to one directory, and each
call's files are read back and removed before the next call.
Each tree's interpreter then runs the whole list a second time, so every
command also runs after the failing ones and after its own first call.

Exit codes, stderr, the names of the written files and every non-float
field of a report or written file must be identical, and floats must agree
to --tol (absolute, or relative above magnitude 1).  Stdout and written
files are read as JSON, or else as CSV rows whose numeric cells are
numbers.  A command whose second (exit code, stdout, stderr, written
files) in one tree differs from its first is a cross-call mismatch.

The summary opens with the total line count of src/markovkit/*.py in each
tree, as wc -l counts them, next to its code-only count (blank lines,
comment-only lines and docstrings excluded, the docstrings found with ast),
so a "src shrinks" gate reads off the same run and trimmed prose does not
pass for a smaller program, and then each module's code-only count in both
trees, so the gate shows where code left and where it landed (a module
only one tree has counts 0 in the other), with its count of top-level
functions and classes and of the methods in those classes, read with ast
as well, so a "fewer concepts" aim reads off the same run; then it gives
the counts, then each subcommand
whose stdout or written files changed in some command, as
"k of n changed" over its n commands (so a gate such as "only markov-check
moved" reads straight off it), then each command that fails at OLD with
its exit code, error type and message (a command failing on both sides
passes while comparing only stderr, so a stale flag shows up there), then
the largest float change per field name, every mismatch and every
cross-call mismatch.
Exits 1 when anything differs beyond that or any cross-call mismatch is
found, else 0.

--write-golden DIR runs the list at seed 0 once through this checkout
and keeps one JSON file per command in DIR: the argv, exit code, stderr,
and stdout and written files parsed as above, with the work directory's
and this checkout's paths made relative.  A file whose record still
matches by the rules above at 1e-12 keeps its bytes; only new or moved
records are written, and the files of commands that left the list are
removed.  tests/test_golden.py runs the list again and compares it with
the files in tests/golden/ by the rules above (golden_problems).
Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# the directory, under the list's workdir, that every command writes to
WRITTEN = "written"
# the golden reports: the list at these seeds, one file per command
GOLDEN_SEEDS = (0,)
GOLDEN_GLOB = "[0-9][0-9][0-9]-*.json"
DATA_COMMANDS = (
    ("info",), ("qcmi",), ("ki", "--part", "A"), ("ki", "--part", "C"),
    ("markov-check",), ("markov-decompose",),
    ("recover", "--direction", "from-bc"), ("recover", "--direction", "from-ab"), ("cost",),
    ("markovianize", "-n", "1"), ("markovianize", "-n", "2"), ("measure-sim",),
    ("measure-sim", "-n", "2"),
)
HARNESS_COMMANDS = (
    ("verify", "appendix-a", "--trials", "8"), ("verify", "lemma6", "--trials", "6"),
    ("verify", "lemma6", "--trials", "3", "--eps", "0.05"),
    ("verify", "lemma6", "--trials", "3", "--eps", "0.05", "--dims", "2,3,2"),
    ("verify", "lemma6", "--trials", "3", "--eps", "0.05", "--dims", "3,3,3"),
    ("verify", "lemma6", "--trials", "3", "--eps", "0.3"),
    ("verify", "lemma6", "--trials", "3", "-n", "2"),
    ("verify", "lemma6", "--trials", "3", "-n", "2", "--eps", "0.05"),
    ("verify", "lemma6", "--trials", "6", "--dims", "3,2,2"),
    ("verify", "lemma6", "--trials", "6", "-n", "2", "--eps", "0.05", "--dims", "3,2,2"),
    ("verify", "appendix-a", "--trials", "4", "--dims", "3,2,2"),
    ("verify", "lemma1", "--trials", "3"),
    ("probe-conjecture", "--trials", "6"),
    ("probe-conjecture", "--trials", "4", "--dims", "2,3,2"),
)
FAILING_COMMANDS = (
    ("qcmi",), ("frobnicate",), ("verify", "lemma7"),
    ("verify", "appendix-a", "--dims", "2,2"),
    ("markovianize", str(ROOT / "tests" / "data" / "ghz.json"), "-n", "0"),
    ("qcmi", str(ROOT / "tests" / "data" / "no-such-state.json")),
    ("markov-check", str(ROOT / "tests" / "data" / "ghz.json"), "--cond", "Q"),
    ("qcmi", str(ROOT / "tests" / "data" / "ghz.json"), "--split", "A|B|Q"),
    ("qcmi", str(ROOT / "tests" / "data" / "ghz.json"), "--split", "A|B|B"),
    ("recover", str(ROOT / "tests" / "data" / "ghz.json"), "--split", "A|B"),
    ("cost", str(ROOT / "tests" / "data" / "ghz.json"), "--split", "A|B|C|"),
    ("qcmi", str(ROOT / "tests" / "data" / "ghz.json"), "--tol", "0"),
    ("MARKOVKIT_TOL=abc", "qcmi", str(ROOT / "tests" / "data" / "ghz.json")),
    ("random-state", "--dims", "2,2", "--labels", "A,B,C"),
)


def _projector_file(vector_file: Path, path: Path) -> str:
    """Write the density file of a vector state file; return its path."""
    payload = json.loads(vector_file.read_text())
    vec = np.array([re + 1j * im for re, im in payload.pop("vector")])
    mat = np.outer(vec, vec.conj())
    payload["matrix"] = np.stack([mat.real, mat.imag], axis=-1).tolist()
    path.write_text(json.dumps(payload))
    return str(path)


def _random_pure_file(path: Path) -> str:
    """Write a random pure (2,2,2) vector file on (A, B, C), drawn from a
    fixed seed; return its path."""
    rng = np.random.default_rng(0)
    vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    vec /= np.linalg.norm(vec)
    path.write_text(json.dumps({
        "systems": [{"name": name, "dim": 2} for name in "ABC"],
        "vector": np.stack([vec.real, vec.imag], axis=-1).tolist()}))
    return str(path)


def _kernel_pure_file(path: Path) -> str:
    """Write a pure (3,2,2) vector file on (A, B, C) whose rho_A has rank 2,
    sqrt(0.7)|000> + sqrt(0.3)|111> dressed by local unitaries drawn from a
    fixed seed; return its path."""
    rng = np.random.default_rng(1)
    vec = np.zeros((3, 2, 2), dtype=complex)
    vec[0, 0, 0], vec[1, 1, 1] = np.sqrt(0.7), np.sqrt(0.3)
    for axis, d in enumerate(vec.shape):
        u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        vec = np.moveaxis(np.tensordot(u, vec, axes=(1, axis)), 0, axis)
    path.write_text(json.dumps({
        "systems": [{"name": name, "dim": d} for name, d in zip("ABC", vec.shape)],
        "vector": np.stack([vec.real, vec.imag], axis=-1).reshape(-1, 2).tolist()}))
    return str(path)


def output_commands(workdir: Path) -> list[list[str]]:
    """Commands that draw a state, set the tolerance, write files or read a
    pure density file or a random pure vector file (one of them with a
    kernel on A); their files go to
    workdir / WRITTEN."""
    data = ROOT / "tests" / "data"
    ghz, near = str(data / "ghz.json"), str(data / "near_cutoff_b.json")
    bell_ac = str(data / "bell_ac.json")
    out = workdir / WRITTEN
    out.mkdir()
    projector = _projector_file(data / "near_cutoff_b.json", workdir / "projector.json")
    kernel = _kernel_pure_file(workdir / "kernel322.json")
    return [
        ["random-state"], ["random-state", "--dims", "2,3,2", "--rank", "2", "--seed", "5"],
        ["random-state", "--pure", "--dims", "3,2,2", "--labels", "X,Y,Z", "--seed", "7"],
        ["qcmi", near, "--tol", "1e-6"], ["markov-check", near, "--tol", "1e-8"],
        ["MARKOVKIT_TOL=1e-7", "recover", near],
        ["MARKOVKIT_TOL=1e-7", "markov-check", near, "--tol", "1e-9"],
        ["qcmi", ghz, "--out", str(out / "qcmi.json")],
        ["random-state", "--dims", "2,2,2", "--out", str(out / "random.json")],
        ["markovianize", near, "-n", "1", "--save-output", str(out / "twirl1.json")],
        ["markovianize", ghz, "-n", "2", "--save-output", str(out / "twirl2.json")],
        ["probe-conjecture", "--trials", "3", "--csv", str(out / "probe.csv")],
        ["info", projector], ["cost", projector], ["markovianize", projector],
        ["measure-sim", projector],
        ["measure-sim", _random_pure_file(workdir / "pure222.json"), "--zeta-trials", "6"],
        ["measure-sim", kernel], ["markovianize", kernel, "--save-output", str(out / "kernel.json")],
        ["markovianize", bell_ac, "-n", "3", "--save-output", str(out / "twirl3.json")],
    ]


def build_commands(seeds, workdir: Path) -> list[list[str]]:
    """The fixed command list; workload input files go into workdir."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    commands = []
    for seed in seeds:
        for name in sorted(workloads.WORKLOADS):
            sub = workdir / f"{name}-{seed}"
            sub.mkdir()
            commands += [list(op.argv) for op in workloads.build_ops(name, seed, sub)]
    for path in sorted((ROOT / "tests" / "data").glob("*.json")):
        commands += [[cmd[0], str(path), *cmd[1:]] for cmd in DATA_COMMANDS]
    commands += [list(cmd) for cmd in HARNESS_COMMANDS]
    bad_leaf = workdir / "bad_leaf.json"
    bad_leaf.write_text(json.dumps({"systems": [{"name": "A", "dim": 1}],
                                    "matrix": [[["x", 0.0]]]}))
    return (commands + output_commands(workdir) + [list(cmd) for cmd in FAILING_COMMANDS]
            + [["qcmi", str(bad_leaf)]])


def split_env(argv: list[str]) -> tuple[dict[str, str], list[str]]:
    """(environment assignments, the command) of an argv whose leading
    NAME=VALUE words set environment variables."""
    env = {}
    while argv and "=" in argv[0] and argv[0].split("=", 1)[0].isidentifier():
        name, value = argv[0].split("=", 1)
        env[name], argv = value, argv[1:]
    return env, argv


def run_command(cli, argv: list[str], written: Path) -> list:
    """(code, out, err, {file name: text}) of one call through cli.main,
    with its environment assignments set for that call alone; the files it
    wrote to written are read back and removed."""
    env, argv = split_env(argv)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    files = {}
    for path in sorted(written.iterdir()):
        files[path.name] = path.read_text()
        path.unlink()
    return [code, out.getvalue(), err.getvalue(), files]


def collect(tree: Path, commands_file: Path, out_file: Path, passes: int) -> None:
    """Run the command list passes times through tree's cli.main in this one
    interpreter; write every pass's (code, out, err, files) per command.
    The list's workdir is the directory of commands_file."""
    sys.path.insert(0, str(tree / "src"))
    import markovkit.cli as cli

    if Path(cli.__file__).resolve().parent != (tree / "src" / "markovkit").resolve():
        sys.exit(f"cli_diff: imported {cli.__file__}, not {tree}")
    commands = json.loads(commands_file.read_text())
    written = commands_file.parent / WRITTEN
    out_file.write_text(json.dumps(
        [[run_command(cli, argv, written) for argv in commands] for _ in range(passes)]))


def child_env() -> dict[str, str]:
    """This environment with one BLAS thread and MARKOVKIT_TOL unset, for the
    interpreter that runs the list."""
    env = {k: v for k, v in os.environ.items() if k != "MARKOVKIT_TOL"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_tree(tree: Path, commands_file: Path, out_file: Path, passes: int = 2) -> list[list]:
    """The tree's passes over the command list, from a fresh interpreter."""
    subprocess.run([sys.executable, __file__, "--collect", str(tree),
                    str(commands_file), str(out_file), str(passes)], env=child_env(),
                   check=True)
    return json.loads(out_file.read_text())


def compare(a, b, path: str, tol: float, floats: dict, problems: list) -> None:
    """Walk two parsed reports; floats go to floats[field], the rest must match."""
    if isinstance(a, float) and isinstance(b, float):
        diff = abs(a - b)
        field = path.rsplit(".", 1)[-1].split("[", 1)[0]
        if diff > floats.get(field, (0.0, ""))[0]:
            floats[field] = (diff, path)
        if not diff <= tol * max(1.0, abs(a), abs(b)):
            problems.append(f"{path}: {a!r} -> {b!r}")
    elif isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            compare(a[key], b[key], f"{path}.{key}", tol, floats, problems)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            compare(x, y, f"{path}[{i}]", tol, floats, problems)
    elif type(a) is not type(b) or a != b:
        problems.append(f"{path}: {a!r} -> {b!r}")


def _cell(text: str):
    """A CSV cell as an int or a float when it reads as one."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse_output(text: str):
    """A report or written file as JSON, or else as CSV rows."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return [[_cell(c) for c in row] for row in csv.reader(io.StringIO(text))]


def record(argv: list[str], result: list, roots: list[Path]) -> dict:
    """One command's argv and (code, out, err, files) as compared: stdout
    and written files parsed, and every path below a root made relative."""
    def rel(text: str) -> str:
        for root in sorted(map(str, roots), key=len, reverse=True):
            text = text.replace(root + os.sep, "")
        return text

    code, out, err, files = result
    return {"argv": [rel(a) for a in argv], "exit_code": code,
            "stdout": parse_output(rel(out)), "stderr": rel(err),
            "files": {name: parse_output(rel(text)) for name, text in files.items()}}


def compare_records(a: dict, b: dict, name: str, tol: float, floats: dict,
                    problems: list) -> None:
    """Compare two records of one command: exit code, stderr and the names
    of the written files exactly, stdout and each written file by compare."""
    if a["exit_code"] != b["exit_code"]:
        problems.append(f"{name}: exit {a['exit_code']} -> {b['exit_code']}")
    if a["stderr"] != b["stderr"]:
        problems.append(f"{name}: stderr {a['stderr']!r} -> {b['stderr']!r}")
    if a["files"].keys() != b["files"].keys():
        problems.append(f"{name}: wrote {sorted(a['files'])} -> {sorted(b['files'])}")
    compare(a["stdout"], b["stdout"], name, tol, floats, problems)
    for file in a["files"].keys() & b["files"].keys():
        compare(a["files"][file], b["files"][file], f"{name} > {file}", tol, floats,
                problems)


def _display(argv: list[str]) -> str:
    """A command as the summary names it: each path by its file name."""
    return " ".join(Path(a).name if "/" in a else a for a in argv)


def golden_records() -> list[dict]:
    """The record of every command of the list at GOLDEN_SEEDS, run once
    through this checkout's cli.main in a fresh interpreter, with the work
    directory's and this checkout's paths made relative."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        commands = build_commands(GOLDEN_SEEDS, tmp)
        commands_file = tmp / "commands.json"
        commands_file.write_text(json.dumps(commands))
        (results,) = run_tree(ROOT, commands_file, tmp / "out.json", passes=1)
    return [record(argv, result, [tmp, ROOT]) for argv, result in zip(commands, results)]


def write_golden(directory: Path) -> int:
    """Bring the golden files in directory to this checkout's records.

    Fresh records are matched to the old files by argv, in list order.  A
    record that compare_records finds unchanged at 1e-12 keeps its old
    file's bytes, so rounding noise between machines rewrites nothing; a new
    or moved record is written, and the file of a command that left the list
    is removed.  Returns how many files were written."""
    directory.mkdir(parents=True, exist_ok=True)
    old = {path: path.read_text() for path in sorted(directory.glob(GOLDEN_GLOB))}
    by_argv: dict[tuple, list[str]] = {}
    for text in old.values():
        by_argv.setdefault(tuple(json.loads(text)["argv"]), []).append(text)
    written = 0
    for i, rec in enumerate(golden_records()):
        slug = re.sub(r"[^\w.,=+-]+", "_", _display(rec["argv"])).strip("_")[:72]
        path = directory / f"{i:03d}-{slug}.json"
        texts, problems = by_argv.get(tuple(rec["argv"])), []
        text = texts.pop(0) if texts else None
        if text is not None:
            compare_records(json.loads(text), rec, path.name, 1e-12, {}, problems)
        if text is None or problems:
            text = json.dumps(rec, indent=1, sort_keys=True) + "\n"
        if old.pop(path, None) != text:
            path.write_text(text)
            written += 1
    for path in old:
        path.unlink()
    return written


def golden_problems(directory: Path) -> list[str]:
    """Every difference between this checkout's records and the golden files
    in directory, by compare_records at 1e-12; empty when they agree."""
    golden = [json.loads(p.read_text()) for p in sorted(directory.glob(GOLDEN_GLOB))]
    fresh = golden_records()
    names = [[rec["argv"] for rec in recs] for recs in (golden, fresh)]
    if names[0] != names[1]:
        return [f"the command list differs from the {len(golden)} golden files in {directory}"]
    problems: list[str] = []
    for old, new in zip(golden, fresh):
        compare_records(old, new, _display(new["argv"]), 1e-12, {}, problems)
    return problems


def source_lines(tree: Path) -> dict[str, tuple[int, int, int]]:
    """Per module of tree's src/markovkit/*.py, its newline count, as wc -l
    gives it, the count of its lines holding code: not blank, not only a
    comment and not inside a module, class or function docstring, and its
    count of concepts: top-level functions and classes, and the methods
    defined in those classes' bodies."""
    defs = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    counts = {}
    for path in sorted((tree / "src" / "markovkit").glob("*.py")):
        text = path.read_text()
        module = ast.parse(text)
        docs = set()
        for node in ast.walk(module):
            if isinstance(node, (ast.Module,) + defs) and ast.get_docstring(node) is not None:
                docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        top = [node for node in module.body if isinstance(node, defs)]
        concepts = len(top) + sum(isinstance(member, defs[1:]) for node in top
                                  if isinstance(node, ast.ClassDef) for member in node.body)
        counts[path.stem] = (text.count("\n"), sum(
            1 for i, line in enumerate(text.splitlines(), 1)
            if i not in docs and line.strip() and not line.lstrip().startswith("#")), concepts)
    return counts


def _error_summary(stderr: str) -> str:
    """'type: message' of a command's error object, or its raw stderr."""
    try:
        error = json.loads(stderr)["error"]
        return f"{error['type']}: {error['message']}"
    except (json.JSONDecodeError, KeyError, TypeError):
        return f"stderr {stderr.strip()!r}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, nargs="?")
    parser.add_argument("new", type=Path, nargs="?")
    parser.add_argument("--tol", type=float, default=1e-12)
    parser.add_argument("--seeds", default="0,1,2")
    parser.add_argument("--write-golden", type=Path, metavar="DIR")
    args = parser.parse_args(argv)
    if args.write_golden is not None:
        print(f"wrote {write_golden(args.write_golden)} new or moved golden files to "
              f"{args.write_golden}")
        return 0
    if args.new is None:
        parser.error("OLD_TREE and NEW_TREE are required without --write-golden")

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        commands = build_commands([int(s) for s in args.seeds.split(",")], tmp)
        commands_file = tmp / "commands.json"
        commands_file.write_text(json.dumps(commands))
        old, old_again = run_tree(args.old.resolve(), commands_file, tmp / "old.json")
        new, new_again = run_tree(args.new.resolve(), commands_file, tmp / "new.json")

    names = [_display(argv) for argv in commands]
    rerun: list[str] = []
    for side, firsts, agains in (("OLD", old, old_again), ("NEW", new, new_again)):
        for name, first, again in zip(names, firsts, agains):
            changed = [part for part, x, y in zip(
                ("exit code", "stdout", "stderr", "written files"), first, again) if x != y]
            if changed:
                rerun.append(f"{side} {name}: second call changed {', '.join(changed)}")
    floats: dict[str, tuple[float, str]] = {}
    problems: list[str] = []
    # subcommand -> [commands whose stdout or files changed, commands]
    by_subcommand: dict[str, list[int]] = {}
    failing: list[str] = []
    for argv, name, (code_a, out_a, err_a, files_a), (code_b, out_b, err_b, files_b) in zip(
            commands, names, old, new):
        if code_a != 0:
            failing.append(f"{name}: exit {code_a}, {_error_summary(err_a)}")
        tally = by_subcommand.setdefault(split_env(argv)[1][0], [0, 0])
        tally[0] += (out_a, files_a) != (out_b, files_b)
        tally[1] += 1
        compare_records(record(argv, [code_a, out_a, err_a, files_a], []),
                        record(argv, [code_b, out_b, err_b, files_b], []),
                        name, args.tol, floats, problems)

    same_bytes = len(commands) - sum(k for k, _ in by_subcommand.values())
    per_old, per_new = source_lines(args.old), source_lines(args.new)
    (lines_old, code_old, _), (lines_new, code_new, _) = (
        map(sum, zip(*per.values())) for per in (per_old, per_new))
    print(f"src/markovkit/*.py: {lines_old} -> {lines_new} lines "
          f"({lines_new - lines_old:+d}), {code_old} -> {code_new} code-only "
          f"({code_new - code_old:+d})")
    for name in sorted(per_old.keys() | per_new.keys()):
        (_, old_code, old_defs), (_, new_code, new_defs) = (
            per.get(name, (0, 0, 0)) for per in (per_old, per_new))
        print(f"  {name}.py: {old_code} -> {new_code} code-only ({new_code - old_code:+d}), "
              f"{old_defs} -> {new_defs} functions, classes and methods "
              f"({new_defs - old_defs:+d})")
    print(f"{len(commands)} commands, {same_bytes} byte-identical in stdout and written files")
    for sub, (k, total) in sorted(by_subcommand.items()):
        if k:
            print(f"  {sub}: {k} of {total} changed")
    print(f"{len(failing)} failing at OLD")
    for line in failing:
        print(f"  {line}")
    print("largest float change per field:")
    for field, (diff, where) in sorted(floats.items(), key=lambda kv: -kv[1][0]):
        if diff > 0.0:
            print(f"  {field}: {diff:.3e}  ({where})")
    print(f"{len(problems)} differences beyond --tol {args.tol:g} or in non-float fields")
    for line in problems:
        print(f"  {line}")
    print(f"{len(rerun)} cross-call mismatches (second call in one interpreter)")
    for line in rerun:
        print(f"  {line}")
    return 1 if problems or rerun else 0


if __name__ == "__main__":
    if len(sys.argv) == 6 and sys.argv[1] == "--collect":
        collect(Path(sys.argv[2]), Path(sys.argv[3]), Path(sys.argv[4]), int(sys.argv[5]))
    else:
        sys.exit(main())
