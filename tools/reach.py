"""List what the golden command list leaves unreached in src/markovkit.

    python3 tools/reach.py
    python3 tools/reach.py --tier1

Builds tools/cli_diff.py's command list at seed 0, the list tests/golden/
holds, and runs it once through this checkout's in-process
``markovkit.cli.main`` in a fresh interpreter with one BLAS thread and
MARKOVKIT_TOL unset.  That interpreter runs under a sys.settrace line
tracer that starts before markovkit is imported, so the lines that run at
import count as reached.  The one traced run also keeps each command's
record as tools/cli_diff.py's golden_records makes it, so tests/conftest.py
shares it: tests/test_golden.py compares its records with tests/golden/,
and tests/test_reach.py reads its unentered functions.

Prints, per module of src/markovkit, the executable lines that no command
reaches (the line starts of the module's compiled code objects), each with
its source and with "raise" marked on the lines of a raise statement.
Then it lists the top-level functions and the methods of top-level
classes that no command enters, as module.qualname.  tests/test_reach.py requires that
list to equal the names it declares, each with its reason.

--tier1 also runs the tier-1 suite (tests/ and bench/tests, as pyproject's
testpaths name them) under the same tracer in a second fresh interpreter,
and prints instead each raise statement of src/markovkit that neither the
golden list nor tier-1 reaches.  Traced, tier-1 takes about 45 s on a
2-core machine, so this is a development run, not a test.  Lines run in a
subprocess that a test starts are not traced.

bench/workloads.py is imported without writing bytecode, so the
benchmark's directory is left untouched.
Standard library and numpy only (pytest for --tier1).
"""

from __future__ import annotations

import ast
import contextlib
import dis
import json
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "markovkit"

sys.path.insert(0, str(ROOT / "tools"))
import cli_diff  # noqa: E402


def executable_lines(path: Path) -> set[int]:
    """The line starts of every code object compiled from path (line 0,
    which marks compiler-made instructions, excluded)."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def functions(path: Path) -> dict[str, int]:
    """module.qualname -> first line of the code object (the first
    decorator's, if any) of each top-level function and each method of a
    top-level class in path."""
    out = {}
    for node in ast.parse(path.read_text()).body:
        is_class = isinstance(node, ast.ClassDef)
        for fn in node.body if is_class else [node]:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{node.name}.{fn.name}" if is_class else fn.name
                out[f"{path.stem}.{name}"] = min(
                    [fn.lineno] + [d.lineno for d in fn.decorator_list])
    return out


@contextlib.contextmanager
def line_trace():
    """Trace the package's code run inside the block; yields the sets of
    reached (file, line) pairs and entered (file, first line) pairs, filled
    as it runs.  markovkit must not be imported yet."""
    prefix = str(PACKAGE) + os.sep
    lines: set[tuple[str, int]] = set()
    calls: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        calls.add((code.co_filename, code.co_firstlineno))
        return local

    if any(name.split(".")[0] == "markovkit" for name in sys.modules):
        sys.exit("reach: markovkit was imported before the tracer started")
    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(tracer)
    try:
        yield lines, calls
    finally:
        sys.settrace(None)


def collect(commands_file: Path, out_file: Path) -> None:
    """Run the command list under the tracer in this interpreter; write the
    reached [file, line] pairs, the entered [file, first line] pairs of the
    package's code, and each command's (code, out, err, files)."""
    sys.dont_write_bytecode = True
    with line_trace() as (lines, calls):
        import markovkit.cli as cli

        written = commands_file.parent / cli_diff.WRITTEN
        results = [cli_diff.run_command(cli, argv, written)
                   for argv in json.loads(commands_file.read_text())]
    if Path(cli.__file__).resolve().parent != PACKAGE:
        sys.exit(f"reach: imported {cli.__file__}, not {PACKAGE}")
    out_file.write_text(json.dumps({"lines": sorted(lines), "calls": sorted(calls),
                                    "results": results}))


def collect_tier1(out_file: Path) -> int:
    """Run tier-1 under the tracer in this interpreter; write the reached
    [file, line] pairs of the package's code.  Returns pytest's exit code."""
    import pytest

    sys.dont_write_bytecode = True
    with line_trace() as (lines, _):
        # run from ROOT, so pyproject's testpaths name the suite
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])
    out_file.write_text(json.dumps({"lines": sorted(lines)}))
    return int(code)


class GoldenTrace(NamedTuple):
    """One traced run of the golden command list."""

    records: list[dict]  # per command, as cli_diff.golden_records makes them
    unreached: dict[Path, set[int]]  # module path -> executable lines no command reaches
    unentered: set[str]  # the names of functions() that no command enters


def trace_golden_list() -> GoldenTrace:
    """The golden list's records and what it leaves unreached and
    unentered, from one traced run in a fresh interpreter."""
    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        commands_file, out_file = tmp / "commands.json", tmp / "reach.json"
        commands = cli_diff.build_commands(cli_diff.GOLDEN_SEEDS, tmp)
        commands_file.write_text(json.dumps(commands))
        subprocess.run([sys.executable, __file__, "--collect", str(commands_file),
                        str(out_file)], env=cli_diff.child_env(), check=True)
        data = json.loads(out_file.read_text())
        records = [cli_diff.record(argv, result, [tmp, ROOT])
                   for argv, result in zip(commands, data["results"])]
    reached = {(Path(f), line) for f, line in data["lines"]}
    entered = {(Path(f), line) for f, line in data["calls"]}
    unreached, unentered = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        unreached[path] = {line for line in executable_lines(path) if (path, line) not in reached}
        unentered.update(name for name, first in functions(path).items()
                         if (path, first) not in entered)
    return GoldenTrace(records, unreached, unentered)


def trace_tier1() -> set[tuple[Path, int]]:
    """The (file, line) pairs of the package's code that tier-1 reaches, from
    one traced run in a fresh interpreter."""
    with tempfile.TemporaryDirectory() as tmp:
        out_file = Path(tmp) / "tier1.json"
        # pytest's report goes to stderr, so stdout holds the listing alone
        done = subprocess.run([sys.executable, __file__, "--collect-tier1", str(out_file)],
                              env=cli_diff.child_env(), cwd=ROOT, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"reach: traced tier-1 exited {done.returncode}", file=sys.stderr)
        return {(Path(f), line) for f, line in json.loads(out_file.read_text())["lines"]}


def raise_sites(text: str) -> dict[int, set[int]]:
    """First line -> every line, of each raise statement in a module's text."""
    return {node.lineno: set(range(node.lineno, node.end_lineno + 1))
            for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Raise)}


def print_unreached_raises(unreached: dict[Path, set[int]]) -> None:
    """Each raise statement none of whose executable lines is reached."""
    found = []
    for path, lines in unreached.items():
        text = path.read_text()
        source, executable = text.splitlines(), executable_lines(path)
        found += [f"  {path.relative_to(ROOT)}:{first}  {source[first - 1].strip()}"
                  for first, span in sorted(raise_sites(text).items())
                  if span & executable <= lines]
    print(f"{len(found)} raise statements that neither the golden list nor tier-1 reaches:")
    print("\n".join(found))


def main(argv: list[str]) -> int:
    _, unreached, unentered = trace_golden_list()
    if argv == ["--tier1"]:
        reached = trace_tier1()
        print_unreached_raises({path: {line for line in lines if (path, line) not in reached}
                                for path, lines in unreached.items()})
        return 0
    if argv:
        sys.exit(f"usage: {Path(__file__).name} [--tier1]")
    for path, lines in unreached.items():
        text = path.read_text()
        source = text.splitlines()
        raises = set().union(*raise_sites(text).values())
        print(f"{path.relative_to(ROOT)}: {len(lines)} of {len(executable_lines(path))} "
              f"executable lines unreached")
        for line in sorted(lines):
            mark = "raise" if line in raises else ""
            print(f"  {line:5d} {mark:5s}  {source[line - 1].strip()}")
    print(f"{len(unentered)} functions and methods that no command enters:")
    for name in sorted(unentered):
        print(f"  {name}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--collect":
        collect(Path(sys.argv[2]), Path(sys.argv[3]))
    elif len(sys.argv) == 3 and sys.argv[1] == "--collect-tier1":
        sys.exit(collect_tier1(Path(sys.argv[2])))
    else:
        sys.exit(main(sys.argv[1:]))
