"""List what the golden command list leaves unreached in src/markovkit.

    python3 tools/reach.py

Builds tools/cli_diff.py's command list at seed 0, the list tests/golden/
holds, and runs it once through this checkout's in-process
``markovkit.cli.main`` in a fresh interpreter with one BLAS thread and
MARKOVKIT_TOL unset.  That interpreter runs under a sys.settrace line
tracer that starts before markovkit is imported, so the lines that run at
import count as reached.

Prints, per module of src/markovkit, the executable lines that no command
reaches (the line starts of the module's compiled code objects), each with
its source and with "raise" marked on the lines of a raise statement.
Then it lists the top-level functions and the methods of top-level
classes that no command enters, as module.qualname.  tests/test_reach.py requires that
list to equal the names it declares, each with its reason.
bench/workloads.py is imported without writing bytecode, so the
benchmark's directory is left untouched.
Standard library and numpy only.
"""

from __future__ import annotations

import ast
import dis
import json
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

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


def collect(commands_file: Path, out_file: Path) -> None:
    """Run the command list under the tracer in this interpreter; write the
    reached [file, line] pairs and the entered [file, first line] pairs of
    the package's code."""
    sys.dont_write_bytecode = True
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
        import markovkit.cli as cli

        written = commands_file.parent / cli_diff.WRITTEN
        for argv in json.loads(commands_file.read_text()):
            cli_diff.run_command(cli, argv, written)
    finally:
        sys.settrace(None)
    if Path(cli.__file__).resolve().parent != PACKAGE:
        sys.exit(f"reach: imported {cli.__file__}, not {PACKAGE}")
    out_file.write_text(json.dumps({"lines": sorted(lines), "calls": sorted(calls)}))


def trace_golden_list() -> tuple[dict[Path, set[int]], set[str]]:
    """({module path: executable lines no command reaches}, the names of
    functions() that no command enters), from one traced run of the list."""
    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        commands_file, out_file = tmp / "commands.json", tmp / "reach.json"
        commands_file.write_text(json.dumps(cli_diff.build_commands(cli_diff.GOLDEN_SEEDS, tmp)))
        subprocess.run([sys.executable, __file__, "--collect", str(commands_file),
                        str(out_file)], env=cli_diff.child_env(), check=True)
        data = json.loads(out_file.read_text())
    reached = {(Path(f), line) for f, line in data["lines"]}
    entered = {(Path(f), line) for f, line in data["calls"]}
    unreached, unentered = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        unreached[path] = {line for line in executable_lines(path) if (path, line) not in reached}
        unentered.update(name for name, first in functions(path).items()
                         if (path, first) not in entered)
    return unreached, unentered


def main() -> int:
    unreached, unentered = trace_golden_list()
    for path, lines in unreached.items():
        text = path.read_text()
        source = text.splitlines()
        raises = {line for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Raise)
                  for line in range(node.lineno, node.end_lineno + 1)}
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
    else:
        sys.exit(main())
