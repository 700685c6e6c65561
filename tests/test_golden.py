"""Golden command-line reports.

tests/golden/ holds one file per command of tools/cli_diff.py's command
list at seed 0: its argv, exit code, stderr, and its stdout and written
files parsed, with paths made relative.  The list runs again here, once,
in one fresh interpreter with one BLAS thread, and must match them by
cli_diff's rules: exit codes, stderr and every non-float field exactly,
floats to 1e-12 (absolute, or relative above magnitude 1).  A change that
moves a report regenerates the files with
``python3 tools/cli_diff.py --write-golden tests/golden`` in the same diff;
the records that did not move keep their files' bytes.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

_spec = importlib.util.spec_from_file_location("cli_diff", ROOT / "tools" / "cli_diff.py")
cli_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_diff)


def test_command_line_reports_match_the_goldens():
    problems = cli_diff.golden_problems(GOLDEN)
    assert not problems, f"{len(problems)} differences:\n" + "\n".join(problems[:40])


def test_a_moved_float_a_changed_field_and_a_new_exit_code_are_caught():
    golden = {"argv": ["qcmi", "x.json"], "exit_code": 0, "stderr": "",
              "stdout": {"qcmi_bits": 0.5, "schema": "markovkit/1"}, "files": {}}
    within = dict(golden, stdout={"qcmi_bits": 0.5 + 5e-13, "schema": "markovkit/1"})
    moved = dict(golden, stdout={"qcmi_bits": 0.5 + 2e-12, "schema": "markovkit/1"})
    renamed = dict(golden, stdout={"qcmi_bits": 0.5, "schema": "markovkit/2"})
    failed = dict(golden, exit_code=1, stderr="boom\n")
    wrote = dict(golden, files={"out.json": {}})

    def problems(new):
        found: list = []
        cli_diff.compare_records(golden, new, "qcmi x.json", 1e-12, {}, found)
        return found

    assert problems(golden) == [] and problems(within) == []
    for new in (moved, renamed, wrote):
        assert len(problems(new)) == 1
    assert len(problems(failed)) == 2


def test_regeneration_rewrites_only_new_and_moved_records(tmp_path, monkeypatch):
    def rec(argv, bits):
        return {"argv": argv, "exit_code": 0, "stderr": "",
                "stdout": {"qcmi_bits": bits, "schema": "markovkit/1"}, "files": {}}

    monkeypatch.setattr(cli_diff, "golden_records", lambda: [
        rec(["qcmi", "a.json"], 0.5), rec(["qcmi", "b.json"], 0.25),
        rec(["qcmi", "c.json"], 0.125)])
    assert cli_diff.write_golden(tmp_path) == 3
    before = {p.name: p.read_text() for p in tmp_path.iterdir()}

    monkeypatch.setattr(cli_diff, "golden_records", lambda: [
        rec(["qcmi", "a.json"], 0.5 + 1e-15), rec(["qcmi", "b.json"], 0.25 + 1e-9)])
    assert cli_diff.write_golden(tmp_path) == 1
    after = {p.name: p.read_text() for p in tmp_path.iterdir()}
    assert sorted(after) == ["000-qcmi_a.json.json", "001-qcmi_b.json.json"]
    assert after["000-qcmi_a.json.json"] == before["000-qcmi_a.json.json"]
    assert json.loads(after["001-qcmi_b.json.json"])["stdout"]["qcmi_bits"] == 0.25 + 1e-9
