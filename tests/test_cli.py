"""Exit codes, report shapes, and byte determinism of the command line."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from markovkit import channels, cli, protocols
from markovkit.cli import main
from markovkit.qcore import PureState, SystemLayout, random_pure
from markovkit.serialize import load_state, save_state

from helpers import dense_markovianize

DATA = Path(__file__).parent / "data"
GHZ = str(DATA / "ghz.json")
BELL_AC = str(DATA / "bell_ac.json")
PRODUCT = str(DATA / "product.json")
# |0><0|_A (x) diag(0.6, 0.4 + 5e-9, -5e-9)_B (x) |0><0|_C: exactly Markov, and
# it loads, since its lowest eigenvalue is above -verify_tol
NEGATIVE_ROUNDING = str(DATA / "negative_rounding.json")


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("MARKOVKIT_TOL", raising=False)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_qcmi_ghz_example(capsys):
    code, out, err = run_cli(capsys, "qcmi", GHZ, "--split", "A|B|C")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["schema"] == "markovkit/1"
    assert data["qcmi_bits"] == pytest.approx(1.0, abs=1e-9)


def test_cost_bell_example(capsys):
    code, out, _ = run_cli(capsys, "cost", BELL_AC)
    assert code == 0
    data = json.loads(out)
    assert data["m_dec_bits"] == pytest.approx(2.0, abs=1e-9)
    assert data["qcmi_lower"] == pytest.approx(2.0, abs=1e-9)


def test_a_rounding_negative_eigenvalue_reads_as_kernel(capsys):
    code, out, _ = run_cli(capsys, "info", NEGATIVE_ROUNDING)
    assert code == 0 and json.loads(out)["rank"] == 2
    code, out, _ = run_cli(capsys, "ki", NEGATIVE_ROUNDING, "--part", "A")
    assert code == 0 and [b["phi_rank"] for b in json.loads(out)["blocks"]] == [2]
    code, out, _ = run_cli(capsys, "markov-check", NEGATIVE_ROUNDING)
    assert code == 0 and json.loads(out)["markov"] is True


@pytest.mark.parametrize("args", [
    ("recover", "--direction", "from-bc"), ("recover", "--direction", "from-ab"),
    ("markov-decompose",), ("ki", "--part", "B")])
def test_a_state_that_loads_is_not_refused_by_a_spectrum_reader(capsys, args):
    code, _, err = run_cli(capsys, args[0], NEGATIVE_ROUNDING, *args[1:])
    assert (code, err) == (0, "")


def test_vector_files_reach_qcmi_and_cost_as_vectors(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("a vector file became a density")

    monkeypatch.setattr(PureState, "to_density", refuse)
    code, out, _ = run_cli(capsys, "qcmi", BELL_AC)
    assert code == 0
    assert json.loads(out)["qcmi_bits"] == pytest.approx(2.0, abs=1e-12)
    code, out, _ = run_cli(capsys, "cost", BELL_AC)
    assert code == 0
    # the lone Koashi-Imoto block has weight 1 - 2^-52: exactly 0 bits
    assert json.loads(out)["weight_entropy_bits"] == 0.0


def test_markov_check_example(capsys):
    code, out, _ = run_cli(capsys, "markov-check", PRODUCT, "--cond", "B")
    assert code == 0
    data = json.loads(out)
    assert data["markov"] is True
    assert data["qcmi_bits"] == pytest.approx(0.0, abs=1e-9)


def test_default_split_matches_explicit(capsys):
    _, explicit, _ = run_cli(capsys, "qcmi", GHZ, "--split", "A|B|C")
    _, defaulted, _ = run_cli(capsys, "qcmi", GHZ)
    assert explicit == defaulted


def test_info_reports_kind(capsys):
    code, out, _ = run_cli(capsys, "info", GHZ)
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "pure"
    assert data["total_dim"] == 8
    assert [s["name"] for s in data["systems"]] == ["A", "B", "C"]


def test_info_reads_a_vector_file_without_its_density(capsys, tmp_path, monkeypatch):
    path = tmp_path / "psi.json"
    save_state(random_pure(SystemLayout.of(("A", 4), ("B", 4), ("C", 4)), seed=1), path)

    def refuse(self):
        raise AssertionError("info formed the density matrix of a vector")
    monkeypatch.setattr(PureState, "to_density", refuse)
    code, out, _ = run_cli(capsys, "info", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "pure"
    assert data["rank"] == 1 and data["entropy_bits"] == 0.0
    assert abs(data["purity"] - 1.0) <= 1e-12


def test_ki_blocks(capsys):
    code, out, _ = run_cli(capsys, "ki", BELL_AC, "--part", "A")
    assert code == 0
    data = json.loads(out)
    assert data["num_blocks"] == 1
    assert data["blocks"][0]["a_r_dim"] == 2


def test_markov_decompose_nonmarkov_exits_2(capsys):
    code, out, err = run_cli(capsys, "markov-decompose", GHZ, "--cond", "B")
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "verification"
    assert "Markov" in error["message"]


def test_missing_file_exits_1(capsys):
    code, _, err = run_cli(capsys, "qcmi", "no-such-file.json")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "validation"


def test_malformed_file_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    code, _, err = run_cli(capsys, "info", str(bad))
    assert code == 1
    assert json.loads(err)["error"]["type"] == "validation"


def test_a_boolean_dimension_exits_1(capsys, tmp_path):
    bad = tmp_path / "bool_dim.json"
    bad.write_text(json.dumps({"systems": [{"name": "A", "dim": True}],
                               "vector": [[1.0, 0.0]]}))
    code, out, err = run_cli(capsys, "info", str(bad))
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["type"] == "validation"
    assert 'integer "dim"' in error["message"]


@pytest.mark.parametrize("name", ["A,B", "A|B", "", " A"])
@pytest.mark.parametrize("command", ["info", "ki"])
def test_a_name_no_label_spec_can_address_exits_1(capsys, tmp_path, name, command):
    # such a file once loaded, and then no --part or --split could name it
    bad = tmp_path / "bad_name.json"
    bad.write_text(json.dumps({"systems": [{"name": name, "dim": 2}, {"name": "C", "dim": 1}],
                               "vector": [[1.0, 0.0], [0.0, 0.0]]}))
    args = [command, str(bad)] + (["--part", name] if command == "ki" else [])
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["type"] == "validation"
    assert f"subsystem {name!r} cannot be named by a label spec" in error["message"]


@pytest.mark.parametrize("leaf", [["1", "0"], [True, False]])
@pytest.mark.parametrize("command", ["info", "qcmi"])
def test_a_state_file_leaf_that_is_no_number_exits_1(capsys, tmp_path, leaf, command):
    # np.asarray(..., dtype=float) once read these as the numbers 1 and 0
    bad = tmp_path / "bad_leaf.json"
    bad.write_text(json.dumps({"systems": [{"name": n, "dim": 2 if n == "A" else 1}
                                           for n in "ABC"],
                               "vector": [leaf, [0, 0]]}))
    code, out, err = run_cli(capsys, command, str(bad))
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]  # one object: json.loads refuses extra data
    assert error == {"type": "validation",
                     "message": f"vector[0][0] must be a number, got {leaf[0]!r}"}


def _rerun_args():
    """Each subcommand on each state file of tests/data, and the ones that
    draw their own states."""
    per_file = [("info",), ("qcmi",), ("ki", "--part", "A"), ("markov-check",),
                ("markov-decompose",), ("recover",), ("recover", "--direction", "from-ab"),
                ("cost",), ("markovianize",), ("measure-sim", "--zeta-trials", "2")]
    args = [(cmd[0], str(path)) + cmd[1:]
            for path in sorted(DATA.glob("*.json")) for cmd in per_file]
    return args + [("verify", "lemma1", "--trials", "2"),
                   ("verify", "appendix-a", "--trials", "2"),
                   ("verify", "lemma6", "--trials", "2"),
                   ("probe-conjecture", "--trials", "2"),
                   ("random-state", "--dims", "2,3", "--rank", "2")]


def test_every_report_is_the_bytes_json_dumps_writes(capsys):
    # the canonical writer is checked against its oracle on real reports
    # and error objects: parse what a command wrote, dump it with json
    for args in _rerun_args():
        code, out, err = run_cli(capsys, *args)
        text = out if code == 0 else err
        assert text, args
        redumped = json.dumps(json.loads(text), indent=2, sort_keys=True,
                              allow_nan=False) + "\n"
        assert redumped == text, args


def test_unknown_command_exits_1(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "validation"


def test_bad_grouping_label_exits_1(capsys):
    code, _, err = run_cli(capsys, "qcmi", GHZ, "--split", "A|B|Q")
    assert code == 1
    assert "Q" in json.loads(err)["error"]["message"]


def test_bad_conditioner_label_message_unquoted(capsys):
    code, _, err = run_cli(capsys, "markov-check", GHZ, "--cond", "Q")
    assert code == 1
    message = json.loads(err)["error"]["message"]
    # the label lookup's ValueError message arrives as is, with no repr quoting
    assert message == "no subsystem labeled 'Q'"


def test_out_flag_writes_report(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "qcmi", GHZ, "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["qcmi_bits"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("args", [
    ("qcmi", GHZ, "--out"),
    ("markovianize", GHZ, "--save-output"),
    ("probe-conjecture", "--trials", "1", "--csv"),
], ids=["out", "save-output", "csv"])
def test_an_unwritable_output_path_exits_1(capsys, tmp_path, args):
    target = str(tmp_path / "no-such-dir" / "report.json")
    code, out, err = run_cli(capsys, *args, target)
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "validation"
    assert target in error["message"]


def test_env_tol_used_and_flag_wins(capsys, monkeypatch):
    monkeypatch.setenv("MARKOVKIT_TOL", "not-a-number")
    code, _, err = run_cli(capsys, "qcmi", GHZ)
    assert code == 1 and "MARKOVKIT_TOL" in json.loads(err)["error"]["message"]
    # an explicit flag must shadow the broken environment value
    code, out, _ = run_cli(capsys, "qcmi", GHZ, "--tol", "1e-8")
    assert code == 0
    assert json.loads(out)["qcmi_bits"] == pytest.approx(1.0, abs=1e-9)


def test_random_state_deterministic_and_loadable(capsys, tmp_path):
    first = tmp_path / "s1.json"
    second = tmp_path / "s2.json"
    for path in (first, second):
        code, _, _ = run_cli(capsys, "random-state", "--dims", "2,3",
                             "--rank", "2", "--seed", "11", "--out", str(path))
        assert code == 0
    assert first.read_bytes() == second.read_bytes()
    state = load_state(first)
    assert state.layout.dims == (2, 3)


def test_cost_on_mixed_state_reports_bound_only(capsys):
    code, out, _ = run_cli(capsys, "cost", PRODUCT)
    assert code == 0
    data = json.loads(out)
    assert data["m_dec_bits"] is None
    assert data["qcmi_lower"] == pytest.approx(0.0, abs=1e-9)


def test_cost_on_a_pure_density_file_reports_the_exact_value(capsys, tmp_path):
    path = tmp_path / "ghz_density.json"
    save_state(load_state(GHZ).to_density(), path)
    code, out, _ = run_cli(capsys, "cost", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["m_dec_bits"] == pytest.approx(1.0, abs=1e-9)
    assert data["qcmi_lower"] == pytest.approx(1.0, abs=1e-9)
    assert data["weight_entropy_bits"] == pytest.approx(1.0, abs=1e-9)
    assert data["mean_right_entropy_bits"] == pytest.approx(0.0, abs=1e-9)
    assert "upper_known" not in data


def test_recover_exact_on_markov_input(capsys):
    code, out, _ = run_cli(capsys, "recover", PRODUCT, "--direction", "from-bc")
    assert code == 0
    data = json.loads(out)
    assert data["error"] <= 1e-8
    assert data["fidelity"] == pytest.approx(1.0, abs=1e-8)
    assert any(c["family"] == "plain" for c in data["candidates"])


def test_markovianize_report_and_saved_state(capsys, tmp_path):
    saved = tmp_path / "twirled.json"
    code, out, _ = run_cli(capsys, "markovianize", GHZ, "-n", "1",
                           "--save-output", str(saved))
    assert code == 0
    data = json.loads(out)
    assert data["qcmi_out"] <= 1e-8
    assert data["cost_bits_per_copy"] == pytest.approx(1.0, abs=1e-9)
    assert data["ensemble_size"] == 2
    twirled = load_state(saved)
    assert twirled.layout.labels == ("A", "B", "C")


def test_markovianize_saves_the_full_output_only_when_asked(capsys, tmp_path):
    psi = random_pure(SystemLayout.of(("A", 2), ("B", 2), ("C", 2)), seed=7)
    path, saved = tmp_path / "psi.json", tmp_path / "twirled.json"
    save_state(psi, path)
    code, plain, _ = run_cli(capsys, "markovianize", str(path), "-n", "2")
    assert code == 0
    code, out, _ = run_cli(capsys, "markovianize", str(path), "-n", "2",
                           "--save-output", str(saved))
    assert code == 0
    # the reports differ by the output_written line alone
    written = f'  "output_written": {json.dumps(str(saved))},\n'
    assert written in out and out.replace(written, "") == plain
    twirled = load_state(saved)
    expect = dense_markovianize(psi, "A|B|C", 2)[0]
    assert twirled.layout == expect.layout
    assert np.abs(twirled.matrix - expect.matrix).max() <= 1e-14


def test_measure_sim_report(capsys):
    code, out, _ = run_cli(capsys, "measure-sim", GHZ, "-n", "1",
                           "--zeta-trials", "2")
    assert code == 0
    data = json.loads(out)
    assert data["completeness_deviation"] <= 1e-10
    assert sum(data["probabilities"]) == pytest.approx(1.0, abs=1e-10)
    assert min(data["fidelities"]) >= 1 - 1e-10
    assert data["xi_is_estimate"] is True
    assert data["i_g_bc_av"] <= data["n"] * data["r_bits"] + 1e-9


def test_verify_appendix_a(capsys):
    code, out, _ = run_cli(capsys, "verify", "appendix-a", "--trials", "2")
    assert code == 0
    data = json.loads(out)
    assert data["target"] == "appendix-a"
    assert data["asserted"] is True
    assert data["passes"] == 2


def test_verify_lemma6(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma6", "--trials", "2", "-n", "1")
    assert code == 0
    data = json.loads(out)
    assert data["asserted"] is True
    assert len(data["details"]) == 2


def test_verify_lemma1(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma1", "--trials", "2")
    assert code == 0
    data = json.loads(out)
    assert data["fidelity_pass"] == 2
    assert data["two_eps_pass"] == 2


def test_probe_writes_csv(capsys, tmp_path):
    csv_path = tmp_path / "probe.csv"
    code, out, _ = run_cli(capsys, "probe-conjecture", "--trials", "3",
                           "--csv", str(csv_path))
    assert code == 0
    data = json.loads(out)
    assert len(data["points"]) == 3
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "trial,eps_ab,eps_bc"
    assert len(lines) == 4


def test_probe_draws_a_rank_the_dims_allow(capsys):
    # with dims 1,1,1 the generic trial's state has total dimension 1
    code, out, err = run_cli(capsys, "probe-conjecture", "--trials", "3",
                             "--dims", "1,1,1")
    assert code == 0 and err == ""
    points = json.loads(out)["points"]
    assert len(points) == 3
    assert all(p["eps_ab"] < 1e-9 and p["eps_bc"] < 1e-9 for p in points)


@pytest.mark.parametrize("args", [
    ("verify", "lemma1", "--dims", "2,2"),
    ("verify", "lemma6", "--dims", "2,2"),
    ("probe-conjecture", "--dims", "2,2"),
    ("verify", "lemma1", "--dims", "2,2,2,3"),
    ("verify", "appendix-a", "--dims", "2,2,2,2"),
])
def test_harness_dims_must_name_three_dimensions(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "validation"


@pytest.mark.parametrize("args", [
    ("qcmi", GHZ, "--split", "A|B|C"),
    ("cost", BELL_AC),
    ("measure-sim", GHZ, "-n", "1", "--seed", "5", "--zeta-trials", "2"),
    ("verify", "appendix-a", "--trials", "2"),
    ("probe-conjecture", "--trials", "2", "--seed", "1"),
])
def test_reruns_are_byte_identical(capsys, args):
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first[0] == second[0] == 0
    assert first[1] == second[1]


@pytest.mark.parametrize("args", [
    ("verify", "lemma7"),
    ("verify", "lemma6", "--eps", "-0.5"),
    ("verify", "lemma6", "--eps", "nan"),
    ("verify", "lemma6", "--eps", "inf"),
])
def test_unknown_targets_and_invalid_eps_are_refused(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "validation"


@pytest.mark.parametrize("command", [("verify", "lemma1"), ("probe-conjecture",)])
def test_jobs_is_not_an_option(capsys, command):
    code, out, err = run_cli(capsys, *command, "--trials", "2", "--jobs", "2")
    assert code == 1 and out == ""
    assert "unrecognized arguments: --jobs 2" in json.loads(err)["error"]["message"]


def _child_env() -> dict[str, str]:
    """This environment with the checkout's src first on PYTHONPATH, so a
    child interpreter imports the same markovkit as the tests."""
    paths = [str(DATA.parent.parent / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "markovkit.cli", "qcmi", GHZ, "--split", "A|B|C"],
        capture_output=True, text=True, cwd=str(DATA.parent.parent), env=_child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["qcmi_bits"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("split", ["A||B,C", "A,B||C"])
@pytest.mark.parametrize("command", [
    ("recover", "--direction", "from-bc"), ("recover", "--direction", "from-ab"),
    ("measure-sim",)], ids=["recover-from-bc", "recover-from-ab", "measure-sim"])
def test_an_empty_conditioning_group_is_rejected_before_recovery(
        capsys, monkeypatch, command, split):
    # the check comes before the Petz spectra, so none is ever computed
    def refuse(*args, **kwargs):
        raise AssertionError("a Petz spectrum was computed")
    monkeypatch.setattr(channels, "_PetzSpectrum", refuse)
    code, out, err = run_cli(capsys, command[0], GHZ, "--split", split, *command[1:])
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "validation"
    assert error["message"] == ("the conditioning group B is empty; a recovery map "
                                "acts on B, so B must name at least one subsystem")


@pytest.mark.parametrize("command", ["qcmi", "cost"])
def test_qcmi_and_cost_take_an_empty_conditioning_group(capsys, command):
    code, out, err = run_cli(capsys, command, GHZ, "--split", "A||B,C")
    assert code == 0 and err == ""
    assert json.loads(out)["schema"] == "markovkit/1"


@pytest.mark.parametrize("args, builders", [
    (("verify", "appendix-a", "--dims", "64,64,64"), [(protocols, "random_markov_state")]),
    (("verify", "lemma6", "--dims", "64,64,64"), [(protocols, "_lemma6_input")]),
    # every generic trial would fit (64 * 1 * 64), a Markov one would not
    (("probe-conjecture", "--dims", "64,1,64"),
     [(protocols, "random_markov_state"), (protocols, "random_state")]),
    (("random-state", "--dims", "64,64,64"), [(cli, "random_state"), (cli, "random_pure")]),
], ids=["appendix-a", "lemma6", "probe-conjecture", "random-state"])
def test_oversize_dims_are_refused_before_any_state_is_built(
        capsys, monkeypatch, args, builders):
    def refuse(*args, **kwargs):
        raise AssertionError("a state was built")
    for module, name in builders:
        monkeypatch.setattr(module, name, refuse)
    code, out, err = run_cli(capsys, *args)
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "validation"
    assert error["message"].endswith("exceeds the guard 4096")


@pytest.mark.parametrize("n", ["5000", "1000000000000"])
@pytest.mark.parametrize("args, message", [
    (("markovianize", GHZ), "total dimension 8^{n}"),
    (("measure-sim", GHZ), "total dimension 8^{n}"),
    (("verify", "lemma6", "--eps", "0.1"), "{n}-copy A-C dimension 4^{n}"),
], ids=["markovianize", "measure-sim", "lemma6"])
def test_a_large_copy_count_is_refused_by_the_guard(capsys, args, message, n):
    # the power is named, not printed, and never formed
    code, out, err = run_cli(capsys, *args, "-n", n)
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "validation"
    assert error["message"] == message.format(n=n) + " exceeds the guard 4096"


def test_random_state_labels_are_stripped(capsys, tmp_path):
    path = str(tmp_path / "abc.json")
    code, _, _ = run_cli(capsys, "random-state", "--labels", "A, B, C", "--out", path)
    assert code == 0
    assert load_state(path).layout.labels == ("A", "B", "C")
    for args in (("qcmi", path, "--split", "A|B|C"), ("ki", path, "--part", "B")):
        code, out, err = run_cli(capsys, *args)
        assert code == 0 and err == ""


def test_an_unknown_part_names_the_label(capsys):
    code, out, err = run_cli(capsys, "ki", GHZ, "--part", "Q")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == {"type": "validation",
                                        "message": "no subsystem labeled 'Q'"}


_COUNT_PARSERS = """
import argparse, contextlib, io, json, sys

built = 0
init = argparse.ArgumentParser.__init__

def counting_init(self, *args, **kwargs):
    global built
    built += type(self).__module__ == "markovkit.cli"  # cli._Parser instances only
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counting_init
import markovkit.cli as cli

counts, codes = [built], []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
    counts.append(built)
print(json.dumps({"counts": counts, "codes": codes}))
"""


def test_the_parser_is_built_once_per_process(tmp_path):
    calls = [
        ["qcmi", GHZ],
        ["qcmi", GHZ, "--split", "A|B|C"],
        ["recover", GHZ, "--direction", "sideways"],
        ["qcmi", str(tmp_path / "no-such-state.json")],
        ["markov-decompose", GHZ, "--cond", "B"],
    ]
    # a fresh interpreter, so no earlier test has built the parser yet
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_PARSERS, json.dumps(calls)],
        capture_output=True, text=True, check=True, cwd=str(DATA.parent.parent),
        env=_child_env())
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 1, 1, 2]
    counts = result["counts"]
    assert counts[0] == 0  # nothing is built at import
    assert counts[1] > 0
    assert counts[2:] == [counts[1]] * 4


@pytest.mark.parametrize("failing", [
    ("verify", "lemma1", "--trials", "2", "--jobs", "2"),
    ("recover", GHZ, "--direction", "sideways"),
    ("qcmi",),
    ("frobnicate",),
], ids=["unknown-flag", "bad-choice", "missing-positional", "unknown-command"])
def test_a_failed_parse_leaves_the_next_call_unchanged(capsys, failing):
    valid = [("recover", GHZ), ("verify", "lemma1", "--trials", "2")]
    first = [run_cli(capsys, *args) for args in valid]
    assert all(code == 0 and out for code, out, _ in first)
    for args, before in zip(valid, first):
        code, out, err = run_cli(capsys, *failing)
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "validation"
        assert run_cli(capsys, *args) == before


def test_the_tolerance_is_read_on_every_call(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "qcmi", GHZ)
    assert code == 0
    monkeypatch.setenv("MARKOVKIT_TOL", "not-a-number")
    code, _, err = run_cli(capsys, "qcmi", GHZ)
    assert code == 1 and "MARKOVKIT_TOL" in json.loads(err)["error"]["message"]
    monkeypatch.delenv("MARKOVKIT_TOL")
    assert run_cli(capsys, "qcmi", GHZ) == (0, out, "")


def test_help_is_the_same_on_every_call(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exit_info:
            main(["recover", "--help"])
        assert exit_info.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]
    assert "--direction {from-bc,from-ab}" in helps[0]


# every command that reads a state file, as a vector file and as its density
# file must report alike (the guard for reading pure inputs as vectors)
STATE_COMMANDS = (
    ("info",), ("qcmi",), ("ki", "--part", "A"), ("ki", "--part", "C"),
    ("markov-check",), ("markov-decompose",),
    ("recover", "--direction", "from-bc"), ("recover", "--direction", "from-ab"),
    ("cost",), ("markovianize", "-n", "1"),
    ("measure-sim", "-n", "1", "--zeta-trials", "1"),
)


def _report_gaps(vec, dens, path, gaps, mismatches):
    """Walk two parsed reports: float gaps go to gaps, other differences to
    mismatches."""
    if isinstance(vec, float) and isinstance(dens, float):
        gaps.append(abs(vec - dens))
    elif isinstance(vec, dict) and isinstance(dens, dict) and vec.keys() == dens.keys():
        for key in vec:
            _report_gaps(vec[key], dens[key], f"{path}.{key}", gaps, mismatches)
    elif isinstance(vec, list) and isinstance(dens, list) and len(vec) == len(dens):
        for i, (x, y) in enumerate(zip(vec, dens)):
            _report_gaps(x, y, f"{path}[{i}]", gaps, mismatches)
    elif type(vec) is not type(dens) or vec != dens:
        mismatches.append(f"{path}: {vec!r} != {dens!r}")


@pytest.mark.parametrize("source", [(2, 3, 2), (3, 3, 3), (2, 4, 2),
                                    "ghz", "bell_ac", "near_cutoff_b"],
                         ids=lambda s: s if isinstance(s, str) else
                         "pure" + "".join(map(str, s)))
def test_a_vector_file_and_its_density_file_report_alike(capsys, tmp_path, source):
    if isinstance(source, tuple):
        layout = SystemLayout.of(*zip("ABC", source))
        psi = random_pure(layout, seed=sum(source))
    else:
        psi = load_state(DATA / f"{source}.json")
    vec_path, dens_path = str(tmp_path / "vec.json"), str(tmp_path / "dens.json")
    save_state(psi, vec_path)
    save_state(psi.to_density(), dens_path)
    for command in STATE_COMMANDS:
        code, out, err = run_cli(capsys, command[0], vec_path, *command[1:])
        code_d, out_d, err_d = run_cli(capsys, command[0], dens_path, *command[1:])
        assert (code, err) == (code_d, err_d), command
        if code:
            continue
        vec, dens = json.loads(out), json.loads(out_d)
        if command == ("info",):
            assert (vec.pop("kind"), dens.pop("kind")) == ("pure", "density")
        gaps, mismatches = [], []
        _report_gaps(vec, dens, command[0], gaps, mismatches)
        assert not mismatches, mismatches
        assert max(gaps, default=0.0) <= 1e-12, command
