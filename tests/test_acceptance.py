"""Acceptance gate: twelve end-to-end checks, one test and verdict line each.

Every check states its tolerance inline and asserts on values returned by
the public API, not on internal self-checks.  Verdict lines print the
measured extremes so a failure names the number that broke.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from markovkit.algebra import decompose_structure, generate_algebra, verify_structure
from markovkit.cli import main
from markovkit.cost import markovianizing_cost
from markovkit.kidecomp import ki_decompose
from markovkit.markov import is_markov, nearest_markov_tilde
from markovkit.protocols import (
    markovianize,
    measurement_protocol,
    random_markov_state,
    verify_appendix_a,
    verify_lemma1,
    verify_lemma6,
)
from markovkit.qcore import (
    PureState,
    SystemLayout,
    qcmi,
    random_pure,
    random_unitary,
)

from helpers import mutual_information

DATA = Path(__file__).parent / "data"
SPLIT_ABC = (("A",), ("B",), ("C",))


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _ghz() -> PureState:
    layout = SystemLayout.of(("A", 2), ("B", 2), ("C", 2))
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1 / np.sqrt(2)
    return PureState(v, layout)


def _phi_plus_ac() -> PureState:
    layout = SystemLayout.of(("A", 2), ("B", 1), ("C", 2))
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return PureState(v, layout)


def _product_state() -> PureState:
    layout = SystemLayout.of(("A", 2), ("B", 2), ("C", 2))
    v = np.kron(np.kron([0.6, 0.8], [1, 1] / np.sqrt(2)), [0.8, -0.6])
    return PureState(v.astype(complex), layout)


_PLANT_SHAPES_123 = ((2, 2, 2), (2, 1, 2), (1, 2, 2), (2, 2, 1),
                     (1, 1, 2), (2, 1, 1), (1, 2, 1), (1, 1, 1))


def test_criterion_01_qcmi_exactness():
    ghz_val = qcmi(_ghz().to_density(), SPLIT_ABC)
    phi_val = qcmi(_phi_plus_ac().to_density(), SPLIT_ABC)
    worst_planted = 0.0
    for i in range(100):
        rng = np.random.default_rng([2026, 1, i])
        b0, bl, br = _PLANT_SHAPES_123[i % len(_PLANT_SHAPES_123)]
        state = random_markov_state(rng, b0, bl, br, 2, 2)
        worst_planted = max(worst_planted, qcmi(state, SPLIT_ABC))
    ok = (abs(ghz_val - 1.0) <= 1e-9 and abs(phi_val - 2.0) <= 1e-9
          and worst_planted <= 1e-9)
    _verdict(1, ok, f"ghz={ghz_val:.12f} phi+={phi_val:.12f} "
                    f"max planted qcmi={worst_planted:.2e}")


def _random_pure_schedule(count: int, tag: int):
    for i in range(count):
        dims = (2, 2, 2) if i < count // 2 else (3, 2, 2)
        layout = SystemLayout.of(("A", dims[0]), ("B", dims[1]), ("C", dims[2]))
        yield i, random_pure(layout, seed=np.random.default_rng([2026, tag, i]))


def test_criterion_02_cost_formula():
    anchors = {
        "product": markovianizing_cost(_product_state(), SPLIT_ABC).m_dec_bits,
        "ghz": markovianizing_cost(_ghz(), SPLIT_ABC).m_dec_bits,
        "phi+": markovianizing_cost(_phi_plus_ac(), SPLIT_ABC).m_dec_bits,
    }
    anchor_ok = (abs(anchors["product"]) <= 1e-9
                 and abs(anchors["ghz"] - 1.0) <= 1e-9
                 and abs(anchors["phi+"] - 2.0) <= 1e-9)
    worst_gap = -np.inf
    for _, psi in _random_pure_schedule(100, tag=2):
        report = markovianizing_cost(psi, SPLIT_ABC)
        worst_gap = max(worst_gap, report.qcmi_lower_bits - report.m_dec_bits)
    ok = anchor_ok and worst_gap <= 1e-9
    _verdict(2, ok, f"anchors={{{', '.join(f'{k}={v:.10f}' for k, v in anchors.items())}}} "
                    f"max qcmi-M gap={worst_gap:.2e}")


def test_criterion_03_pinched_state_identity():
    worst = 0.0
    for _, psi in _random_pure_schedule(100, tag=2):
        m = markovianizing_cost(psi, SPLIT_ABC).m_dec_bits
        tilde = nearest_markov_tilde(psi, SPLIT_ABC)
        info = mutual_information(tilde, ("A",), ("B", "C"))
        worst = max(worst, abs(info - m))
    _verdict(3, worst <= 1e-9, f"max |I(A:BC)~ - M| = {worst:.2e} over 100 states")


def test_criterion_04_petz_exactness():
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng([2026, 4, i])
        b0, bl, br = _PLANT_SHAPES_123[i % len(_PLANT_SHAPES_123)]
        state = random_markov_state(rng, b0, bl, br, 2, 2)
        report = is_markov(state, "B")
        worst = max(worst, report.petz_error_from_bc, report.petz_error_from_ab)
    _verdict(4, worst <= 1e-8, f"max plain-Petz error both directions = {worst:.2e}")


def test_criterion_05_fidelity_recovery_bound():
    rep = verify_lemma1(200, dims=(2, 3, 2), seed=20265)
    ok = rep.fidelity_pass == 200 and rep.fidelity_worst_margin >= -1e-6
    _verdict(5, ok, f"fidelity margin >= -1e-6 on {rep.fidelity_pass}/200; "
                    f"worst={rep.fidelity_worst_margin:.3e} "
                    f"(trace-form margin {rep.trace_form_worst_margin:.3e}, reported only)")


def test_criterion_06_two_eps_recovery():
    rep = verify_lemma1(100, dims=(2, 2, 2), seed=611)
    ok = rep.two_eps_pass == 100 and rep.two_eps_worst_margin >= -1e-9
    _verdict(6, ok, f"recovery error <= 2*eps on {rep.two_eps_pass}/100 noisy "
                    f"planted states; worst margin={rep.two_eps_worst_margin:.3e}")


def test_criterion_07_squeeze_bound():
    rep = verify_appendix_a(trials=100, seed=77)
    ok = rep.asserted and rep.passes == 100 and rep.worst_margin >= -1e-9
    _verdict(7, ok, f"||rho - T(rho)||_1 <= 6*eps on {rep.passes}/100 "
                    f"(fixed points <= 1e-10 enforced per trial); "
                    f"worst margin={rep.worst_margin:.3e}")


_DIM_MENU = ((2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3),
             (3, 3, 2), (3, 2, 3), (2, 3, 3), (3, 3, 3))


def test_criterion_08_finite_n_markovianization():
    def one(i: int):
        dims = _DIM_MENU[i % len(_DIM_MENU)]
        n = 1 + (i // len(_DIM_MENU)) % 2
        layout = SystemLayout.of(("A", dims[0]), ("B", dims[1]), ("C", dims[2]))
        psi = random_pure(layout, seed=np.random.default_rng([2026, 8, i]))
        run = markovianize(psi, SPLIT_ABC, n)
        return (run.qcmi_out,
                max(run.recovery_error_from_bc, run.recovery_error_from_ab),
                run.cost_bits_per_copy - run.m_dec_bits)

    with ThreadPoolExecutor(max_workers=2) as pool:
        rows = list(pool.map(one, range(50)))
    worst_qcmi = max(r[0] for r in rows)
    worst_petz = max(r[1] for r in rows)
    worst_cost = min(r[2] for r in rows)
    ok = worst_qcmi <= 1e-8 and worst_petz <= 1e-7 and worst_cost >= -1e-9
    _verdict(8, ok, f"50 states, n in {{1,2}}: max qcmi_out={worst_qcmi:.2e}, "
                    f"max petz={worst_petz:.2e}, min cost-M={worst_cost:.2e}")


def test_criterion_09_measurement_protocol():
    layout = SystemLayout.of(("A", 2), ("B", 2), ("C", 2))
    inputs = [
        (_ghz(), 1),
        (random_pure(layout, seed=np.random.default_rng([2026, 9, 0])), 1),
        (_ghz(), 2),
    ]
    worst_complete = worst_p = worst_eps = worst_info = 0.0
    worst_fid = 1.0
    for psi, n in inputs:
        run = measurement_protocol(psi, SPLIT_ABC, n, zeta_trials=2, seed=0)
        k = len(run.probabilities)
        delta = sum(m.conj().T @ m for m in run.measurement) - np.eye(
            run.measurement[0].shape[1])
        worst_complete = max(worst_complete, float(np.linalg.norm(delta, np.inf)))
        worst_p = max(worst_p, float(np.max(np.abs(np.asarray(run.probabilities) - 1 / k))))
        worst_fid = min(worst_fid, float(np.min(run.fidelities)))
        worst_eps = max(worst_eps, float(np.max(run.eps_k)))
        worst_info = max(worst_info, run.i_g_bc_av - n * run.r_bits)
    ok = (worst_complete <= 1e-10 and worst_p <= 1e-10
          and worst_fid >= 1 - 1e-10 and worst_eps <= 1e-12
          and worst_info <= 1e-9)
    _verdict(9, ok, f"completeness={worst_complete:.2e} |p-1/K|={worst_p:.2e} "
                    f"min fidelity={worst_fid:.12f} eps_k={worst_eps:.2e} "
                    f"I(G:BC)-nR={worst_info:.2e}")


_BLOCK_MENU = (
    [(2, 1)], [(1, 2)], [(3, 1)], [(2, 2)], [(1, 1), (1, 1)],
    [(2, 1), (1, 1)], [(2, 1), (1, 2)], [(3, 2)], [(2, 2), (2, 1)],
    [(2, 1), (2, 1)], [(2, 2), (1, 2)], [(3, 1), (1, 1)],
)


def _planted_generators(rng, blocks, ambient):
    u = random_unitary(ambient, rng)

    def element():
        full = np.zeros((ambient, ambient), dtype=complex)
        off = 0
        for n, m in blocks:
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            full[off:off + n * m, off:off + n * m] = np.kron(x, np.eye(m))
            off += n * m
        return u @ full @ u.conj().T

    return [element(), element()]


def test_criterion_10_algebra_plant_recover():
    worst_dev = 0.0
    for i in range(200):
        rng = np.random.default_rng([2026, 10, i])
        blocks = _BLOCK_MENU[i % len(_BLOCK_MENU)]
        support = sum(n * m for n, m in blocks)
        ambient = support + (i % 3)
        assert ambient <= 12
        algebra = generate_algebra(_planted_generators(rng, blocks, ambient))
        assert algebra.dim == sum(n * n for n, _ in blocks), \
            f"trial {i}: dim {algebra.dim} != sum n^2 for {blocks}"
        structure = decompose_structure(algebra)
        want = sorted(blocks, key=lambda nm: (-nm[0] * nm[1], -nm[0]))
        assert structure.blocks == want, \
            f"trial {i}: recovered {structure.blocks}, planted {want}"
        worst_dev = max(worst_dev, verify_structure(algebra, structure))
    _verdict(10, worst_dev <= 1e-8,
             f"200 plant-recover trials exact; max structure deviation={worst_dev:.2e}")


def test_criterion_11_information_floor():
    worst = np.inf
    passes = 0
    for n, seed in ((1, 61), (2, 62)):
        rep = verify_lemma6(trials=10, n=n, seed=seed)
        assert rep.asserted
        passes += rep.passes
        worst = min(worst, rep.worst_margin)
    _verdict(11, passes == 20 and worst >= -1e-8,
             f"(1/n)I >= M - 1e-8 on {passes}/20 states (n=1,2); "
             f"worst margin={worst:.3e}")


_CLI_CASES = (
    ("info", str(DATA / "ghz.json")),
    ("qcmi", str(DATA / "ghz.json"), "--split", "A|B|C"),
    ("ki", str(DATA / "bell_ac.json"), "--part", "A"),
    ("markov-check", str(DATA / "product.json"), "--cond", "B"),
    ("markov-decompose", str(DATA / "product.json"), "--cond", "B"),
    ("recover", str(DATA / "product.json"), "--direction", "from-bc"),
    ("cost", str(DATA / "bell_ac.json")),
    ("markovianize", str(DATA / "ghz.json"), "-n", "1"),
    ("measure-sim", str(DATA / "ghz.json"), "-n", "1", "--seed", "3",
     "--zeta-trials", "2"),
    ("verify", "lemma6", "--trials", "2", "--seed", "5"),
    ("probe-conjecture", "--trials", "2", "--seed", "1"),
    ("random-state", "--dims", "2,2", "--pure", "--seed", "4"),
)


def test_criterion_12_cli_determinism(capsys, monkeypatch):
    monkeypatch.delenv("MARKOVKIT_TOL", raising=False)
    mismatched = []
    for case in _CLI_CASES:
        outs = []
        for _ in range(2):
            code = main(list(case))
            captured = capsys.readouterr()
            assert code == 0, f"{case[0]} exited {code}: {captured.err}"
            json.loads(captured.out)
            outs.append(captured.out)
        if outs[0] != outs[1]:
            mismatched.append(case[0])
    _verdict(12, not mismatched,
             f"all {len(_CLI_CASES)} commands byte-identical on rerun"
             + (f"; mismatches: {mismatched}" if mismatched else ""))
