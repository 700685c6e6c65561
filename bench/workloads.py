"""Seeded inputs, operation lists and report checks for the three workloads.

Every input is generated here with numpy from the run seed and written as a
markovkit state file, so a change to the package's own generators cannot
change what the benchmark feeds it.  Each operation is one command-line
invocation; its check inspects the parsed report and returns the reason it
failed, or None.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

SCHEMA = "markovkit/1"

# criterion 08's menu: total dimension 8..27 for n = 1, 64..729 for n = 2
TWIRL_DIMS = ((2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3),
              (3, 3, 2), (3, 2, 3), (2, 3, 3), (3, 3, 3))
# planted (b0, bL, bR) block shapes of B, as in criteria 01 and 03
PLANT_SHAPES = ((2, 2, 2), (2, 1, 2), (1, 2, 2), (2, 2, 1),
                (1, 1, 2), (2, 1, 1), (1, 2, 1), (1, 1, 1))

# Known defect: ki_decompose builds its algebra from conditional operators
# that miss the Koashi-Imoto blocks when the A-side states do not commute,
# and then fails its own direct-sum check.  Operations that hit it exit 2
# with this message; they count as failed, and only they may fail.
KI_DEFECT_MESSAGE = "breaks the direct sum"


@dataclass(frozen=True)
class Op:
    """One command-line invocation and the check its report must pass."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[dict], str | None]
    ki_defect_prone: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tail_pct: int  # op_tail_ms percentile; each run keeps >= 10 samples above it
    build: Callable[[np.random.Generator, Path], list[Op]]


# ---------------------------------------------------------------------------
# state files


def _systems(dims, labels="ABC") -> list[dict]:
    return [{"name": lab, "dim": int(d)} for lab, d in zip(labels, dims)]


def _pairs(arr: np.ndarray) -> list:
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def _write(path: Path, systems: list[dict], *, matrix=None, vector=None) -> str:
    payload = {"systems": systems}
    if matrix is not None:
        payload["matrix"] = _pairs(np.asarray(matrix, dtype=complex))
    else:
        payload["vector"] = _pairs(np.asarray(vector, dtype=complex))
    path.write_text(json.dumps(payload))
    return str(path)


def _density(rng, d: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2
    return m / np.trace(m).real


def _pure(rng, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _unitary(rng, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def planted_markov(rng, b0: int, b_l: int, b_r: int, d_a: int = 2,
                   d_c: int = 2, rank: int = 2) -> np.ndarray:
    """Exact Markov state on (A, B, C): B = sum_i bL_i (x) bR_i, hidden by a
    random unitary on B; block i holds sigma_i on (A, bL) and phi_i on
    (bR, C), each of the given rank (capped by its dimension)."""
    q = rng.dirichlet(4.0 * np.ones(b0))
    shape = (d_a, b0, b_l, b_r, d_c)
    out = np.zeros(shape + shape, dtype=complex)
    for i in range(b0):
        sig = _density(rng, d_a * b_l, min(rank, d_a * b_l))
        phi = _density(rng, b_r * d_c, min(rank, b_r * d_c))
        out[:, i, :, :, :, :, i, :, :, :] = q[i] * np.einsum(
            "albm,rcsd->alrcbmsd", sig.reshape(d_a, b_l, d_a, b_l),
            phi.reshape(b_r, d_c, b_r, d_c))
    d_b = b0 * b_l * b_r
    d = d_a * d_b * d_c
    u = np.kron(np.kron(np.eye(d_a), _unitary(rng, d_b)), np.eye(d_c))
    mat = u @ out.reshape(d, d) @ u.conj().T
    return (mat + mat.conj().T) / 2


def purify(mat: np.ndarray) -> tuple[np.ndarray, int]:
    """Vector on (system, R) with R as small as the rank allows."""
    vals, vecs = np.linalg.eigh(mat)
    keep = vals > 1e-12 * vals[-1]
    vals, vecs = vals[keep], vecs[:, keep]
    vec = (vecs * np.sqrt(vals)).reshape(-1)
    return vec / np.linalg.norm(vec), int(vals.size)


# ---------------------------------------------------------------------------
# report checks


def _check_recover(rep: dict) -> str | None:
    plain = [c["error"] for c in rep["candidates"] if c["family"] == "plain"]
    if len(plain) != 1:
        return "recover report lacks its plain candidate"
    if not rep["error"] <= plain[0]:
        return f"best error {rep['error']!r} exceeds plain error {plain[0]!r}"
    return None


def _check_lemma1(rep: dict) -> str | None:
    for key in ("fidelity_pass", "qcmi_bound_pass", "two_eps_pass"):
        if rep[key] != rep["trials"]:
            return f"lemma1 {key}={rep[key]} of {rep['trials']} trials"
    return None


def _check_markovianize(rep: dict) -> str | None:
    if not rep["qcmi_out"] <= 1e-8:
        return f"qcmi_out {rep['qcmi_out']!r} above 1e-8"
    worst = max(rep["recovery_error_from_bc"], rep["recovery_error_from_ab"])
    if not worst <= 1e-7:
        return f"recovery error {worst!r} above 1e-7"
    return None


def _check_markov_decompose(rep: dict) -> str | None:
    total = math.fsum(e["q"] for e in rep["entries"])
    if not abs(total - 1.0) <= 1e-9:
        return f"block weights sum to {total!r}"
    return None


def _check_cost(rep: dict) -> str | None:
    if not rep["m_dec_bits"] >= rep["qcmi_lower"] - 1e-9:
        return f"cost {rep['m_dec_bits']!r} below qcmi {rep['qcmi_lower']!r}"
    return None


def _no_check(rep: dict) -> str | None:
    return None


def check_report(op: Op, code: int, stdout: str) -> str | None:
    """Reason the operation failed, or None if it succeeded."""
    if code != 0:
        return f"exit {code}"
    try:
        rep = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    if rep.get("schema") != SCHEMA:
        return f"schema {rep.get('schema')!r}"
    try:
        return op.check(rep)
    except (KeyError, TypeError) as exc:
        return f"report lacks a field: {exc!r}"


# ---------------------------------------------------------------------------
# operation lists


def _recovery_ops(rng, workdir: Path) -> list[Op]:
    ops = []
    for i in range(6):
        full = _write(workdir / f"full232_{i}.json", _systems((2, 3, 2)),
                      matrix=_density(rng, 12, 12))
        low = _write(workdir / f"rank2_222_{i}.json", _systems((2, 2, 2)),
                     matrix=_density(rng, 8, 2))
        for path, tag in ((full, f"full232_{i}"), (low, f"rank2_222_{i}")):
            for direction in ("from-bc", "from-ab"):
                ops.append(Op(f"recover/{tag}/{direction}",
                              ("recover", path, "--direction", direction),
                              _check_recover))
    for i in range(3):
        seed = int(rng.integers(2**31))
        ops.append(Op(f"lemma1/{i}",
                      ("verify", "lemma1", "--trials", "4", "--dims", "2,3,2",
                       "--seed", str(seed)), _check_lemma1))
    for i in range(3):
        path = _write(workdir / f"pure222_{i}.json", _systems((2, 2, 2)),
                      vector=_pure(rng, 8))
        ops.append(Op(f"measure-sim/pure222_{i}",
                      ("measure-sim", path, "-n", "1", "--zeta-trials", "2"),
                      _no_check))
    return ops


def _twirl_ops(rng, workdir: Path) -> list[Op]:
    cheap, heavy = [], []
    for n in (1, 2):
        for dims in TWIRL_DIMS:
            tag = "".join(map(str, dims))
            path = _write(workdir / f"twirl{tag}_n{n}.json", _systems(dims),
                          vector=_pure(rng, int(np.prod(dims))))
            op = Op(f"markovianize/{tag}/n{n}", ("markovianize", path, "-n", str(n)),
                    _check_markovianize)
            (cheap if int(np.prod(dims)) ** n <= 64 else heavy).append(op)
    # The (3,3,3), n = 2 operation alone takes two thirds of a pass.  The
    # cheap operations (total dimension <= 64) run after every second heavy
    # one, four times a pass, so their medians rest on more than a handful
    # of runs; every pass is still the same list.
    ops = []
    for i, op in enumerate(heavy):
        ops.append(op)
        if i % 2 == 1 or i == len(heavy) - 1:
            ops += cheap
    return ops


def _structure_ops(rng, workdir: Path) -> list[Op]:
    ops = []
    for shape in PLANT_SHAPES:
        tag = "".join(map(str, shape))
        mat = planted_markov(rng, *shape)
        d_b = shape[0] * shape[1] * shape[2]
        path = _write(workdir / f"plant{tag}.json", _systems((2, d_b, 2)),
                      matrix=mat)
        # the defect needs two or more blocks whose factor on the decomposed
        # side is trivial, so the sides' block states do not commute
        a_defect = shape[0] > 1 and shape[1] == 1
        c_defect = shape[0] > 1 and shape[2] == 1
        ops += [
            Op(f"ki-A/{tag}", ("ki", path, "--part", "A"), _no_check, a_defect),
            Op(f"ki-C/{tag}", ("ki", path, "--part", "C"), _no_check, c_defect),
            Op(f"markov-check/{tag}", ("markov-check", path), _no_check),
            Op(f"markov-decompose/{tag}", ("markov-decompose", path),
               _check_markov_decompose),
        ]
        vec, r = purify(mat)
        pure_path = _write(workdir / f"plant{tag}_purified.json",
                           _systems((2, d_b, 2, r), "ABCR"), vector=vec)
        ops.append(Op(f"cost-purified/{tag}",
                      ("cost", pure_path, "--split", "A|R|B,C"), _check_cost,
                      a_defect))
    for i in range(4):
        path = _write(workdir / f"pure333_{i}.json", _systems((3, 3, 3)),
                      vector=_pure(rng, 27))
        ops.append(Op(f"cost/pure333_{i}", ("cost", path), _check_cost))
    return ops


WORKLOADS = {
    "recovery": Workload(
        "recovery",
        "many small Petz recoveries: recover both ways, lemma1, measure-sim; "
        "channels.petz_recovery and QuantumChannel.apply dominate",
        90, _recovery_ops),
    "twirl": Workload(
        "twirl",
        "markovianize over eight dims with n in {1,2}, total dim 8..729; "
        "few Kraus maps on large matrices, validation and eigvalsh/SVD",
        85, _twirl_ops),
    "structure": Workload(
        "structure",
        "ki, markov-check, markov-decompose and cost on planted Markov states; "
        "algebra, kidecomp and markov dominate; a known ki_decompose defect "
        "fails 6 of 44 ops",
        95, _structure_ops),
}


def build_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The workload's operation list; its input files go into workdir."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    return WORKLOADS[workload].build(rng, workdir)
