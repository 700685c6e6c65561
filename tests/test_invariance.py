"""Metamorphic checks: recovery errors, QCMIs, the recovery winner, the
cost and ``info``'s rank, entropy and purity are properties of the state,
not of its frame.  A local unitary U_A (x) U_B (x) U_C, or renamed labels
in a reversed layout, must move none of them by more than 1e-12 (a rank
not at all).  Likewise the block data of both splittings:
the Koashi-Imoto blocks of rho_AC under a local unitary on C and under
renamed, reversed labels, and the Markov blocks under U_A (x) U_C, keep
their dims and ranks exactly and their weights to 1e-9."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as hs

from markovkit.channels import best_rotated_petz
from markovkit.cli import main
from markovkit.cost import markovianizing_cost
from markovkit.kidecomp import ki_decompose
from markovkit.markov import is_markov, markov_decompose
from markovkit.protocols import markovianize
from markovkit.qcore import (
    DEFAULT_TOLS,
    DensityState,
    PureState,
    SystemLayout,
    kron_all,
    partial_trace,
    random_pure,
    random_unitary,
    reorder,
    reorder_vector,
    support_mask,
)
from markovkit.serialize import save_state

from helpers import planted_ki_pure, planted_markov_state

LAYOUT = SystemLayout.of(("A", 2), ("B", 3), ("C", 2))
GROUPS = (("A",), ("B",), ("C",))
# renamed and reversed, so B still conditions contiguously, with A and C swapped
RENAME = {"A": "x", "B": "y", "C": "z"}
RENAMED_GROUPS = (("x",), ("y",), ("z",))
TOL = 1e-12
WEIGHT_TOL = 1e-9


@hs.composite
def _amplitudes(draw, pure):
    """(12, rank) columns on (2,3,2); optionally B is confined to two levels,
    so rho_B has a kernel."""
    rng = np.random.default_rng(draw(hs.integers(0, 2 ** 32 - 1)))
    rank = 1 if pure else draw(hs.integers(1, 12))
    g = rng.standard_normal((12, rank)) + 1j * rng.standard_normal((12, rank))
    if draw(hs.booleans()):
        g.reshape(2, 3, 2, rank)[:, 2] = 0.0
    return g / np.linalg.norm(g), draw(hs.integers(0, 2 ** 32 - 1))


def _local_unitary(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return kron_all([random_unitary(d, rng) for d in LAYOUT.dims])


def _mixed_frames(g, seed):
    """The state, its local rotation and its renamed reversed layout."""
    st = DensityState(g @ g.conj().T, LAYOUT)
    u = _local_unitary(seed)
    rotated = DensityState(u @ st.matrix @ u.conj().T, LAYOUT)
    flipped = reorder(st, ("C", "B", "A"))
    renamed = DensityState(flipped.matrix, flipped.layout.renamed(RENAME))
    return st, rotated, renamed


def _pure_frames(g, seed):
    vec = g[:, 0]
    rotated = _local_unitary(seed) @ vec
    flipped, lay = reorder_vector(vec, LAYOUT, ("C", "B", "A"))
    return ((PureState(vec, LAYOUT), GROUPS), (PureState(rotated, LAYOUT), GROUPS),
            (PureState(flipped, lay.renamed(RENAME)), RENAMED_GROUPS))


def _close(values, reference, tol=TOL):
    assert np.allclose(values, reference, rtol=0.0, atol=tol), (values, reference)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_amplitudes(pure=False))
def test_recovery_search_ignores_the_frame(case):
    st, rotated, renamed = _mixed_frames(*case)
    for direction in ("from_bc", "from_ab"):
        runs = [best_rotated_petz(s, grp, direction) for s, grp in (
            (st, GROUPS), (rotated, GROUPS), (renamed, RENAMED_GROUPS))]
        for res in runs[1:]:
            assert (res.mode, res.t) == (runs[0].mode, runs[0].t), direction
            _close([res.error, res.fidelity], [runs[0].error, runs[0].fidelity])


def _info(states):
    """(rank, entropy_bits, purity) of ``info`` on each state's file."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, st in enumerate(states):
            path = Path(tmp) / f"{i}.json"
            save_state(st, path)
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink):
                assert main(["info", str(path)]) == 0
            report = json.loads(sink.getvalue())
            out.append((report["rank"], report["entropy_bits"], report["purity"]))
    return out


@settings(derandomize=True, max_examples=20, deadline=None)
@given(_amplitudes(pure=False))
def test_info_of_a_density_file_ignores_the_frame(case):
    (rank, *reading), *moved = _info(_mixed_frames(*case))
    for other_rank, *values in moved:
        assert other_rank == rank
        _close(values, reading)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(_amplitudes(pure=True))
def test_info_of_a_vector_file_ignores_the_frame(case):
    (rank, *reading), *moved = _info([psi for psi, _ in _pure_frames(*case)])
    assert rank == 1
    for other_rank, *values in moved:
        assert other_rank == rank
        _close(values, reading)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_amplitudes(pure=False))
def test_plain_errors_ignore_the_frame(case):
    st, rotated, renamed = _mixed_frames(*case)
    ref = is_markov(st, "B")
    moved = is_markov(rotated, "B")
    # the reversed layout conditions on y with the old C on its left
    swapped = is_markov(renamed, "y")
    _close([moved.petz_error_from_bc, moved.petz_error_from_ab, moved.qcmi_bits,
            swapped.petz_error_from_ab, swapped.petz_error_from_bc, swapped.qcmi_bits],
           [ref.petz_error_from_bc, ref.petz_error_from_ab, ref.qcmi_bits] * 2)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(_amplitudes(pure=True))
def test_cost_and_twirl_errors_ignore_the_frame(case):
    readings = []
    for psi, groups in _pure_frames(*case):
        cost = markovianizing_cost(psi, groups)
        reading = [cost.m_dec_bits, cost.weight_entropy_bits]
        for n in (1, 2):
            run = markovianize(psi, groups, n)
            reading += [run.qcmi_out, run.recovery_error_from_bc,
                        run.recovery_error_from_ab]
        readings.append(reading)
    for values in readings[1:]:
        _close(values, readings[0])


# The splittings' block data.  Only planted shapes that decompose are drawn;
# left out, since ki_decompose fails on them (ROADMAP item 1): Koashi-Imoto
# forms with two or more blocks, aR >= 2 and pure branch states phi_j
# (planted_ki_pure draws rank-2 ones there), random pure (4, 2, 2) states,
# and the non-commuting branches 1/2 |0><0| (x) |0><0| + 1/2 |+><+| (x) |1><1|.


@hs.composite
def _ki_inputs(draw):
    """rho_AC of a planted_ki_pure state with one to three blocks of aL dims
    1-2, aR dims 1-2 and 0-2 uncovered dims of A, or of a random pure (2,3,2)
    state; and a seed for the local unitary on C."""
    seed = draw(hs.integers(0, 2 ** 32 - 1))
    if draw(hs.booleans()):
        psi = planted_ki_pure(seed, draw(hs.lists(hs.integers(1, 2), min_size=1, max_size=3)),
                              draw(hs.integers(1, 2)), draw(hs.integers(0, 2)))
    else:
        psi = random_pure(LAYOUT, seed=seed)
    return partial_trace(psi, ("A", "C")), draw(hs.integers(0, 2 ** 32 - 1))


def _ki_blocks(state, part):
    def rank(mat):
        return int(support_mask(np.linalg.eigvalsh(mat), DEFAULT_TOLS.support_cutoff_rel).sum())

    return sorted((b.a_l_dim, b.a_r_dim, rank(b.omega), rank(b.phi), b.p)
                  for b in ki_decompose(state, part).blocks)


def _same_blocks(blocks, reference, tol):
    """Equal multisets: the integer fields exactly, the weight (last) to tol."""
    assert [b[:-1] for b in blocks] == [b[:-1] for b in reference], (blocks, reference)
    _close([b[-1] for b in blocks], [b[-1] for b in reference], tol)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_ki_inputs())
def test_ki_split_ignores_the_other_side_and_the_labels(case):
    rho_ac, seed = case
    reference = _ki_blocks(rho_ac, ("A",))
    u_c = np.kron(np.eye(rho_ac.layout.dims[0]),
                  random_unitary(rho_ac.layout.dims[1], np.random.default_rng(seed)))
    rotated = DensityState(u_c @ rho_ac.matrix @ u_c.conj().T, rho_ac.layout)
    flipped = reorder(rho_ac, ("C", "A"))
    renamed = DensityState(flipped.matrix, flipped.layout.renamed(RENAME))
    _same_blocks(_ki_blocks(rotated, ("A",)), reference, WEIGHT_TOL)
    _same_blocks(_ki_blocks(renamed, ("x",)), reference, WEIGHT_TOL)


# planted Markov shapes (b0, bL, bR) on A and C of dim 2; none is left out,
# since planted_markov_state draws full-rank, generic block states
MARKOV_SHAPES = ((1, 2, 2), (2, 1, 2), (2, 2, 1), (3, 1, 1), (1, 1, 2), (2, 1, 1))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(hs.sampled_from(MARKOV_SHAPES), hs.integers(0, 2 ** 32 - 1))
def test_markov_split_ignores_local_unitaries_on_a_and_c(shape, seed):
    rng = np.random.default_rng(seed)
    state, _ = planted_markov_state(rng, *shape)
    u = kron_all([random_unitary(2, rng), np.eye(state.layout.dims[1]),
                  random_unitary(2, rng)])
    rotated = DensityState(u @ state.matrix @ u.conj().T, state.layout)
    reference, moved = (sorted((e.b_l_dim, e.b_r_dim, e.q)
                               for e in markov_decompose(s, "B").entries)
                        for s in (state, rotated))
    _same_blocks(moved, reference, WEIGHT_TOL)
