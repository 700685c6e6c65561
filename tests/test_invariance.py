"""Metamorphic checks: recovery errors, QCMIs, the recovery winner and the
cost are properties of the state, not of its frame.  A local unitary
U_A (x) U_B (x) U_C, or renamed labels in a reversed layout, must move none
of them by more than 1e-12."""

import numpy as np
from hypothesis import given, settings, strategies as hs

from markovkit.channels import best_rotated_petz
from markovkit.cost import markovianizing_cost
from markovkit.markov import is_markov
from markovkit.protocols import markovianize
from markovkit.qcore import (
    DensityState,
    PureState,
    SystemLayout,
    kron_all,
    random_unitary,
    reorder,
    reorder_vector,
)

LAYOUT = SystemLayout.of(("A", 2), ("B", 3), ("C", 2))
GROUPS = (("A",), ("B",), ("C",))
# renamed and reversed, so B still conditions contiguously, with A and C swapped
RENAME = {"A": "x", "B": "y", "C": "z"}
RENAMED_GROUPS = (("x",), ("y",), ("z",))
TOL = 1e-12


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


def _close(values, reference):
    assert np.allclose(values, reference, rtol=0.0, atol=TOL), (values, reference)


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
