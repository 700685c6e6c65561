"""Tests for Markov decompositions, recovery maps, and the tilde state."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from markovkit import markov, qcore
from markovkit.blocks import block_state, factor_block, padded_isometry
from markovkit.channels import petz_recoveries, recover
from markovkit.kidecomp import extend_to_purification, ki_decompose
from markovkit.markov import (
    estimate_zeta,
    is_markov,
    markov_decompose,
    nearest_markov_tilde,
    recovery_from_decomposition,
    split_by_conditioner,
    squeeze_T,
)
from markovkit.protocols import random_markov_state
from markovkit.qcore import (
    DEFAULT_TOLS,
    DensityState,
    PureState,
    SystemLayout,
    Tolerances,
    VerificationError,
    partial_trace,
    qcmi,
    random_pure,
    random_state,
    random_unitary,
    reorder,
    trace_distance,
)

from helpers import (
    block_phase_channel,
    dense_estimate_zeta,
    ghz,
    markov_reconstruct,
    mix_with_noise,
    mutual_information,
    planted_ki_pure,
    planted_markov_state,
    product_state,
)


def test_split_by_conditioner():
    layout = SystemLayout.of(("A", 2), ("B1", 2), ("B2", 3), ("C", 2))
    a, b, c = split_by_conditioner(layout, ("B1", "B2"))
    assert a == ("A",) and b == ("B1", "B2") and c == ("C",)
    a, b, c = split_by_conditioner(layout, "B1,B2")
    assert b == ("B1", "B2")


def test_split_rejects_bad_conditioners():
    layout = SystemLayout.of(("A", 2), ("B", 2), ("C", 2))
    with pytest.raises(ValueError):
        split_by_conditioner(layout, ("A", "C"))  # not contiguous
    with pytest.raises(ValueError):
        split_by_conditioner(layout, ("A",))  # nothing to the left
    with pytest.raises(ValueError):
        split_by_conditioner(layout, ())


def test_planted_decomposition_recovers_blocks():
    rng = np.random.default_rng(7)
    state, plant = planted_markov_state(rng)
    md = markov_decompose(state, "B")
    assert md.b_dims == plant["dims"]
    want = np.sort(plant["q"])[::-1]
    assert np.allclose([e.q for e in md.entries], want, atol=1e-9)
    # block states are recovered up to a basis change on bL / bR alone,
    # so spectra must agree
    plant_sorted = sorted(plant["blocks"], key=lambda b: -b[0])
    for entry, (q, sig, phi) in zip(md.entries, plant_sorted):
        assert abs(entry.q - q) < 1e-9
        assert np.allclose(np.linalg.eigvalsh(entry.sigma),
                           np.linalg.eigvalsh(sig), atol=1e-8)
        assert np.allclose(np.linalg.eigvalsh(entry.phi),
                           np.linalg.eigvalsh(phi), atol=1e-8)


@pytest.mark.parametrize("dims", [(1, 2, 2), (2, 1, 2), (2, 2, 1),
                                  (3, 1, 1), (1, 1, 2), (2, 2, 4)])
def test_planted_decomposition_dim_grid(dims):
    b0, bl, br = dims
    rng = np.random.default_rng(100 + 7 * b0 + 3 * bl + br)
    state, plant = planted_markov_state(rng, b0=b0, b_l=bl, b_r=br)
    md = markov_decompose(state, "B")
    assert md.b_dims == dims
    assert np.allclose([e.q for e in md.entries], np.sort(plant["q"])[::-1], atol=1e-9)
    recon = reorder(markov_reconstruct(md), state.layout.labels)
    assert trace_distance(recon, state) < 1e-8


def test_product_state_puts_everything_in_bL():
    rng = np.random.default_rng(5)
    rho_a = random_state(SystemLayout.of(("A", 2)), seed=rng)
    rho_b = random_state(SystemLayout.of(("B", 3)), seed=rng)
    rho_c = random_state(SystemLayout.of(("C", 2)), seed=rng)
    state = product_state(rho_a, rho_b, rho_c)
    md = markov_decompose(state, "B")
    assert md.b_dims == (1, 3, 1)
    assert np.allclose([e.q for e in md.entries], [1.0], atol=1e-10)
    assert np.allclose(np.linalg.eigvalsh(md.entries[0].phi),
                       np.linalg.eigvalsh(rho_c.matrix), atol=1e-9)


def test_classical_copy_state_is_all_center():
    p = np.array([0.5, 0.3, 0.2])
    dim = 27
    mat = np.zeros((dim, dim), dtype=complex)
    for j, w in enumerate(p):
        mat[j * 9 + j * 3 + j, j * 9 + j * 3 + j] = w
    layout = SystemLayout.of(("A", 3), ("B", 3), ("C", 3))
    state = DensityState(mat, layout)
    md = markov_decompose(state, "B")
    assert md.b_dims == (3, 1, 1)
    assert np.allclose([e.q for e in md.entries], p, atol=1e-10)
    for i, entry in enumerate(md.entries):
        e = np.zeros((3, 3))
        e[i, i] = 1.0
        assert np.allclose(entry.sigma, e, atol=1e-9)
        assert np.allclose(entry.phi, e, atol=1e-9)


def test_ghz_is_not_markov():
    state = ghz().to_density()
    with pytest.raises(VerificationError, match="not Markov"):
        markov_decompose(state, "B")
    report = is_markov(state, "B")
    assert not report.markov
    assert abs(report.qcmi_bits - 1.0) < 1e-9


def test_is_markov_report_on_planted():
    rng = np.random.default_rng(13)
    state, _ = planted_markov_state(rng)
    report = is_markov(state, "B")
    assert report.markov
    assert report.qcmi_bits < 1e-9
    assert report.petz_error_from_bc < 1e-8
    assert report.petz_error_from_ab < 1e-8
    recon = reorder(markov_reconstruct(markov_decompose(state, "B")), state.layout.labels)
    assert trace_distance(recon, state) < 1e-8


def _rank2_with_a_kernel_on_b() -> DensityState:
    # d_B = 2 and rho_B of rank 1, so both directions' Petz maps are completed
    # on rho_B's kernel
    ac = random_state(SystemLayout.of(("A", 2), ("C", 2)), rank=2, seed=5)
    b = random_pure(SystemLayout.of(("B", 2)), seed=6).to_density()
    return reorder(product_state(ac, b), ("A", "B", "C"))


@pytest.mark.parametrize("state", [
    random_state(SystemLayout.of(("A", 2), ("B", 3), ("C", 2)), seed=21),
    _rank2_with_a_kernel_on_b(),
    random_markov_state(22),
    product_state(*(random_state(SystemLayout.of((l, 2)), seed=23 + i)
                    for i, l in enumerate("ABC"))),
], ids=["full232", "rank2_222", "markov", "product"])
def test_is_markov_errors_match_the_built_plain_recoveries(state):
    report = is_markov(state, "B")
    for direction, err in (("from_bc", report.petz_error_from_bc),
                           ("from_ab", report.petz_error_from_ab)):
        recovered = next(petz_recoveries(state, "A|B|C", direction))[1]
        assert abs(err - trace_distance(recovered, state)) <= 1e-12


def test_is_markov_decomposes_each_marginal_once(monkeypatch):
    # the QCMI's entropies come from the Petz cores' spectra, and both
    # directions share one decomposition of rho_B
    st = random_state(SystemLayout.of(("A", 2), ("B", 3), ("C", 2)), seed=8)
    seen = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name,
            lambda a, *args, _solver=solver, **kw: seen.append(np.array(a))
            or _solver(a, *args, **kw))
    report = is_markov(st, "B")
    monkeypatch.undo()
    for keep in ("B", ("A", "B"), ("B", "C"), ("A", "B", "C")):
        marginal = partial_trace(st, keep).matrix
        hits = [m for m in seen if m.shape == marginal.shape
                and np.abs(m - marginal).max() <= 1e-14]
        assert len(hits) == 1, keep
    assert abs(report.qcmi_bits - qcmi(st, "A|B|C")) <= 1e-12


def test_markov_checks_take_their_tols_into_qcmi():
    rng = np.random.default_rng(13)
    state, _ = planted_markov_state(rng)
    # trace off by 1e-6: past the default entropy check, inside 10 * 1e-6
    scaled = DensityState(state.matrix * (1.0 + 1e-6), state.layout, validate=False)
    with pytest.raises(ValueError, match="trace"):
        is_markov(scaled, "B")
    loose = Tolerances(verify_tol=1e-6)
    assert is_markov(scaled, "B", tols=loose).markov
    assert markov_decompose(scaled, "B", tols=loose).b_dims == \
        markov_decompose(state, "B").b_dims


@pytest.mark.parametrize("direction", ["from_bc", "from_ab"])
def test_recovery_exact_on_own_state(direction):
    rng = np.random.default_rng(23)
    state, _ = planted_markov_state(rng)
    md = markov_decompose(state, "B")
    channel = recovery_from_decomposition(md, direction)
    assert channel.completeness_deviation() < 1e-10
    out = recover(state, "A|B|C", direction, channel)
    assert trace_distance(out, state) < 1e-9


@pytest.mark.parametrize("seed,weight", [(31, 0.02), (32, 0.08)])
def test_recovery_error_at_most_twice_the_perturbation(seed, weight):
    rng = np.random.default_rng(seed)
    clean, _ = planted_markov_state(rng)
    noisy = mix_with_noise(clean, rng, weight)
    eps = trace_distance(noisy, clean)
    md = markov_decompose(clean, "B")
    for direction in ("from_bc", "from_ab"):
        channel = recovery_from_decomposition(md, direction)
        out = recover(noisy, "A|B|C", direction, channel)
        assert trace_distance(out, noisy) <= 2 * eps + 1e-9


def test_recovery_handles_rank_deficient_conditioner():
    rng = np.random.default_rng(41)
    u = random_unitary(3, rng)
    rho_b = DensityState(u @ np.diag([0.6, 0.4, 0.0]) @ u.conj().T,
                         SystemLayout.of(("B", 3)), validate=False)
    state = product_state(random_state(SystemLayout.of(("A", 2)), seed=rng),
                          rho_b,
                          random_state(SystemLayout.of(("C", 2)), seed=rng))
    md = markov_decompose(state, "B")
    assert md.b_dims == (1, 2, 1)
    for direction in ("from_bc", "from_ab"):
        channel = recovery_from_decomposition(md, direction)
        assert channel.completeness_deviation() < 1e-10
        out = recover(state, "A|B|C", direction, channel)
        assert trace_distance(out, state) < 1e-9


def test_recovery_direction_validation():
    rng = np.random.default_rng(43)
    state, _ = planted_markov_state(rng)
    md = markov_decompose(state, "B")
    with pytest.raises(ValueError):
        recovery_from_decomposition(md, "C->AB")


def test_squeeze_fixes_block_states():
    rng = np.random.default_rng(53)
    state, _ = planted_markov_state(rng)
    md = markov_decompose(state, "B")
    out, kept = squeeze_T(state, "B", md.gamma_prime, md.b_dims)
    assert abs(kept - 1.0) < 1e-10
    assert trace_distance(out, state) < 1e-10


def test_squeeze_six_eps_bound():
    rng = np.random.default_rng(59)
    clean, _ = planted_markov_state(rng)
    md = markov_decompose(clean, "B")
    for weight in (0.02, 0.08):
        noisy = mix_with_noise(clean, rng, weight)
        eps = trace_distance(noisy, clean)
        out, kept = squeeze_T(noisy, "B", md.gamma_prime, md.b_dims)
        assert kept <= 1.0 + 1e-12
        assert trace_distance(noisy, out) <= 6 * eps + 1e-9


def test_squeeze_reports_lost_weight():
    rng = np.random.default_rng(61)
    u = random_unitary(3, rng)
    rho_b = DensityState(u @ np.diag([0.6, 0.4, 0.0]) @ u.conj().T,
                         SystemLayout.of(("B", 3)), validate=False)
    clean = product_state(random_state(SystemLayout.of(("A", 2)), seed=rng),
                          rho_b,
                          random_state(SystemLayout.of(("C", 2)), seed=rng))
    md = markov_decompose(clean, "B")
    noisy = mix_with_noise(clean, rng, 0.3)  # noise is full rank on B
    out, kept = squeeze_T(noisy, "B", md.gamma_prime, md.b_dims)
    assert kept < 1.0 - 1e-4
    assert abs(np.trace(out.matrix).real - kept) < 1e-10


def _einsum_squeeze(state, g, b_dims):
    """squeeze_T written out with the three-operand einsum rotation and the
    Kronecker-expanded pull-back, for a state on (A, B, C)."""
    d_a, d_b, d_c = state.layout.dims
    d0, dl, dr = b_dims
    rho6 = state.matrix.reshape(d_a, d_b, d_c, d_a, d_b, d_c)
    rot = np.einsum("up,apcbqd,vq->aucbvd", g, rho6, g.conj())
    kept = float(np.einsum("aucauc->", rot).real)
    rot = rot.reshape(d_a, d0, dl, dr, d_c, d_a, d0, dl, dr, d_c)
    dim_l, dim_r = d_a * dl, dr * d_c
    blocks = [factor_block(rot[:, i, :, :, :, :, i].reshape(dim_l, dim_r, dim_l, dim_r),
                           max(kept, 1e-30) * 1e-14) for i in range(d0)]
    big = np.kron(np.kron(np.eye(d_a), g), np.eye(d_c))
    return big.conj().T @ block_state(b_dims, blocks, d_a, d_c) @ big, kept


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_squeeze_matches_the_einsum_rotation(seed):
    # gamma' covers 3 of B's 4 dims with blocks (bL, bR) = (1, 2) and (1, 1)
    rng = np.random.default_rng(seed)
    u = random_unitary(4, rng)
    g, b_dims = padded_isometry([u[:, :2].reshape(4, 1, 2), u[:, 2:3].reshape(4, 1, 1)])
    assert b_dims == (2, 1, 2)
    state = random_state(SystemLayout.of(("A", 2), ("B", 4), ("C", 3)), seed=rng)
    want, want_kept = _einsum_squeeze(state, g, b_dims)
    out, kept = squeeze_T(state, "B", g, b_dims)
    assert kept < 1.0 - 1e-3
    assert abs(kept - want_kept) <= 1e-14
    assert np.abs(out.matrix - want).max() <= 1e-14


def test_tilde_of_ghz_is_the_dephased_ghz():
    psi = ghz()
    tilde = nearest_markov_tilde(psi, "A|B|C")
    expect = np.zeros((8, 8), dtype=complex)
    expect[0, 0] = expect[7, 7] = 0.5
    assert np.allclose(tilde.matrix, expect, atol=1e-9)
    assert qcmi(tilde, (("A",), ("B",), ("C",))) < 1e-9
    assert abs(mutual_information(tilde, ("A",), ("B", "C")) - 1.0) < 1e-9


def test_tilde_of_product_state_is_itself():
    layout = SystemLayout.of(("A", 2), ("B", 2), ("C", 2))
    v = np.zeros(8, dtype=complex)
    v[0] = 1.0
    psi = PureState(v, layout)
    tilde = nearest_markov_tilde(psi, "A|B|C")
    assert trace_distance(tilde, psi.to_density()) < 1e-9
    assert mutual_information(tilde, ("A",), ("B", "C")) < 1e-9


@pytest.mark.parametrize("seed", [3, 17, 91])
def test_tilde_invariants_on_random_pure_states(seed):
    layout = SystemLayout.of(("A", 2), ("B", 2), ("C", 2))
    psi = random_pure(layout, seed)
    rho = psi.to_density()
    tilde = nearest_markov_tilde(psi, "A|B|C")
    grouping = (("A",), ("B",), ("C",))
    assert np.allclose(partial_trace(tilde, ("A",)).matrix,
                       partial_trace(rho, ("A",)).matrix, atol=1e-10)
    m = mutual_information(tilde, ("A",), ("B", "C"))
    assert qcmi(rho, grouping) <= m + 1e-9
    assert m <= mutual_information(rho, ("A",), ("B", "C")) + 1e-9


def _ac_split(psi: PureState):
    return ki_decompose(partial_trace(psi.to_density(), ("A", "C")), ("A",))


# a random-pure seed, or planted_ki_pure's (seed, aL dims per block, aR,
# uncovered dims of A): two or three blocks, aL up to 3, a kernel on A
@pytest.mark.parametrize("case", [5, 29, (7, (1, 2), 2, 1), (13, (2, 3), 1, 2),
                                  (19, (2, 2, 1), 2, 0), (23, (3, 2), 2, 1)],
                         ids=str)
def test_tilde_matches_pinched_block_form(case):
    # rotating the output by (gamma x gamma_prime) must give exactly the
    # pinched version of the rotated pure state: b0 coherences dropped and
    # each block's bL factor replaced by its omega_j marginal; the pinching
    # is built here on B, through the lift to the purification
    if isinstance(case, int):
        psi = random_pure(SystemLayout.of(("A", 2), ("B", 2), ("C", 2)), case)
    else:
        psi = planted_ki_pure(*case)
    ki = _ac_split(psi)
    if not isinstance(case, int):
        _, l_dims, d_r, _ = case
        assert sorted((b.a_l_dim, b.a_r_dim) for b in ki.blocks) \
            == sorted((l, d_r) for l in l_dims)
    form = extend_to_purification(psi, ki)
    tilde = nearest_markov_tilde(psi, "A|B|C")

    (a0, al, ar), (b0, bl, br) = ki.dims, form.b_dims
    d_c = ki.rest.total_dim
    v = form.ki_vector().reshape(a0 * al * ar, b0, bl, br, d_c)
    x = np.einsum("ujlrc,vkmsd->ujlrcvkmsd", v, v.conj())
    pinched = np.zeros_like(x)
    for j, (kb, tb) in enumerate(zip(ki.blocks, form.blocks)):
        w = tb.omega_vec.reshape(kb.a_l_dim, tb.b_l_dim)
        omega_b = np.zeros((bl, bl), dtype=complex)
        omega_b[:tb.b_l_dim, :tb.b_l_dim] = np.einsum("lx,ly->xy", w, w.conj())
        traced = np.einsum("ulrcvlsd->urcvsd", x[:, j, :, :, :, :, j, :, :, :])
        pinched[:, j, :, :, :, :, j, :, :, :] = np.einsum(
            "urcvsd,lm->ulrcvmsd", traced, omega_b)
    dim = a0 * al * ar * b0 * bl * br * d_c
    expected = pinched.reshape(dim, dim)

    rot = np.kron(np.kron(ki.gamma, form.gamma_prime), np.eye(d_c))
    got = rot @ tilde.matrix @ rot.conj().T
    assert np.allclose(got, expected, atol=1e-9)


def test_zeta_vanishes_without_budget():
    psi = ghz()
    assert estimate_zeta(psi, _ac_split(psi), 0.0, trials=6, seed=1) < 1e-9


@pytest.mark.parametrize("eps", [-0.1, float("nan")])
def test_zeta_refuses_a_negative_or_nan_budget(eps):
    with pytest.raises(ValueError, match="eps must be nonnegative"):
        estimate_zeta(ghz(), _ac_split(ghz()), eps)


def test_zeta_monotone_and_positive():
    psi = ghz()
    z_small = estimate_zeta(psi, _ac_split(psi), 0.02, trials=6, seed=3)
    z_large = estimate_zeta(psi, _ac_split(psi), 0.1, trials=6, seed=3)
    assert 0.0 <= z_small <= z_large
    assert z_large > 1e-4
    assert z_large < 4.0


def test_zeta_deterministic_per_seed():
    psi = ghz()
    a = estimate_zeta(psi, _ac_split(psi), 0.05, trials=4, seed=9)
    b = estimate_zeta(psi, _ac_split(psi), 0.05, trials=4, seed=9)
    assert a == b


def test_decompose_with_multilabel_sides():
    rng = np.random.default_rng(67)
    state, plant = planted_markov_state(rng, d_a=4)
    mat = state.matrix
    layout = SystemLayout.of(("A1", 2), ("A2", 2), ("B", 8), ("C", 2))
    state2 = DensityState(mat, layout, validate=False)
    md = markov_decompose(state2, "B")
    assert md.b_dims == plant["dims"]
    assert md.a_part.labels == ("A1", "A2")
    recon = reorder(markov_reconstruct(md), layout.labels)
    assert trace_distance(recon, state2) < 1e-8


@pytest.mark.parametrize("grouping", [
    (("A",), ("B",), ("C",)),  # D left out
    (("A",), ("B", "C", "D"), ("C",)),  # C listed twice
    ("A", "B", "C"),
])
def test_sequence_groupings_must_partition_the_layout(grouping):
    layout = SystemLayout.of(("A", 2), ("B", 2), ("C", 2), ("D", 2))
    psi = random_pure(layout, seed=0)
    with pytest.raises(ValueError):
        nearest_markov_tilde(psi, grouping)


ZETA_BUDGETS = (0.0, 1e-3, 0.05, 0.3, 2.0)

# random pure (2..3)^3 states and planted KI forms (aL dims, aR, kernel)
zeta_cases = given(
    hs.one_of(hs.tuples(hs.integers(2, 3), hs.integers(2, 3), hs.integers(2, 3)),
              hs.sampled_from([((1, 2), 2, 1), ((2, 1), 1, 0), ((1, 1), 2, 0),
                               ((2,), 2, 1)])),
    hs.integers(0, 2**16))


def _zeta_input(case, seed) -> PureState:
    if isinstance(case[0], int):
        return random_pure(SystemLayout.of(*zip("ABC", case)), seed)
    return planted_ki_pure(seed, *case)


@settings(derandomize=True, max_examples=10, deadline=None)
@zeta_cases
def test_zeta_matches_the_channel_by_channel_search(case, seed):
    # budgets from 0 to 2 and 2, 3 and 6 trials run the rotation, dephasing
    # and exact-preserver families, and from 0.05 on the Markov-state side
    psi = _zeta_input(case, seed)
    ki = _ac_split(psi)
    for trials in (2, 3, 6):
        got = [estimate_zeta(psi, ki, eps, trials=trials, seed=seed)
               for eps in ZETA_BUDGETS]
        want = [dense_estimate_zeta(psi, ki, eps, trials=trials, seed=seed)
                for eps in ZETA_BUDGETS]
        assert np.abs(np.subtract(got, want)).max() <= 1e-12
        assert got == sorted(got) and got[-1] > 0.0
    assert estimate_zeta(psi, ki, 0.3, trials=6, seed=seed) == got[3]


@settings(derandomize=True, max_examples=10, deadline=None)
@zeta_cases
def test_exact_preservers_leave_the_markov_state_fixed(case, seed):
    # the Koashi-Imoto identity estimate_zeta scores its third family by
    psi = _zeta_input(case, seed)
    ki = _ac_split(psi)
    tilde = markov._pinched_tilde(psi, ki, DEFAULT_TOLS)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        moved = block_phase_channel(ki, rng).apply(tilde, ki.part.labels)
        assert trace_distance(moved, tilde) <= 1e-13


@settings(derandomize=True, max_examples=10, deadline=None)
@zeta_cases
def test_zeta_third_trial_adds_nothing(case, seed):
    psi = _zeta_input(case, seed)
    ki = _ac_split(psi)
    for eps in (0.0, 1e-3, 0.3):
        assert (estimate_zeta(psi, ki, eps, trials=3, seed=seed)
                == estimate_zeta(psi, ki, eps, trials=2, seed=seed))


def test_zeta_is_the_same_in_chunks(monkeypatch):
    # rho_AC has 81 entries and the Markov state 324: at 200 per stack the
    # families are scored two and one state at a time
    psi = random_pure(SystemLayout.of(("A", 3), ("B", 2), ("C", 3)), 4)
    ki = _ac_split(psi)
    whole = estimate_zeta(psi, ki, 0.3, trials=6, seed=2)
    monkeypatch.setattr(qcore, "_STACK_ENTRIES", 200)
    assert estimate_zeta(psi, ki, 0.3, trials=6, seed=2) == whole > 0.0
