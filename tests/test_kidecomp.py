"""Bipartite decomposition, tripartite lifting, invariance channels.

Hand oracles: product states (trivial algebra), a Bell pair (full algebra,
everything in the correlated factor), classical copy states (one scalar
block per branch), and a planted two-block state with all factors
nontrivial.
"""

import numpy as np
import pytest

from markovkit import (
    DensityState,
    PureState,
    SystemLayout,
    VerificationError,
    partial_trace,
    random_state,
    random_unitary,
    product_state,
    trace_distance,
    von_neumann_entropy,
)
from markovkit.kidecomp import (
    extend_to_purification,
    ki_decompose,
    state_preserving_channel,
)
from helpers import bell_pair, ghz


def random_pure(dims, seed, labels=("A", "B", "C")):
    rng = np.random.default_rng(seed)
    total = int(np.prod(dims))
    v = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    v /= np.linalg.norm(v)
    layout = SystemLayout.of(*zip(labels, dims))
    return PureState(v, layout)


def planted_two_block_state(seed=0, p=(0.7, 0.3)):
    """sum_j p_j |j><j| (x) omega_j (x) phi_j on (a0=2, aL=2, aR=2, C=2),
    with the A side (dim 8) scrambled by a random unitary."""
    rng = np.random.default_rng(seed)
    pieces = []
    plants = []
    for j, pj in enumerate(p):
        e = np.zeros((2, 2))
        e[j, j] = 1.0
        omega = random_state(SystemLayout.of(("w", 2)), seed=rng).matrix
        phi = random_state(SystemLayout.of(("r", 2), ("c", 2)), seed=rng).matrix
        pieces.append(pj * np.kron(e, np.kron(omega, phi)))
        plants.append((pj, omega, phi))
    mat = sum(pieces)
    u = random_unitary(8, rng)
    big = np.kron(u, np.eye(2)) @ mat @ np.kron(u, np.eye(2)).conj().T
    state = DensityState(big, SystemLayout.of(("A", 8), ("C", 2)))
    return state, plants


class TestKIDecompose:
    def test_product_state_single_multiplicity_block(self):
        rng = np.random.default_rng(1)
        rho = random_state(SystemLayout.of(("A", 3)), seed=rng)
        sigma = random_state(SystemLayout.of(("C", 2)), seed=rng)
        state = product_state(rho, sigma)
        ki = ki_decompose(state, "A")
        assert len(ki.blocks) == 1
        blk = ki.blocks[0]
        assert (blk.a_l_dim, blk.a_r_dim) == (3, 1)
        assert blk.p == pytest.approx(1.0, abs=1e-12)
        # aL carries rho^A: spectra agree
        got = np.sort(np.linalg.eigvalsh(blk.omega))
        want = np.sort(np.linalg.eigvalsh(rho.matrix))
        assert np.allclose(got, want, atol=1e-10)
        # phi is sigma itself (aR trivial)
        assert trace_distance(
            DensityState(blk.phi, sigma.layout),
            sigma) < 1e-10

    def test_bell_pair_everything_correlated(self):
        bell = bell_pair("A", "C")
        ki = ki_decompose(bell.to_density(), "A")
        assert len(ki.blocks) == 1
        blk = ki.blocks[0]
        assert (blk.a_l_dim, blk.a_r_dim) == (1, 2)
        phi_ar = np.einsum("acbc->ab", blk.phi.reshape(2, 2, 2, 2))
        assert np.allclose(phi_ar, np.eye(2) / 2, atol=1e-10)
        assert von_neumann_entropy(
            DensityState(phi_ar, SystemLayout.of(("r", 2)))) == pytest.approx(1.0, abs=1e-10)

    def test_classical_copy_state_scalar_blocks(self):
        mat = np.zeros((4, 4), dtype=complex)
        mat[0, 0] = mat[3, 3] = 0.5
        state = DensityState(mat, SystemLayout.of(("A", 2), ("C", 2)))
        ki = ki_decompose(state, "A")
        assert len(ki.blocks) == 2
        assert all((b.a_l_dim, b.a_r_dim) == (1, 1) for b in ki.blocks)
        assert np.allclose(ki.probabilities, [0.5, 0.5], atol=1e-12)

    def test_planted_two_block_recovery(self):
        state, plants = planted_two_block_state(seed=4)
        ki = ki_decompose(state, "A")
        assert len(ki.blocks) == 2
        assert ki.dims == (2, 2, 2)
        # canonical order is descending weight
        assert ki.blocks[0].p == pytest.approx(0.7, abs=1e-10)
        assert ki.blocks[1].p == pytest.approx(0.3, abs=1e-10)
        for blk, (pj, omega, phi) in zip(ki.blocks, plants):
            assert np.allclose(np.sort(np.linalg.eigvalsh(blk.omega)),
                               np.sort(np.linalg.eigvalsh(omega)), atol=1e-9)
            assert np.allclose(np.sort(np.linalg.eigvalsh(blk.phi)),
                               np.sort(np.linalg.eigvalsh(phi)), atol=1e-9)

    def test_reconstruction_matches_input(self):
        state, _ = planted_two_block_state(seed=8, p=(0.55, 0.45))
        ki = ki_decompose(state, "A")
        recon = ki.reconstruct()
        assert np.linalg.norm(recon.matrix - state.matrix, 2) < 1e-9

    def test_gamma_is_support_isometry(self):
        state, _ = planted_two_block_state(seed=2)
        ki = ki_decompose(state, "A")
        g = ki.gamma
        p_supp = g.conj().T @ g
        assert np.allclose(p_supp @ p_supp, p_supp, atol=1e-10)
        assert np.trace(p_supp).real == pytest.approx(8.0, abs=1e-9)

    def test_multi_label_part(self):
        bell = bell_pair("A1", "C")
        extra = random_state(SystemLayout.of(("A2", 2)), seed=5)
        state = product_state(bell.to_density(), extra)
        ki = ki_decompose(state, "A1,A2")
        assert ki.part.labels == ("A1", "A2")
        # Bell factor forces aR dim 2; the uncorrelated A2 joins aL
        assert len(ki.blocks) == 1
        assert ki.blocks[0].a_r_dim == 2
        assert ki.blocks[0].a_l_dim == 2

    def test_rejects_bad_part(self):
        bell = bell_pair("A", "C")
        with pytest.raises(ValueError):
            ki_decompose(bell.to_density(), "X")
        with pytest.raises(ValueError):
            ki_decompose(bell.to_density(), "A,C")

    @pytest.mark.xfail(strict=True, raises=VerificationError,
                       reason="known defect: conditional operators miss the "
                              "splitting when the A-side states do not commute")
    def test_noncommuting_branches_form_one_correlated_block(self):
        # 1/2 |0><0| (x) |0><0| + 1/2 |+><+| (x) |1><1|: the two A states
        # overlap, so nothing splits off; all of A is correlated with C
        zero = np.array([1.0, 0.0])
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        mat = 0.5 * np.kron(np.outer(zero, zero), np.diag([1.0, 0.0])) \
            + 0.5 * np.kron(np.outer(plus, plus), np.diag([0.0, 1.0]))
        state = DensityState(mat, SystemLayout.of(("A", 2), ("C", 2)))
        ki = ki_decompose(state, "A")
        assert len(ki.blocks) == 1
        assert (ki.blocks[0].a_l_dim, ki.blocks[0].a_r_dim) == (1, 2)


class TestExtendToPurification:
    def test_ghz_classical_branching(self):
        psi = ghz()
        ki = ki_decompose(partial_trace(psi.to_density(), ("A", "C")), "A")
        form = extend_to_purification(psi, ki)
        assert form.b_dims == (2, 1, 1)
        # the branch states on C are |0> and |1>, one per block (order is
        # a tie-break artifact at p = (1/2, 1/2))
        overlaps = sorted(
            int(np.argmax(np.abs(tb.phi_vec))) for tb in form.blocks)
        assert overlaps == [0, 1]
        for tb in form.blocks:
            assert np.max(np.abs(tb.phi_vec)) == pytest.approx(1.0, abs=1e-10)

    def test_bell_ab_with_spectator_c(self):
        bell = bell_pair("A", "B")
        vec = np.kron(bell.vector, np.array([1.0, 0.0]))
        psi = PureState(vec, SystemLayout.of(("A", 2), ("B", 2), ("C", 2)))
        ki = ki_decompose(partial_trace(psi.to_density(), ("A", "C")), "A")
        form = extend_to_purification(psi, ki)
        # bL purifies the maximally mixed aL state
        assert form.b_dims == (1, 2, 1)
        assert form.blocks[0].b_l_dim == 2

    def test_roundtrip_fidelity_random_states(self):
        for seed in range(20):
            psi = random_pure((2, 2, 2), seed)
            ki = ki_decompose(partial_trace(psi.to_density(), ("A", "C")), "A")
            form = extend_to_purification(psi, ki)
            d_c = 2
            rotated = np.kron(np.kron(ki.gamma, form.gamma_prime),
                              np.eye(d_c)) @ psi.vector
            fid = abs(np.vdot(form.ki_vector(), rotated)) ** 2
            assert fid >= 1.0 - 1e-10

    def test_b0_components_orthogonal(self):
        psi = ghz()
        ki = ki_decompose(partial_trace(psi.to_density(), ("A", "C")), "A")
        form = extend_to_purification(psi, ki)
        gp = form.gamma_prime
        assert np.allclose(gp @ gp.conj().T,
                           np.eye(gp.shape[0]), atol=1e-10)

    def test_wrong_marginal_rejected(self):
        psi = ghz()
        other = random_pure((2, 2, 2), seed=99)
        ki = ki_decompose(partial_trace(other.to_density(), ("A", "C")), "A")
        with pytest.raises(VerificationError):
            extend_to_purification(psi, ki)


class TestStatePreservingChannel:
    def setup_state(self, seed=3):
        psi = random_pure((2, 2, 2), seed)
        rho_ac = partial_trace(psi.to_density(), ("A", "C"))
        ki = ki_decompose(rho_ac, "A")
        return psi, rho_ac, ki

    def test_identity_isometries_give_identity_channel(self):
        _, rho_ac, ki = self.setup_state()
        ch = state_preserving_channel(
            ki, [np.eye(b.a_l_dim) for b in ki.blocks])
        out = ch.apply(rho_ac, targets=ki.part.labels)
        assert trace_distance(out, rho_ac) < 1e-10

    def test_phase_in_omega_eigenbasis_preserves_state(self):
        rng = np.random.default_rng(31)
        _, rho_ac, ki = self.setup_state(seed=7)
        isos = []
        for b in ki.blocks:
            _, vecs = np.linalg.eigh(b.omega)
            phases = np.exp(2j * np.pi * rng.random(b.a_l_dim))
            isos.append(vecs @ np.diag(phases) @ vecs.conj().T)
        ch = state_preserving_channel(ki, isos)
        out = ch.apply(rho_ac, targets=ki.part.labels)
        assert trace_distance(out, rho_ac) < 1e-9

    def test_dephasing_isometry_preserves_state(self):
        # U|e_l> = |e_l>|l> records the omega eigenbasis in an environment
        _, rho_ac, ki = self.setup_state(seed=11)
        isos = []
        for b in ki.blocks:
            m = b.a_l_dim
            _, vecs = np.linalg.eigh(b.omega)
            u = np.zeros((m * m, m), dtype=complex)
            for l in range(m):
                u[:, l] = np.kron(vecs[:, l], np.eye(m)[:, l])
            u = u @ vecs.conj().T
            isos.append(u)
        ch = state_preserving_channel(ki, isos)
        out = ch.apply(rho_ac, targets=ki.part.labels)
        assert trace_distance(out, rho_ac) < 1e-9

    def test_non_preserving_isometry_rejected(self):
        state, _ = planted_two_block_state(seed=21)
        ki = ki_decompose(state, "A")
        blk = ki.blocks[0]
        lam, vecs = np.linalg.eigh(blk.omega)
        assert abs(lam[0] - lam[-1]) > 1e-6
        swap = vecs[:, ::-1] @ vecs.conj().T
        with pytest.raises(ValueError):
            state_preserving_channel(ki, [swap] + [
                np.eye(b.a_l_dim) for b in ki.blocks[1:]])

    def test_preserving_channels_on_two_block_state(self):
        rng = np.random.default_rng(37)
        state, _ = planted_two_block_state(seed=23)
        ki = ki_decompose(state, "A")
        isos = []
        for b in ki.blocks:
            _, vecs = np.linalg.eigh(b.omega)
            phases = np.exp(2j * np.pi * rng.random(b.a_l_dim))
            isos.append(vecs @ np.diag(phases) @ vecs.conj().T)
        ch = state_preserving_channel(ki, isos)
        out = ch.apply(state, targets=("A",))
        assert trace_distance(out, state) < 1e-9

    def test_block_count_mismatch_rejected(self):
        _, _, ki = self.setup_state(seed=17)
        with pytest.raises(ValueError):
            state_preserving_channel(ki, [])
