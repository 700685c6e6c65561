import numpy as np
import pytest

from markovkit.qcore import (
    DensityState,
    SystemLayout,
    partial_trace,
    qcmi,
    random_state,
    random_unitary,
    reorder,
    trace_distance,
    von_neumann_entropy,
)
from markovkit.channels import (
    QuantumChannel,
    RandomUnitaryEnsemble,
    best_rotated_petz,
    dephasing_channel,
    heisenberg_weyl,
    petz_recovery,
    phase_ops,
    stinespring,
    unitary_channel,
)

from helpers import (
    averaged_petz_choi_oracle,
    choi_of,
    ghz,
    mix_with_noise,
    petz_choi_oracle,
    planted_markov_state,
)


class TestApply:
    def test_unitary_on_subsystem(self):
        rng = np.random.default_rng(40)
        lay = SystemLayout.of(("A", 2), ("B", 3))
        st = random_state(lay, seed=rng)
        u = random_unitary(3, rng)
        chan = unitary_channel(u, SystemLayout.of(("B", 3)))
        out = chan.apply(st, targets="B")
        assert out.layout.labels == ("A", "B")
        full = np.kron(np.eye(2), u)
        assert np.allclose(out.matrix, full @ st.matrix @ full.conj().T, atol=1e-12)

    def test_apply_preserves_other_marginals(self):
        rng = np.random.default_rng(41)
        lay = SystemLayout.of(("A", 2), ("B", 2), ("C", 2))
        st = random_state(lay, seed=rng)
        chan = dephasing_channel(np.eye(2), SystemLayout.of(("B", 2)))
        out = chan.apply(st, targets="B")
        assert np.allclose(partial_trace(out, ("A", "C")).matrix,
                           partial_trace(st, ("A", "C")).matrix, atol=1e-12)

    def test_dephasing_kills_off_diagonals(self):
        lay = SystemLayout.of(("A", 2))
        plus = DensityState(np.full((2, 2), 0.5), lay)
        out = dephasing_channel(np.eye(2), lay).apply(plus)
        assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-14)

    def test_dim_mismatch_rejected(self):
        lay = SystemLayout.of(("A", 2), ("B", 3))
        st = random_state(lay, seed=1)
        chan = dephasing_channel(np.eye(2), SystemLayout.of(("X", 2)))
        with pytest.raises(ValueError):
            chan.apply(st, targets="B")

    def test_bad_kraus_shapes_rejected(self):
        lay = SystemLayout.of(("A", 2))
        with pytest.raises(ValueError):
            QuantumChannel([np.eye(3)], lay, lay)


class TestEnsembles:
    def test_cost_bits(self):
        lay = SystemLayout.of(("A", 2))
        ens = RandomUnitaryEnsemble([np.eye(2)] * 8, lay)
        assert ens.cost_bits == pytest.approx(3.0)

    def test_phase_ops_and_heisenberg_weyl_are_unitary(self):
        for d in (2, 3):
            for u in phase_ops(d) + heisenberg_weyl(d):
                assert np.allclose(u @ u.conj().T, np.eye(d), atol=1e-12)
        assert len(phase_ops(3)) == 3
        assert len(heisenberg_weyl(3)) == 9

    def test_heisenberg_weyl_trace_orthogonal(self):
        d = 3
        ops = heisenberg_weyl(d)
        gram = np.array([[np.trace(a.conj().T @ b) for b in ops] for a in ops])
        assert np.allclose(gram, d * np.eye(d * d), atol=1e-12)

    def test_heisenberg_weyl_twirl_depolarizes(self):
        d = 3
        lay = SystemLayout.of(("A", d))
        st = random_state(lay, seed=42)
        ens = RandomUnitaryEnsemble(heisenberg_weyl(d), lay)
        out = ens.as_channel().apply(st)
        assert np.allclose(out.matrix, np.eye(d) / d, atol=1e-12)

    def test_phase_twirl_dephases(self):
        d = 4
        lay = SystemLayout.of(("A", d))
        st = random_state(lay, seed=43)
        ens = RandomUnitaryEnsemble(phase_ops(d), lay)
        out = ens.as_channel().apply(st)
        assert np.allclose(out.matrix, np.diag(np.diag(st.matrix)), atol=1e-12)

    def test_unital_channel_never_decreases_entropy(self):
        rng = np.random.default_rng(44)
        lay = SystemLayout.of(("A", 3))
        ens = RandomUnitaryEnsemble([random_unitary(3, rng) for _ in range(4)], lay)
        chan = ens.as_channel()
        for _ in range(100):
            st = random_state(lay, rank=int(rng.integers(1, 4)), seed=rng)
            assert von_neumann_entropy(chan.apply(st)) >= von_neumann_entropy(st) - 1e-9


class TestStinespring:
    def test_isometry_and_dilation(self):
        rng = np.random.default_rng(45)
        lay = SystemLayout.of(("A", 3))
        ens = RandomUnitaryEnsemble([random_unitary(3, rng) for _ in range(5)], lay)
        iso = stinespring(ens)
        assert iso.env_dim == 5
        iso.check()
        st = random_state(lay, seed=rng)
        via_iso = iso.apply_and_trace_env(st.matrix)
        via_chan = ens.as_channel().apply(st).matrix
        assert np.allclose(via_iso, via_chan, atol=1e-12)

    def test_single_unitary_edge(self):
        lay = SystemLayout.of(("A", 2))
        u = random_unitary(2, 7)
        iso = stinespring(RandomUnitaryEnsemble([u], lay))
        assert iso.env_dim == 1
        assert np.allclose(iso.matrix, u, atol=1e-14)


class TestPetzRecovery:
    def test_ghz_from_bc_gives_dephased_ghz(self):
        st = ghz().to_density()
        model = partial_trace(st, ("A", "B"))
        chan = petz_recovery(model, "A", mode="plain")
        inp = partial_trace(st, ("B", "C"))
        out = reorder(chan.apply(inp, targets="B"), ("A", "B", "C"))
        dephased = np.zeros((8, 8), dtype=complex)
        dephased[0, 0] = 0.5
        dephased[7, 7] = 0.5
        assert np.allclose(out.matrix, dephased, atol=1e-10)
        assert trace_distance(out, st) == pytest.approx(1.0, abs=1e-10)

    def test_exact_on_markov_states_both_directions(self):
        rng = np.random.default_rng(46)
        for _ in range(5):
            st, _ = planted_markov_state(rng)
            for direction, onto in (("from_bc", ("A",)), ("from_ab", ("C",))):
                model_keep = onto + ("B",)
                model = partial_trace(st, model_keep)
                chan = petz_recovery(model, onto, mode="plain")
                marg = ("B", "C") if direction == "from_bc" else ("A", "B")
                out = chan.apply(partial_trace(st, marg), targets="B")
                out = reorder(out, ("A", "B", "C"))
                assert trace_distance(out, st) <= 1e-8

    def test_rotated_at_zero_matches_plain(self):
        rng = np.random.default_rng(47)
        lay = SystemLayout.of(("A", 2), ("B", 2))
        st = random_state(lay, seed=rng)
        plain = petz_recovery(st, "A", mode="plain")
        rot = petz_recovery(st, "A", mode="rotated", t=0.0)
        probe = random_state(SystemLayout.of(("B", 2)), seed=rng)
        assert np.allclose(plain.apply(probe, targets="B").matrix,
                           rot.apply(probe, targets="B").matrix, atol=1e-12)

    def test_completeness_on_rank_deficient_marginal(self):
        rng = np.random.default_rng(48)
        lay = SystemLayout.of(("A", 2), ("B", 4))
        st = random_state(lay, rank=3, seed=rng)
        for mode in ("plain", "rotated", "averaged"):
            chan = petz_recovery(st, "A", mode=mode, t=0.8)
            assert chan.completeness_deviation() <= 1e-10

    def test_averaged_root_fidelity_bound_spot_checks(self):
        # Universal recovery bound: root-fidelity >= 2^(-QCMI/2).
        rng = np.random.default_rng(49)
        lay = SystemLayout.of(("A", 2), ("B", 2), ("C", 2))
        for _ in range(10):
            st = random_state(lay, seed=rng)
            model = partial_trace(st, ("A", "B"))
            chan = petz_recovery(model, "A", mode="averaged")
            out = reorder(chan.apply(partial_trace(st, ("B", "C")), targets="B"),
                          ("A", "B", "C"))
            from markovkit.qcore import fidelity
            bound = 2.0 ** (-qcmi(st, (("A",), ("B",), ("C",))) / 2.0)
            assert np.sqrt(fidelity(st, out)) >= bound - 1e-6

    def test_preserves_conditioner_marginal(self):
        # Recovery maps act only above the conditioning system: B marginal of
        # the model state is reproduced when fed that marginal.
        rng = np.random.default_rng(50)
        lay = SystemLayout.of(("A", 2), ("B", 3))
        st = random_state(lay, seed=rng)
        chan = petz_recovery(st, "A", mode="plain")
        out = chan.apply(partial_trace(st, "B"), targets="B")
        assert trace_distance(partial_trace(out, "B"), partial_trace(st, "B")) <= 1e-9
        assert trace_distance(out, st) <= 1e-9  # Petz is exact on its own state


# (joint dims, rank, recover_onto): full rank, a rank-deficient B marginal,
# and a two-label target given out of layout order.
ORACLE_CASES = [
    ((2, 3, 2), None, ("A",)),
    ((2, 4, 2), 3, ("A",)),
    ((2, 3, 2), None, ("C", "A")),
]


class TestPetzAgainstOracles:
    @pytest.mark.parametrize("dims,rank,onto", ORACLE_CASES)
    @pytest.mark.parametrize("mode,t", [("plain", 0.0), ("rotated", 1.3), ("rotated", -2.5)])
    def test_plain_and_rotated_match_matrix_powers(self, dims, rank, onto, mode, t):
        lay = SystemLayout.of(("A", dims[0]), ("B", dims[1]), ("C", dims[2]))
        st = random_state(lay, rank=rank, seed=60)
        chan = petz_recovery(st, onto, mode=mode, t=t)
        assert np.abs(choi_of(chan) - petz_choi_oracle(st, onto, t)).max() <= 1e-12

    @pytest.mark.parametrize("dims,rank,onto", ORACLE_CASES)
    def test_averaged_matches_fine_quadrature(self, dims, rank, onto):
        lay = SystemLayout.of(("A", dims[0]), ("B", dims[1]), ("C", dims[2]))
        st = random_state(lay, rank=rank, seed=61)
        chan = petz_recovery(st, onto, mode="averaged")
        assert np.abs(choi_of(chan) - averaged_petz_choi_oracle(st, onto)).max() <= 1e-12

    @pytest.mark.parametrize("mode", ["plain", "rotated", "averaged"])
    def test_negative_support_eigenvalue_raises(self, mode):
        # The B marginal diag(0.5, 0.5) is fine; the joint has -0.1 on its support.
        lay = SystemLayout.of(("A", 2), ("B", 2))
        st = DensityState(np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex), lay,
                          validate=False)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            petz_recovery(st, "A", mode=mode, t=0.5)


class TestBestRotatedPetz:
    def test_ties_resolve_to_plain_on_markov_state(self):
        rng = np.random.default_rng(51)
        st, _ = planted_markov_state(rng, b0=2, b_l=1, b_r=1)
        res = best_rotated_petz(st, (("A",), ("B",), ("C",)), direction="from_bc",
                                t_grid=(-1.0, 0.0, 1.0))
        assert res.error <= 1e-8
        assert res.mode == "plain"

    def test_beats_or_matches_plain(self):
        rng = np.random.default_rng(52)
        st, _ = planted_markov_state(rng, b0=2, b_l=1, b_r=1)
        st = mix_with_noise(st, rng, 0.05)
        res = best_rotated_petz(st, (("A",), ("B",), ("C",)), direction="from_ab",
                                t_grid=(-2.0, -1.0, 1.0, 2.0))
        plain_err = dict(((m, t), e) for m, t, e in res.per_candidate)[("plain", None)]
        assert res.error <= plain_err + 1e-12

    def test_deterministic(self):
        rng1 = np.random.default_rng(53)
        rng2 = np.random.default_rng(53)
        st1, _ = planted_markov_state(rng1)
        st2, _ = planted_markov_state(rng2)
        r1 = best_rotated_petz(st1, (("A",), ("B",), ("C",)), t_grid=(0.5,))
        r2 = best_rotated_petz(st2, (("A",), ("B",), ("C",)), t_grid=(0.5,))
        assert r1.mode == r2.mode and r1.error == r2.error
