import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from markovkit import channels

from markovkit.qcore import (
    DensityState,
    SystemLayout,
    Tolerances,
    VerificationError,
    kron_all,
    partial_trace,
    qcmi,
    random_state,
    random_unitary,
    reorder,
    support_eigh,
    trace_distance,
    von_neumann_entropy,
)
from markovkit.channels import (
    DEFAULT_T_GRID,
    QuantumChannel,
    RandomUnitaryEnsemble,
    best_rotated_petz,
    heisenberg_weyl,
    petz_errors,
    petz_recoveries,
    petz_recovery,
    phase_ops,
    unitary_channel,
)

from helpers import (
    averaged_petz_choi_oracle,
    choi_of,
    dephasing_channel,
    ensemble_channel,
    ghz,
    kron_apply,
    loop_heisenberg_weyl,
    loop_phase_ops,
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

    def test_empty_kraus_list_rejected(self):
        lay = SystemLayout.of(("A", 2))
        with pytest.raises(ValueError, match="at least one Kraus operator"):
            QuantumChannel([], lay, lay)

    def test_channel_on_a_binds_to_copy_label(self):
        rng = np.random.default_rng(50)
        lay = SystemLayout.of(("A#1", 2), ("A#2", 2), ("B#1", 3))
        st = random_state(lay, seed=rng)
        u = random_unitary(2, rng)
        out = unitary_channel(u, SystemLayout.of(("A", 2))).apply(st, "A#2")
        assert out.layout == lay
        full = kron_all([np.eye(2), u, np.eye(3)])
        assert np.abs(out.matrix - full @ st.matrix @ full.conj().T).max() <= 1e-13

        # an output subsystem without an input label keeps its own label
        v = random_unitary(4, rng)[:, :2]
        grow = QuantumChannel([v], SystemLayout.of(("A", 2)),
                              SystemLayout.of(("A", 2), ("X", 2)))
        out = grow.apply(st, "A#2")
        assert out.layout.labels == ("A#1", "A#2", "X", "B#1")
        full = kron_all([np.eye(2), v, np.eye(3)])
        assert np.abs(out.matrix - full @ st.matrix @ full.conj().T).max() <= 1e-13
        clash = DensityState(st.matrix, lay.renamed({"B#1": "X"}), validate=False)
        with pytest.raises(ValueError, match="duplicate"):
            grow.apply(clash, "A#2")

    def test_output_check_follows_tols(self):
        lay = SystemLayout.of(("A", 2), ("B", 2))
        st = random_state(lay, seed=51)
        # trace grows by 1e-6: above 10 * 1e-8, below 10 * 1e-6
        chan = QuantumChannel([np.sqrt(1.0 + 1e-6) * np.eye(2)],
                              SystemLayout.of(("B", 2)), SystemLayout.of(("B", 2)))
        with pytest.raises(ValueError, match="trace"):
            chan.apply(st, "B")
        out = chan.apply(st, "B", Tolerances(verify_tol=1e-6))
        assert abs(out.matrix.trace() - (1.0 + 1e-6)) < 1e-12


@hs.composite
def _apply_cases(draw):
    """A random state on 2-4 subsystems (dims 1-3), targets in any order, and
    a random channel on them whose output may add a subsystem."""
    n = draw(hs.integers(2, 4))
    dims = draw(hs.lists(hs.integers(1, 3), min_size=n, max_size=n))
    labels = [f"S{i}" for i in range(n)]
    order = draw(hs.permutations(labels))
    targets = tuple(order[:draw(hs.integers(1, n))])
    in_layout = SystemLayout.of(*((f"I{j}", dims[labels.index(l)])
                                  for j, l in enumerate(targets)))
    extra = draw(hs.sampled_from([None, 1, 2, 3]))
    out_layout = in_layout
    if extra is not None:
        new = SystemLayout.of(("N", extra))
        out_layout = new.concat(in_layout) if draw(hs.booleans()) else in_layout.concat(new)
    rng = np.random.default_rng(draw(hs.integers(0, 2 ** 32 - 1)))
    nk = draw(hs.integers(1, 3))
    d_in, d_out = in_layout.total_dim, out_layout.total_dim
    g = rng.standard_normal((nk * d_out, d_in)) + 1j * rng.standard_normal((nk * d_out, d_in))
    q = np.linalg.qr(g)[0]
    chan = QuantumChannel([q[j * d_out:(j + 1) * d_out] for j in range(nk)],
                          in_layout, out_layout)
    lay = SystemLayout.of(*zip(labels, dims))
    rank = draw(hs.integers(1, lay.total_dim))
    return random_state(lay, rank=rank, seed=rng), targets, chan


class TestApplyAgainstKronOracle:
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(_apply_cases())
    def test_random_channels(self, case):
        st, targets, chan = case
        out = chan.apply(st, targets)
        ref = kron_apply(chan, st, targets)
        assert out.layout == ref.layout
        assert np.abs(out.matrix - ref.matrix).max() <= 1e-13

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(hs.lists(hs.integers(1, 3), min_size=3, max_size=3),
           hs.sampled_from(["plain", "rotated", "averaged"]),
           hs.sampled_from([("A", ("B", "C")), ("C", ("A", "B"))]),
           hs.integers(0, 2 ** 32 - 1))
    def test_petz_channels(self, dims, mode, side, seed):
        # non-square maps from B to AB (or BC), applied to the read marginal
        onto, read = side
        lay = SystemLayout.of(("A", dims[0]), ("B", dims[1]), ("C", dims[2]))
        st = random_state(lay, seed=seed)
        model = partial_trace(st, tuple(sorted({onto, "B"})))
        chan = petz_recovery(model, onto, mode=mode, t=0.7)
        inp = partial_trace(st, read)
        out = chan.apply(inp, "B")
        ref = kron_apply(chan, inp, "B")
        assert out.layout == ref.layout
        assert np.abs(out.matrix - ref.matrix).max() <= 1e-13


class TestEnsembles:
    def test_phase_ops_and_heisenberg_weyl_are_unitary(self):
        for d in (2, 3):
            for u in np.concatenate([phase_ops(d), heisenberg_weyl(d)]):
                assert np.allclose(u @ u.conj().T, np.eye(d), atol=1e-12)
        assert len(phase_ops(3)) == 3
        assert len(heisenberg_weyl(3)) == 9

    @pytest.mark.parametrize("d", range(1, 7))
    def test_stacks_are_the_loop_definitions_bitwise(self, d):
        for stack, loop in ((phase_ops(d), loop_phase_ops(d)),
                            (heisenberg_weyl(d), loop_heisenberg_weyl(d))):
            assert stack.dtype == complex and stack.shape == (len(loop), d, d)
            assert stack.tobytes() == np.stack(loop).tobytes()

    def test_an_ensemble_holds_one_stack_and_refuses_empty_or_misshaped_ones(self):
        lay = SystemLayout.of(("A", 2))
        ens = RandomUnitaryEnsemble([np.eye(2), heisenberg_weyl(2)[1]], lay)
        assert ens.unitaries.shape == (2, 2, 2) and ens.unitaries.dtype == complex
        assert ens.size == 2 and ens.layout == lay
        for empty in ([], np.zeros((0, 2, 2))):
            with pytest.raises(ValueError, match="at least one unitary"):
                RandomUnitaryEnsemble(empty, lay)
        for shape in ((3, 2, 3), (1, 3, 3), (2, 2)):
            with pytest.raises(ValueError, match="unitary shape"):
                RandomUnitaryEnsemble(np.zeros(shape), lay)

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
        out = ensemble_channel(ens).apply(st)
        assert np.allclose(out.matrix, np.eye(d) / d, atol=1e-12)

    def test_phase_twirl_dephases(self):
        d = 4
        lay = SystemLayout.of(("A", d))
        st = random_state(lay, seed=43)
        ens = RandomUnitaryEnsemble(phase_ops(d), lay)
        out = ensemble_channel(ens).apply(st)
        assert np.allclose(out.matrix, np.diag(np.diag(st.matrix)), atol=1e-12)

    def test_unital_channel_never_decreases_entropy(self):
        rng = np.random.default_rng(44)
        lay = SystemLayout.of(("A", 3))
        ens = RandomUnitaryEnsemble([random_unitary(3, rng) for _ in range(4)], lay)
        chan = ensemble_channel(ens)
        for _ in range(100):
            st = random_state(lay, rank=int(rng.integers(1, 4)), seed=rng)
            assert von_neumann_entropy(chan.apply(st)) >= von_neumann_entropy(st) - 1e-9


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

    def test_recovery_ignores_the_order_of_conditioning_labels(self):
        lay = SystemLayout.of(("A", 2), ("B1", 2), ("B2", 2), ("C", 2))
        st = random_state(lay, seed=4)
        for direction in ("from_bc", "from_ab"):
            runs = [next(petz_recoveries(st, (("A",), b, ("C",)), direction))[1]
                    for b in (("B1", "B2"), ("B2", "B1"))]
            assert np.abs(runs[0].matrix - runs[1].matrix).max() <= 1e-13

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
    def test_kraus_stack_follows_the_per_operator_formula(self, mode):
        # the support operators W c[r, :, :, tau] V+ with
        # c = F_r(ik) sqrt(lam_i / mu_k) exp(i t a_ik) <w_i|v_k (x) tau>, in
        # (r, tau) order, then sqrt(lam_m) |w_m><ker_j| for each kernel
        # vector j of rho_B and support index m, j outermost
        rng = np.random.default_rng(74)
        g = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        g.reshape(2, 3, 4)[:, 2] = 0.0
        # a complex kernel vector on B, so its bra's conjugation shows
        g = np.kron(np.eye(2), random_unitary(3, rng)) @ g
        model = DensityState(g @ g.conj().T / np.vdot(g, g).real,
                             SystemLayout.of(("A", 2), ("B", 3)))
        t = 0.7 if mode == "rotated" else 0.0
        chan = petz_recovery(model, "A", mode, t)
        lam, w, _, _ = support_eigh(model.matrix)
        mu, v, kernel, _ = support_eigh(partial_trace(model, "B").matrix)
        assert kernel.shape[1] == 1
        a = 0.5 * (np.log(lam)[:, None] - np.log(mu)[None, :])
        factors = ([np.ones_like(a)] if mode != "averaged" else
                   channels._PetzSpectrum(model, "A", [mode], Tolerances()).kernel_factors)
        want = []
        for f in factors:
            for tau in range(2):
                c = np.array([[f[i, k] * np.sqrt(lam[i] / mu[k]) * np.exp(1j * t * a[i, k])
                               * np.vdot(w[:, i].reshape(2, 3)[tau], v[:, k])
                               for k in range(len(mu))] for i in range(len(lam))])
                want.append(w @ c @ v.conj().T)
        for bra in kernel.conj().T:
            want += [np.sqrt(lam[m]) * np.outer(w[:, m], bra) for m in range(len(lam))]
        assert chan.kraus.shape == (len(want), 6, 3)
        assert np.abs(chan.kraus - np.array(want)).max() <= 1e-13

    @pytest.mark.parametrize("mode", ["plain", "rotated", "averaged"])
    def test_negative_support_eigenvalue_raises(self, mode):
        # The B marginal diag(0.5, 0.5) is fine; the joint has -0.1 on its support.
        lay = SystemLayout.of(("A", 2), ("B", 2))
        st = DensityState(np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex), lay,
                          validate=False)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            petz_recovery(st, "A", mode=mode, t=0.5)

    def test_an_unknown_mode_is_refused_before_any_candidate_is_scored(
            self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("coefficients built for an unchecked mode")

        monkeypatch.setattr(channels._PetzSpectrum, "coefficients", refuse)
        st = random_state(SystemLayout.of(("A", 2), ("B", 2), ("C", 2)), seed=1)
        scored = channels.petz_errors(st, "A|B|C", "from_bc",
                                      [("plain", 0.0), ("bogus", 0.0)])
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            next(scored)
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            petz_recovery(st, "A", mode="bogus")

    def test_a_recovery_onto_every_subsystem_is_refused(self):
        st = random_state(SystemLayout.of(("A", 2), ("B", 2)), seed=2)
        with pytest.raises(ValueError, match="leave a subsystem B to read"):
            petz_recovery(st, ("A", "B"))


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


@hs.composite
def _search_cases(draw):
    """A state on 1-2 labels per group (dims 1-3) in a shuffled layout order,
    each group listed out of layout order; optionally rho_B is rank-deficient."""
    groups = [[f"{g}{j}" for j in range(draw(hs.integers(1, 2)))] for g in "ABC"]
    labels = draw(hs.permutations([l for g in groups for l in g]))
    dims = dict(zip(labels, draw(hs.lists(hs.integers(1, 3), min_size=len(labels),
                                          max_size=len(labels)))))
    lay = SystemLayout.of(*((l, dims[l]) for l in labels))
    if lay.total_dim > 36:
        dims[labels[0]] = 1
        lay = SystemLayout.of(*((l, dims[l]) for l in labels))
    rng = np.random.default_rng(draw(hs.integers(0, 2 ** 32 - 1)))
    d = lay.total_dim
    rank = draw(hs.integers(1, d))
    g = (rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank)))
    g = g.reshape(lay.dims + (rank,))
    b_big = [l for l in groups[1] if dims[l] > 1]
    if b_big and draw(hs.booleans()):
        # keep the first levels of one B label only: rho_B gets a kernel
        axis = lay.position(b_big[0])
        cut = draw(hs.integers(1, dims[b_big[0]] - 1))
        g[(slice(None),) * axis + (slice(cut, None),)] = 0.0
    g = g.reshape(d, rank)
    mat = g @ g.conj().T
    state = DensityState(mat / mat.trace().real, lay, validate=False)
    grouping = tuple(tuple(draw(hs.permutations(grp))) for grp in groups)
    return state, grouping, draw(hs.sampled_from(["from_bc", "from_ab"]))


class TestSharedSpectrumSearch:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(_search_cases())
    def test_search_matches_each_rebuilt_candidate(self, case):
        st, grouping, direction = case
        res = best_rotated_petz(st, grouping, direction, t_grid=(-2.0, 0.0, 0.75))
        cands = [(mode, t or 0.0) for mode, t, _ in res.per_candidate]
        runs = petz_recoveries(st, grouping, direction, cands)
        for (mode, t, err), (_, rec) in zip(res.per_candidate, runs):
            assert abs(err - trace_distance(rec, st)) <= 1e-12, (mode, t)
        assert res.error <= min(err for _, _, err in res.per_candidate) + 1e-12

    @pytest.mark.parametrize("leak", [0.0, 3e-6])
    def test_rank_deficient_marginal_is_searched(self, leak):
        # B = B0 (x) B1 with B0 confined to |0>, up to weight ~leak^2 on |1>,
        # which is below the support cutoff: rho_B has a kernel, and with a
        # leak the kernel completion changes the recovered state
        lay = SystemLayout.of(("A", 2), ("B0", 2), ("B1", 2), ("C", 2))
        rng = np.random.default_rng(70)
        g = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
        g.reshape(2, 2, 2, 2, 3)[:, 1] *= leak
        st = DensityState(g @ g.conj().T / np.vdot(g, g).real, lay)
        grouping = (("A",), ("B1", "B0"), ("C",))
        vals = np.linalg.eigvalsh(partial_trace(st, ("B0", "B1")).matrix)
        assert vals[1] <= 1e-10 * vals[-1]
        for direction in ("from_bc", "from_ab"):
            res = best_rotated_petz(st, grouping, direction, t_grid=(-1.0, 1.0))
            cands = [(mode, t or 0.0) for mode, t, _ in res.per_candidate]
            for (_, _, err), (_, rec) in zip(
                    res.per_candidate, petz_recoveries(st, grouping, direction, cands)):
                assert abs(err - trace_distance(rec, st)) <= 1e-12

    def test_broken_coefficients_fail_completeness(self, monkeypatch):
        coefficients = channels._PetzSpectrum.coefficients
        monkeypatch.setattr(channels._PetzSpectrum, "coefficients",
                            lambda self, mode, t=0.0: 1.01 * coefficients(self, mode, t))
        st = random_state(SystemLayout.of(("A", 2), ("B", 3), ("C", 2)), seed=3)
        with pytest.raises(VerificationError, match="completeness"):
            best_rotated_petz(st, (("A",), ("B",), ("C",)))

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(_search_cases(), hs.sampled_from(
        [("plain", 0.0), ("rotated", -2.5), ("rotated", 0.7), ("averaged", 0.0)]))
    def test_petz_recovery_and_the_search_share_one_certificate(self, case, candidate):
        # sum K^dagger K - I of the channel petz_recovery builds is
        # block-diagonal in rho_B's eigenbasis, so the spectral certificate
        # both call passes just above its dense deviation and fails below
        st, grouping, direction = case
        mode, t = candidate
        onto, _, b_in = channels._recovery_sides(st, grouping, direction)
        model = partial_trace(st, onto + b_in)
        dense = petz_recovery(model, onto, mode, t).completeness_deviation()
        spec = channels._PetzSpectrum(model, onto, [mode], Tolerances())
        spec.check_complete(mode, t, dense + 1e-14)
        with pytest.raises(VerificationError, match="completeness"):
            spec.check_complete(mode, t, dense - 1e-14)

    @pytest.mark.parametrize("mode", ["plain", "rotated", "averaged"])
    @pytest.mark.parametrize("planted", ["kernel", "support"])
    def test_a_planted_incomplete_family_raises_on_both_paths(
            self, monkeypatch, mode, planted):
        # "kernel": trace 1.2 with a kernel on B leaves every coefficient as
        # it is, but the kernel completion routes weight 1.2; "support":
        # coefficients scaled by sqrt(1.1), so sum c^dagger c = 1.1 I
        rng = np.random.default_rng(72)
        g = rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4))
        g.reshape(2, 3, 2, 4)[:, 2] = 0.0
        mat = g @ g.conj().T / np.vdot(g, g).real
        lay = SystemLayout.of(("A", 2), ("B", 3), ("C", 2))
        if planted == "kernel":
            st, message = DensityState(1.2 * mat, lay, validate=False), r"2\.000e-01$"
        else:
            st, message = DensityState(mat, lay), r"1\.000e-01$"
            coefficients = channels._PetzSpectrum.coefficients
            monkeypatch.setattr(
                channels._PetzSpectrum, "coefficients",
                lambda self, mode, t=0.0: np.sqrt(1.1) * coefficients(self, mode, t))
        with pytest.raises(VerificationError, match="completeness deviates by " + message):
            petz_recovery(partial_trace(st, ("A", "B")), "A", mode, 0.7)
        with pytest.raises(VerificationError, match="completeness deviates by " + message):
            next(petz_errors(st, "A|B|C", "from_bc", [(mode, 0.7)]))

    def test_search_builds_one_core_and_no_channel(self, monkeypatch):
        calls = {"core": 0, "petz_recovery": 0, "apply": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(channels, "_PetzSpectrum",
                            counted("core", channels._PetzSpectrum))
        monkeypatch.setattr(channels, "petz_recovery",
                            counted("petz_recovery", channels.petz_recovery))
        monkeypatch.setattr(QuantumChannel, "apply", counted("apply", QuantumChannel.apply))
        st = random_state(SystemLayout.of(("A", 2), ("B", 3), ("C", 2)), seed=3)
        for direction in ("from_bc", "from_ab"):
            calls.update(core=0)
            res = best_rotated_petz(st, (("A",), ("B",), ("C",)), direction)
            assert len(res.per_candidate) == len(DEFAULT_T_GRID) + 2
            assert calls == {"core": 1, "petz_recovery": 0, "apply": 0}

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(_search_cases())
    def test_one_certificate_covers_every_rotation(self, case):
        # c(t) = D_lam(t) c(0) D_mu(t)^dagger, so sum c(t)^dagger c(t) is the
        # plain sum conjugated by a diagonal unitary: the same deviation
        st, grouping, direction = case
        onto, _, b_in = channels._recovery_sides(st, grouping, direction)
        model = partial_trace(st, onto + b_in)
        spec = channels._PetzSpectrum(model, onto, ("plain", "rotated"), Tolerances())
        def deviation(coeffs):
            return np.linalg.norm(channels._gram_gap(coeffs), 2)

        plain = deviation(spec.coefficients("plain"))
        for t in DEFAULT_T_GRID:
            rotated = deviation(spec.coefficients("rotated", t))
            assert abs(rotated - plain) <= 1e-14, t

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(_search_cases())
    def test_the_stacked_rotations_are_each_t_bitwise(self, case):
        # the search forms every rotated candidate in one product over the
        # grid; each slice is the coefficient stack of its t alone
        st, grouping, direction = case
        onto, _, b_in = channels._recovery_sides(st, grouping, direction)
        spec = channels._PetzSpectrum(partial_trace(st, onto + b_in), onto,
                                      ["rotated"], Tolerances())
        stacked = spec.coefficients("rotated", np.array(DEFAULT_T_GRID))
        assert stacked.shape == (len(DEFAULT_T_GRID),) + spec.coeff.shape
        for coeffs, t in zip(stacked, DEFAULT_T_GRID):
            assert coeffs.tobytes() == spec.coefficients("rotated", t).tobytes(), t

    def test_the_rotated_stack_is_chunked_at_the_entry_budget(self, monkeypatch):
        st = random_state(SystemLayout.of(("A", 2), ("B", 3), ("C", 2)), seed=3)
        grouping = (("A",), ("B",), ("C",))
        whole = best_rotated_petz(st, grouping, "from_bc")
        # one t per chunk, as when a single stack fills the entry budget
        monkeypatch.setattr(channels, "_stack_step", lambda entries: 1)
        shapes = []
        coefficients = channels._PetzSpectrum.coefficients
        monkeypatch.setattr(channels._PetzSpectrum, "coefficients",
                            lambda self, mode, t=0.0: shapes.append(np.shape(t))
                            or coefficients(self, mode, t))
        chunked = best_rotated_petz(st, grouping, "from_bc")
        assert chunked.per_candidate == whole.per_candidate
        assert shapes.count((1,)) == len(DEFAULT_T_GRID)

    def test_eigendecompositions_do_not_grow_with_the_grid(self, monkeypatch):
        st = random_state(SystemLayout.of(("A", 2), ("B", 3), ("C", 2)), seed=3)
        grouping = (("A",), ("B",), ("C",))
        eigh = np.linalg.eigh
        calls = []
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
        counts, winners = [], []
        for grid in (DEFAULT_T_GRID[18:23], DEFAULT_T_GRID):
            calls.clear()
            res = best_rotated_petz(st, grouping, "from_bc", t_grid=grid)
            counts.append(len(calls))
            winners.append((res.mode, res.t))
        assert len(DEFAULT_T_GRID) == 41
        assert winners[0] == winners[1] == ("rotated", 0.5)
        assert counts[0] == counts[1]
