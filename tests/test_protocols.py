"""Tests for the twirl, the measurement protocol, and the bound harnesses."""

import dataclasses
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as hs

from markovkit import cost, markov, protocols, qcore
from markovkit.blocks import kernel_projector
from markovkit.channels import QuantumChannel, unitary_channel
from markovkit.kidecomp import ki_decompose
from markovkit.protocols import (
    build_twirl_ensemble,
    conjecture_probe,
    markovianize,
    measurement_protocol,
    n_fold_state,
    random_markov_state,
    verify_appendix_a,
    verify_lemma1,
    verify_lemma6,
)
from markovkit.qcore import (
    DEFAULT_TOLS,
    DensityState,
    PureState,
    SystemLayout,
    VerificationError,
    kron_all,
    partial_trace,
    qcmi,
    random_pure,
    random_state,
    random_unitary,
    reorder,
    trace_distance,
)
from markovkit.cli import main
from markovkit.serialize import load_state, save_state

from helpers import (
    block_phase_channel,
    dense_lemma6_information,
    dense_markovianize,
    dense_measurement_reading,
    dense_twirl_purification,
    ghz,
    loop_twirl_elements,
    planted_ki_pure,
    product_twirl_ensemble,
    purify,
)


LAY222 = SystemLayout.of(("A", 2), ("B", 2), ("C", 2))
DATA = Path(__file__).parent / "data"


def _phi_plus_across_ac() -> PureState:
    layout = SystemLayout.of(("A", 2), ("B", 1), ("C", 2))
    return PureState(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0), layout)


def test_n_fold_state_regroups_copies():
    psi = random_pure(LAY222, seed=9)
    psi2, (a, b, c) = n_fold_state(psi, "A|B|C", 2)
    assert a == ("A#1", "A#2") and b == ("B#1", "B#2") and c == ("C#1", "C#2")
    assert psi2.layout.labels == a + b + c
    # marginal of copy 1 must be the single-copy marginal
    single = partial_trace(psi.to_density(), ("A",))
    doubled = partial_trace(psi2.to_density(), ("A#1",))
    assert np.abs(single.matrix - doubled.matrix).max() < 1e-12

    same, groups = n_fold_state(psi, "A|B|C", 1)
    assert groups == (("A",), ("B",), ("C",))
    assert np.abs(same.vector - psi.vector).max() < 1e-15


def test_product_state_needs_no_randomness():
    vec = np.kron(np.kron([1.0, 0.0], [0.0, 1.0]), [1.0, 0.0])
    run = markovianize(PureState(vec, LAY222), "A|B|C", n=1)
    assert run.ensemble_size == 1
    assert run.cost_bits_per_copy == 0.0
    assert run.qcmi_out <= 1e-12


def test_ghz_twirl_is_the_block_dephasing():
    run = markovianize(ghz(), "A|B|C", n=1)
    assert run.ensemble_size == 2
    assert abs(run.cost_bits_per_copy - 1.0) < 1e-12
    assert abs(run.m_dec_bits - 1.0) < 1e-9
    expect = np.zeros((8, 8))
    expect[0, 0] = expect[7, 7] = 0.5
    assert np.abs(run.output.matrix - expect).max() < 1e-12


def test_fully_entangled_ac_twirl_depolarizes():
    run = markovianize(_phi_plus_across_ac(), "A|B|C", n=1)
    assert run.ensemble_size == 4  # the full Heisenberg-Weyl set on A
    assert abs(run.cost_bits_per_copy - 2.0) < 1e-12
    assert abs(run.m_dec_bits - 2.0) < 1e-9
    assert np.abs(run.output.matrix - np.eye(4) / 4.0).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_generic_pure_state_markovianizes_exactly(n):
    psi = random_pure(LAY222, seed=3)
    run = markovianize(psi, "A|B|C", n=n)
    assert run.n == n
    assert run.qcmi_out <= 1e-8
    assert max(run.recovery_error_from_bc, run.recovery_error_from_ab) <= 1e-7
    assert run.cost_bits_per_copy >= run.m_dec_bits - 1e-9
    # B^n C^n marginal untouched
    psi_n, (a, b, c) = n_fold_state(psi, "A|B|C", n)
    dev = trace_distance(partial_trace(run.output, b + c),
                         partial_trace(psi_n.to_density(), b + c))
    assert dev <= 1e-12


def _named_twirl_input(name: str) -> PureState:
    if name == "generic":
        return random_pure(LAY222, seed=3)
    if name == "planted_kernel":
        # two one-dim aL blocks, d_aR = 1 and one dim of A off supp(rho^A)
        return planted_ki_pure(3, (1, 1), 1, 1)
    return load_state(DATA / f"{name}.json")


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", ["ghz", "generic", "near_cutoff_b", "bell_ac",
                                  "planted_kernel"])
def test_copy_by_copy_twirl_matches_the_product_ensemble(name, n):
    # the output, the one-copy output's regrouped n-th power, against the
    # average over the K^n product unitaries acting on Psi^(x n)
    psi = _named_twirl_input(name)
    run = markovianize(psi, "A|B|C", n=n)
    psi_n, (a, b, c) = n_fold_state(psi, "A|B|C", n)
    ki = ki_decompose(partial_trace(psi.to_density(), ("A", "C")), ("A",))
    if name == "planted_kernel":
        assert np.linalg.norm(kernel_projector(ki.gamma), 2) == pytest.approx(1.0)
    ensemble = product_twirl_ensemble(ki, n)
    assert ensemble.layout.labels == a
    assert run.ensemble_size == ensemble.size == build_twirl_ensemble(ki).size ** n
    rows = (ensemble.unitaries @ psi_n.vector.reshape(ensemble.layout.total_dim, -1)
            ).reshape(ensemble.size, -1)
    expect = rows.T @ rows.conj()
    assert run.output.layout == psi_n.layout
    assert np.abs(run.output.matrix - expect / ensemble.size).max() <= 1e-14


def test_two_copy_readings_take_one_copy_only(monkeypatch):
    copies, factors = [], []
    monkeypatch.setattr(
        protocols, "n_fold_state",
        lambda psi, groups, n, _f=protocols.n_fold_state: copies.append(n)
        or _f(psi, groups, n))
    monkeypatch.setattr(
        protocols, "_twirl_factor",
        lambda psi, ens, _f=protocols._twirl_factor: factors.append(psi.dim)
        or _f(psi, ens))
    psi = random_pure(LAY222, seed=5)
    assert markovianize(psi, "A|B|C", n=2).output.dim == 64
    assert measurement_protocol(psi, "A|B|C", n=2, zeta_trials=1).measurement.shape[0] == 16
    # every twirl factor is formed on one copy of psi, which is only regrouped
    assert set(copies) == {1} and factors == [8, 8]


def _split_with_a_kernel():
    """The KI split of a planted pure state with blocks of aL dims 1 and 2,
    d_aR = 2 and one dimension of A outside supp(rho^A): d_A = 7."""
    psi = planted_ki_pure(5, (1, 2), 2, 1)
    return ki_decompose(partial_trace(psi, ("A", "C")), ("A",))


def test_the_twirl_stack_is_the_element_by_element_formula():
    ki = _split_with_a_kernel()
    assert ki.dims == (2, 2, 2)
    assert np.linalg.norm(kernel_projector(ki.gamma), 2) == pytest.approx(1.0)
    ensemble = build_twirl_ensemble(ki)
    want = np.stack(loop_twirl_elements(ki))
    assert ensemble.unitaries.shape == want.shape == (8, 7, 7)
    assert np.abs(ensemble.unitaries - want).max() <= 1e-14


def test_the_twirl_stack_is_formed_a_chunk_at_a_time(monkeypatch):
    ki = _split_with_a_kernel()
    whole = build_twirl_ensemble(ki).unitaries
    # each element takes max(d_a0 d_aL d_aR, d_A)^2 = 64 entries: 3 per chunk
    monkeypatch.setattr(qcore, "_STACK_ENTRIES", 3 * 64)
    chunks = []
    congruence = protocols._congruence
    monkeypatch.setattr(protocols, "_congruence",
                        lambda op, x: chunks.append(len(x)) or congruence(op, x))
    chunked = build_twirl_ensemble(ki).unitaries
    assert chunks == [3, 3, 2]
    assert np.abs(chunked - whole).max() <= 1e-15


def test_a_non_isometric_split_reports_its_first_non_unitary_element():
    ki = _split_with_a_kernel()
    bad = dataclasses.replace(ki, gamma=1.001 * ki.gamma)
    devs = [np.linalg.norm(u.conj().T @ u - np.eye(7)) for u in loop_twirl_elements(bad)]
    # element 0 is the identity whatever gamma is; the first failing one is
    # not the worst, so the message pins which element was reported
    first = next(d for d in devs if d > 1e-10)
    assert devs[0] <= 1e-10 and f"{first:.3e}" != f"{max(devs):.3e}"
    with pytest.raises(VerificationError,
                       match=re.escape(f"twirl element is not unitary (deviation {first:.3e})")):
        build_twirl_ensemble(bad)


def _lift(omega: np.ndarray, ki, n: int) -> np.ndarray:
    """(gamma^+)^(x n) (omega (x) I_{aR^n}/d_aR^n) gamma^(x n) on (A^n, rest),
    for omega on (K^n, rest) with K = a0 (x) aL per copy."""
    d_k, d_r = ki.dims[0] * ki.dims[1], ki.dims[2]
    d_rest = omega.shape[0] // d_k ** n
    t = np.kron(omega, np.eye(d_r ** n) / d_r ** n)
    # (K^n, rest, aR^n) -> copy by copy (K, aR), then rest
    rows = [a for i in range(n) for a in (i, n + 1 + i)] + [n]
    t = t.reshape(((d_k,) * n + (d_rest,) + (d_r,) * n) * 2).transpose(
        rows + [2 * n + 1 + a for a in rows]).reshape(omega.shape[0] * d_r ** n, -1)
    frame = np.kron(kron_all([ki.gamma] * n), np.eye(d_rest))
    return frame.conj().T @ t @ frame


def _assert_matches_the_dense_oracle(psi: PureState, n: int):
    run = markovianize(psi, "A|B|C", n=n)
    output, q, err_bc, err_ab = dense_markovianize(psi, "A|B|C", n)
    assert abs(run.qcmi_out - q) <= 1e-12
    assert abs(run.recovery_error_from_bc - err_bc) <= 1e-12
    assert abs(run.recovery_error_from_ab - err_ab) <= 1e-12
    # the compressed output is the full one in the frame of gamma per copy:
    # the n-th power of the front's one copy, regrouped as (K^n, B^n, C^n)
    # and lifted with the front's own split, which fixes gamma's gauge
    groups, ki, _, omega_c, _, _ = protocols._twirl_front(psi, "A|B|C", n,
                                                          DEFAULT_TOLS, 1e-7)
    assert omega_c.layout.labels == ("A",) + groups[1] + groups[2]
    layout, groups_n = protocols._copies(omega_c.layout, (("A",),) + groups[1:], n)
    omega = reorder(DensityState(kron_all([omega_c.matrix] * n), layout),
                    sum(groups_n, ()))
    assert np.abs(_lift(omega.matrix, ki, n) - output.matrix).max() <= 1e-14
    assert np.abs(run.output.matrix - output.matrix).max() <= 1e-14


# (aL dims per block, aR, uncovered dims of A, copies): a0 = len(aL dims)
@pytest.mark.parametrize("plant", [((1, 2), 2, 1, 1), ((1, 2), 1, 1, 2),
                                   ((2,), 2, 0, 2), ((2, 2), 1, 0, 1)], ids=str)
def test_frame_results_match_the_dense_ones_on_planted_splittings(plant):
    l_dims, d_r, kernel, n = plant
    psi = planted_ki_pure(11, l_dims, d_r, kernel)
    ki = ki_decompose(partial_trace(psi.to_density(), ("A", "C")), ("A",))
    assert sorted((b.a_l_dim, b.a_r_dim) for b in ki.blocks) \
        == sorted((l, d_r) for l in l_dims)
    _assert_matches_the_dense_oracle(psi, n)


@hs.composite
def _twirl_cases(draw):
    """A random pure state on dims 2-3, or a planted splitting with one or
    two blocks of aL dims 1-2 (padded when they differ), aR dims 1-2 and
    0-2 uncovered dims of A, and a copy count in {1, 2}.  Two copies only
    up to a full output of 729 dims, the largest the benchmark runs, which
    keeps the dense oracle cheap; the guard is 4096."""
    seed = draw(hs.integers(0, 2 ** 32 - 1))
    if draw(hs.booleans()):
        dims = draw(hs.lists(hs.integers(2, 3), min_size=3, max_size=3))
        psi = random_pure(SystemLayout.of(*zip("ABC", dims)), seed=seed)
    else:
        l_dims = draw(hs.lists(hs.integers(1, 2), min_size=1, max_size=2))
        psi = planted_ki_pure(seed, l_dims, draw(hs.integers(1, 2)),
                               draw(hs.integers(0, 2)))
    fits = psi.layout.total_dim ** 2 <= 729
    return psi, draw(hs.integers(1, 2 if fits else 1))


@settings(derandomize=True, max_examples=24, deadline=None)
@given(_twirl_cases())
def test_compressed_results_match_the_dense_oracle(case):
    _assert_matches_the_dense_oracle(*case)


@settings(derandomize=True, max_examples=16, deadline=None)
@given(_twirl_cases())
def test_twirl_output_is_the_average_over_the_product_ensemble(case):
    psi, n = case
    run = markovianize(psi, "A|B|C", n=n)
    ki = ki_decompose(partial_trace(psi.to_density(), ("A", "C")), ("A",))
    ensemble = product_twirl_ensemble(ki, n)
    psi_n, _ = n_fold_state(psi, "A|B|C", n)
    psi2 = psi_n.vector.reshape(ensemble.layout.total_dim, -1)
    expect = sum(np.outer(v, v.conj())
                 for v in (u @ psi2 for u in ensemble.unitaries)) / ensemble.size
    assert np.abs(run.output.matrix - expect).max() <= 1e-13


def test_markovianize_splits_once_and_applies_only_the_recoveries(monkeypatch):
    splits, applies, builds = [], [], []
    for module in (protocols, cost):
        monkeypatch.setattr(
            module, "ki_decompose",
            lambda *a, _f=module.ki_decompose, **kw: splits.append(1) or _f(*a, **kw))
    apply = QuantumChannel.apply
    monkeypatch.setattr(
        QuantumChannel, "apply",
        lambda self, state, *a, **kw: applies.append(state.dim)
        or apply(self, state, *a, **kw))
    monkeypatch.setattr(
        protocols, "build_twirl_ensemble",
        lambda *a, _f=protocols.build_twirl_ensemble, **kw: builds.append(1) or _f(*a, **kw))
    copies = []
    monkeypatch.setattr(
        protocols, "n_fold_state",
        lambda psi, groups, n, _f=protocols.n_fold_state: copies.append(n)
        or _f(psi, groups, n))
    psi = random_pure(SystemLayout.of(("A", 3), ("B", 3), ("C", 3)), seed=1)
    run = markovianize(psi, "A|B|C", n=2)
    assert len(splits) == 1
    # the plain Petz errors are read without building a channel; the twirl
    # ensemble is built only when the output is first read, and Psi^(x 2)
    # never
    assert applies == [] and builds == [] and copies == [1]
    assert run.output.dim == run.output.dim == 729
    assert applies == [] and len(builds) == 1 and copies == [1]


def test_markovianize_diagonalizes_nothing_larger_than_a_marginal(monkeypatch):
    # at (3, 3, 3), n = 2 the full output is 729-dimensional and the
    # compressed one, and every marginal of it, at most 81-dimensional
    psi = random_pure(SystemLayout.of(("A", 3), ("B", 3), ("C", 3)), seed=1)
    sizes = []
    for name in ("eigh", "eigvalsh", "cholesky", "svd"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name,
            lambda a, *args, _solver=solver, _name=name, **kw:
            sizes.append((_name, np.shape(a)[-1])) or _solver(a, *args, **kw))
    run = markovianize(psi, "A|B|C", n=2)
    assert sizes and max(size for _, size in sizes) == 81
    # every check reads one 9-dimensional copy; only the exact trace norms of
    # both recoveries' two-copy differences reach 81, since the marginal's
    # passes its one-copy screen
    assert [call for call in sizes if call[1] == 81] == [("eigvalsh", 81)] * 2
    # the full output is built and validated only when read
    sizes.clear()
    assert run.output.dim == 729
    assert sizes == [("cholesky", 729)]


def test_a_marginal_weight_near_the_cutoff_survives_two_copies(capsys):
    # psi = sum_i sqrt(p_i) |i>_B |phi_i>_AC on (2, 2, 2), p = (1 - 1e-6, 1e-6)
    # and phi_i orthonormal from a QR seeded with 3.  One copy of rho_B keeps
    # both weights above the support cut, 1e-10 of the largest; two copies'
    # 1e-12 would fall below it, so a two-copy reading loses a product
    # direction that the one-copy reading keeps
    path = DATA / "near_cutoff_b.json"
    psi = load_state(path)
    np.testing.assert_allclose(np.linalg.eigvalsh(partial_trace(psi, "B").matrix),
                               [1e-6, 1.0 - 1e-6], rtol=0.0, atol=1e-15)
    for n in (1, 2):
        run = markovianize(psi, "A|B|C", n=n)
        assert max(run.recovery_error_from_bc, run.recovery_error_from_ab) <= 1e-12
        assert main(["markovianize", str(path), "--split", "A|B|C", "-n", str(n)]) == 0
    capsys.readouterr()


def test_heterogeneous_blocks_are_rejected():
    # block 0 is a bare direction, block 1 is maximally entangled with C
    layout = SystemLayout.of(("A", 3), ("B", 2), ("C", 2))
    vec = np.zeros(12)
    vec[0] = np.sqrt(0.3)  # |0,0,0>
    vec[6] = np.sqrt(0.35)  # |1,1,0>
    vec[11] = np.sqrt(0.35)  # |2,1,1>
    psi = PureState(vec, layout)
    ki = ki_decompose(partial_trace(psi.to_density(), ("A", "C")), ("A",))
    assert sorted(b.a_r_dim for b in ki.blocks) == [1, 2]
    with pytest.raises(ValueError, match="aR dimensions"):
        build_twirl_ensemble(ki)
    with pytest.raises(ValueError, match="aR dimensions"):
        markovianize(psi, "A|B|C", n=1)


def test_unequal_ar_dims_are_refused_by_both_protocols_and_the_cli(capsys, tmp_path):
    # rho_AC = p |0><0| (x) sigma_C (+) (1 - p) phi on span{|1>, |2>} (x) C,
    # phi pure of Schmidt rank 2: blocks with aR dims 1 and 2, in a random
    # frame of A, purified by B
    rng = np.random.default_rng(31)
    p = 0.4
    sigma = random_state(SystemLayout.of(("C", 2)), seed=rng).matrix
    phi = np.zeros((3, 2), dtype=complex)
    phi[1:] = random_unitary(2, rng) / np.sqrt(2.0)
    rho = np.zeros((6, 6), dtype=complex)
    rho[:2, :2] = p * sigma
    rho += (1.0 - p) * np.outer(phi.reshape(-1), phi.reshape(-1).conj())
    frame = np.kron(random_unitary(3, rng), np.eye(2))
    rho_ac = DensityState(frame @ rho @ frame.conj().T,
                          SystemLayout.of(("A", 3), ("C", 2)))
    ki = ki_decompose(rho_ac, ("A",))
    assert sorted(b.a_r_dim for b in ki.blocks) == [1, 2]
    psi = purify(rho_ac, "B")
    for protocol in (markovianize, measurement_protocol):
        with pytest.raises(ValueError, match="blocks carry different aR dimensions"):
            protocol(psi, "A|B|C", 1)
    path = tmp_path / "psi.json"
    save_state(psi, path)
    assert main(["markovianize", str(path), "--split", "A|B|C", "-n", "1"]) == 1
    assert "blocks carry different aR dimensions" in capsys.readouterr().err


def test_markovianize_guards_total_dimension():
    layout = SystemLayout.of(("A", 4), ("B", 4), ("C", 4))
    psi = random_pure(layout, seed=0)
    with pytest.raises(ValueError, match="guard"):
        markovianize(psi, "A|B|C", n=3)


def test_markovianize_guard_fires_before_the_n_fold_state(monkeypatch):
    def refuse(*args):
        raise AssertionError("the n-fold state was formed")
    monkeypatch.setattr(protocols, "n_fold_state", refuse)
    # ghz at n = 5 has total dimension 8^5 = 32768
    with pytest.raises(ValueError, match="guard"):
        markovianize(ghz(), "A|B|C", n=5)


@pytest.mark.parametrize("run, quantity", [
    (lambda: markovianize(ghz(), "A|B|C", n=5), "total dimension"),
    (lambda: measurement_protocol(
        random_pure(SystemLayout.of(("A", 3), ("B", 3), ("C", 3)), seed=2), "A|B|C", n=2),
     "joint dimension"),
    (lambda: verify_lemma6(trials=1, n=7, eps=0.05, seed=0), "7-copy A-C dimension"),
], ids=["markovianize", "measurement", "lemma6"])
def test_each_size_guard_names_its_quantity(run, quantity):
    with pytest.raises(ValueError, match=rf"^{quantity} \d+ exceeds the guard 4096$"):
        run()


def test_the_guard_refuses_a_power_as_soon_as_it_passes():
    protocols._guard_total_dim(8, 4)
    protocols._guard_total_dim(1, 10 ** 12)
    with pytest.raises(ValueError, match=r"^total dimension 32768 exceeds the guard 4096$"):
        protocols._guard_total_dim(8, 5)
    # a value of up to 100 digits is printed, a longer one named as base^n
    with pytest.raises(ValueError, match=rf"^total dimension {10 ** 99} exceeds"):
        protocols._guard_total_dim(10, 99)
    with pytest.raises(ValueError, match=r"^total dimension 10\^100 exceeds"):
        protocols._guard_total_dim(10, 100)
    # 2^(10^12) would take days to form; the running power stops at 2^13
    with pytest.raises(ValueError, match=r"^total dimension 2\^1000000000000 exceeds the guard 4096$"):
        protocols._guard_total_dim(2, 10 ** 12)


def test_measurement_guard_fires_before_the_split(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the state was factorized")
    monkeypatch.setattr(protocols, "ki_decompose", refuse)
    psi = random_pure(SystemLayout.of(("A", 4), ("B", 4), ("C", 4)), seed=0)
    with pytest.raises(ValueError, match="guard"):
        measurement_protocol(psi, "A|B|C", n=3)


def test_ghz_measurement_saturates_the_reference_information():
    run = measurement_protocol(ghz(), "A|B|C", n=1)
    assert len(run.measurement) == 2
    assert run.r_bits == 1.0
    np.testing.assert_allclose(run.probabilities, [0.5, 0.5], atol=1e-12)
    assert run.completeness_deviation <= 1e-10
    assert run.fidelities.min() >= 1.0 - 1e-10
    assert run.eps_k.max() <= 1e-12
    assert run.eps_prime_k.max() <= 1e-6
    # for GHZ the reference holds exactly one bit about B,C
    assert abs(run.i_g_bc_av - 1.0) <= 1e-9
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    assert np.abs(run.resource.vector - bell).max() < 1e-12
    assert run.xi_is_estimate
    assert np.all(np.isfinite(run.xi_k)) and np.all(run.xi_k >= 0.0)


@pytest.mark.parametrize("n", [1, 2])
def test_twirl_purification_traces_down_to_the_twirl_output(n):
    psi = random_pure(LAY222, seed=5)
    purification, _ = dense_twirl_purification(psi, "A|B|C", n)
    out = markovianize(psi, "A|B|C", n=n).output
    assert purification.layout.labels[:-1] == out.layout.labels
    t = purification.vector.reshape(out.dim, -1)
    assert np.abs(t @ t.conj().T - out.matrix).max() <= 1e-14


def test_pure_state_commands_split_once_and_never_lift(monkeypatch):
    # every markovkit module that holds either name is patched, so no
    # import path escapes: ki_decompose is counted, the B-side lift refused
    splits = []

    def refuse(*args, **kwargs):
        raise AssertionError("the split was lifted to the purifying side")

    for name, module in list(sys.modules.items()):
        if name != "markovkit" and not name.startswith("markovkit."):
            continue
        if hasattr(module, "ki_decompose"):
            monkeypatch.setattr(
                module, "ki_decompose",
                lambda *a, _f=module.ki_decompose, **kw: splits.append(1) or _f(*a, **kw))
        if hasattr(module, "extend_to_purification"):
            monkeypatch.setattr(module, "extend_to_purification", refuse)
    measurement_protocol(random_pure(LAY222, seed=5), "A|B|C", n=1, zeta_trials=1)
    assert len(splits) == 1
    splits.clear()
    verify_lemma6(trials=3, eps=0.05, seed=3)
    assert len(splits) == 3


@pytest.mark.parametrize("n", [1, 2])
def test_measurement_matches_the_twirl_purification(n, monkeypatch):
    calls = {"best_rotated_petz": 0, "estimate_zeta": 0, "ki_decompose": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((protocols, "best_rotated_petz"),
                         (protocols, "estimate_zeta"),
                         (protocols, "ki_decompose"), (markov, "ki_decompose")):
        counted(module, name)
    psi = random_pure(LAY222, seed=5)
    run = measurement_protocol(psi, "A|B|C", n=n)
    # the diagnostics every outcome shares are computed once, whatever K is
    assert calls["best_rotated_petz"] == 1
    assert calls["estimate_zeta"] == 1
    assert calls["ki_decompose"] == 1
    for values in (run.eps_k, run.eps_prime_k, run.xi_k):
        assert np.all(values == values[0])
    k_card = len(run.measurement)
    assert k_card == 4 ** n
    d_a = 2 ** n
    for m in run.measurement:
        assert m.shape == (d_a, d_a * k_card)
    total = sum(m.conj().T @ m for m in run.measurement)
    assert np.abs(total - np.eye(d_a * k_card)).max() < 1e-12
    np.testing.assert_allclose(run.probabilities, np.full(k_card, 1.0 / k_card),
                               atol=1e-12)
    assert run.fidelities.min() >= 1.0 - 1e-10
    assert run.i_g_bc_av <= n * run.r_bits + 1e-9
    assert run.eps_prime_k.max() <= 1e-7

    # outcome by outcome: M_k on (A-bar, A0) of Psi^(x n) (x) resource, then
    # the phase correction on G, the tensor power of the one-copy pattern
    # exp(-2 pi i g_i k_i / K_1) for k = (k_1 .. k_n), copy 1 most significant
    psi_n, _ = n_fold_state(psi, "A|B|C", n)
    joint = np.einsum("ax,jg->ajxg", psi_n.vector.reshape(d_a, -1),
                      run.resource.vector.reshape(k_card, k_card))
    target = dense_twirl_purification(psi, "A|B|C", n)[0].vector.reshape(-1, k_card)
    for k, m in enumerate(run.measurement):
        out = (m @ joint.reshape(d_a * k_card, -1)).reshape(-1, k_card)
        p_k = np.vdot(out, out).real
        assert abs(p_k - run.probabilities[k]) <= 1e-14
        post = out / np.sqrt(p_k)
        digits = np.unravel_index(k, (4,) * n)
        corrected = post * kron_all([np.exp(-2j * np.pi * np.arange(4) * k_i / 4)
                                     for k_i in digits])
        assert abs(abs(np.vdot(target, corrected)) ** 2 - run.fidelities[k]) <= 1e-13


def test_n_copy_operators_and_purification_are_formed_only_when_read(monkeypatch):
    factors = []
    twirl_factor = protocols._twirl_factor
    monkeypatch.setattr(protocols, "_twirl_factor",
                        lambda psi, ens: factors.append(psi.dim) or twirl_factor(psi, ens))
    psi = random_pure(LAY222, seed=5)
    one = measurement_protocol(psi, "A|B|C", n=1, zeta_trials=1).measurement
    factors.clear()
    run = measurement_protocol(psi, "A|B|C", n=2, zeta_trials=1)
    assert factors == [8]
    assert "measurement" not in vars(run)
    # operator (k1, k2) is M_k1 (x) M_k2 with its columns regrouped from
    # (A#1, A0#1, A#2, A0#2) to (A#1, A#2, A0#1, A0#2)
    k_one = len(one)
    assert len(run.measurement) == k_one ** 2
    for k, m in enumerate(run.measurement):
        k1, k2 = divmod(k, k_one)
        expect = np.kron(one[k1], one[k2]).reshape(4, 2, k_one, 2, k_one)
        expect = expect.transpose(0, 1, 3, 2, 4).reshape(m.shape)
        assert np.abs(m - expect).max() <= 1e-15
    assert factors == [8]


@settings(derandomize=True, max_examples=16, deadline=None)
@given(_twirl_cases())
def test_measurement_diagnostics_match_the_dense_reading(case):
    psi, n = case
    ki = ki_decompose(partial_trace(psi.to_density(), ("A", "C")), ("A",))
    k_card = (ki.dims[0] * ki.dims[2] ** 2) ** n
    assume(psi.layout.total_dim ** n * k_card <= protocols.TOTAL_DIM_GUARD)
    run = measurement_protocol(psi, "A|B|C", n=n, zeta_trials=1)
    eps, eps_prime, i_g_bc = dense_measurement_reading(psi, "A|B|C", n)
    assert np.all(np.abs(run.eps_k - eps) <= 1e-12)
    assert np.all(np.abs(run.eps_prime_k - eps_prime) <= 1e-12)
    assert abs(run.i_g_bc_av - i_g_bc) <= 1e-12


def test_measurement_diagonalizes_nothing_of_the_full_dimension(monkeypatch):
    # at (2, 2, 3), n = 2 the twirled state is 144-dimensional and the
    # compressed one 36-dimensional (K = 1 for a generic state)
    psi = random_pure(SystemLayout.of(("A", 2), ("B", 2), ("C", 3)), seed=1)
    sizes = []
    for name in ("eigh", "eigvalsh", "cholesky", "svd"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name,
            lambda a, *args, _solver=solver, **kw: sizes.append(max(np.shape(a)[-2:]))
            or _solver(a, *args, **kw))
    measurement_protocol(psi, "A|B|C", n=2, zeta_trials=1)
    assert sizes and max(sizes) == 36


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("case", [((2, 2, 2), 0), ((2, 2, 2), 1), ((2, 2, 2), 2),
                                  ((2, 2, 1), 1), ((2, 3, 1), 1), "bell_ac"],
                         ids=["222-0", "222-1", "222-2", "221-1", "231-1", "bell_ac"])
def test_rounding_level_eps_leaves_xi_at_zero(case, n):
    # eps and eps' come out at 1e-16..1e-15 on these inputs: rounding noise,
    # whose square roots would put xi near 0.02; zeta's rounding noise, which
    # eta would lift to 1e-14, counts as 0 too
    if case == "bell_ac":
        psi = load_state(DATA / "bell_ac.json")
    else:
        dims, seed = case
        psi = random_pure(SystemLayout.of(*zip("ABC", dims)), seed=seed)
    run = measurement_protocol(psi, "A|B|C", n=n)
    assert run.eps_k[0] <= 1e-14 and run.eps_prime_k[0] <= 1e-14
    assert run.xi_k.max() == 0.0


def test_measurement_rejects_reserved_labels():
    # the resource is (A0, G), refused as a label of Psi in any group at one
    # copy; from two copies on every label carries its copy's "#i", so
    # nothing collides with it
    for labels in (("G", "B", "C"), ("A0", "B", "C"), ("A", "G", "C"), ("A", "B", "A0")):
        name = next(l for l in labels if l in ("A0", "G"))
        psi = random_pure(SystemLayout.of(*((l, 2) for l in labels)), seed=1)
        grouping = "|".join(labels)
        with pytest.raises(ValueError, match=rf"^label '{name}' is reserved for the resource$"):
            measurement_protocol(psi, grouping, n=1, zeta_trials=1)
        measurement_protocol(psi, grouping, n=2, zeta_trials=1)


def test_measurement_guards_the_joint_dimension():
    layout = SystemLayout.of(("A", 3), ("B", 3), ("C", 3))
    psi = random_pure(layout, seed=2)
    with pytest.raises(ValueError, match="guard"):
        measurement_protocol(psi, "A|B|C", n=2)


def test_measurement_guard_fires_before_any_n_fold_product(monkeypatch):
    def refuse(mats):
        raise AssertionError("an n-fold product was formed")
    monkeypatch.setattr(protocols, "kron_all", refuse)
    psi = random_pure(SystemLayout.of(("A", 4), ("B", 4), ("C", 4)), seed=0)
    with pytest.raises(ValueError, match="guard"):
        measurement_protocol(psi, "A|B|C", n=3)


def test_random_markov_state_is_markov():
    rng = np.random.default_rng(0)
    for shape in ((2, 1, 1), (1, 2, 2), (3, 1, 1)):
        state = random_markov_state(rng, *shape)
        assert qcmi(state, (("A",), ("B",), ("C",))) <= 1e-9


def test_lemma1_harness_passes_its_three_properties():
    rep = verify_lemma1(trials=6, dims=(2, 2, 2), seed=0)
    assert rep.fidelity_pass == rep.trials
    assert rep.qcmi_bound_pass == rep.trials
    assert rep.two_eps_pass == rep.trials
    assert rep.fidelity_worst_margin >= -1e-6
    assert np.isfinite(rep.trace_form_worst_margin)


def test_appendix_a_bound_holds_on_noisy_plants():
    rep = verify_appendix_a(trials=6, seed=0)
    assert rep.asserted
    assert rep.passes == rep.trials
    assert rep.worst_margin >= -1e-9
    assert all(d["lhs"] <= d["bound"] + 1e-9 for d in rep.details)


@pytest.mark.parametrize("n", [1, 2])
def test_preserving_channels_keep_the_correlation_floor(n):
    rep = verify_lemma6(trials=4, n=n, seed=0)
    assert rep.asserted
    assert rep.passes == rep.trials
    assert rep.worst_margin >= -1e-8
    for d in rep.details:
        assert d["mean_information"] >= d["cost"] - 1e-8


def _record_results(monkeypatch, name, store, pick=lambda result: result):
    inner = getattr(protocols, name)

    def wrapper(*args, **kwargs):
        result = inner(*args, **kwargs)
        store.append(pick(result))
        return result
    monkeypatch.setattr(protocols, name, wrapper)


@pytest.mark.parametrize("eps", [0.0, 0.05])
def test_lemma6_one_copy_reading_matches_the_n_copy_state(eps, monkeypatch):
    # the report's 2 S(A) is I(A^2:B^2 C^2) / 2 after an exact preserver or
    # any unitary on A acts on both copies of the full state
    psis = []
    _record_results(monkeypatch, "_lemma6_input", psis)
    rep = verify_lemma6(trials=3, n=2, eps=eps, seed=3)
    assert len(psis) == len(rep.details) == 3
    rng = np.random.default_rng(11)
    for psi, d in zip(psis, rep.details):
        ki = ki_decompose(partial_trace(psi, ("A", "C")), ("A",))
        a_layout = psi.layout.subset(("A",))
        for chan in (block_phase_channel(ki, rng),
                     unitary_channel(random_unitary(a_layout.total_dim, rng), a_layout)):
            dense = dense_lemma6_information(psi, chan, 2)
            assert abs(d["mean_information"] - dense) <= 1e-12


def test_lemma6_at_eps_zero_forms_no_density_and_applies_no_channel(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a density was formed or a channel applied")
    monkeypatch.setattr(PureState, "to_density", refuse)
    monkeypatch.setattr(QuantumChannel, "apply", refuse)
    rep = verify_lemma6(trials=3, dims=(3, 2, 2), seed=1)
    assert rep.passes == rep.trials == 3


def test_lemma6_perturbation_guard_fires_before_any_n_fold_product(monkeypatch):
    def refuse(mats):
        raise AssertionError("an n-fold product was formed")
    monkeypatch.setattr(protocols, "kron_all", refuse)
    # (d_A d_C)^7 = 4^7 = 16384 exceeds the guard
    with pytest.raises(ValueError, match="guard"):
        verify_lemma6(trials=1, n=7, eps=0.05, seed=0)


def test_lemma6_at_positive_eps_only_reports():
    rep = verify_lemma6(trials=3, eps=0.05, seed=2)
    assert not rep.asserted
    for d in rep.details:
        assert d["eps_measured"] <= 0.05 + 1e-12
        assert d["zeta_estimate"] >= 0.0
        assert np.isfinite(d["floor"])


@pytest.mark.parametrize("eps", [-0.5, float("nan"), float("inf")])
def test_lemma6_refuses_an_invalid_eps_before_any_trial(eps, monkeypatch):
    def refuse(*args):
        raise AssertionError("a trial ran")
    monkeypatch.setattr(protocols, "_lemma6_input", refuse)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        verify_lemma6(trials=2, eps=eps)


def test_probe_spans_exact_and_generic_inputs():
    pts = conjecture_probe(trials=6, seed=0)
    assert [p.trial for p in pts] == list(range(6))
    assert max(pts[0].eps_ab, pts[0].eps_bc) <= 1e-6  # exact Markov input
    assert min(pts[2].eps_ab, pts[2].eps_bc) > 1e-3  # generic rank-2 input
    for p in pts:
        assert np.isfinite(p.eps_ab) and np.isfinite(p.eps_bc)
        assert p.eps_ab >= 0.0 and p.eps_bc >= 0.0
