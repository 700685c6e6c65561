"""The Frobenius screen of spectral-norm checks, and the one-copy screen of
n-copy trace distances.

``qcore._spectral_norm_above(x, bound)`` must give the verdict of
``np.linalg.norm(x, 2) > bound`` and, on a failure, exactly that value,
while taking no SVD when ||x||_F already passes.  Every check routed
through it must keep reporting the spectral value: each site is driven to
fail on a residual whose Frobenius norm exceeds its spectral norm.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from markovkit import channels, kidecomp, protocols, qcore
from markovkit.blocks import factor_block, kernel_kraus
from markovkit.channels import QuantumChannel, best_rotated_petz
from markovkit.kidecomp import (
    extend_to_purification,
    ki_decompose,
    state_preserving_channel,
)
from markovkit.protocols import markovianize
from markovkit.qcore import (
    DensityState,
    PureState,
    SystemLayout,
    VerificationError,
    _power_distance,
    _power_distance_above,
    _spectral_norm_above,
    partial_trace,
    random_pure,
    random_state,
)

from helpers import planted_ki_pure


@hs.composite
def _matrices(draw, rank_one=False):
    """A complex d x d matrix of rank 0 (the zero matrix), 1 (where the
    Frobenius and spectral norms agree) or up to d, at a drawn scale."""
    d = draw(hs.integers(1, 6))
    rank = 1 if rank_one else draw(hs.integers(0, d))
    rng = np.random.default_rng(draw(hs.integers(0, 2 ** 32 - 1)))
    left, right = (rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
                   for _ in range(2))
    return left @ right.conj().T * 10.0 ** draw(hs.integers(-12, 2))


# bounds relative to the spectral norm s: one ulp and 1e-12 on either side,
# s itself, and a bound between s and the Frobenius norm
_BOUNDS = ("ulp_below", "ulp_above", "rel_below", "rel_above", "at", "between",
           "half", "double")


def _bound(kind, x):
    s, f = np.linalg.norm(x, 2), np.linalg.norm(x)
    return {"ulp_below": np.nextafter(s, 0.0), "ulp_above": np.nextafter(s, np.inf),
            "rel_below": s * (1 - 1e-12), "rel_above": s * (1 + 1e-12), "at": s,
            "between": (s + f) / 2, "half": s / 2, "double": 2 * s}[kind]


def _check_screen(x, kind):
    bound = _bound(kind, x)
    spectral = np.linalg.norm(x, 2)
    got = _spectral_norm_above(x, bound)
    assert (got is not None) == (spectral > bound), (kind, spectral, bound)
    if got is not None:
        assert got == spectral


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_matrices(), hs.sampled_from(_BOUNDS))
def test_the_screen_gives_the_spectral_verdict_and_value(x, kind):
    _check_screen(x, kind)


# A rank-1 matrix's computed Frobenius norm falls an ulp or more below its
# computed spectral norm about a quarter of the time: a screen without slack
# would pass such a matrix against a bound one ulp below its spectral norm.
@settings(derandomize=True, max_examples=200, deadline=None)
@given(_matrices(rank_one=True), hs.sampled_from(("ulp_below", "at", "ulp_above")))
def test_rank_one_matrices_get_the_spectral_verdict_at_the_bound(x, kind):
    _check_screen(x, kind)


def test_the_zero_matrix_passes_a_zero_bound():
    assert _spectral_norm_above(np.zeros((3, 3)), 0.0) is None
    assert _spectral_norm_above(np.zeros((3, 3)), 1e-8) is None


def test_a_passing_frobenius_norm_takes_no_svd(monkeypatch):
    norm, orders = np.linalg.norm, []
    monkeypatch.setattr(np.linalg, "norm",
                        lambda x, ord=None, **kw: orders.append(ord) or norm(x, ord, **kw))
    x = 1e-9 * np.ones((4, 4))  # Frobenius 4e-9, spectral 4e-9
    assert _spectral_norm_above(x, 1e-8) is None
    assert orders == [None]
    x = np.diag([6e-9, 6e-9])  # Frobenius 8.5e-9 passes, spectral 6e-9
    assert _spectral_norm_above(x, 9e-9) is None and orders == [None, None]
    x = np.diag([9e-9, 9e-9])  # Frobenius 1.3e-8 fails, spectral 9e-9 passes
    assert _spectral_norm_above(x, 1e-8) is None
    assert orders == [None, None, None, 2]


# Each screened site, driven to fail on a residual whose Frobenius norm
# exceeds its spectral norm: the message carries the spectral value.

def test_factor_block_reports_the_spectral_residual():
    # |Phi><Phi| - I/4 on two qubits: spectral 3/4, Frobenius sqrt(3)/2
    phi = np.eye(2).reshape(4) / np.sqrt(2)
    block = np.outer(phi, phi).reshape(2, 2, 2, 2)
    with pytest.raises(VerificationError, match=r"residual 7\.50e-01\)"):
        factor_block(block, 0.0, 1e-8)
    assert factor_block(block, 0.0, 0.75 + 1e-12) is not None


def test_kernel_kraus_keeps_the_spectral_verdict():
    # the kernel is a rank-2 projector: spectral norm 1, Frobenius sqrt(2)
    gamma = np.eye(4)[:2]
    assert kernel_kraus(gamma, 1.0).shape == (0, 4, 4)
    (ker,) = kernel_kraus(gamma, 1.0 - 1e-9)
    assert np.allclose(ker, np.diag([0.0, 0.0, 1.0, 1.0]))


def test_between_block_coherence_reports_the_spectral_norm():
    # 1/2 |0><0| (x) |0><0| + 1/2 |+><+| (x) |1><1|, a known split defect:
    # the off-block part has spectral norm 1/(4 sqrt 2), Frobenius twice that
    zero, plus, one = np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2), np.array([0.0, 1.0])
    rho = (np.kron(np.outer(zero, zero), np.outer(zero, zero))
           + np.kron(np.outer(plus, plus), np.outer(one, one))) / 2
    state = DensityState(rho, SystemLayout.of(("A", 2), ("C", 2)))
    with pytest.raises(VerificationError, match=r"between-block coherence 1\.77e-01 "):
        ki_decompose(state, "A")


def test_reconstruction_deviation_reports_the_spectral_norm():
    # sqrt(1 - w)|00> + sqrt(w)|11> with w below the support cut: the split
    # drops the coherence c = sqrt(w (1 - w)), and the deviation [[0, c], [c, w]]
    # has spectral norm (w + sqrt(w^2 + 4c^2)) / 2 and Frobenius about sqrt(2) c
    w = 1e-12
    vec = np.array([np.sqrt(1 - w), 0.0, 0.0, np.sqrt(w)])
    state = PureState(vec, SystemLayout.of(("A", 2), ("C", 2))).to_density()
    c = np.sqrt(w * (1 - w))
    spectral = (w + np.sqrt(w * w + 4 * c * c)) / 2
    with pytest.raises(VerificationError) as err:
        ki_decompose(state, "A")
    assert str(err.value) == f"reconstruction deviation {spectral:.2e}"
    assert f"{np.sqrt(2 * c * c + w * w):.2e}" not in str(err.value)


def test_check_complete_reports_the_spectral_deviation():
    # sum K^dagger K - I = 0.1 I_2: spectral 0.1, Frobenius 0.14
    layout = SystemLayout.of(("A", 2))
    chan = QuantumChannel([np.sqrt(1.1) * np.eye(2)], layout, layout)
    assert chan.completeness_deviation() == pytest.approx(0.1, abs=1e-15)
    with pytest.raises(VerificationError, match=r"deviates by 1\.000e-01$"):
        chan.check_complete(1e-8)
    chan.check_complete(0.1 + 1e-12)


def test_petz_completeness_reports_the_spectral_deviation(monkeypatch):
    # a support gap shifted by 0.1 I: spectral 0.1 (up to rounding),
    # Frobenius 0.1 sqrt(rank)
    gap = channels._gram_gap
    monkeypatch.setattr(channels, "_gram_gap",
                        lambda c: gap(c) + 0.1 * np.eye(c.shape[2]))
    st = random_state(SystemLayout.of(("A", 2), ("B", 2), ("C", 2)), seed=5)
    with pytest.raises(VerificationError, match=r"deviates by 1\.000e-01$"):
        best_rotated_petz(st, "A|B|C")


@pytest.fixture
def planted():
    """(psi, its Koashi-Imoto split of rho_AC over A) with one block of aL
    dim 2 and aR dim 1."""
    psi = planted_ki_pure(3, [2], 1, 0)
    ki = ki_decompose(partial_trace(psi, ("A", "C")), "A")
    assert [b.a_l_dim for b in ki.blocks] == [2]
    return psi, ki


def test_extension_reports_the_spectral_marginal_deviation(planted):
    psi, ki = planted
    other = planted_ki_pure(4, [2], 1, 0)
    dev = ki.reconstruct().matrix - partial_trace(other, ("A", "C")).matrix
    spectral, frob = np.linalg.norm(dev, 2), np.linalg.norm(dev)
    assert f"{spectral:.2e}" != f"{frob:.2e}"
    with pytest.raises(VerificationError) as err:
        extend_to_purification(other, ki)
    assert str(err.value) == f"state marginal differs from the decomposition by {spectral:.2e}"


def test_extension_reports_the_spectral_gram_deviation(planted, monkeypatch):
    # omega's eigenvalues read 1.1 times too large shrink every B-side vector
    # by 1/sqrt(1.1): the Gram matrix is I / 1.1, so its deviation is
    # 1/11 in spectral norm and 1/11 sqrt(2) in Frobenius
    psi, ki = planted
    support_eigh, calls = kidecomp.support_eigh, []

    def inflated(mat, cutoff):  # each block reads omega, then phi
        vals, vecs, kernel, low = support_eigh(mat, cutoff)
        calls.append(mat)
        return (1.1 if len(calls) % 2 else 1.0) * vals, vecs, kernel, low
    monkeypatch.setattr(kidecomp, "support_eigh", inflated)
    with pytest.raises(VerificationError, match=r"Gram deviation 9\.09e-02\)"):
        extend_to_purification(psi, ki)


def test_isometry_checks_keep_the_spectral_verdict(planted):
    # sqrt(1 + delta) I on aL: u^dagger u - I = delta I has spectral norm
    # delta and Frobenius sqrt(2) delta, so delta = 0.9 verify_tol passes
    # (as does the completeness of the channel it builds) and 1.1 fails
    _, ki = planted
    state_preserving_channel(ki, [np.sqrt(1 + 0.9e-8) * np.eye(2)])
    with pytest.raises(ValueError, match="not an isometry"):
        state_preserving_channel(ki, [np.sqrt(1 + 1.1e-8) * np.eye(2)])


def test_preservation_check_keeps_the_spectral_verdict(planted):
    # a unitary exp(i theta X) moves omega by a traceless 2 x 2 difference,
    # whose Frobenius norm is sqrt(2) times its spectral norm
    _, ki = planted
    omega = ki.blocks[0].omega

    def rotation(theta):
        return np.cos(theta) * np.eye(2) + 1j * np.sin(theta) * np.array([[0, 1], [1, 0]])

    def moved(theta):
        u = rotation(theta)
        return np.linalg.norm(u @ omega @ u.conj().T - omega, 2)

    per_unit = moved(1e-6) / 1e-6
    state_preserving_channel(ki, [rotation(0.9e-8 / per_unit)])
    with pytest.raises(ValueError, match="does not preserve"):
        state_preserving_channel(ki, [rotation(1.1e-8 / per_unit)])


# The one-copy screen of n-copy trace distances: a pair of states y and
# x = (1 - t) y + t z, bounds placed around the exact n-copy distance and
# around the screen's bound ||x - y||_1 sum_i ||x||_1^i ||y||_1^(n-1-i).
_POWER_BOUNDS = ("exact_below", "exact", "exact_above", "between", "screen_below",
                 "screen", "screen_above", "half", "double")


@settings(derandomize=True, max_examples=200, deadline=None)
@given(hs.integers(1, 3), hs.integers(2, 4), hs.floats(-3.0, 0.0),
       hs.sampled_from(_POWER_BOUNDS), hs.integers(0, 2 ** 32 - 1))
def test_the_power_screen_gives_the_exact_verdict_and_value(n, d, log_t, kind, seed):
    layout = SystemLayout.of(("A", d))
    y, z = (random_state(layout, seed=[seed, k]).matrix for k in range(2))
    t = 10.0 ** log_t
    x = (1 - t) * y + t * z
    exact = _power_distance(x, y, n)
    norms = [np.abs(np.linalg.eigvalsh(m)).sum() for m in (x - y, x, y)]
    screen = norms[0] * sum(norms[1] ** i * norms[2] ** (n - 1 - i) for i in range(n))
    bound = {"exact_below": exact * (1 - 1e-12), "exact": exact,
             "exact_above": exact * (1 + 1e-12), "between": (exact + screen) / 2,
             "screen_below": screen * (1 - 1e-12), "screen": screen,
             "screen_above": screen * (1 + 1e-12), "half": exact / 2,
             "double": 2 * screen}[kind]
    got = _power_distance_above(x, y, n, bound)
    assert (got is not None) == (exact > bound), (kind, exact, screen, bound)
    if got is not None:
        assert got == exact


def test_markovianize_reads_its_marginal_on_one_copy(monkeypatch):
    # at n = 2 the one-copy screen passes, so no n-copy power is formed
    calls = []
    for module in (qcore, protocols):
        monkeypatch.setattr(module, "_power_distance",
                            lambda *args: calls.append(args) or _power_distance(*args))
    psi = random_pure(SystemLayout.of(("A", 2), ("B", 3), ("C", 2)), seed=3)
    run = markovianize(psi, "A|B|C", n=2)
    assert run.qcmi_out <= 1e-8 and calls == []
