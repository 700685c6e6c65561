"""Finite-copy Markovianization protocols and bound-verification harnesses.

The twirl here is exact rather than rate-optimal: per copy it draws a phase
operator on the block index and a Heisenberg-Weyl operator on the correlated
factor, so the averaged output is a Markov state at every n instead of only
asymptotically.  The price is a randomness cost of log2(d_a0) + 2 log2(d_aR)
bits per copy, which upper-bounds the entropic cost formula.  The K_1
per-copy unitaries are one (K_1, d_A, d_A) stack, formed a chunk at a time
by one product of the phase and Heisenberg-Weyl stacks and one stacked
congruence by gamma+, and both protocols read that stack directly.

The averaged twirl is the conditional expectation onto
(+)_s |s><s| (x) M_s (x) I_{aR^n}/d_aR^n in the Koashi-Imoto frame gamma of
every copy, so both protocols read the much smaller compressed output
omega_c^(x n) on (K^n, B^n, C^n), K = a0 (x) aL (per copy omega_c is the
block-dephased aR partial trace of gamma Psi), and in fact its one copy
omega_c, formed for both by one front end: entropies add up over copies,
and the plain Petz map of a tensor power is the power of the one-copy map.
Only measure-sim's eps' is read on omega_c^(x n), as its averaged Petz map
does not factor over copies.
The full output on (A^n, B^n, C^n) is formed only when asked for.  The
twirl averages independent per-copy unitaries over a product state, so the
output is the n-th tensor power of its one-copy output, regrouped as
(A^n, B^n, C^n); that one copy is the marginal of the one-copy purification
sum_k |k>_G (x) U_k|psi>/sqrt(K_1), and no path forms Psi^(x n), the K^n
product unitaries or a Kraus sandwich on a state-sized matrix.  The
measurement protocol acts on each copy alike, with a rank-K_1 maximally
entangled resource per copy, so it runs on one copy: its n-copy operators,
probabilities and fidelities are Kronecker powers of the one-copy ones, and
after a phase correction on the reference side every outcome reproduces the
one-copy twirl purification.

The harnesses ``verify_lemma1``, ``verify_appendix_a``, ``verify_lemma6``
and ``conjecture_probe`` run their trials in one serial loop, trial i drawing
its inputs from default_rng([seed, i]), and return reports; the bounds that
hold with mathematical certainty are enforced, estimate-dependent ones are
only recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .blocks import block_state, kernel_projector
from .channels import (
    RandomUnitaryEnsemble,
    _gram_gap,
    best_rotated_petz,
    heisenberg_weyl,
    petz_recoveries,
    phase_ops,
    recover,
    unitary_channel,
)
from .cost import splitting_cost
from .kidecomp import KIDecomposition, ki_decompose
from .markov import (
    _hermitian_eigenpairs,
    _markov_reading,
    estimate_zeta,
    markov_decompose,
    recovery_from_decomposition,
    squeeze_T,
)
from .qcore import (
    DEFAULT_TOLS,
    DensityState,
    PureState,
    SystemLayout,
    Tolerances,
    VerificationError,
    _congruence,
    _power_distance,
    _power_distance_above,
    _pure_entropy,
    _stack_step,
    eta,
    fidelity,
    kron_all,
    parse_three_groups,
    partial_trace,
    qcmi,
    random_pure,
    random_state,
    random_unitary,
    recovery_error_bound,
    reorder,
    reorder_vector,
    trace_distance,
    trace_norm,
    von_neumann_entropy,
)

__all__ = [
    "MarkovianizationRun",
    "MeasurementRun",
    "Lemma1Report",
    "StructuralReport",
    "ProbePoint",
    "random_markov_state",
    "n_fold_state",
    "build_twirl_ensemble",
    "markovianize",
    "measurement_protocol",
    "verify_lemma1",
    "verify_appendix_a",
    "verify_lemma6",
    "conjecture_probe",
]

TOTAL_DIM_GUARD = 4096


def _guard_total_dim(base: int, n: int = 1, what: str = "total dimension") -> None:
    """Refuse, before it is built, an object of base^n dimensions above
    TOTAL_DIM_GUARD; the message names it as what, and its size by value up
    to 100 digits and as base^n beyond.  The running power stops as soon as
    it passes the guard, so no large integer is formed whatever n is."""
    value = 1
    for _ in range(n if base > 1 else 0):
        value *= base
        if value > TOTAL_DIM_GUARD:
            size = base ** n if n * math.log10(base) < 100 else f"{base}^{n}"
            raise ValueError(f"{what} {size} exceeds the guard {TOTAL_DIM_GUARD}")


# ---------------------------------------------------------------------------
# input generators


def random_markov_state(rng, b0: int = 2, b_l: int = 2, b_r: int = 2,
                        d_a: int = 2, d_c: int = 2) -> DensityState:
    """Random exact Markov state on (A, B, C) with B hidden by a rotation.

    B carries b0 blocks of dimension b_l * b_r; block i holds a random
    sigma_i on (A, bL) and phi_i on (bR, C) with Dirichlet weights.
    """
    rng = np.random.default_rng(rng)
    d_b = b0 * b_l * b_r
    q = rng.dirichlet(4.0 * np.ones(b0))

    def wishart(d):
        return random_state(SystemLayout.of(("X", d)), seed=rng).matrix

    blocks = [(q[i], wishart(d_a * b_l), wishart(b_r * d_c)) for i in range(b0)]
    mat = _congruence(random_unitary(d_b, seed=rng),
                      block_state((b0, b_l, b_r), blocks, d_a, d_c), d_a, d_c)
    layout = SystemLayout.of(("A", d_a), ("B", d_b), ("C", d_c))
    return DensityState(mat, layout)


def _mix(state: DensityState, rng, weight: float) -> DensityState:
    noise = random_state(state.layout, seed=rng)
    mat = (1.0 - weight) * state.matrix + weight * noise.matrix
    return DensityState(mat, state.layout)


# ---------------------------------------------------------------------------
# n-copy plumbing


def _copies(layout: SystemLayout, groups, n: int):
    """n copies of layout side by side, copy i's labels suffixed "#i", and
    each label group gathered over the copies, copy 1 first."""
    copies = reduce(SystemLayout.concat, [
        layout.renamed({l: f"{l}#{i + 1}" for l in layout.labels}) for i in range(n)])
    return copies, tuple(tuple(f"{l}#{i + 1}" for i in range(n) for l in g)
                         for g in groups)


def n_fold_state(psi: PureState, grouping, n: int):
    """Psi^(x n) with the copies regrouped as (A-bar, B-bar, C-bar).

    For n = 1 the original labels survive; for n >= 2 copy i appends "#i"
    to every label.  Returns the reordered pure state and the three label
    groups of the new layout.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    groups = parse_three_groups(grouping, psi.layout)
    layout, vec = psi.layout, psi.vector
    if n > 1:
        layout, groups = _copies(layout, groups, n)
        vec = kron_all([vec] * n)
    vec, layout = reorder_vector(vec, layout, sum(groups, ()))
    return PureState(vec, layout), groups


# ---------------------------------------------------------------------------
# the exact twirl


def _twirl_cardinality(ki: KIDecomposition) -> int:
    """d_a0 * d_aR^2 twirl unitaries per copy; every block must share d_aR."""
    if len({blk.a_r_dim for blk in ki.blocks}) != 1:
        raise ValueError(
            "blocks carry different aR dimensions; the shared "
            "Heisenberg-Weyl twirl needs a common one")
    return ki.dims[0] * ki.dims[2] ** 2


def build_twirl_ensemble(ki: KIDecomposition) -> RandomUnitaryEnsemble:
    """Per-copy unitaries gamma+ (Z^b (x) I (x) W) gamma, as one stack.

    Z^b runs over the d_a0 phase operators on the block index and W over
    the d_aR^2 Heisenberg-Weyl set, b most significant, so averaging
    dephases the blocks and depolarizes the correlated factor exactly.  Off
    the support of rho^A each element acts as the identity.  Every block
    must share d_aR.  The elements are formed and checked unitary a chunk
    at a time (qcore._stack_step): one product gives the chunk's
    Z^b (x) I (x) W, one stacked congruence by gamma+ pulls them back, and
    the first element whose ||U+ U - I||_F exceeds 1e-10 is reported.
    """
    card = _twirl_cardinality(ki)
    d0, dl, dr = ki.dims
    d_k, d_a = ki.gamma.shape
    z, w = phase_ops(d0), heisenberg_weyl(dr)
    kernel = kernel_projector(ki.gamma)
    unis = np.empty((card, d_a, d_a), dtype=complex)
    step = _stack_step(max(d_k, d_a) ** 2)
    for lo in range(0, card, step):
        b, h = np.divmod(np.arange(lo, min(lo + step, card)), dr * dr)
        # Z^b (x) I_aL (x) W_h on (a0, aL, aR) x (a0', aL', aR')
        x = (z[b][:, :, None, None, :, None, None] * np.eye(dl)[:, None, None, :, None]
             * w[h][:, None, None, :, None, None, :]).reshape(-1, d_k, d_k)
        u = unis[lo:lo + step] = _congruence(ki.gamma.conj().T, x) + kernel
        # Frobenius norm: an upper bound on the spectral norm
        dev = np.linalg.norm(u.conj().swapaxes(1, 2) @ u - np.eye(d_a), axis=(1, 2))
        bad = dev[dev > 1e-10]
        if bad.size:
            raise VerificationError(f"twirl element is not unitary (deviation {bad[0]:.3e})")
    return RandomUnitaryEnsemble(unis, ki.part)


def _twirl_factor(psi: PureState, ensemble: RandomUnitaryEnsemble) -> np.ndarray:
    """The factor G, of shape (K, dim psi), of the one-copy twirl
    purification: row k is (U_k (x) I) psi / sqrt(K) for the K unitaries of
    ensemble, with psi's A leading.  The twirled state is G^T G^*, and the
    Gram matrix G^* G^T has its nonzero spectrum."""
    units = ensemble.unitaries / np.sqrt(ensemble.size)
    k, d_a = units.shape[:2]
    return np.einsum("kab,bx->kax", units, psi.vector.reshape(d_a, -1)).reshape(k, -1)


def _twirl_front(psi: PureState, grouping, n: int, tols: Tolerances,
                 tol: float):
    """The prologue both protocols share, and the one copy they read.

    Refuses n < 1, n copies above the guard and a split of rho_AC over A
    with unequal aR dims, before any n-fold object is built.  Returns the
    groups; the split; psi regrouped as (A, B, C); the compressed twirl
    output omega_c = (+)_j |j><j| (x) Tr_aR[(gamma psi)_j (gamma psi)_j^+]
    on (K, B, C), K = a0 (x) aL labelled as A's first subsystem, validated
    to tol; and the B C marginals of omega_c and, as a matrix, of psi.  The
    twirl's output is gamma^+ (omega_c (x) I_aR/d_aR) gamma on every copy,
    up to psi's weight off supp(gamma), which the marginals' distance counts.
    """
    groups = parse_three_groups(grouping, psi.layout)
    # checked before any n-fold object is built
    _guard_total_dim(psi.layout.total_dim, n)
    if n < 1:
        raise ValueError("n must be at least 1")
    psi_1 = n_fold_state(psi, groups, 1)[0]
    a, b, c = groups
    ki = ki_decompose(partial_trace(psi, a + c), a, tols)
    _twirl_cardinality(ki)  # refuses unequal aR dims before any reading

    d0, dl, dr = ki.dims
    d_k = d0 * dl
    # gamma psi on (K, aR, B C); bring aR to the front
    t = ki.gamma @ psi_1.vector.reshape(ki.part.total_dim, -1)
    t = t.reshape(d_k, dr, -1).transpose(1, 0, 2).reshape(dr, -1)
    omega = t.T @ t.conj()
    same = np.kron(np.eye(d0), np.ones((dl, dl)))
    omega = (omega.reshape(d_k, -1, d_k, omega.shape[0] // d_k)
             * same[:, None, :, None]).reshape(omega.shape)
    layout = SystemLayout.of((a[0], d_k)).concat(psi_1.layout.subset(b + c))
    omega_c = DensityState(omega, layout, tol=tol)
    omega_bc = partial_trace(omega_c, b + c)
    psi2 = psi_1.vector.reshape(-1, omega_bc.dim)
    return groups, ki, psi_1, omega_c, omega_bc, psi2.T @ psi2.conj()


@dataclass
class MarkovianizationRun:
    """Outcome of applying the exact twirl to n copies.

    The twirl is build_twirl_ensemble(ki) on every copy, a uniform mixture
    of ensemble_size = _twirl_cardinality(ki) ** n product unitaries on A^n.
    Averaging independent per-copy twirls over Psi^(x n) gives the n-th
    power of the one-copy average, so the output is the one-copy output of
    psi (the input regrouped by the label groups ``groups``) to the n-th
    power, regrouped as (A^n, B^n, C^n) with copy i's labels suffixed "#i"
    for n >= 2.  No reported number needs it: the ensemble is built and
    checked, and the output built and validated to 10 * tols.verify_tol, on
    the first read of output.
    """

    n: int
    qcmi_out: float
    recovery_error_from_bc: float
    recovery_error_from_ab: float
    cost_bits_per_copy: float
    m_dec_bits: float
    psi: PureState = field(repr=False)
    groups: tuple = field(repr=False)
    ki: KIDecomposition = field(repr=False)
    tols: Tolerances = field(default=DEFAULT_TOLS, repr=False)

    @property
    def ensemble_size(self) -> int:
        return _twirl_cardinality(self.ki) ** self.n

    @cached_property
    def output(self) -> DensityState:
        g = _twirl_factor(self.psi, build_twirl_ensemble(self.ki))
        out = DensityState(g.T @ g.conj(), self.psi.layout, validate=False)
        if self.n > 1:
            layout, groups = _copies(out.layout, self.groups, self.n)
            out = reorder(DensityState(kron_all([out.matrix] * self.n), layout,
                                       validate=False), sum(groups, ()))
        return DensityState(out.matrix, out.layout, tol=10 * self.tols.verify_tol)


def markovianize(psi: PureState, grouping, n: int,
                 tols: Tolerances = DEFAULT_TOLS) -> MarkovianizationRun:
    """Twirl Psi^(x n) into an exact Markov state conditioned by B^n.

    Checks that the output passes the zero-QCMI and plain-Petz tests, that
    the B^n C^n marginal is untouched, and that the randomness cost per
    copy is at least the entropic cost of the single-copy state.

    The twirl acts on each copy alike, so its compressed output is
    omega = omega_c^(x n) on (K^n, B^n, C^n), and every check reads the one
    copy omega_c on (K, B, C) from _twirl_front, never the full output
    V (omega (x) I_{aR^n}/d_aR^n) V^+, where V = (gamma^+)^(x n) with aR^n
    regrouped is isometric on the blocks' coordinates.  Each check is
    equivalent there:

    - positivity: omega >= 0 exactly when the full output is, and exactly
      when omega_c is, so omega_c is validated once as a DensityState
      (Cholesky, see qcore.check_density);
    - the marginal: Tr_{K^n} omega is the full output's B^n C^n marginal,
      (omega_c)_BC^(x n), and its trace-norm distance from rho_BC^(x n) is
      compared with 1e-12, screened by a one-copy bound and formed exactly
      only when the screen fails (qcore._power_distance_above), so the
      verdict and the reported value are exact; it also bounds Psi^(x n)'s
      weight off supp(gamma)^(x n), which the compressed reading drops;
    - the QCMI: S(A^n B^n C^n) and S(A^n B^n) both exceed those of omega by
      n log2 d_aR, which cancels, and S(B^n C^n), S(B^n) are unchanged;
      every entropy adds up over copies, so it is n I(K:C|B) of omega_c;
    - the plain Petz errors: both maps touch A^n only through the output's
      marginals, so each recovered state is V (R(omega) (x) I/d_aR^n) V^+
      and ||X (x) I/d||_1 = ||X||_1 gives the error as ||R(omega) - omega||_1.
      On the support R(omega) = R_c^(x n) for omega_c's plain map R_c
      (Petz, Q. J. Math. 39, 97 (1988)), so the error is
      ||R_c(omega_c)^(x n) - omega_c^(x n)||_1, formed exactly; at n = 1 it
      is the one-copy error.

    The QCMI and both errors come from markov._markov_reading, the reader
    behind markov.is_markov.  Psi^(x n) is never formed.
    """
    groups, ki, psi_1, omega_c, omega_bc, rho_bc = _twirl_front(
        psi, grouping, n, tols, 10 * tols.verify_tol)
    marg_dev = _power_distance_above(omega_bc.matrix, rho_bc, n, 1e-12)
    if marg_dev is not None:
        raise VerificationError(
            f"twirl moved the conditioning marginal by {marg_dev:.3e}")
    # omega_c's layout is K | B | C, so B conditions contiguously
    report = _markov_reading(omega_c, groups[1], n, tols)
    qcmi_out = report.qcmi_bits
    if qcmi_out > 1e-8:
        raise VerificationError(
            f"twirl output is not Markov: QCMI {qcmi_out:.3e} bits")
    err_bc, err_ab = report.petz_error_from_bc, report.petz_error_from_ab
    if max(err_bc, err_ab) > 1e-7:
        raise VerificationError(
            f"plain Petz errors ({err_bc:.3e}, {err_ab:.3e}) on the output")

    d0, _, d_r = ki.dims
    cost = float(np.log2(d0) + 2.0 * np.log2(d_r))
    m = splitting_cost(ki, psi, groups, tols).m_dec_bits
    if cost < m - 1e-9:
        raise VerificationError(
            f"cost {cost:.6f} bits/copy undercuts the entropic value {m:.6f}")
    return MarkovianizationRun(n, qcmi_out, err_bc, err_ab, cost, m,
                               psi_1, groups, ki, tols)


# ---------------------------------------------------------------------------
# the measurement protocol


@dataclass
class MeasurementRun:
    """Measurement-induced Markovianization with a rank-K entangled resource.

    The n-copy measurement is the n-fold power of copy_measurement, with
    K = K_1^n outcomes k = (k_1 .. k_n), copy 1 most significant; its
    operators (measurement) are formed on first read.  probabilities and
    fidelities are the Kronecker powers of the one-copy values, and
    completeness_deviation is the one-copy set's.  After its phase
    correction on G every outcome leaves the twirl purification, whose
    state on (A^n, B^n, C^n) is markovianize's output, the regrouped n-th
    power of the one-copy output; neither is formed here.  So eps_k (change
    of the conditioning marginal), eps_prime_k (best-Petz recovery of the
    kept side) and xi_k hold one value each, repeated per outcome, and
    i_g_bc_av is I(G:B^n C^n).  Each equals its value on the
    full state and is read from markovianize's one copy omega_c: eps as
    ||(omega_c)_BC^(x n) - rho_BC^(x n)||_1, I(G:B^n C^n) as
    n (S(omega_c) + S(omega_c,BC) - S(omega_c,K)), since S(G) and S(A^n)
    both exceed S(omega) and S(omega_{K^n}) by n log2 d_aR, and eps' on
    omega = omega_c^(x n), since the averaged Petz map does not factor over
    copies.  xi_k combines eps and eps' through the zeta estimate and is
    only as good as that lower bound; eps, eps' and zeta at or below
    tols.verify_tol count as 0 there.
    """

    n: int
    r_bits: float
    resource: PureState
    probabilities: np.ndarray
    completeness_deviation: float
    fidelities: np.ndarray
    eps_k: np.ndarray
    eps_prime_k: np.ndarray
    xi_k: np.ndarray
    i_g_bc_av: float
    # copy_measurement[k, p, a, j]: one-copy operator k from (A, A0) to A
    copy_measurement: np.ndarray = field(repr=False)
    xi_is_estimate: bool = True

    @cached_property
    def measurement(self) -> np.ndarray:
        """The K operators from (A^n, A0^n) to A^n, as one stack."""
        one = ops = self.copy_measurement
        for _ in range(self.n - 1):
            shape = [x * y for x, y in zip(ops.shape, one.shape)]
            ops = np.einsum("kpaj,lqbm->klpqabjm", ops, one).reshape(shape)
        return ops.reshape(ops.shape[0], ops.shape[1], -1)


def measurement_protocol(psi: PureState, grouping, n: int,
                         tols: Tolerances = DEFAULT_TOLS,
                         zeta_trials: int = 4,
                         seed=0) -> MeasurementRun:
    """Run the phase-encoded measurement realizing the twirl on A^n.

    Per copy, Alice measures (A, A0) with K_1 operators whose j-th term
    carries the phase exp(2 pi i j k / K_1) and the twirl unitary V_j of
    the state's own splitting; every outcome is equally likely, and after
    the phase correction on G the global state is the twirl purification.
    All one-copy outcomes come from one contraction with Psi (x) Phi_{K_1},
    checked against the one-copy purification, and the n-copy values are
    checked again as their Kronecker powers.  The shared diagnostics (see
    MeasurementRun) are read from the one copy omega_c of _twirl_front,
    validated to tols.verify_tol, and eps' from its n-th power, validated
    to the same tolerance.
    """
    groups, ki, psi_1, omega_c, omega_bc, rho_bc = _twirl_front(
        psi, grouping, n, tols, tols.verify_tol)
    k_one = _twirl_cardinality(ki)
    # checked before any n-fold product is built
    _guard_total_dim(psi.layout.total_dim * k_one, n, "joint dimension")
    k_card = k_one ** n
    # from two copies on, every label carries its copy's "#i"
    for name in ("A0", "G"):
        if n == 1 and name in psi.layout.labels:
            raise ValueError(f"label {name!r} is reserved for the resource")

    copy_ensemble = build_twirl_ensemble(ki)
    d_a = psi.layout.dim_of(groups[0])
    r_bits = float(np.log2(k_card)) / n
    phases = np.exp(2j * np.pi * np.outer(np.arange(k_one),
                                          np.arange(k_one)) / k_one)

    # ops[k, p, a, j] = phases[j, k] V_j[p, a] / sqrt(K_1): operator k maps
    # (A, A0) to A
    ops = np.einsum("jk,jpa->kpaj", phases, copy_ensemble.unitaries) / np.sqrt(k_one)
    # Frobenius norm: an upper bound on the spectral norm
    completeness_dev = float(np.linalg.norm(_gram_gap(ops.reshape(k_one, d_a, -1))))
    if completeness_dev > 1e-10:
        raise VerificationError(
            f"measurement completeness deviation {completeness_dev:.3e}")

    resource = PureState(np.eye(k_card).reshape(-1) / np.sqrt(k_card),
                         SystemLayout.of(("A0", k_card), ("G", k_card)))

    # the resource sum_j |j>_A0 |j>_G / sqrt(K_1) is diagonal, so outcome k's
    # unnormalized state on (A, rest, G) is sum_a ops[k, :, a, g] psi2[a, :]
    psi2 = psi_1.vector.reshape(d_a, -1)
    w = np.einsum("kpag,ax->kpxg", ops, psi2) / np.sqrt(k_one)
    probs = np.einsum("kpxg,kpxg->k", w, w.conj()).real
    probs_n = reduce(np.kron, [probs] * n)
    bad = np.abs(probs_n - 1.0 / k_card) > 1e-10
    if bad.any():
        k = int(np.argmax(bad))
        raise VerificationError(
            f"outcome {k} has probability {probs_n[k]:.12f}, expected 1/{k_card}")
    t = w / np.sqrt(probs)[:, None, None, None]
    target = _twirl_factor(psi_1, copy_ensemble).T.reshape(d_a, -1, k_one)
    # outcome k's correction multiplies G's |g> by conj(phases[g, k])
    fids = np.abs(np.einsum("pxg,kpxg,gk->k", target.conj(), t,
                            phases.conj())) ** 2
    fids = reduce(np.kron, [fids] * n)
    if fids.min() < 1.0 - 1e-10:
        raise VerificationError(
            f"corrected state fidelity dropped to {fids.min():.12f}")

    eps = _power_distance(omega_bc.matrix, rho_bc, n)
    omega, groups_c = omega_c, (groups[0][:1],) + groups[1:]
    if n > 1:
        layout, groups_c = _copies(omega_c.layout, groups_c, n)
        omega = DensityState(kron_all([omega_c.matrix] * n), layout, tol=tols.verify_tol)
    eps_prime = best_rotated_petz(omega, groups_c, direction="from_ab", tols=tols).error
    # the global state is pure, so S(B^n C^n G) = S(A^n); every entropy adds
    # up over copies, and omega_c's K carries the label of A's first subsystem
    i_av = n * (von_neumann_entropy(omega_c, tols) + von_neumann_entropy(omega_bc, tols)
                - von_neumann_entropy(partial_trace(omega_c, groups[0][:1]), tols))
    if i_av > n * r_bits + 1e-9:
        raise VerificationError(
            f"average I(G:BC) {i_av:.9f} exceeds nR = {n * r_bits:.9f}")

    # eps and eps' at or below verify_tol are rounding noise, so they enter
    # the budget as 0; their square roots would otherwise drive xi
    eps_b, eps_prime_b = (v if v > tols.verify_tol else 0.0
                          for v in (eps, eps_prime))
    two_sqrt_eps = 2.0 * np.sqrt(eps_b)
    budget = two_sqrt_eps + 2.0 * np.sqrt(
        recovery_error_bound(eps_prime_b, psi.layout.dim_of(groups[2]) ** n))
    zeta = estimate_zeta(psi, ki, float(budget), trials=zeta_trials,
                         seed=seed, tols=tols)
    # a zeta at or below verify_tol is rounding noise too, which eta would
    # lift from 1e-16 to 1e-14
    xi = 5.0 * eta(two_sqrt_eps) + 2.0 * eta(zeta if zeta > tols.verify_tol else 0.0)

    return MeasurementRun(n, r_bits, resource, probs_n, completeness_dev, fids,
                          np.full(k_card, eps), np.full(k_card, eps_prime),
                          np.full(k_card, xi), i_av, ops)


# ---------------------------------------------------------------------------
# verifier harnesses


@dataclass
class Lemma1Report:
    """Pass counts and worst margins for the three recoverability bounds."""

    trials: int
    dims: tuple
    fidelity_pass: int
    fidelity_worst_margin: float
    trace_form_worst_margin: float  # reported only, the family may lose
    qcmi_bound_pass: int
    qcmi_bound_worst_margin: float
    two_eps_pass: int
    two_eps_worst_margin: float


_PLANT_SHAPES = ((2, 1, 1), (2, 2, 1), (1, 2, 2), (3, 1, 1))
_NOISE_WEIGHTS = (0.01, 0.025, 0.05)


def _noisy_plant(i: int, dims, rng, tols: Tolerances):
    """Trial i's (clean, its Markov decomposition, noisy, eps): a planted
    Markov state of the cycled shape on the outer dims, mixed with the
    cycled noise weight, and their trace distance."""
    b0, b_l, b_r = _PLANT_SHAPES[i % len(_PLANT_SHAPES)]
    clean = random_markov_state(rng, b0, b_l, b_r, dims[0], dims[2])
    md = markov_decompose(clean, "B", tols=tols)
    noisy = _mix(clean, rng, _NOISE_WEIGHTS[i % len(_NOISE_WEIGHTS)])
    return clean, md, noisy, trace_distance(clean, noisy)


def verify_lemma1(trials: int, dims=(2, 2, 2), seed=0,
                  tols: Tolerances = DEFAULT_TOLS) -> Lemma1Report:
    """Exercise the three recoverability properties on fresh inputs.

    Per trial: a random mixed state feeds the fidelity form (averaged
    rotated Petz against 2^(-I/2), both directions), and a noisy planted
    Markov state feeds the 2-eps bound (the clean state's own recovery
    maps) plus the QCMI-from-recovery inequality.  Nothing is raised; the
    report carries pass counts at -1e-6 (fidelity) and -1e-9 (the rest).
    The planted states read only the outer dims: B's dimension comes from
    the cycled plant shapes (2, 4, 4, 3).
    """
    if dims[0] * dims[1] * dims[2] > 64:
        raise ValueError("total dimension above 64 makes this harness crawl")
    layout = SystemLayout.of(("A", dims[0]), ("B", dims[1]), ("C", dims[2]))
    groups = (("A",), ("B",), ("C",))

    def one(i: int):
        rng = np.random.default_rng([seed, i])
        state = random_state(layout, seed=rng)
        i_bits = qcmi(state, groups, tols)
        recovered = [rec for d in ("from_bc", "from_ab")
                     for _, rec in petz_recoveries(state, groups, d,
                                                   [("averaged", 0.0)], tols)]
        f_margin = min(float(np.sqrt(fidelity(rec, state))) - 2.0 ** (-i_bits / 2.0)
                       for rec in recovered)
        tr_margin = min(np.sqrt(i_bits) - trace_distance(rec, state)
                        for rec in recovered)

        _, md, noisy, eps = _noisy_plant(i, dims, rng, tols)
        errs = {}
        for direction in ("from_bc", "from_ab"):
            chan = recovery_from_decomposition(md, direction, tols=tols)
            errs[direction] = trace_distance(
                recover(noisy, groups, direction, chan, tols), noisy)
        e_margin = 2.0 * eps - max(errs.values())

        eps_rec = errs["from_bc"]
        rhs = recovery_error_bound(eps_rec, dims[2]) ** 2
        q_margin = rhs - qcmi(noisy, groups, tols)
        return f_margin, tr_margin, e_margin, q_margin

    rows = [one(i) for i in range(trials)]
    f_m = [r[0] for r in rows]
    tr_m = [r[1] for r in rows]
    e_m = [r[2] for r in rows]
    q_m = [r[3] for r in rows]
    return Lemma1Report(
        trials, tuple(dims),
        sum(m >= -1e-6 for m in f_m), min(f_m, default=np.inf),
        min(tr_m, default=np.inf),
        sum(m >= -1e-9 for m in q_m), min(q_m, default=np.inf),
        sum(m >= -1e-9 for m in e_m), min(e_m, default=np.inf))


@dataclass
class StructuralReport:
    mode: str
    trials: int
    passes: int
    worst_margin: float
    asserted: bool
    details: list = field(default_factory=list)


def verify_appendix_a(trials: int = 20, dims=(2, 2, 2), seed=0,
                      tols: Tolerances = DEFAULT_TOLS) -> StructuralReport:
    """Check the block-pinching bound on noisy planted Markov states.

    Asserts that the squeeze toward the clean block structure moves the
    state by at most six times the perturbation, and that clean states are
    fixed points.  Only the outer dims are read: B's dimension comes from
    the cycled plant shapes (2, 4, 4, 3).
    """
    _guard_total_dim(dims[0] * max(math.prod(s) for s in _PLANT_SHAPES) * dims[2])

    def one(i: int) -> dict:
        rng = np.random.default_rng([seed, i])
        clean, md, noisy, eps_i = _noisy_plant(i, dims, rng, tols)
        fixed, _ = squeeze_T(clean, "B", md.gamma_prime, md.b_dims, tols)
        fp_dev = trace_norm(clean.matrix - fixed.matrix)
        if fp_dev > 1e-10:
            raise VerificationError(
                f"trial {i}: clean state moved by {fp_dev:.3e} under its "
                "own squeeze")
        squeezed, kept = squeeze_T(noisy, "B", md.gamma_prime, md.b_dims, tols)
        lhs = trace_norm(noisy.matrix - squeezed.matrix)
        if lhs > 6.0 * eps_i + 1e-9:
            raise VerificationError(
                f"trial {i}: squeeze moved the state by {lhs:.6f} with "
                f"eps = {eps_i:.6f}")
        return {"trial": i, "eps": eps_i, "lhs": lhs,
                "bound": 6.0 * eps_i, "kept_weight": kept}

    details = [one(i) for i in range(trials)]
    margins = [d["bound"] - d["lhs"] for d in details]
    return StructuralReport("appendix-a", trials, len(details),
                            float(min(margins, default=np.inf)),
                            asserted=True, details=details)


def _lemma6_input(kind: int, dims, rng) -> PureState:
    layout = SystemLayout.of(("A", dims[0]), ("B", dims[1]), ("C", dims[2]))
    if kind == 0:
        return random_pure(layout, seed=rng)
    v = np.zeros(layout.total_dim, dtype=complex)
    if kind == 1:  # correlated block labels, nontrivial weights
        m = min(dims)
        w = rng.dirichlet(2.0 * np.ones(m))
        for j in range(m):
            v[(j * dims[1] + j) * dims[2] + j] = np.sqrt(w[j])
    else:  # kind 2: A-B entanglement only, so the redundant factor is everything
        m = min(dims[0], dims[1])
        for j in range(m):
            v[(j * dims[1] + j) * dims[2]] = 1.0 / np.sqrt(m)
    # both forms are dressed by random local unitaries
    u = kron_all([random_unitary(dims[k], seed=rng) for k in range(3)])
    return PureState(u @ v, layout)


def verify_lemma6(trials: int = 20, n: int = 1, dims=(2, 2, 2), eps=0.0,
                  seed=0, tols: Tolerances = DEFAULT_TOLS) -> StructuralReport:
    """Check the correlation floor on pure states; all three dims are read.

    The channels on A preserve the single-copy A-C marginal exactly
    (eps = 0, asserted: per-copy mutual information at least the
    markovianizing cost) or move its n-copy power by at most eps (eps > 0,
    reported only, since the zeta factor in the floor can only be
    estimated from below).

    Both kinds act on psi as unitaries on A.  At eps = 0 they are block
    phases, unitaries on each block's aL factor diagonal in omega_j's
    eigenbasis, completed by the identity on the kernel of rho_A, where
    psi has no weight; at eps > 0 a small rotation exp(i pi a H) on A.  So
    the per-copy information I(A^n:B^n C^n) / n is 2 S(A) of psi, read
    from its vector: no channel is drawn at eps = 0, and at eps > 0 the
    rotation only measures the n-copy marginal error that the zeta
    estimate takes as its budget.
    """
    if not (np.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"eps must be finite and nonnegative, got {eps}")
    _guard_total_dim(math.prod(dims))
    groups = (("A",), ("B",), ("C",))

    def one(i: int) -> dict:
        rng = np.random.default_rng([seed, i])
        psi = _lemma6_input(i % 3, dims, rng)
        ki = ki_decompose(partial_trace(psi, ("A", "C")), ("A",), tols)
        m = splitting_cost(ki, psi, groups, tols).m_dec_bits

        if eps == 0.0:
            measured = zeta_hat = 0.0
        else:
            measured = _perturbed_motion(psi, eps, n, rng, tols)
            zeta_hat = estimate_zeta(psi, ki, measured, trials=4,
                                     seed=seed + 7919 * (i + 1), tols=tols)

        # the channel acts on psi as a unitary on A, on every copy alike, so
        # I(A^n:B^n C^n) / n is I(A:BC) = 2 S(A) of one copy of psi
        lhs = 2.0 * _pure_entropy(psi, ("A",), tols)
        if eps == 0.0 and lhs < m - 1e-8:
            raise VerificationError(
                f"trial {i}: correlation {lhs:.9f} under the cost "
                f"{m:.9f} for an exactly preserving channel")
        rhs = m - 2.0 * eta(zeta_hat) * np.log2(float(np.prod(dims)))
        return {"trial": i, "mean_information": lhs, "cost": m,
                "floor": rhs, "eps_measured": measured,
                "zeta_estimate": zeta_hat}

    details = [one(i) for i in range(trials)]
    margins = [d["mean_information"] - d["floor"] for d in details]
    if eps == 0.0:
        passes = len(details)
    else:
        passes = sum(m >= 0.0 for m in margins)
    return StructuralReport("lemma6", trials, passes,
                            float(min(margins, default=np.inf)),
                            asserted=(eps == 0.0), details=details)


def _perturbed_motion(psi: PureState, eps: float, n: int, rng, tols: Tolerances) -> float:
    """n-copy marginal error of a small unitary rotation on A, at most eps."""
    a_dim = psi.layout.dims[0]
    _guard_total_dim(a_dim * psi.layout.dims[2], n, f"{n}-copy A-C dimension")
    rho_ac = partial_trace(psi, ("A", "C"))
    layout = psi.layout.subset(("A",))
    vals, vecs = _hermitian_eigenpairs(a_dim, rng)
    for amp in (eps * 2.0 ** (-j) for j in range(12)):
        u = (vecs * np.exp(1j * np.pi * amp * vals)) @ vecs.conj().T
        moved = unitary_channel(u, layout).apply(rho_ac, "A", tols).matrix
        err = _power_distance(moved, rho_ac.matrix, n)
        if err <= eps:
            return float(err)
    return 0.0


@dataclass
class ProbePoint:
    trial: int
    eps_ab: float
    eps_bc: float


def conjecture_probe(trials: int, dims=(2, 2, 2), seed=0,
                     tols: Tolerances = DEFAULT_TOLS) -> list[ProbePoint]:
    """Scatter of best recovery errors from AB against those from BC.

    Cycles exact Markov, noisy Markov, and generic low-rank inputs so the
    cloud spans both corners.  Records only; whether a dimension-free curve
    bounds one error by the other is the open question.  The Markov inputs
    read only the outer dims, with a two-dimensional B.
    """
    _guard_total_dim(max(math.prod(dims), dims[0] * 2 * dims[2]))
    layout = SystemLayout.of(("A", dims[0]), ("B", dims[1]), ("C", dims[2]))
    groups = (("A",), ("B",), ("C",))

    def one(i: int) -> ProbePoint:
        rng = np.random.default_rng([seed, i])
        kind = i % 3
        if kind == 0:
            state = random_markov_state(rng, 2, 1, 1, dims[0], dims[2])
        elif kind == 1:
            clean = random_markov_state(rng, 2, 1, 1, dims[0], dims[2])
            state = _mix(clean, rng, 0.05)
        else:
            state = random_state(layout, rank=min(2, layout.total_dim), seed=rng)
        eps_ab = best_rotated_petz(state, groups, "from_ab", tols=tols).error
        eps_bc = best_rotated_petz(state, groups, "from_bc", tols=tols).error
        return ProbePoint(i, float(eps_ab), float(eps_bc))

    return [one(i) for i in range(trials)]
