"""Finite-copy Markovianization protocols and bound-verification harnesses.

The twirl here is exact rather than rate-optimal: per copy it draws a phase
operator on the block index and a Heisenberg-Weyl operator on the correlated
factor, so the averaged output is a Markov state at every n instead of only
asymptotically.  The price is a randomness cost of log2(d_a0) + 2 log2(d_aR)
bits per copy, which upper-bounds the entropic cost formula.

The measurement protocol consumes a rank-K maximally entangled resource and
reproduces the twirl's purification for every outcome after a phase
correction on the reference side.

The verifier harnesses draw their own inputs and return reports; the bounds
that hold with mathematical certainty are enforced, estimate-dependent ones
are only recorded.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .blocks import kernel_projector
from .channels import (
    QuantumChannel,
    RandomUnitaryEnsemble,
    best_rotated_petz,
    heisenberg_weyl,
    petz_recoveries,
    phase_ops,
)
from .cost import markovianizing_cost
from .kidecomp import KIDecomposition, ki_decompose, state_preserving_channel
from .markov import (
    _three_groups,
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
    eta,
    fidelity,
    kron_all,
    mutual_information,
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
    "verify_structural_bounds",
    "conjecture_probe",
]

TOTAL_DIM_GUARD = 4096


def _map_trials(fn, trials: int, jobs: int) -> list:
    """Run fn(0..trials-1), optionally across threads, merged in trial order.

    Every trial derives its randomness from the trial index, so the result
    is identical whatever the worker count.
    """
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, range(trials)))
    return [fn(i) for i in range(trials)]


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
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = g @ g.conj().T
        return m / np.trace(m).real

    shape = (d_a, b0, b_l, b_r, d_c)
    out = np.zeros(shape + shape, dtype=complex)
    for i in range(b0):
        sig = wishart(d_a * b_l).reshape(d_a, b_l, d_a, b_l)
        phi = wishart(b_r * d_c).reshape(b_r, d_c, b_r, d_c)
        out[:, i, :, :, :, :, i, :, :, :] = q[i] * np.einsum(
            "albm,rcsd->alrcbmsd", sig, phi)
    d = d_a * d_b * d_c
    mat = out.reshape(d, d)
    u = kron_all([np.eye(d_a), random_unitary(d_b, seed=rng), np.eye(d_c)])
    layout = SystemLayout.of(("A", d_a), ("B", d_b), ("C", d_c))
    return DensityState(u @ mat @ u.conj().T, layout)


def _mix(state: DensityState, rng, weight: float) -> DensityState:
    noise = random_state(state.layout, seed=rng)
    mat = (1.0 - weight) * state.matrix + weight * noise.matrix
    return DensityState(mat, state.layout)


# ---------------------------------------------------------------------------
# n-copy plumbing


def _copy_labels(layout: SystemLayout, i: int) -> SystemLayout:
    return layout.renamed({l: f"{l}#{i + 1}" for l in layout.labels})


def n_fold_state(psi: PureState, grouping, n: int):
    """Psi^(x n) with the copies regrouped as (A-bar, B-bar, C-bar).

    For n = 1 the original labels survive; for n >= 2 copy i appends "#i"
    to every label.  Returns the reordered pure state and the three label
    groups of the new layout.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    a, b, c = _three_groups(grouping, psi.layout)
    if n == 1:
        vec, layout = reorder_vector(psi.vector, psi.layout, a + b + c)
        return PureState(vec, layout), (a, b, c)
    layout = _copy_labels(psi.layout, 0)
    vec = psi.vector
    for i in range(1, n):
        layout = layout.concat(_copy_labels(psi.layout, i))
        vec = np.kron(vec, psi.vector)
    a_n = tuple(f"{l}#{i + 1}" for i in range(n) for l in a)
    b_n = tuple(f"{l}#{i + 1}" for i in range(n) for l in b)
    c_n = tuple(f"{l}#{i + 1}" for i in range(n) for l in c)
    vec, layout = reorder_vector(vec, layout, a_n + b_n + c_n)
    return PureState(vec, layout), (a_n, b_n, c_n)


# ---------------------------------------------------------------------------
# the exact twirl


def build_twirl_ensemble(ki: KIDecomposition, n: int) -> RandomUnitaryEnsemble:
    """Per-copy unitaries gamma+ (Z^b (x) I (x) W) gamma, n-fold products.

    Z^b runs over the d_a0 phase operators on the block index and W over
    the d_aR^2 Heisenberg-Weyl set, so averaging dephases the blocks and
    depolarizes the correlated factor exactly.  Off the support of rho^A
    each element acts as the identity.  Cardinality (d_a0 * d_aR^2)^n.
    """
    d0, dl, dr = ki.dims
    r_dims = {blk.a_r_dim for blk in ki.blocks}
    if len(r_dims) != 1:
        raise ValueError(
            "blocks carry different aR dimensions; the shared "
            "Heisenberg-Weyl twirl needs a common one")
    d_a = ki.part.total_dim
    kernel = kernel_projector(ki.gamma)
    per_copy = []
    for z in phase_ops(d0):
        for w in heisenberg_weyl(dr):
            x = kron_all([z, np.eye(dl), w])
            u = ki.gamma.conj().T @ x @ ki.gamma + kernel
            dev = np.linalg.norm(u.conj().T @ u - np.eye(d_a), 2)
            if dev > 1e-10:
                raise VerificationError(
                    f"twirl element is not unitary (deviation {dev:.3e})")
            per_copy.append(u)
    if n == 1:
        layout = ki.part
    else:
        layout = _copy_labels(ki.part, 0)
        for i in range(1, n):
            layout = layout.concat(_copy_labels(ki.part, i))
    unis = [kron_all(combo)
            for combo in itertools.product(per_copy, repeat=n)]
    return RandomUnitaryEnsemble(unis, layout)


@dataclass
class MarkovianizationRun:
    """Outcome of applying the exact twirl to n copies."""

    n: int
    ensemble: RandomUnitaryEnsemble
    output: DensityState
    qcmi_out: float
    recovery_error_from_bc: float
    recovery_error_from_ab: float
    cost_bits_per_copy: float
    m_dec_bits: float


def markovianize(psi: PureState, grouping, n: int,
                 tols: Tolerances = DEFAULT_TOLS) -> MarkovianizationRun:
    """Twirl Psi^(x n) into an exact Markov state conditioned by B^n.

    Checks that the output passes the zero-QCMI and plain-Petz tests, that
    the B^n C^n marginal is untouched, and that the randomness cost per
    copy is at least the entropic cost of the single-copy state.
    """
    groups = _three_groups(grouping, psi.layout)
    psi_n, groups_n = n_fold_state(psi, groups, n)
    d_total = psi_n.layout.total_dim
    if d_total > TOTAL_DIM_GUARD:
        raise ValueError(
            f"total dimension {d_total} exceeds the guard {TOTAL_DIM_GUARD}")
    a, b, c = groups
    rho_ac = partial_trace(psi.to_density(), tuple(a) + tuple(c))
    ki = ki_decompose(rho_ac, tuple(a), tols)
    ensemble = build_twirl_ensemble(ki, n)

    a_n, b_n, c_n = groups_n
    d_a_n = psi_n.layout.dim_of(a_n)
    d_rest = d_total // d_a_n
    rho_n = psi_n.to_density()
    r4 = rho_n.matrix.reshape(d_a_n, d_rest, d_a_n, d_rest)
    out4 = np.zeros_like(r4)
    for u in ensemble.unitaries:
        out4 += np.einsum("pa,axby,qb->pxqy", u, r4, u.conj(),
                          optimize=True)
    output = DensityState(out4.reshape(d_total, d_total) / ensemble.size,
                          psi_n.layout)

    marg_dev = trace_distance(partial_trace(output, b_n + c_n),
                              partial_trace(rho_n, b_n + c_n))
    if marg_dev > 1e-12:
        raise VerificationError(
            f"twirl moved the conditioning marginal by {marg_dev:.3e}")
    qcmi_out = qcmi(output, groups_n, tols)
    if qcmi_out > 1e-8:
        raise VerificationError(
            f"twirl output is not Markov: QCMI {qcmi_out:.3e} bits")
    # next() keeps no reference to the first recovered state (as large as
    # the output) while the second is built
    err_bc, err_ab = (
        trace_distance(next(petz_recoveries(output, groups_n, d, tols=tols))[1],
                       output)
        for d in ("from_bc", "from_ab"))
    if max(err_bc, err_ab) > 1e-7:
        raise VerificationError(
            f"plain Petz errors ({err_bc:.3e}, {err_ab:.3e}) on the output")

    d0 = ki.dims[0]
    d_r = ki.blocks[0].a_r_dim
    cost = float(np.log2(d0) + 2.0 * np.log2(d_r))
    if abs(ensemble.cost_bits - n * cost) > 1e-9:
        raise VerificationError("ensemble cardinality disagrees with its cost")
    m = markovianizing_cost(psi, groups, tols).m_dec_bits
    if cost < m - 1e-9:
        raise VerificationError(
            f"cost {cost:.6f} bits/copy undercuts the entropic value {m:.6f}")
    return MarkovianizationRun(n, ensemble, output, qcmi_out, err_bc, err_ab,
                               cost, m)


# ---------------------------------------------------------------------------
# the measurement protocol


@dataclass
class MeasurementRun:
    """Measurement-induced Markovianization with a rank-K entangled resource.

    eps_k and eps_prime_k are the exact per-outcome diagnostics (change of
    the conditioning marginal, and best-Petz recovery of the kept side);
    xi_k combines them through the zeta estimate and is therefore only as
    good as that lower bound.
    """

    n: int
    r_bits: float
    measurement: list
    resource: PureState
    probabilities: np.ndarray
    post_states: list
    completeness_deviation: float
    fidelities: np.ndarray
    twirl_purification: PureState
    eps_k: np.ndarray
    eps_prime_k: np.ndarray
    xi_k: np.ndarray
    i_g_bc_av: float
    xi_is_estimate: bool = True


def measurement_protocol(psi: PureState, grouping, n: int,
                         ensemble: RandomUnitaryEnsemble | None = None,
                         tols: Tolerances = DEFAULT_TOLS,
                         zeta_trials: int = 4,
                         seed=0) -> MeasurementRun:
    """Run the phase-encoded measurement realizing the twirl on A^n.

    Alice measures (A-bar, A0) with K operators whose j-th term carries the
    phase exp(2 pi i j k / K) and the ensemble unitary V_j; every outcome
    is equally likely, and after the phase correction on G the global state
    is the twirl purification.  If no ensemble is given the exact twirl of
    the state's own splitting is used.
    """
    groups = _three_groups(grouping, psi.layout)
    psi_n, groups_n = n_fold_state(psi, groups, n)
    a_n, b_n, c_n = groups_n
    if ensemble is None:
        a, b, c = groups
        rho_ac = partial_trace(psi.to_density(), tuple(a) + tuple(c))
        ensemble = build_twirl_ensemble(ki_decompose(rho_ac, tuple(a), tols), n)
    k_card = ensemble.size
    d_a_n = psi_n.layout.dim_of(a_n)
    if ensemble.layout.total_dim != d_a_n:
        raise ValueError("ensemble does not act on the A^n factor")
    d_total = psi_n.layout.total_dim
    if d_total * k_card > TOTAL_DIM_GUARD:
        raise ValueError(
            f"joint dimension {d_total * k_card} exceeds the guard "
            f"{TOTAL_DIM_GUARD}")
    for name in ("A0", "G"):
        if name in psi_n.layout.labels:
            raise ValueError(f"label {name!r} is reserved for the resource")

    d_rest = d_total // d_a_n
    r_bits = float(np.log2(k_card)) / n
    vs = ensemble.unitaries
    phases = np.exp(2j * np.pi * np.outer(np.arange(k_card),
                                          np.arange(k_card)) / k_card)

    # measurement operators on (A-bar, A0), outputs on A-bar
    basis = np.eye(k_card)
    measurement = []
    for k in range(k_card):
        m_k = np.zeros((d_a_n, d_a_n * k_card), dtype=complex)
        for j in range(k_card):
            m_k += phases[j, k] * np.kron(vs[j], basis[j:j + 1, :])
        measurement.append(m_k / np.sqrt(k_card))
    total = sum(m.conj().T @ m for m in measurement)
    completeness_dev = float(np.linalg.norm(total - np.eye(d_a_n * k_card), 2))
    if completeness_dev > 1e-10:
        raise VerificationError(
            f"measurement completeness deviation {completeness_dev:.3e}")

    res_layout = SystemLayout.of(("A0", k_card), ("G", k_card))
    resource = PureState(np.eye(k_card).reshape(-1) / np.sqrt(k_card),
                         res_layout)

    # the joint state (A-bar, rest, A0, G); the resource is diagonal in j,g
    psi2 = psi_n.vector.reshape(d_a_n, d_rest)
    joint = np.einsum("ax,jg->axjg", psi2, np.eye(k_card)) / np.sqrt(k_card)

    post_layout = psi_n.layout.concat(SystemLayout.of(("G", k_card)))
    target = np.stack([vj @ psi2 for vj in vs], axis=-1) / np.sqrt(k_card)
    twirl_purification = PureState(target.reshape(-1), post_layout)

    probs = np.zeros(k_card)
    post_states = []
    fidelities = np.zeros(k_card)
    eps_k = np.zeros(k_card)
    eps_prime_k = np.zeros(k_card)
    i_vals = np.zeros(k_card)
    bc_ref = np.einsum("ax,ay->xy", psi2, psi2.conj())
    zeta_cache: dict[float, float] = {}
    d_c_n = psi_n.layout.dim_of(c_n)

    for k in range(k_card):
        w = np.zeros((d_a_n, d_rest, k_card), dtype=complex)
        for j in range(k_card):
            w += phases[j, k] * np.einsum("pa,axg->pxg", vs[j],
                                          joint[:, :, j, :])
        w /= np.sqrt(k_card)
        p_k = float(np.vdot(w, w).real)
        probs[k] = p_k
        if abs(p_k - 1.0 / k_card) > 1e-10:
            raise VerificationError(
                f"outcome {k} has probability {p_k:.12f}, expected 1/{k_card}")
        t = w / np.sqrt(p_k)
        post_states.append(PureState(t.reshape(-1), post_layout))

        corrected = t * phases[:, k].conj()[None, None, :]
        fidelities[k] = float(abs(np.vdot(target, corrected)) ** 2)

        rho_bc = np.einsum("pxg,pyg->xy", t, t.conj())
        eps_k[k] = trace_norm(rho_bc - bc_ref)

        abc = np.einsum("pxg,qyg->pxqy", t, t.conj())
        state_abc = DensityState(abc.reshape(d_total, d_total), psi_n.layout)
        eps_prime_k[k] = best_rotated_petz(state_abc, groups_n,
                                           direction="from_ab",
                                           tols=tols).error

        rho_g = np.einsum("pxg,pxh->gh", t, t.conj())
        rho_bcg = np.einsum("pxg,pyh->xgyh", t, t.conj())
        dim_bcg = d_rest * k_card
        i_vals[k] = (von_neumann_entropy(rho_g, tols)
                     + von_neumann_entropy(rho_bc, tols)
                     - von_neumann_entropy(
                         rho_bcg.reshape(dim_bcg, dim_bcg), tols))

    if fidelities.min() < 1.0 - 1e-10:
        raise VerificationError(
            f"corrected state fidelity dropped to {fidelities.min():.12f}")
    i_av = float(np.dot(probs, i_vals))
    if i_av > n * r_bits + 1e-9:
        raise VerificationError(
            f"average I(G:BC) {i_av:.9f} exceeds nR = {n * r_bits:.9f}")

    xi_k = np.zeros(k_card)
    for k in range(k_card):
        arg = 2.0 * np.sqrt(max(eps_k[k], 0.0)) \
            + 2.0 * np.sqrt(recovery_error_bound(eps_prime_k[k], d_c_n))
        key = round(float(arg), 12)
        if key not in zeta_cache:
            zeta_cache[key] = estimate_zeta(psi, groups, float(arg),
                                            trials=zeta_trials, seed=seed,
                                            tols=tols)
        xi_k[k] = 5.0 * eta(2.0 * np.sqrt(max(eps_k[k], 0.0))) \
            + 2.0 * eta(zeta_cache[key])

    return MeasurementRun(n, r_bits, measurement, resource, probs,
                          post_states, completeness_dev, fidelities,
                          twirl_purification, eps_k, eps_prime_k, xi_k, i_av)


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


def verify_lemma1(trials: int, dims=(2, 2, 2), seed=0,
                  tols: Tolerances = DEFAULT_TOLS, jobs: int = 1) -> Lemma1Report:
    """Exercise the three recoverability properties on fresh inputs.

    Per trial: a random mixed state feeds the fidelity form (averaged
    rotated Petz against 2^(-I/2), both directions), and a noisy planted
    Markov state feeds the 2-eps bound (the clean state's own recovery
    maps) plus the QCMI-from-recovery inequality.  Nothing is raised; the
    report carries pass counts at -1e-6 (fidelity) and -1e-9 (the rest).
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

        b0, b_l, b_r = _PLANT_SHAPES[i % len(_PLANT_SHAPES)]
        clean = random_markov_state(rng, b0, b_l, b_r, dims[0], dims[2])
        md = markov_decompose(clean, "B", tols=tols)
        noisy = _mix(clean, rng, _NOISE_WEIGHTS[i % len(_NOISE_WEIGHTS)])
        eps = trace_distance(clean, noisy)
        errs = {}
        for direction in ("B->AB", "B->BC"):
            chan = recovery_from_decomposition(md, direction, tols=tols)
            keep = (("B", "C") if direction == "B->AB" else ("A", "B"))
            rec = chan.apply(partial_trace(noisy, keep), targets=("B",))
            errs[direction] = trace_distance(
                reorder(rec, noisy.layout.labels), noisy)
        e_margin = 2.0 * eps - max(errs.values())

        eps_rec = errs["B->AB"]  # reconstruction from the BC marginal
        rhs = recovery_error_bound(eps_rec, dims[2]) ** 2
        q_margin = rhs - qcmi(noisy, groups, tols)
        return f_margin, tr_margin, e_margin, q_margin

    rows = _map_trials(one, trials, jobs)
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


def verify_structural_bounds(mode: str, trials: int = 20, n: int = 1,
                             dims=(2, 2, 2), eps: float = 0.0, seed=0,
                             tols: Tolerances = DEFAULT_TOLS,
                             jobs: int = 1) -> StructuralReport:
    """Check the block-pinching bound or the correlation floor.

    mode "appendix-a": noisy planted Markov states; asserts that the
    squeeze toward the clean block structure moves the state by at most
    six times the perturbation, and that clean states are fixed points.

    mode "lemma6": channels that preserve the single-copy A-C marginal
    exactly (eps = 0, asserted: per-copy mutual information at least the
    markovianizing cost) or approximately (eps > 0, reported only, since
    the zeta factor in the floor can only be estimated from below).
    """
    key = mode.strip().lower().replace("_", "-").replace("app-", "appendix-")
    if key in ("appendixa", "appendix-a"):
        return _verify_appendix_a(trials, dims, seed, tols, jobs)
    if key == "lemma6":
        return _verify_lemma6(trials, n, dims, eps, seed, tols, jobs)
    raise ValueError(f"unknown mode {mode!r}")


def _verify_appendix_a(trials, dims, seed, tols, jobs) -> StructuralReport:
    def one(i: int) -> dict:
        rng = np.random.default_rng([seed, i])
        b0, b_l, b_r = _PLANT_SHAPES[i % len(_PLANT_SHAPES)]
        clean = random_markov_state(rng, b0, b_l, b_r, dims[0], dims[2])
        md = markov_decompose(clean, "B", tols=tols)
        fixed, _ = squeeze_T(clean, "B", md.gamma_prime, md.b_dims, tols)
        fp_dev = trace_norm(clean.matrix - fixed.matrix)
        if fp_dev > 1e-10:
            raise VerificationError(
                f"trial {i}: clean state moved by {fp_dev:.3e} under its "
                "own squeeze")
        noisy = _mix(clean, rng, _NOISE_WEIGHTS[i % len(_NOISE_WEIGHTS)])
        eps_i = trace_distance(clean, noisy)
        squeezed, kept = squeeze_T(noisy, "B", md.gamma_prime, md.b_dims, tols)
        lhs = trace_norm(noisy.matrix - squeezed.matrix)
        if lhs > 6.0 * eps_i + 1e-9:
            raise VerificationError(
                f"trial {i}: squeeze moved the state by {lhs:.6f} with "
                f"eps = {eps_i:.6f}")
        return {"trial": i, "eps": eps_i, "lhs": lhs,
                "bound": 6.0 * eps_i, "kept_weight": kept}

    details = _map_trials(one, trials, jobs)
    margins = [d["bound"] - d["lhs"] for d in details]
    return StructuralReport("appendix-a", trials, len(details),
                            float(min(margins, default=np.inf)),
                            asserted=True, details=details)


def _lemma6_input(kind: int, dims, rng) -> PureState:
    layout = SystemLayout.of(("A", dims[0]), ("B", dims[1]), ("C", dims[2]))
    if kind == 0:
        return random_pure(layout, seed=rng)
    d = layout.total_dim
    if kind == 1:  # correlated block labels, nontrivial weights
        v = np.zeros(d, dtype=complex)
        m = min(dims)
        w = rng.dirichlet(2.0 * np.ones(m))
        for j in range(m):
            v[(j * dims[1] + j) * dims[2] + j] = np.sqrt(w[j])
        u = kron_all([random_unitary(dims[k], seed=rng) for k in range(3)])
        return PureState(u @ v, layout)
    # kind 2: A-B entanglement only, so the redundant factor is everything
    v = np.zeros(d, dtype=complex)
    m = min(dims[0], dims[1])
    for j in range(m):
        v[(j * dims[1] + j) * dims[2]] = 1.0 / np.sqrt(m)
    u = kron_all([random_unitary(dims[k], seed=rng) for k in range(3)])
    return PureState(u @ v, layout)


def _verify_lemma6(trials, n, dims, eps, seed, tols, jobs) -> StructuralReport:
    groups = (("A",), ("B",), ("C",))

    def one(i: int) -> dict:
        rng = np.random.default_rng([seed, i])
        psi = _lemma6_input(i % 3, dims, rng)
        m = markovianizing_cost(psi, groups, tols).m_dec_bits
        rho_ac = partial_trace(psi.to_density(), ("A", "C"))
        ki = ki_decompose(rho_ac, ("A",), tols)

        if eps == 0.0:
            isos = []
            for blk in ki.blocks:
                vecs = np.linalg.eigh(blk.omega)[1]
                ph = np.exp(2j * np.pi * rng.random(blk.a_l_dim))
                isos.append((vecs * ph) @ vecs.conj().T)
            chan = state_preserving_channel(ki, isos, tols)
            measured = 0.0
            zeta_hat = 0.0
        else:
            chan, measured = _perturbed_channel(psi, eps, n, rng, tols)
            zeta_hat = estimate_zeta(psi, groups, measured, trials=4,
                                     seed=seed + 7919 * (i + 1), tols=tols)

        psi_n, groups_n = n_fold_state(psi, groups, n)
        state = psi_n.to_density()
        a_n = groups_n[0]
        for copy in range(n):
            # the channel was built on the single-copy label; retag it so
            # consecutive applications do not collide
            mapping = {chan.in_layout.labels[0]: a_n[copy]}
            chan_i = QuantumChannel(chan.kraus,
                                    chan.in_layout.renamed(mapping),
                                    chan.out_layout.renamed(mapping))
            state = chan_i.apply(state, targets=(a_n[copy],))
        state = reorder(state, psi_n.layout.labels)
        lhs = mutual_information(state, a_n, groups_n[1] + groups_n[2],
                                 tols) / n
        if eps == 0.0 and lhs < m - 1e-8:
            raise VerificationError(
                f"trial {i}: correlation {lhs:.9f} under the cost "
                f"{m:.9f} for an exactly preserving channel")
        rhs = m - 2.0 * eta(zeta_hat) * np.log2(float(np.prod(dims)))
        return {"trial": i, "mean_information": lhs, "cost": m,
                "floor": rhs, "eps_measured": measured,
                "zeta_estimate": zeta_hat}

    details = _map_trials(one, trials, jobs)
    margins = [d["mean_information"] - d["floor"] for d in details]
    if eps == 0.0:
        passes = len(details)
    else:
        passes = sum(m >= 0.0 for m in margins)
    return StructuralReport("lemma6", trials, passes,
                            float(min(margins, default=np.inf)),
                            asserted=(eps == 0.0), details=details)


def _perturbed_channel(psi: PureState, eps: float, n: int, rng,
                       tols: Tolerances):
    """Small unitary rotation on A with n-copy marginal error at most eps."""
    a_dim = psi.layout.dims[0]
    h = rng.standard_normal((a_dim, a_dim)) \
        + 1j * rng.standard_normal((a_dim, a_dim))
    h = (h + h.conj().T) / 2.0
    h /= np.linalg.norm(h, 2)
    evals, evecs = np.linalg.eigh(h)
    rho_ac = partial_trace(psi.to_density(), ("A", "C"))
    ref = rho_ac.matrix
    for _ in range(n - 1):
        ref = np.kron(ref, rho_ac.matrix)
    d_c = psi.layout.dims[2]
    best = None
    for amp in [eps * 2.0 ** (-j) for j in range(12)]:
        u = (evecs * np.exp(1j * np.pi * amp * evals)) @ evecs.conj().T
        big = np.kron(u, np.eye(d_c))
        moved = big @ rho_ac.matrix @ big.conj().T
        out = moved
        for _ in range(n - 1):
            out = np.kron(out, moved)
        err = trace_norm(out - ref)
        if err <= eps:
            best = (u, float(err))
            break
    if best is None:
        best = (np.eye(a_dim, dtype=complex), 0.0)
    u, err = best
    layout = psi.layout.subset(("A",))
    return QuantumChannel([u], layout, layout), err


@dataclass
class ProbePoint:
    trial: int
    eps_ab: float
    eps_bc: float


def conjecture_probe(trials: int, dims=(2, 2, 2), seed=0,
                     tols: Tolerances = DEFAULT_TOLS,
                     jobs: int = 1) -> list[ProbePoint]:
    """Scatter of best recovery errors from AB against those from BC.

    Cycles exact Markov, noisy Markov, and generic low-rank inputs so the
    cloud spans both corners.  Records only; whether a dimension-free curve
    bounds one error by the other is the open question.
    """
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
            state = random_state(layout, rank=2, seed=rng)
        eps_ab = best_rotated_petz(state, groups, "from_ab", tols=tols).error
        eps_bc = best_rotated_petz(state, groups, "from_bc", tols=tols).error
        return ProbePoint(i, float(eps_ab), float(eps_bc))

    return _map_trials(one, trials, jobs)
