"""Markov-state tests, decompositions, and recovery for tripartite states.

A state rho on (A, B, C) with I(A:C|B) = 0 admits a splitting of supp(rho^B)
into b0 (x) bL (x) bR coordinates with

    rho  =  (+)_i  q_i  sigma_i^{A bL}  (x)  phi_i^{bR C},

so A interacts with B only through the bL factors and C only through the bR
factors.  ``markov_decompose`` finds that splitting; ``is_markov`` gives the
cheap diagnostics; ``recovery_from_decomposition`` turns a splitting into a
recovery map on B in either direction of the Petz family, "from_bc"
(rebuild A from BC) or "from_ab" (rebuild C from AB), read like any other
through ``channels.recover``; ``squeeze_T`` projects an
arbitrary state onto the block-product form over a given splitting;
``nearest_markov_tilde`` builds the canonical Markov state sharing a pure
state's A-side local structure; ``estimate_zeta`` lower-bounds the
disturbance envelope of channels on A that nearly preserve the AC marginal,
scoring the exact preservers, which leave that Markov state fixed, as 0.
The splitting is ``blocks.split_state`` with X = A, S = B and Y = C; the
``blocks`` docstring describes the pipeline and its checks, shared with the
Koashi-Imoto decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import (
    MARKOV_TOL,
    block_slice,
    block_state,
    factor_block,
    kernel_kraus,
    refill_kraus,
    split_state,
)
from .channels import QuantumChannel, _petz_core, _petz_differences
from .kidecomp import KIDecomposition, ki_decompose
from .qcore import (
    DEFAULT_TOLS,
    DensityState,
    PureState,
    SystemLayout,
    Tolerances,
    VerificationError,
    _clamp_information,
    _congruence,
    _power_distance,
    _stack_step,
    check_density,
    entropy_of_spectrum,
    parse_three_groups,
    partial_trace,
    qcmi,
    random_unitary,
    reorder,
    support_eigh,
    trace_norm,
    von_neumann_entropy,
)

__all__ = [
    "MarkovEntry",
    "MarkovDecomposition",
    "MarkovReport",
    "split_by_conditioner",
    "is_markov",
    "markov_decompose",
    "recovery_from_decomposition",
    "squeeze_T",
    "nearest_markov_tilde",
    "estimate_zeta",
]

def split_by_conditioner(layout: SystemLayout, cond):
    """Partition labels into (left of cond, cond, right of cond).

    The conditioning subsystems must sit contiguously in the layout so the
    remaining labels split unambiguously; both sides must be nonempty.
    """
    cond = layout.labels_of(cond)
    if not cond:
        raise ValueError("conditioner must name at least one subsystem")
    pos = [layout.position(l) for l in cond]
    lo, hi = min(pos), max(pos)
    if sorted(pos) != list(range(lo, hi + 1)):
        raise ValueError(f"conditioner {cond} is not contiguous in {layout.labels}")
    a = layout.labels[:lo]
    b = tuple(layout.labels[i] for i in sorted(pos))
    c = layout.labels[hi + 1:]
    if not a or not c:
        raise ValueError("conditioner must leave subsystems on both sides")
    return a, b, c


@dataclass
class MarkovEntry:
    """One block: weight, A(x)bL state, bR(x)C state, native factor dims."""

    q: float
    sigma: np.ndarray  # (d_A * b_l_dim, d_A * b_l_dim)
    phi: np.ndarray  # (b_r_dim * d_C, b_r_dim * d_C)
    b_l_dim: int
    b_r_dim: int


@dataclass
class MarkovDecomposition:
    """Splitting of supp(rho^B) certifying the Markov property.

    gamma_prime maps the B space into the padded target b0 (x) bL (x) bR
    with dims b_dims; entry i occupies bL indices below its b_l_dim and bR
    indices below its b_r_dim of slice i.  gamma_prime+ gamma_prime is the
    projector onto the part of B the decomposition covers.
    """

    gamma_prime: np.ndarray  # (d_b0 * d_bL * d_bR, d_B)
    b_dims: tuple[int, int, int]
    entries: list[MarkovEntry]
    a_part: SystemLayout
    b_part: SystemLayout
    c_part: SystemLayout


@dataclass
class MarkovReport:
    """Diagnostics for one state and one conditioner."""

    qcmi_bits: float
    petz_error_from_bc: float
    petz_error_from_ab: float
    markov: bool


def is_markov(state: DensityState, cond,
              tols: Tolerances = DEFAULT_TOLS) -> MarkovReport:
    """QCMI and plain recovery errors for a contiguous conditioner.

    ``cond`` names the conditioning subsystems; everything to their left is
    grouped as A, everything to their right as C.  The state passes when
    I(A:C|B) <= MARKOV_TOL.  The two plain Petz errors are scored as
    channels.petz_errors scores them, building neither channel.  Each of
    rho_ABC, rho_AB, rho_BC and rho_B is decomposed once: the QCMI's
    entropies are read from the spectra of the two Petz cores, which share
    rho_B's (see _markov_reading).
    """
    return _markov_reading(state, cond, 1, tols)


def _markov_reading(state: DensityState, cond, copies: int,
                    tols: Tolerances) -> MarkovReport:
    """is_markov's report on state^(x n), n = copies, with the copies
    regrouped as (A^n, B^n, C^n), read on the one copy ``state``.

    S(ABC) is von_neumann_entropy's, whose trace check covers the
    marginals, as they share the state's trace.  rho_B is decomposed once
    and both directions' Petz cores are modelled on it; S(B), S(AB) and
    S(BC) are read from the support spectra the cores hold.  The QCMI adds
    up over copies.  On the support the plain Petz map of a tensor power is
    the power of one copy's (Petz, Q. J. Math. 39, 97 (1988)), so for
    n >= 2 each error is ||R^(x n) - state^(x n)||_1, formed exactly from
    one copy's recovered state R.
    """
    a, b, c = split_by_conditioner(state.layout, cond)
    s_abc = von_neumann_entropy(state, tols)
    b_side = support_eigh(partial_trace(state, b).matrix, tols.support_cutoff_rel)
    cores = [_petz_core(state, (a, b, c), d, ("plain",), tols, b_side)
             for d in ("from_bc", "from_ab")]
    # from BC the model is rho_AB, from AB it is rho_BC
    s_ab, s_bc = (entropy_of_spectrum(spec.lam) for spec, _, _ in cores)
    i_bits = _clamp_information(
        copies * (s_ab + s_bc - entropy_of_spectrum(b_side[0]) - s_abc), "QCMI")

    errors = []
    for core in cores:
        diff = next(_petz_differences(state, *core, [("plain", None)], tols))
        if copies == 1:
            errors.append(trace_norm(diff))
        else:
            diff += state.matrix
            errors.append(_power_distance(diff, state.matrix, copies))
    return MarkovReport(i_bits, *errors, i_bits <= MARKOV_TOL)


def markov_decompose(state: DensityState, cond,
                     tols: Tolerances = DEFAULT_TOLS) -> MarkovDecomposition:
    """Split supp(rho^B) into b0 (x) bL (x) bR blocks factoring the state.

    Runs ``blocks.split_state`` with X = A and Y = C: the A-steered and
    C-steered operators on B must commute, their joint algebra's blocks
    index b0, and inside each block the C-steered factor is bR.  Each block
    of the state must factor as sigma_i^{A bL} (x) phi_i^{bR C}, which is
    verified, as are the absence of coherence between blocks and the full
    reconstruction.

    Raises VerificationError when I(A:C|B) > MARKOV_TOL or any check fails.
    """
    a, b, c = split_by_conditioner(state.layout, cond)
    i_bits = qcmi(state, (a, b, c), tols)
    if i_bits > MARKOV_TOL:
        raise VerificationError(
            f"not Markov: I(A:C|B) = {i_bits:.3e} bits exceeds {MARKOV_TOL:.1e}")
    ordered = reorder(state, a + b + c)
    gamma_prime, b_dims, blocks = split_state(ordered, a, b, c, tols)
    return MarkovDecomposition(gamma_prime, b_dims,
                               [MarkovEntry(*blk) for blk in blocks],
                               *(ordered.layout.subset(g) for g in (a, b, c)))


def _refill_channel(gamma: np.ndarray, dims, refills, side: str,
                    in_layout: SystemLayout, out_layout: SystemLayout,
                    tols: Tolerances) -> QuantumChannel:
    """Block-refill channel of a splitting gamma of its input with padded dims.

    refills lists (l, r, tau) per block: block j's native factor dims and
    the state that refills its traced factor (blocks.refill_kraus, with
    side "L" or "R").  The new side N is what out_layout adds to in_layout;
    the part of the input no block covers goes to |0> on N.  Completeness
    is checked to tols.verify_tol.
    """
    d_new, d_s = out_layout.total_dim // in_layout.total_dim, gamma.shape[1]
    ker = kernel_kraus(gamma, tols.verify_tol)
    # the uncovered part goes to |0> on N: output rows (0, s) of (N, S) on
    # side "L", rows (s, 0) of (S, N) on side "R"
    lifted = np.zeros((len(ker), d_new * d_s, d_s), dtype=complex)
    lifted[:, slice(d_s) if side == "L" else slice(None, None, d_new)] = ker
    kraus = [refill_kraus(block_slice(gamma, dims, j, l, r), tau, d_new,
                          tols.support_cutoff_rel, side)
             for j, (l, r, tau) in enumerate(refills)]
    channel = QuantumChannel(np.concatenate(kraus + [lifted]), in_layout, out_layout)
    channel.check_complete(tols.verify_tol)
    return channel


def recovery_from_decomposition(md: MarkovDecomposition,
                                direction: str = "from_bc",
                                tols: Tolerances = DEFAULT_TOLS) -> QuantumChannel:
    """Recovery map on B reading one side's factor and refilling the other.

    Directions are those of channels.recover: "from_bc" rebuilds sigma_i on
    A (x) bL after projecting onto block i and reading the bL coordinate,
    so read on rho^{BC} of a state in the decomposition's block form it
    returns the full state; "from_ab" is the mirror image, rebuilding
    phi_i on bR (x) C from rho^{AB}.  Weight outside the decomposition's
    domain is routed to a fixed pure state on the new side, which affects
    nothing on the domain.
    """
    if direction == "from_bc":
        side, refill = "L", [(e.b_l_dim, e.b_r_dim, e.sigma) for e in md.entries]
        out_layout = md.a_part.concat(md.b_part)
    elif direction == "from_ab":
        side, refill = "R", [(e.b_l_dim, e.b_r_dim, e.phi) for e in md.entries]
        out_layout = md.b_part.concat(md.c_part)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return _refill_channel(md.gamma_prime, md.b_dims, refill, side,
                           md.b_part, out_layout, tols)


def squeeze_T(state: DensityState, cond, gamma_prime: np.ndarray,
              b_dims: tuple[int, int, int],
              tols: Tolerances = DEFAULT_TOLS) -> tuple[DensityState, float]:
    """Project onto block-product form over a given splitting of B.

    Projects onto the splitting's domain, then independently in each b0
    block replaces the state by the product of its A(x)bL and bR(x)C
    marginals.  States already in block form are exact fixed points.

    Returns (output, kept_weight).  The output's trace equals kept_weight,
    the probability mass inside the domain; it is left subnormalized so the
    map is linear.
    """
    a, b, c = split_by_conditioner(state.layout, cond)
    ordered = reorder(state, a + b + c)
    d_a = ordered.layout.dim_of(a)
    d_b = ordered.layout.dim_of(b)
    d_c = ordered.layout.dim_of(c)
    d0, dl, dr = b_dims
    g = np.asarray(gamma_prime, dtype=complex)
    if g.shape != (d0 * dl * dr, d_b):
        raise ValueError(f"gamma_prime shape {g.shape} does not match "
                         f"b_dims {b_dims} and B dim {d_b}")

    rot = _congruence(g, ordered.matrix, d_a, d_c)
    kept = float(np.trace(rot).real)
    rot = rot.reshape(d_a, d0, dl, dr, d_c, d_a, d0, dl, dr, d_c)
    dim_l, dim_r = d_a * dl, dr * d_c
    blocks = []
    for i in range(d0):
        t = rot[:, i, :, :, :, :, i].reshape(dim_l, dim_r, dim_l, dim_r)
        blocks.append(factor_block(t, max(kept, 1e-30) * 1e-14))
    back = _congruence(g.conj().T, block_state(b_dims, blocks, d_a, d_c), d_a, d_c)
    out = DensityState(back, ordered.layout, validate=False)
    return reorder(out, state.layout.labels), kept


def nearest_markov_tilde(psi: PureState, grouping,
                         tols: Tolerances = DEFAULT_TOLS) -> DensityState:
    """Canonical pinched state attached to a pure state's A-side structure.

    Decomposes psi^{AC} over A and pinches A accordingly: dephase the a0
    block index and replace the aL factor of each block by its marginal
    omega_j, leaving aR intact.  The output keeps the marginal on A
    exactly, and its mutual information I(A:BC) equals the markovianizing
    cost of the splitting.  When every block is trivial on one side of the
    aR (x) C cut (a copy-type or product state) the output is an exact
    Markov state; in general the pure phi_j components keep it weakly
    conditionally correlated.
    """
    a, b, c = parse_three_groups(grouping, psi.layout)
    rho_ac = partial_trace(psi, a + c)
    return _pinched_tilde(psi, ki_decompose(rho_ac, a, tols), tols)


def _pinched_tilde(psi: PureState, ki: KIDecomposition,
                   tols: Tolerances) -> DensityState:
    """nearest_markov_tilde for the Koashi-Imoto split ki of psi^{AC}."""
    # on psi, a0 and b0 agree and each block's aL (x) bL factor is the pure
    # |omega_j>, so refilling aL leaves omega_j^{aL} (x) omega_j^{bL}, as B
    # would; the refill adds no system
    channel = _refill_channel(
        ki.gamma, ki.dims, [(blk.a_l_dim, blk.a_r_dim, blk.omega) for blk in ki.blocks],
        "L", ki.part, ki.part, tols)
    tilde = channel.apply(psi.to_density(), ki.part.labels, tols)
    return reorder(tilde, psi.layout.labels)


def _hermitian_eigenpairs(d: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of one random d x d Hermitian H of unit
    spectral norm drawn from rng, so exp(i pi amp H) is
    (vecs * exp(i pi amp vals)) vecs+ for every amplitude amp."""
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (x + x.conj().T) / 2.0
    h /= np.linalg.norm(h, 2)
    return np.linalg.eigh(h)


def _family_motions(state: np.ndarray, frame: np.ndarray, weights: np.ndarray,
                    tols: Tolerances) -> np.ndarray:
    """||X_k - state||_1 for the channels k on A of a family that, in A's
    orthonormal basis frame, multiply the entry of every pair (i, j) of A's
    indices by weights[k, i, j].

    state is a matrix on (A, rest).  It is rotated into the frame by one
    congruence; every X_k is then an elementwise product, validated as a
    state to 10 * tols.verify_tol as QuantumChannel.apply validates its
    output, and scored by its trace norm, both as one stack of at most
    qcore's _STACK_ENTRIES entries (more for a single state that exceeds it).
    """
    d_a = frame.shape[0]
    d_rest = state.shape[0] // d_a
    rot = _congruence(frame.conj().T, state, d_y=d_rest)
    step = _stack_step(rot.size)
    motions = []
    for lo in range(0, len(weights), step):
        stack = (rot.reshape(d_a, d_rest, d_a, d_rest)
                 * weights[lo:lo + step, :, None, :, None]).reshape((-1,) + rot.shape)
        check_density(stack, 10 * tols.verify_tol)
        stack -= rot
        motions.append(trace_norm(stack))
    return np.concatenate(motions)


def estimate_zeta(psi: PureState, ki: KIDecomposition, eps: float,
                  trials: int = 12, seed: int = 0,
                  tols: Tolerances = DEFAULT_TOLS) -> float:
    """Lower bound on the disturbance envelope at perturbation size eps.

    ki is the Koashi-Imoto split of psi^{AC} over A, trusted as given, as
    cost.splitting_cost trusts it.  Searches channels on A whose action
    moves psi^{AC} by at most eps in trace norm, and reports the largest
    motion any of them inflicts on the attached Markov state.  Trial t
    draws from default_rng([seed, t]) and cycles three candidate families:
    unitaries exp(i pi a H) along random Hermitian directions, partial
    dephasing in random bases, and exactly structure-preserving channels.
    Amplitudes a run over a fixed grid, so the feasible set only grows with
    eps and the estimate is monotone; eps = 0 admits only the exact
    preservers and returns (numerically) zero.

    The exact preservers are not searched.  By the Koashi-Imoto theorem
    each acts on block j's aL factor alone and keeps omega_j, the state
    the pinched Markov state carries on aL, so each moves it by 0: every
    third trial draws nothing and scores 0.

    The first two families have closed forms in one basis of A per seed.
    In H's eigenbasis (eigenvalues h_i) exp(i pi a H) multiplies the
    entry of A's indices (i, j) by the phase exp(i pi a (h_i - h_j)); in
    the dephasing basis v, dephasing of strength a is (1 - a) M + a Delta(M),
    Delta keeping the entries with i = j.  So each family's states on AC,
    and on the Markov state for the feasible amplitudes, are elementwise
    products with one rotated matrix, and no channel is built.  Every
    candidate state is still validated, as one stack per family.
    """
    if not eps >= 0.0:
        raise ValueError("eps must be nonnegative")
    a_labels = psi.layout.subset(ki.part.labels).labels
    # A first on both states: the families act on the leading factor
    rho_ac, tilde = (
        reorder(st, a_labels + tuple(l for l in st.layout.labels if l not in a_labels))
        for st in (partial_trace(psi, ki.part.labels + ki.rest.labels),
                   _pinched_tilde(psi, ki, tols)))
    d_a = psi.layout.dim_of(a_labels)

    amps = np.array([2.0 ** -j for j in range(10, -1, -1)])
    dephase = np.where(np.eye(d_a, dtype=bool), 1.0, 1.0 - amps[:, None, None])
    best = 0.0
    for trial in range(trials):
        kind = trial % 3
        if kind == 2:
            # Koashi-Imoto: an exact preserver acts on aL alone and keeps
            # omega_j, which the pinched state carries there, so it moves 0
            continue
        rng = np.random.default_rng([seed, trial])
        if kind == 0:
            vals, frame = _hermitian_eigenpairs(d_a, rng)
            phases = np.exp(1j * np.pi * np.outer(amps, vals))
            weights = phases[:, :, None] * phases.conj()[:, None, :]
        else:
            frame, weights = random_unitary(d_a, rng), dephase
        feasible = _family_motions(rho_ac.matrix, frame, weights, tols) <= eps + 1e-12
        if feasible.any():
            best = max(best, float(_family_motions(tilde.matrix, frame,
                                                   weights[feasible], tols).max()))
    return best
