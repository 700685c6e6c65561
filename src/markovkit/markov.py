"""Markov-state tests, decompositions, and recovery for tripartite states.

A state rho on (A, B, C) with I(A:C|B) = 0 admits a splitting of supp(rho^B)
into b0 (x) bL (x) bR coordinates with

    rho  =  (+)_i  q_i  sigma_i^{A bL}  (x)  phi_i^{bR C},

so A interacts with B only through the bL factors and C only through the bR
factors.  ``markov_decompose`` finds that splitting; ``is_markov`` gives the
cheap diagnostics; ``recovery_from_decomposition`` turns a splitting into the
B -> AB and B -> BC reconstruction channels; ``squeeze_T`` projects an
arbitrary state onto the block-product form over a given splitting;
``nearest_markov_tilde`` builds the canonical Markov state sharing a pure
state's A-side local structure; ``estimate_zeta`` lower-bounds the
disturbance envelope of channels on A that nearly preserve the AC marginal.
The block format (per-block factoring, canonical order, the padded
isometry gamma_prime, the block-product state) lives in ``blocks``, shared
with the Koashi-Imoto decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import decompose_structure, generate_algebra
from .blocks import (
    block_slice,
    block_state,
    canonical_order,
    conditional_operators,
    factor_block,
    kernel_kraus,
    padded_isometry,
    padded_layout,
    pull_back,
)
from .channels import QuantumChannel, petz_recoveries, unitary_channel
from .kidecomp import (
    extend_to_purification,
    ki_decompose,
    state_preserving_channel,
)
from .qcore import (
    DEFAULT_TOLS,
    DensityState,
    PureState,
    SystemLayout,
    Tolerances,
    VerificationError,
    matrix_function,
    parse_grouping,
    partial_trace,
    qcmi,
    random_unitary,
    reorder,
    support_eigh,
    trace_distance,
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
    if isinstance(cond, str):
        cond = tuple(s.strip() for s in cond.split(",") if s.strip())
    cond = tuple(cond)
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

    @property
    def weights(self) -> np.ndarray:
        return np.array([e.q for e in self.entries])

    def b_target_layout(self) -> SystemLayout:
        return padded_layout("b", self.b_dims)

    def markov_state(self) -> DensityState:
        """The block-product form on (A, b0, bL, bR, C), padded coordinates."""
        d_a, d_c = self.a_part.total_dim, self.c_part.total_dim
        mat = block_state(self.b_dims,
                          [(e.q, e.sigma, e.phi) for e in self.entries], d_a, d_c)
        layout = SystemLayout.of(("A*", d_a)).concat(
            self.b_target_layout()).concat(SystemLayout.of(("C*", d_c)))
        return DensityState(mat, layout, validate=False)

    def reconstruct(self) -> DensityState:
        """Pull the block form back to the (A..., B..., C...) layout."""
        mat = pull_back(self.markov_state().matrix, self.gamma_prime,
                        self.a_part.total_dim, self.c_part.total_dim)
        layout = self.a_part.concat(self.b_part).concat(self.c_part)
        return DensityState(mat, layout, validate=False)


@dataclass
class MarkovReport:
    """Diagnostics for one state and one conditioner."""

    qcmi_bits: float
    petz_error_from_bc: float
    petz_error_from_ab: float
    markov: bool
    decomposition: MarkovDecomposition | None = None
    epsilon_decomposable_bound: float | None = None


def is_markov(state: DensityState, cond, tol: float = 1e-9,
              include_decomposition: bool = False,
              tols: Tolerances = DEFAULT_TOLS) -> MarkovReport:
    """QCMI and plain recovery errors for a contiguous conditioner.

    ``cond`` names the conditioning subsystems; everything to their left is
    grouped as A, everything to their right as C.  The state passes when
    I(A:C|B) <= tol.  With include_decomposition the block splitting is
    attached along with the trace distance to its reconstruction, an upper
    bound on the distance to the set of exactly decomposable states.
    """
    a, b, c = split_by_conditioner(state.layout, cond)
    i_bits = qcmi(state, (a, b, c))

    err_bc, err_ab = (
        trace_distance(next(petz_recoveries(state, (a, b, c), d, tols=tols))[1],
                       state)
        for d in ("from_bc", "from_ab"))
    markov = i_bits <= tol
    decomposition = None
    eps_bound = None
    if markov and include_decomposition:
        decomposition = markov_decompose(state, cond, tol=tol, tols=tols)
        recon = reorder(decomposition.reconstruct(), state.layout.labels)
        eps_bound = trace_distance(recon, state)
    return MarkovReport(i_bits, err_bc, err_ab, markov,
                        decomposition, eps_bound)


def markov_decompose(state: DensityState, cond, tol: float = 1e-9,
                     tols: Tolerances = DEFAULT_TOLS) -> MarkovDecomposition:
    """Split supp(rho^B) into b0 (x) bL (x) bR blocks factoring the state.

    The algebra generated jointly by the A-steered and C-steered operators
    on B is block-decomposed; its center indexes b0.  Inside central block i
    the C-steered part, compressed to the factor coordinate, is itself a
    factor M_{bR}; its tensor complement together with the joint algebra's
    own multiplicity forms bL.  Each block of the state must then factor as
    sigma_i^{A bL} (x) phi_i^{bR C}, which is verified, as is the full
    reconstruction.

    Raises VerificationError when I(A:C|B) > tol or any check fails.
    """
    a, b, c = split_by_conditioner(state.layout, cond)
    i_bits = qcmi(state, (a, b, c))
    if i_bits > tol:
        raise VerificationError(
            f"not Markov: I(A:C|B) = {i_bits:.3e} bits exceeds {tol:.1e}")

    ordered = reorder(state, a + b + c)
    a_layout, b_layout, c_layout = (ordered.layout.subset(g) for g in (a, b, c))
    d_a, d_b, d_c = (l.total_dim for l in (a_layout, b_layout, c_layout))

    rho_b = partial_trace(ordered, b).matrix
    b_inv_sqrt = matrix_function(rho_b, -0.5, tols.support_cutoff_rel)
    ab4 = partial_trace(ordered, a + b).matrix.reshape(
        d_a, d_b, d_a, d_b).transpose(1, 0, 3, 2)
    bc4 = partial_trace(ordered, b + c).matrix.reshape(d_b, d_c, d_b, d_c)
    alg_a = generate_algebra(conditional_operators(ab4, b_inv_sqrt, d_a), tols)
    alg_c = generate_algebra(conditional_operators(bc4, b_inv_sqrt, d_c), tols)

    comm = max(
        float(np.linalg.norm(x @ y - y @ x, 2))
        for x in alg_a.basis for y in alg_c.basis)
    if comm > max(tol, 100 * tols.algebra_closure_tol):
        raise VerificationError(
            f"steered algebras do not commute (deviation {comm:.3e})")

    joint = generate_algebra(list(alg_a.basis) + list(alg_c.basis), tols)
    structure = decompose_structure(joint, tols)

    # within each central block, split off the C-steered factor
    raw = []
    for (n, k), sl in zip(structure.blocks, structure.block_slices()):
        u_blk = structure.iso[:, sl].reshape(d_b, n, k)
        reduced = [
            np.einsum("pak,pq,qbk->ab", u_blk.conj(), r, u_blk) / k
            for r in alg_c.basis]
        sub = decompose_structure(
            generate_algebra(reduced + [np.eye(n)], tols), tols)
        if len(sub.blocks) != 1:
            raise VerificationError(
                "C-steered algebra fails to be a factor inside a central block")
        br, bl_pure = sub.blocks[0]
        # rotate the factor coordinate, then regroup (l', k) into one bL index
        cols = np.einsum("bak,aw->bwk", u_blk, sub.iso)
        cols = cols.reshape(d_b, br, bl_pure, k).transpose(0, 2, 3, 1)
        raw.append((bl_pure * k, br, cols.reshape(d_b, bl_pure * k, br)))

    rho6 = ordered.matrix.reshape(d_a, d_b, d_c, d_a, d_b, d_c)
    entries = []
    for bl, br, cols in raw:
        v = cols.reshape(d_b, bl * br)  # column index (l, r), r fastest
        t = np.einsum("pu,apcbqd,qv->aucbvd", v.conj(), rho6, v)
        dim_l, dim_r = d_a * bl, br * d_c
        split = factor_block(t.reshape(dim_l, dim_r, dim_l, dim_r), 0.0,
                             tols.verify_tol)
        if split is None:
            raise VerificationError("central block carries no state weight")
        entries.append(MarkovEntry(*split, bl, br))

    order = canonical_order([e.q for e in entries],
                            [(e.b_l_dim, e.b_r_dim) for e in entries])
    gamma_prime, b_dims = padded_isometry([raw[i][2] for i in order])
    entries = [entries[i] for i in order]

    decomp = MarkovDecomposition(gamma_prime, b_dims, entries,
                                 a_layout, b_layout, c_layout)
    dev = float(np.linalg.norm(
        decomp.reconstruct().matrix - ordered.matrix, 2))
    if dev > tols.verify_tol:
        raise VerificationError(
            f"decomposition does not reproduce the state (deviation {dev:.3e})")
    return decomp


def recovery_from_decomposition(md: MarkovDecomposition,
                                direction: str = "B->AB",
                                tols: Tolerances = DEFAULT_TOLS) -> QuantumChannel:
    """Reconstruction channel reading one side's factor and refilling the other.

    "B->AB" rebuilds sigma_i on A (x) bL after projecting onto block i and
    reading the bL coordinate; applied to rho^{BC} of a state in the
    decomposition's block form it returns the full state.  "B->BC" is the
    mirror image.  Weight outside the decomposition's domain is routed to a
    fixed pure state on the new side, which affects nothing on the domain.
    """
    d_a, d_b, d_c = (p.total_dim for p in (md.a_part, md.b_part, md.c_part))
    key = direction.strip().upper().replace(" ", "").replace("→", "->")
    if key not in ("B->AB", "B->BC"):
        raise ValueError(f"direction must be 'B->AB' or 'B->BC', got {direction!r}")

    kraus = []
    for i, e in enumerate(md.entries):
        bl, br = e.b_l_dim, e.b_r_dim
        gi = block_slice(md.gamma_prime, md.b_dims, i, bl, br)
        if key == "B->AB":
            vals, vecs = support_eigh(e.sigma, tols.support_cutoff_rel)
            for s in range(vals.size):
                chi = vecs[:, s].reshape(d_a, bl) * np.sqrt(vals[s])
                out_part = np.einsum("al,lrb->arb", chi, gi.conj())
                for l in range(bl):
                    kraus.append(np.einsum("arb,rq->abq", out_part,
                                           gi[l]).reshape(d_a * d_b, d_b))
        else:
            vals, vecs = support_eigh(e.phi, tols.support_cutoff_rel)
            for s in range(vals.size):
                psi = vecs[:, s].reshape(br, d_c) * np.sqrt(vals[s])
                mid = np.einsum("lrb,rc->lbc", gi.conj(), psi)
                for r in range(br):
                    kraus.append(np.einsum("lbc,lq->bcq", mid,
                                           gi[:, r, :]).reshape(d_b * d_c, d_b))

    for ker in kernel_kraus(md.gamma_prime, tols.verify_tol):
        if key == "B->AB":
            e0 = np.zeros((d_a, 1))
            e0[0, 0] = 1.0
            kraus.append(np.kron(e0, ker))
        else:
            e0 = np.zeros((d_c, 1))
            e0[0, 0] = 1.0
            kraus.append(np.kron(ker, e0))

    if key == "B->AB":
        out_layout = md.a_part.concat(md.b_part)
    else:
        out_layout = md.b_part.concat(md.c_part)
    channel = QuantumChannel(kraus, md.b_part, out_layout)
    channel.check_complete(tols.verify_tol)
    return channel


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

    rho6 = ordered.matrix.reshape(d_a, d_b, d_c, d_a, d_b, d_c)
    rot = np.einsum("up,apcbqd,vq->aucbvd", g, rho6, g.conj())
    kept = float(np.einsum("aucauc->", rot).real)
    rot = rot.reshape(d_a, d0, dl, dr, d_c, d_a, d0, dl, dr, d_c)
    dim_l, dim_r = d_a * dl, dr * d_c
    blocks = []
    for i in range(d0):
        t = rot[:, i, :, :, :, :, i].reshape(dim_l, dim_r, dim_l, dim_r)
        blocks.append(factor_block(t, max(kept, 1e-30) * 1e-14))
    back = pull_back(block_state(b_dims, blocks, d_a, d_c), g, d_a, d_c)
    out = DensityState(back, ordered.layout, validate=False)
    return reorder(out, state.layout.labels), kept


def _three_groups(grouping, layout: SystemLayout):
    if isinstance(grouping, str):
        groups = parse_grouping(grouping, layout)
    else:
        groups = tuple(tuple(g) if not isinstance(g, str) else (g,)
                       for g in grouping)
    if len(groups) != 3:
        raise ValueError(f"need exactly three groups, got {len(groups)}")
    return groups


def nearest_markov_tilde(psi: PureState, grouping,
                         tols: Tolerances = DEFAULT_TOLS) -> DensityState:
    """Canonical pinched state attached to a pure state's A-side structure.

    Decomposes psi^{AC} over A, lifts the splitting to the purifying B side,
    and pinches B accordingly: dephase the b0 block index and replace the
    bL factor of each block by its marginal omega_j, leaving bR intact.
    The output keeps the marginal on A exactly, and its mutual information
    I(A:BC) equals the markovianizing cost of the splitting.  When every
    block is trivial on one side of the aR (x) C cut (a copy-type or
    product state) the output is an exact Markov state; in general the
    pure phi_j components keep it weakly conditionally correlated.
    """
    a, b, c = _three_groups(grouping, psi.layout)
    rho_ac = partial_trace(psi.to_density(), tuple(a) + tuple(c))
    ki = ki_decompose(rho_ac, a, tols)
    form = extend_to_purification(psi, ki, tols)

    kraus = []
    for j, (kb, tb) in enumerate(zip(ki.blocks, form.blocks)):
        bl, br = tb.b_l_dim, tb.b_r_dim
        gj = block_slice(form.gamma_prime, form.b_dims, j, bl, br)
        w = tb.omega_vec.reshape(kb.a_l_dim, bl)
        # rows of vh are the bL-side Schmidt vectors of |omega_j>
        _, sv, vh = np.linalg.svd(w, full_matrices=False)
        for s in range(sv.size):
            if sv[s] ** 2 <= tols.support_cutoff_rel:
                continue
            out_vec = sv[s] * np.einsum("l,lrb->br", vh[s], gj.conj())
            for ell in range(bl):
                kraus.append(np.einsum("br,rq->bq", out_vec, gj[ell]))
    kraus += kernel_kraus(form.gamma_prime, tols.verify_tol)

    channel = QuantumChannel(kraus, form.b_part, form.b_part)
    channel.check_complete(tols.verify_tol)
    tilde = channel.apply(psi.to_density(), targets=form.b_part.labels)
    return reorder(tilde, psi.layout.labels)


def estimate_zeta(psi: PureState, grouping, eps: float, trials: int = 12,
                  seed: int = 0, tols: Tolerances = DEFAULT_TOLS) -> float:
    """Lower bound on the disturbance envelope at perturbation size eps.

    Searches channels on A whose action moves psi^{AC} by at most eps in
    trace norm, and reports the largest motion any of them inflicts on the
    attached Markov state.  Three candidate families are tried per seed:
    unitaries exp(i pi t H) along random Hermitian directions, partial
    dephasing in random bases, and exactly structure-preserving channels.
    Amplitudes run over a fixed grid, so the feasible set only grows with
    eps and the estimate is monotone; eps = 0 admits only the exact
    preservers and returns (numerically) zero.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    a, b, c = _three_groups(grouping, psi.layout)
    rho = psi.to_density()
    rho_ac = partial_trace(rho, tuple(a) + tuple(c))
    tilde = nearest_markov_tilde(psi, grouping, tols)
    ki = ki_decompose(rho_ac, a, tols)
    a_layout = psi.layout.subset(a)
    d_a = a_layout.total_dim

    best = 0.0

    def consider(channel: QuantumChannel):
        nonlocal best
        moved_ac = trace_distance(channel.apply(rho_ac, targets=a), rho_ac)
        if moved_ac <= eps + 1e-12:
            moved = trace_distance(channel.apply(tilde, targets=a), tilde)
            best = max(best, moved)

    amp_grid = [2.0 ** -j for j in range(10, -1, -1)]
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        kind = trial % 3
        if kind == 0:
            x = rng.normal(size=(d_a, d_a)) + 1j * rng.normal(size=(d_a, d_a))
            h = (x + x.conj().T) / 2
            h /= np.linalg.norm(h, 2)
            evals, evecs = np.linalg.eigh(h)
            for amp in amp_grid:
                u = (evecs * np.exp(1j * np.pi * amp * evals)) @ evecs.conj().T
                consider(unitary_channel(u, a_layout))
        elif kind == 1:
            v = random_unitary(d_a, rng)
            for amp in amp_grid:
                kraus = [np.sqrt(1.0 - amp) * np.eye(d_a)]
                kraus += [np.sqrt(amp) * np.outer(v[:, k], v[:, k].conj())
                          for k in range(d_a)]
                consider(QuantumChannel(kraus, a_layout, a_layout))
        else:
            isos = []
            for blk in ki.blocks:
                _, vecs = np.linalg.eigh(blk.omega)
                phases = np.exp(2j * np.pi * rng.random(blk.a_l_dim))
                isos.append((vecs * phases) @ vecs.conj().T)
            consider(state_preserving_channel(ki, isos, tols))
    return best
