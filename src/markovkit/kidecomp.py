"""Koashi-Imoto decomposition of a bipartite state on one subsystem.

Any bipartite state rho on (A, C) induces a splitting of supp(rho^A) into

    (+)_j  a0=j (x) aL_j (x) aR_j,     rho_KI = sum_j p_j |j><j| (x) omega_j (x) phi_j,

with omega_j a state on the aL factor and phi_j on aR (x) C.  The aR factors
carry everything C can learn about A; the aL factors are invisible to C.
``ki_decompose`` computes the splitting, ``state_preserving_channel`` the
channels on A that leave rho^{AC} fixed: exactly those acting block-wise on
aL alone and keeping each omega_j.  No command builds one: the harnesses
that reason about them (``markov.estimate_zeta``, ``protocols.verify_lemma6``)
read what such a channel leaves fixed in closed form.  No command reaches
``extend_to_purification`` either, the lift of the splitting through a
tripartite purification to the B-side splitting (b0, bL, bR).

The splitting is ``blocks.split_state`` with X trivial, S = A and Y = C:
the algebra factor of block j is aR_j and its multiplicity aL_j.  The
``blocks`` docstring describes the pipeline and its checks, shared with the
Markov decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import (
    block_slice,
    block_state,
    kernel_kraus,
    padded_isometry,
    split_state,
)
from .channels import QuantumChannel
from .qcore import (
    DEFAULT_TOLS,
    DensityState,
    PureState,
    SystemLayout,
    Tolerances,
    VerificationError,
    reorder,
    reorder_vector,
    support_eigh,
    _congruence,
    _spectral_norm_above,
)

__all__ = [
    "KIBlock",
    "KIDecomposition",
    "ki_decompose",
    "extend_to_purification",
    "state_preserving_channel",
]


@dataclass
class KIBlock:
    """One direct summand: weight, aL state, aR(x)C state, native dims."""

    p: float
    omega: np.ndarray  # (aL_dim, aL_dim)
    phi: np.ndarray  # (aR_dim * d_C, aR_dim * d_C)
    a_l_dim: int
    a_r_dim: int


@dataclass
class KIDecomposition:
    """Splitting of supp(rho^A) with the rotated state's block data.

    gamma maps the A space into the padded target a0 (x) aL (x) aR with
    dims = (number of blocks, max aL_dim, max aR_dim); it is an isometry
    from supp(rho^A), and gamma+ gamma is the support projector.  Block j
    occupies aL indices < a_l_dim and aR indices < a_r_dim of slice j.
    """

    gamma: np.ndarray  # (d_a0 * d_aL * d_aR, d_A)
    dims: tuple[int, int, int]
    blocks: list[KIBlock]
    part: SystemLayout  # the A subsystems
    rest: SystemLayout  # the C subsystems

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([b.p for b in self.blocks])

    def reconstruct(self) -> DensityState:
        """Pull the block form back to the original (A..., C...) layout."""
        d_y = self.rest.total_dim
        blocks = [(b.p, b.omega, b.phi) for b in self.blocks]
        mat = _congruence(self.gamma.conj().T, block_state(self.dims, blocks, d_y=d_y),
                          d_y=d_y)
        return DensityState(mat, self.part.concat(self.rest), validate=False)


def ki_decompose(state: DensityState, part, tols: Tolerances = DEFAULT_TOLS) -> KIDecomposition:
    """Decompose a bipartite state on the subsystems named by ``part``.

    ``part`` is a label spec of the A side (see SystemLayout.labels_of);
    every other subsystem of the state belongs to the C side.
    """
    part_labels = state.layout.labels_of(part)
    rest_labels = tuple(l for l in state.layout.labels if l not in part_labels)
    if not part_labels or not rest_labels:
        raise ValueError("need a proper bipartition")

    ordered = reorder(state, part_labels + rest_labels)
    gamma, dims, blocks = split_state(ordered, (), part_labels, rest_labels, tols)
    return KIDecomposition(gamma, dims, [KIBlock(*b) for b in blocks],
                           ordered.layout.subset(part_labels),
                           ordered.layout.subset(rest_labels))


@dataclass
class TripartiteBlock:
    """Purified block: |omega_j> on aL(x)bL, |phi_j> on aR(x)bR(x)C."""

    p: float
    omega_vec: np.ndarray  # (a_l_dim * b_l_dim,)
    phi_vec: np.ndarray  # (a_r_dim * b_r_dim * d_C,)
    b_l_dim: int
    b_r_dim: int


@dataclass
class TripartiteKIForm:
    """B-side splitting matching a KI decomposition of rho^{AC}.

    gamma_prime maps the B space into b0 (x) bL (x) bR (padded dims
    b_dims) so that (gamma (x) gamma_prime)|psi> takes the form
    sum_j sqrt(p_j)|j>|j>|omega_j>|phi_j>.
    """

    ki: KIDecomposition
    b_part: SystemLayout
    gamma_prime: np.ndarray  # (d_b0 * d_bL * d_bR, d_B)
    b_dims: tuple[int, int, int]
    blocks: list[TripartiteBlock]

    def ki_vector(self) -> np.ndarray:
        """(gamma (x) gamma_prime)|psi> on (a0,aL,aR,b0,bL,bR,C), padded."""
        (a0, al, ar), (b0, bl, br) = self.ki.dims, self.b_dims
        d_c = self.ki.rest.total_dim
        out = np.zeros((a0, al, ar, b0, bl, br, d_c), dtype=complex)
        for j, (kb, tb) in enumerate(zip(self.ki.blocks, self.blocks)):
            w = tb.omega_vec.reshape(kb.a_l_dim, tb.b_l_dim)
            f = tb.phi_vec.reshape(kb.a_r_dim, tb.b_r_dim, d_c)
            amp = np.sqrt(kb.p) * np.einsum("lx,rys->lrxys", w, f)
            out[j, : kb.a_l_dim, : kb.a_r_dim, j,
                : tb.b_l_dim, : tb.b_r_dim, :] = amp
        return out.reshape(-1)


def extend_to_purification(psi: PureState, ki: KIDecomposition,
                           tols: Tolerances = DEFAULT_TOLS) -> TripartiteKIForm:
    """Lift a KI decomposition of psi^{AC} through the pure state psi^{ABC}.

    The B subsystems are whatever the state has beyond ki.part and ki.rest.
    Each a0=j component of (gamma (x) I)|psi> must factor into purifications
    of omega_j and phi_j; the B-side coordinates those purifications pick
    out define gamma_prime.
    """
    a_labels = ki.part.labels
    c_labels = ki.rest.labels
    b_labels = tuple(l for l in psi.layout.labels
                     if l not in a_labels and l not in c_labels)
    if not b_labels:
        raise ValueError("state has no subsystems left for the purifying side")
    if set(a_labels) | set(b_labels) | set(c_labels) != set(psi.layout.labels):
        raise ValueError("KI decomposition labels do not match the state")

    vec, _ = reorder_vector(psi.vector, psi.layout,
                            a_labels + b_labels + c_labels)
    b_layout = psi.layout.subset(b_labels)
    d_a, d_b, d_c = ki.part.total_dim, b_layout.total_dim, ki.rest.total_dim

    # consistency: the KI blocks must reproduce Tr_B psi
    rho_ac = np.einsum("abc,dbe->acde",
                       vec.reshape(d_a, d_b, d_c),
                       vec.conj().reshape(d_a, d_b, d_c)).reshape(d_a * d_c, -1)
    dev = _spectral_norm_above(ki.reconstruct().matrix - rho_ac, 10 * tols.verify_tol)
    if dev is not None:
        raise VerificationError(
            f"state marginal differs from the decomposition by {dev:.2e}")

    v = ki.gamma @ vec.reshape(d_a, d_b * d_c)

    g_vectors = []
    tri_blocks = []
    for j, kb in enumerate(ki.blocks):
        m, n = kb.a_l_dim, kb.a_r_dim
        vj = block_slice(v, ki.dims, j, m, n).reshape(m, n, d_b, d_c) / np.sqrt(kb.p)
        lam, e_vecs, _, _ = support_eigh(kb.omega, tols.support_cutoff_rel)
        mu, f_vecs, _, _ = support_eigh(kb.phi, tols.support_cutoff_rel)
        bl, br = lam.size, mu.size
        f_tens = f_vecs.reshape(n, d_c, br)
        # B-side coordinate vectors; orthonormal iff the component factors
        g = np.einsum("lk,rcm,lrbc->kmb", e_vecs.conj(), f_tens.conj(), vj)
        g /= np.sqrt(lam)[:, None, None] * np.sqrt(mu)[None, :, None]
        g_vectors.append(g.reshape(bl * br, d_b))

        omega_vec = (e_vecs * np.sqrt(lam)[None, :]).reshape(-1)
        phi_vec = np.einsum("rcm,m->rmc", f_tens,
                            np.sqrt(mu)).reshape(-1)
        tri_blocks.append(TripartiteBlock(kb.p, omega_vec, phi_vec, bl, br))

    all_g = np.concatenate(g_vectors, axis=0)
    gram = all_g.conj() @ all_g.T
    gram_dev = _spectral_norm_above(gram - np.eye(gram.shape[0]), 100 * tols.verify_tol)
    if gram_dev is not None:
        raise VerificationError(
            f"components fail to factor (Gram deviation {gram_dev:.2e})")

    gamma_prime, b_dims = padded_isometry(
        [g.reshape(tb.b_l_dim, tb.b_r_dim, d_b).transpose(2, 0, 1)
         for g, tb in zip(g_vectors, tri_blocks)])
    form = TripartiteKIForm(ki, b_layout, gamma_prime, b_dims, tri_blocks)
    # (gamma (x) gamma_prime (x) I_C)|psi>: gamma_prime on the B axis of v
    rotated = (gamma_prime @ v.reshape(-1, d_b, d_c)).reshape(-1)
    target = form.ki_vector()
    # reorder target (a0,aL,aR,b0,bL,bR,C) is already the rotated layout
    fid = abs(np.vdot(target, rotated)) ** 2
    if fid < 1.0 - 10 * tols.verify_tol:
        raise VerificationError(
            f"global reconstruction fidelity {fid:.12f} too low")
    return form


def state_preserving_channel(ki: KIDecomposition, per_block_isometries,
                             tols: Tolerances = DEFAULT_TOLS) -> QuantumChannel:
    """Channel on A acting block-wise on the aL factors only.

    ``per_block_isometries[j]`` is either a unitary on block j's aL factor
    or an isometry into aL (x) E (shape (a_l_dim * d_E, a_l_dim), E the
    fastest index); each must preserve omega_j after tracing out E.  Any
    such channel leaves rho^{AC} invariant; that is checked by tests, the
    omega preservation is checked here.
    """
    if len(per_block_isometries) != len(ki.blocks):
        raise ValueError("need one isometry per block")

    # per block j and environment index e, u_j^(e) (x) I_aR: block j's
    # isometry with its environment fixed to e, as (e, aL, aR, aL', aR')
    forms = []
    for j, (u, blk) in enumerate(zip(per_block_isometries, ki.blocks)):
        u = np.asarray(u, dtype=complex)
        m = blk.a_l_dim
        if u.shape[1] != m or u.shape[0] % m:
            raise ValueError(f"block {j}: isometry shape {u.shape} "
                             f"incompatible with aL dim {m}")
        if _spectral_norm_above(u.conj().T @ u - np.eye(m), tols.verify_tol) is not None:
            raise ValueError(f"block {j}: not an isometry")
        d_e = u.shape[0] // m
        evolved = u @ blk.omega @ u.conj().T
        traced = np.einsum("aebe->ab", evolved.reshape(m, d_e, m, d_e))
        if _spectral_norm_above(traced - blk.omega,
                                max(tols.verify_tol, 1e-9)) is not None:
            raise ValueError(f"block {j}: isometry does not preserve its "
                             "aL state")
        forms.append(np.einsum("aeb,rs->earbs", u.reshape(m, d_e, m), np.eye(blk.a_r_dim)))

    # Kraus operator e: the pull-back of (+)_j u_j^(e) (x) I_aR, all of them
    # written into one padded stack on (e, a0, aL, aR, a0', aL', aR')
    padded = np.zeros((max(map(len, forms)),) + tuple(ki.dims) * 2, dtype=complex)
    for j, f in enumerate(forms):
        e, l, r = f.shape[:3]
        padded[:e, j, :l, :r, j, :l, :r] = f
    kraus = _congruence(ki.gamma.conj().T, padded.reshape(len(padded), ki.gamma.shape[0], -1))
    # identity on the kernel of rho^A keeps the channel trace preserving
    channel = QuantumChannel(np.concatenate([kraus, kernel_kraus(ki.gamma, tols.verify_tol)]),
                             ki.part, ki.part)
    channel.check_complete(tols.verify_tol)
    return channel

