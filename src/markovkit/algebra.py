"""Finite-dimensional operator *-algebras and their block structure.

A *-closed algebra of d x d matrices is, up to a unitary change of basis on
its support, a direct sum of full matrix algebras with multiplicity:

    U+ X U  =  (+)_j  x_j (x) I_{m_j},    x_j in M_{n_j},

one block per minimal central projector.  ``generate_algebra`` builds the
closure of a generating set, ``decompose_structure`` finds the blocks and the
rotation, ``verify_structure`` measures how well a structure matches.

All internal randomness (central elements, matrix-unit seeds) is drawn from a
generator seeded by a hash of the algebra basis, so decompositions are
deterministic functions of their input.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .qcore import DEFAULT_TOLS, Tolerances, VerificationError

__all__ = [
    "OperatorAlgebra",
    "BlockStructure",
    "generate_algebra",
    "decompose_structure",
    "verify_structure",
]

CLUSTER_GAP = 1e-7
MAX_RANDOM_RETRIES = 12


def _vec(mats: np.ndarray) -> np.ndarray:
    return mats.reshape(mats.shape[0], -1)


def _orthonormalize(rows: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis (rows) of the row span, via SVD with threshold."""
    if rows.size == 0:
        return rows.reshape(0, rows.shape[-1])
    u, s, vh = np.linalg.svd(rows, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return vh[:0]
    keep = s > tol * max(1.0, s[0])
    return vh[keep]


def _complement(new_rows: np.ndarray, basis_rows: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal directions of new_rows not already in span(basis_rows)."""
    if basis_rows.shape[0]:
        new_rows = new_rows - (new_rows @ basis_rows.conj().T) @ basis_rows
    return _orthonormalize(new_rows, tol)


@dataclass
class OperatorAlgebra:
    """*-closed operator algebra given by a Hilbert-Schmidt-orthonormal basis."""

    ambient_dim: int
    basis: np.ndarray  # shape (dim, d, d)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def support_projector(self, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
        s = np.zeros((self.ambient_dim, self.ambient_dim), dtype=complex)
        for b in self.basis:
            s += b @ b.conj().T
        vals, vecs = np.linalg.eigh(s)
        top = vals.max(initial=0.0)
        cols = vecs[:, vals > tols.support_cutoff_rel * max(top, 1e-300)]
        return cols @ cols.conj().T

    def project_coeffs(self, x: np.ndarray) -> np.ndarray:
        return _vec(self.basis).conj() @ x.reshape(-1)

    def membership_residual(self, x: np.ndarray) -> float:
        """Frobenius distance from x to its projection onto the algebra."""
        coeffs = self.project_coeffs(x)
        proj = np.tensordot(coeffs, self.basis, axes=(0, 0))
        return float(np.linalg.norm(x - proj))

    def is_star_closed(self, tol: float = 1e-8) -> bool:
        return all(self.membership_residual(b.conj().T) <= tol for b in self.basis)


def generate_algebra(generators, tols: Tolerances = DEFAULT_TOLS,
                     max_rounds: int = 64) -> OperatorAlgebra:
    """Smallest *-algebra containing the generators and the identity on
    their joint support.

    Seeds with generators plus adjoints plus the joint-support projector,
    then alternates pairwise products with re-orthonormalization until the
    span stops growing.
    """
    gens = [np.asarray(g, dtype=complex) for g in generators]
    if not gens:
        raise ValueError("generate_algebra needs at least one generator")
    d = gens[0].shape[0]
    for g in gens:
        if g.shape != (d, d):
            raise ValueError(f"generator shape {g.shape} != {(d, d)}")
    tol = tols.algebra_closure_tol

    s = np.zeros((d, d), dtype=complex)
    for g in gens:
        s += g @ g.conj().T + g.conj().T @ g
    vals, vecs = np.linalg.eigh(s)
    top = vals.max(initial=0.0)
    if top <= 0.0:
        raise ValueError("generators are all zero")
    cols = vecs[:, vals > tols.support_cutoff_rel * top]
    support = cols @ cols.conj().T

    seed = np.array(gens + [g.conj().T for g in gens] + [support])
    basis = _orthonormalize(_vec(seed), tol)
    fresh = basis
    for _ in range(max_rounds):
        cur = basis.reshape(-1, d, d)
        new = fresh.reshape(-1, d, d)
        prods = np.concatenate([
            np.einsum("iab,jbc->ijac", new, cur).reshape(-1, d * d),
            np.einsum("iab,jbc->ijac", cur, new).reshape(-1, d * d),
        ])
        extra = _complement(prods, basis, tol)
        if extra.shape[0] == 0:
            break
        basis = np.concatenate([basis, extra])
        fresh = extra
    else:
        raise VerificationError("algebra closure did not stabilize")
    if basis.shape[0] > d * d:
        raise VerificationError("closure exceeded full matrix algebra dimension")
    return OperatorAlgebra(d, basis.reshape(-1, d, d))


@dataclass
class BlockStructure:
    """Unitary structure U+ X U = (+)_j x_j (x) I_{m_j} on the support.

    iso has orthonormal columns mapping the structured space (dimension
    sum n_j * m_j) into the ambient space; blocks list (n_j, m_j) pairs in
    canonical order (descending n*m, then descending n).
    """

    iso: np.ndarray  # (ambient_dim, support_dim)
    blocks: list[tuple[int, int]]

    @property
    def support_dim(self) -> int:
        return int(sum(n * m for n, m in self.blocks))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_slices(self) -> list[slice]:
        out, off = [], 0
        for n, m in self.blocks:
            out.append(slice(off, off + n * m))
            off += n * m
        return out

    def project_to_structure(self, x: np.ndarray) -> np.ndarray:
        """Nearest structured matrix: rotate, average over multiplicity,
        zero everything off-block, rotate back to structured coordinates."""
        rot = self.iso.conj().T @ x @ self.iso
        out = np.zeros_like(rot)
        for (n, m), sl in zip(self.blocks, self.block_slices()):
            blk = rot[sl, sl].reshape(n, m, n, m)
            avg = np.einsum("arbr->ab", blk) / m
            out[sl, sl] = np.kron(avg, np.eye(m))
        return out

    def structure_deviation(self, x: np.ndarray) -> float:
        rot = self.iso.conj().T @ x @ self.iso
        return float(np.linalg.norm(rot - self.project_to_structure(x), 2))


def _hash_seed(arr: np.ndarray) -> int:
    digest = hashlib.sha256(np.ascontiguousarray(arr).tobytes()).digest()
    return int.from_bytes(digest[:8], "little")


def _herm_basis(basis: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis of the Hermitian part (a real vector space)."""
    cands = np.concatenate([basis + basis.conj().transpose(0, 2, 1),
                            1j * (basis - basis.conj().transpose(0, 2, 1))])
    d = basis.shape[1]
    flat = _vec(cands)
    real_rows = np.concatenate([flat.real, flat.imag], axis=1)
    on = _orthonormalize(real_rows, tol)
    n = flat.shape[1]
    return (on[:, :n] + 1j * on[:, n:]).reshape(-1, d, d)


def _cluster_eigs(vals: np.ndarray, gap: float) -> list[np.ndarray]:
    """Indices grouped by contiguous eigenvalue clusters (sorted input)."""
    groups = [[0]]
    for i in range(1, vals.size):
        if vals[i] - vals[i - 1] > gap:
            groups.append([])
        groups[-1].append(i)
    return [np.asarray(g) for g in groups]


def _compress_basis(basis: np.ndarray, iso: np.ndarray, tol: float) -> np.ndarray:
    comp = np.einsum("pa,kpq,qb->kab", iso.conj(), basis, iso)
    d = iso.shape[1]
    return _orthonormalize(_vec(comp), tol).reshape(-1, d, d)


def _factor_split(block_basis: np.ndarray, rng: np.random.Generator,
                  cluster_gap: float, tol: float):
    """Split one factor-with-multiplicity block: returns (n, m, rotation).

    block_basis spans M_n (x) I_m in unknown coordinates; the rotation W
    satisfies W+ X W = x (x) I_m with the algebra factor leftmost.
    """
    dim_alg = block_basis.shape[0]
    d = block_basis.shape[1]
    herm = _herm_basis(block_basis, tol)
    for attempt in range(MAX_RANDOM_RETRIES):
        g = rng.standard_normal(herm.shape[0])
        h = np.tensordot(g, herm, axes=(0, 0))
        h = (h + h.conj().T) / 2
        vals, vecs = np.linalg.eigh(h)
        groups = _cluster_eigs(vals, cluster_gap)
        sizes = {len(g_) for g_ in groups}
        n = len(groups)
        if len(sizes) != 1 or n * next(iter(sizes)) != d or n * n != dim_alg:
            continue
        m = d // n
        eig_blocks = [vecs[:, g_] for g_ in groups]
        if n == 1:
            return 1, d, eig_blocks[0]
        # Partial isometries from the reference eigenspace to the others.
        y = (np.tensordot(rng.standard_normal(dim_alg), block_basis, axes=(0, 0))
             + 1j * np.tensordot(rng.standard_normal(dim_alg), block_basis, axes=(0, 0)))
        e0 = eig_blocks[0]
        cols = [e0]
        ok = True
        for alpha in range(1, n):
            ea = eig_blocks[alpha]
            # Columns P_alpha Y e0_r, normalized so they are isometric: for
            # a true factor, (P_alpha Y P_0)+(P_alpha Y P_0) = lam P_0.
            sa = ea @ (ea.conj().T @ y @ e0)
            t = sa.conj().T @ sa
            lam = float(np.trace(t).real) / m
            if lam <= 1e-9 or np.linalg.norm(t - lam * np.eye(m), 2) > 1e-6 * max(1.0, lam):
                ok = False
                break
            wa = sa / np.sqrt(lam)
            gram = wa.conj().T @ wa
            if np.linalg.norm(gram - np.eye(m), 2) > 1e-7:
                ok = False
                break
            cols.append(wa)
        if not ok:
            continue
        w = np.hstack(cols)
        if np.linalg.norm(w.conj().T @ w - np.eye(d), 2) > 1e-7:
            continue
        return n, m, w
    raise VerificationError("factor split failed after deterministic retries")


def decompose_structure(algebra: OperatorAlgebra, tols: Tolerances = DEFAULT_TOLS,
                        cluster_gap: float = CLUSTER_GAP) -> BlockStructure:
    """Block decomposition of a *-closed algebra.

    Finds the center by solving commutation equations against the basis,
    splits the support along the spectral projectors of a random Hermitian
    central element, then factors each block into algebra x multiplicity
    via matrix units.  Raises VerificationError if the result fails to
    reproduce the algebra within verify_tol.
    """
    basis = algebra.basis
    m_dim = algebra.dim
    tol = tols.algebra_closure_tol
    rng = np.random.default_rng(_hash_seed(basis))

    # Compress to the support so the unit becomes the full identity.
    supp = algebra.support_projector(tols)
    svals, svecs = np.linalg.eigh(supp)
    iso_supp = svecs[:, svals > 0.5]
    s_dim = iso_supp.shape[1]
    cbasis = _compress_basis(basis, iso_supp, tol)
    if cbasis.shape[0] != m_dim:
        raise VerificationError("support compression changed the algebra dimension")

    # Center: coefficients c with sum_q c_q [B_q, B_k] = 0 for all k.
    prods = np.einsum("qab,kbc->qkac", cbasis, cbasis)
    comm = prods - prods.transpose(1, 0, 2, 3)
    coeff = np.einsum("lab,qkab->lkq", cbasis.conj(), comm)
    a_mat = coeff.reshape(m_dim * m_dim, m_dim)
    _, s_vals, vh = np.linalg.svd(a_mat, full_matrices=False)
    null_mask = s_vals <= tol * max(1.0, s_vals.max(initial=1.0))
    # rows of vh are conjugated right singular vectors; A @ conj(vh[i]) = 0
    center_coeffs = vh[null_mask].conj()
    n_blocks = center_coeffs.shape[0]
    if n_blocks == 0:
        raise VerificationError("center came out empty; input is not an algebra")
    center = np.tensordot(center_coeffs, cbasis, axes=(1, 0))
    cherm = _herm_basis(center, tol)

    # Split the support along a random central element's eigenspaces.
    for attempt in range(MAX_RANDOM_RETRIES):
        g = rng.standard_normal(cherm.shape[0])
        c = np.tensordot(g, cherm, axes=(0, 0))
        c = (c + c.conj().T) / 2
        vals, vecs = np.linalg.eigh(c)
        groups = _cluster_eigs(vals, cluster_gap)
        if len(groups) == n_blocks:
            break
    else:
        raise VerificationError("central element failed to separate the blocks")

    raw_blocks = []
    for g_ in groups:
        v_blk = vecs[:, g_]
        blk_basis = _compress_basis(cbasis, v_blk, tol)
        n, mult, w = _factor_split(blk_basis, rng, cluster_gap, tol)
        raw_blocks.append((n, mult, iso_supp @ (v_blk @ w)))

    # Canonical order: descending total size, then descending factor dim,
    # spectral order of the central element as the final tie-break.
    order = sorted(range(len(raw_blocks)),
                   key=lambda i: (-raw_blocks[i][0] * raw_blocks[i][1],
                                  -raw_blocks[i][0], i))
    blocks = [(raw_blocks[i][0], raw_blocks[i][1]) for i in order]
    iso = np.hstack([raw_blocks[i][2] for i in order])

    structure = BlockStructure(iso, blocks)
    if sum(n * n for n, _ in blocks) != m_dim:
        raise VerificationError(
            f"block dims {blocks} inconsistent with algebra dimension {m_dim}")
    dev = verify_structure(algebra, structure)
    if dev > tols.verify_tol:
        raise VerificationError(f"structure deviation {dev:.3e} exceeds tolerance")
    return structure


def verify_structure(algebra: OperatorAlgebra, structure: BlockStructure) -> float:
    """Max deviation of rotated basis elements from exact block-tensor form."""
    iso = structure.iso
    ortho = float(np.linalg.norm(iso.conj().T @ iso - np.eye(iso.shape[1]), 2))
    dev = ortho
    for b in algebra.basis:
        dev = max(dev, structure.structure_deviation(b))
    return dev
