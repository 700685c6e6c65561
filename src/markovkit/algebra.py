"""Finite-dimensional operator *-algebras and their block structure.

A *-closed algebra of d x d matrices is, up to a unitary change of basis on
its support, a direct sum of full matrix algebras with multiplicity,

    U+ X U  =  (+)_j  x_j (x) I_{m_j},    x_j in M_{n_j},

and its commutant on the support is (+)_j I_{n_j} (x) M_{m_j}.  The blocks
are read from the commutant, a linear system built from the generators
alone (Murota, Kanno, Kojima and Kojima, Japan J. Indust. Appl. Math. 27,
125 (2010)).  ``generate_algebra`` compresses the generators to their
joint support, of dimension r, and reduces them to a Hermitian spanning
set.  It leaves by one of three exits, each exact:

- full span: r^2 spanning elements are all of M_r, whose commutant is
  C I, so the algebra is one factor (r, 1) on the support basis, read
  without any commutant;
- abelian: otherwise one span element h, with fixed weights, is
  diagonalized, its eigenvalues clustered at CLUSTER_GAP.  When every span element is, in
  h's eigenbasis, a constant on each cluster (to algebra_closure_tol), the
  blocks are (1, m_a), one per cluster, on h's eigenvectors.  The cluster
  projectors are spectral projectors of h, and h lies in the algebra, so
  the algebra contains them all; a certificate that every generator is
  constant on each cluster then makes it exactly their span;
- block-diagonal fold: any other commutant is the null space of
  X -> [g, X] over the span.  Every commutant element commutes with h, so
  only X block-diagonal in h's clusters are unknowns (sum_a d_a^2 of them
  instead of r^2), folded a few elements at a time into one triangular
  factor (``_null_space``), so memory is O(r^4).  A non-generic h only
  enlarges that subspace, never cuts the commutant; an abelian guess it
  spoils fails its certificate and falls through to this fold.  A
  one-dimensional commutant again means one factor.

Any larger commutant is split: the support falls into irreducible
subspaces along the eigenspaces of a random Hermitian commutant element,
and equivalent subspaces are joined into blocks where a second random
commutant element links them.  ``verify_structure`` is an exact
certificate: generators of the form (+)_j x_j (x) I_{m_j} and a commutant
of dimension sum_j m_j^2 pin the algebra, by the double commutant theorem,
to (+)_j M_{n_j} (x) I_{m_j}.  generate_algebra certifies every structure
it returns, whichever way it found it, and keeps the certificate with it;
decompose_structure reads it instead of verifying the same structure
again.

h has fixed weights, and the random commutant elements are drawn from a
generator seeded by a hash of the generators, so decompositions are
deterministic functions of their input.

The compression to the support, the commutant's rotations into and out of
h's eigenbasis and a structure's projections map whole stacks of matrices
through qcore's tensor-axis kernel, ``_congruence``.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .qcore import DEFAULT_TOLS, Tolerances, VerificationError, _congruence, support_eigh

__all__ = [
    "OperatorAlgebra",
    "BlockStructure",
    "generate_algebra",
    "decompose_structure",
    "verify_structure",
]

CLUSTER_GAP = 1e-7
MAX_RANDOM_RETRIES = 12
# Hermitian spanning elements whose ad-maps _commutant folds in at once
FOLD_GENERATORS = 8


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
        zero everything off-block, rotate back to structured coordinates.
        x may be a stack of matrices.  Each block's average avg (x) I_m is
        written onto its multiplicity diagonal, with no identity formed.
        Consecutive blocks of equal (n, m), g of them, are one group: their
        averages are read from, and written to, the diagonals over the
        group's (g, m) axes, by one einsum and one strided assignment."""
        rot = _congruence(self.iso.conj().T, x)
        out = np.zeros_like(rot)
        off = 0
        for (n, m), run in itertools.groupby(self.blocks):
            g = len(list(run))
            sl = slice(off, off + g * n * m)
            off = sl.stop
            shape = rot.shape[:-2] + (g, n, m, g, n, m)
            avg = np.einsum("...gargbr->...gab", rot[..., sl, sl].reshape(shape)) / m
            # splitting the group's axes keeps it a view of out, and einsum's
            # diagonal of a view is a writeable view
            np.einsum("...gargbr->...gabr", out[..., sl, sl].reshape(shape))[...] = avg[..., None]
        return out

    def structure_deviation(self, x: np.ndarray):
        """Frobenius distance from x, or from each matrix of a stack, to
        iso ((+)_j M_{n_j} (x) I_{m_j}) iso+."""
        proj = _congruence(self.iso, self.project_to_structure(x))
        return np.linalg.norm(x - proj, axis=(-2, -1))


@dataclass
class OperatorAlgebra:
    """The *-algebra generated by some d x d matrices and the identity on
    their joint support, held as its generators and its block structure.

    certificate is verify_structure(self, self.structure) as
    generate_algebra computed it when it certified the structure; an
    algebra built any other way has None and is verified from scratch.
    """

    ambient_dim: int
    generators: np.ndarray  # (k, d, d), as given
    support_dim: int  # rank of the generators' joint support
    commutant_dim: int  # of the commutant on that support
    structure: BlockStructure
    certificate: float | None = field(default=None, init=False, repr=False,
                                      compare=False)

    @property
    def dim(self) -> int:
        return sum(n * n for n, _ in self.structure.blocks)


def _largest_norm(mats: np.ndarray) -> float:
    return float(np.linalg.norm(mats, axis=(1, 2)).max())


def _hash_seed(arr: np.ndarray) -> int:
    digest = hashlib.sha256(np.ascontiguousarray(arr).tobytes()).digest()
    return int.from_bytes(digest[:8], "little")


def _cluster_eigs(vals: np.ndarray, gap: float) -> list[np.ndarray]:
    """Indices grouped by contiguous eigenvalue clusters (sorted input)."""
    groups = [[0]]
    for i in range(1, vals.size):
        if vals[i] - vals[i - 1] > gap:
            groups.append([])
        groups[-1].append(i)
    return [np.asarray(g) for g in groups]


def _hermitian_span(mats: np.ndarray, tol: float) -> np.ndarray:
    """Frobenius-orthonormal Hermitian matrices spanning the Hermitian and
    anti-Hermitian parts of mats; singular values below tol times the
    largest are dropped.  A stack taller than wide is first reduced to its
    triangular QR factor, which has the same singular values and row
    space, so no left singular vectors of the whole stack are formed."""
    adj = mats.conj().transpose(0, 2, 1)
    herm = np.concatenate([mats + adj, 1j * (mats - adj)])
    flat = herm.reshape(herm.shape[0], -1)
    real = np.concatenate([flat.real, flat.imag], axis=1)
    if real.shape[0] > real.shape[1]:
        real = np.linalg.qr(real, mode="r")
    _, s, vh = np.linalg.svd(real, full_matrices=False)
    rows = vh[s > tol * s[0]]
    half = flat.shape[1]
    return (rows[:, :half] + 1j * rows[:, half:]).reshape((-1,) + mats.shape[1:])


def _null_space(stack, tol: float) -> np.ndarray:
    """Orthonormal rows spanning the common null space of a sequence of
    matrices with one column count N, conjugated so that each row v has
    a v = 0 for every matrix a.

    Each matrix is folded into a running triangular factor,
    R <- qr([R; a], mode="r"), so only R (at most N x N) and one matrix
    are held at a time.  The stack and R share their singular values, and
    an SVD of R keeps them unsquared, so the cut at tol, times the largest
    when that exceeds 1, sits above rounding noise, where eigenvalues of
    the Gram matrix would not.
    """
    r = None
    for a in stack:
        r = np.linalg.qr(a if r is None else np.concatenate([r, a]), mode="r")
    _, s, vh = np.linalg.svd(r)
    # a factor with fewer rows than N has N - rows zero singular values
    s = np.concatenate([s, np.zeros(vh.shape[0] - s.size)])
    return vh[s <= tol * max(1.0, s[0])].conj()


def _ad_maps(herm: np.ndarray) -> np.ndarray:
    """The stacked maps X -> hX - Xh of a (k, r, r) stack, as a (k r^2, r^2)
    matrix on row-major vec(X): entry ((a, b), (c, d)) of h's map is
    h_ac delta_bd - delta_ac h_db."""
    k, r, _ = herm.shape
    maps = np.zeros((k, r, r, r, r), dtype=complex)
    diag = np.arange(r)
    maps[:, :, diag, :, diag] = herm
    maps[:, diag, :, diag, :] -= herm.transpose(0, 2, 1)
    return maps.reshape(k * r * r, r * r)


def _commutant(herm: np.ndarray, tol: float, *, basis=None) -> np.ndarray:
    """Frobenius-orthonormal basis of {X : hX = Xh for every h in herm}.

    It is the null space of the stacked ad-maps X -> hX - Xh, cut at tol
    by ``_null_space``; the maps are built and folded FOLD_GENERATORS
    elements at a time, so memory stays O(r^4).  basis = (vecs, clusters)
    gives the eigenvectors of a Hermitian element of the algebra and its
    eigenvalue clusters as ``_cluster_eigs`` returns them (consecutive
    index ranges, in order); every commutant element is then
    block-diagonal in those clusters, and only those entries are unknowns.
    Without it, the standard basis is one cluster and all r^2 are.
    """
    k, r, _ = herm.shape
    vecs, clusters = basis or (np.eye(r), [np.arange(r)])
    herm = _congruence(vecs.conj().T, herm)
    label = np.repeat(np.arange(len(clusters)), [c.size for c in clusters])
    cols = np.flatnonzero(label[:, None] == label)
    chunks = (_ad_maps(herm[i:i + FOLD_GENERATORS])[:, cols]
              for i in range(0, k, FOLD_GENERATORS))
    null = _null_space(chunks, tol)
    comm = np.zeros((len(null), r * r), dtype=complex)
    comm[:, cols] = null
    return _congruence(vecs, comm.reshape(-1, r, r))


def _split_commutant(comm: np.ndarray, rng: np.random.Generator,
                     link_tol: float):
    """Blocks and isometry (support coordinates) read from the commutant.

    The eigenspaces E_a of a random Hermitian commutant element are the
    irreducible subspaces.  E_a and E_b are equivalent, so share a block,
    when a random commutant element Y links them (|E_a+ Y E_b| > link_tol
    times |Y|); E_a+ Y E_1 is then a multiple of a unitary, and E_a times
    that unitary's part is E_a in the basis of the block's first subspace
    E_1.  Columns are ordered (algebra factor, multiplicity), the
    multiplicity index fastest.
    """
    r = comm.shape[1]

    def draw():
        z = rng.standard_normal((2, comm.shape[0]))
        return np.tensordot(z[0] + 1j * z[1], comm, axes=1)

    h = draw()
    vals, vecs = np.linalg.eigh((h + h.conj().T) / 2)
    y = draw()
    cut = link_tol * np.linalg.norm(y)
    groups: list[list[np.ndarray]] = []
    for idx in _cluster_eigs(vals, CLUSTER_GAP):
        e = vecs[:, idx]
        for group in groups:
            if group[0].shape != e.shape:
                continue
            link = e.conj().T @ y @ group[0]
            if np.linalg.norm(link) > cut:
                u, _, vh = np.linalg.svd(link)
                group.append(e @ (u @ vh))
                break
        else:
            groups.append([e])

    # canonical order: descending n*m, then descending n, then discovery
    dims = [(g[0].shape[1], len(g)) for g in groups]
    order = sorted(range(len(groups)),
                   key=lambda i: (-dims[i][0] * dims[i][1], -dims[i][0], i))
    iso = np.hstack([np.stack(groups[i], axis=2).reshape(r, -1) for i in order])
    return [dims[i] for i in order], iso


def generate_algebra(generators, tols: Tolerances = DEFAULT_TOLS) -> OperatorAlgebra:
    """Smallest *-algebra containing the generators and the identity on
    their joint support, with its certified block structure.

    The generators come as one (k, d, d) array (anything np.array reads
    as one), copied once.  They are compressed to their joint support (the
    support of sum g g+ + g+ g, read by qcore.support_eigh) and reduced
    to an orthonormal Hermitian spanning set, cut at algebra_closure_tol.
    A span of r^2 elements on an r-dimensional support gives one block
    (r, 1) on the support basis.  Otherwise one fixed-weight span element
    h is diagonalized: when every span element, in h's eigenbasis, is within
    algebra_closure_tol (Frobenius) of a constant on each of h's eigenvalue
    clusters, those clusters are tried as the abelian blocks (1, m_a).
    Failing that, the commutant is folded in h's eigenbasis (cut at
    algebra_closure_tol); one of dimension one again gives the one block,
    and any other is split by random elements until verify_structure
    certifies the result within verify_tol.  The algebra keeps its
    certificate.  Raises VerificationError when nothing is certified:
    neither the one factor nor any of MAX_RANDOM_RETRIES seeded splits.
    """
    gens = np.array(generators, dtype=complex)
    if not len(gens):
        raise ValueError("generate_algebra needs at least one generator")
    if gens.ndim != 3 or gens.shape[1] != gens.shape[2]:
        raise ValueError(f"generators must form a (k, d, d) array, got shape {gens.shape}")
    d = gens.shape[1]

    # sum_k g_k g_k+ + g_k+ g_k, each sum one product of the stacked generators
    side = gens.transpose(1, 0, 2).reshape(d, -1)
    tall = gens.reshape(-1, d)
    _, support, _, _ = support_eigh(side @ side.conj().T + tall.conj().T @ tall,
                                    tols.support_cutoff_rel)
    if not support.shape[1]:
        raise ValueError("generators are all zero")
    r = support.shape[1]
    tol = tols.algebra_closure_tol
    herm = _hermitian_span(_congruence(support.conj().T, gens), tol)

    def certified(comm_dim, splits):
        for blocks, iso in splits:
            algebra = OperatorAlgebra(d, gens, r, comm_dim,
                                      BlockStructure(support @ iso, blocks))
            algebra.certificate = verify_structure(algebra, algebra.structure)
            if algebra.certificate <= tols.verify_tol:
                return algebra
        return None

    factor = [([(r, 1)], np.eye(r))]  # one block on the support basis, no draw
    if len(herm) == r * r:  # r^2 spanning elements span M_r, commutant CI
        algebra = certified(1, factor)
    else:
        # one span element with fixed weights; its eigenbasis serves both exits
        h = (np.sqrt(np.arange(2.0, len(herm) + 2)) @ herm.reshape(len(herm), -1)
             ).reshape(r, r)
        vals, vecs = np.linalg.eigh(h)
        clusters = _cluster_eigs(vals, CLUSTER_GAP)
        algebra = None
        # [g, h] = g h - (g h)+ for Hermitian g, h.  A span within tol of
        # constants on the clusters has commutators with h below 2 tol |h|,
        # so this screen never refuses what the cluster test keeps
        gh = herm @ h
        if (np.linalg.norm(gh - gh.conj().transpose(0, 2, 1), axis=(1, 2)).max()
                <= 2 * tol * np.linalg.norm(h)):
            # abelian: (1, m_a) per cluster, larger m first, then in order
            sizes = [c.size for c in clusters]
            order = sorted(range(len(clusters)), key=lambda a: -sizes[a])
            abelian = BlockStructure(
                vecs[:, np.concatenate([clusters[a] for a in order])],
                [(1, sizes[a]) for a in order])
            if abelian.structure_deviation(herm).max() <= tol:
                algebra = certified(sum(m * m for m in sizes),
                                    [(abelian.blocks, abelian.iso)])
        if algebra is None:
            comm = _commutant(herm, tol, basis=(vecs, clusters))
            splits = factor
            if len(comm) > 1:
                rng = np.random.default_rng(_hash_seed(gens))
                splits = (_split_commutant(comm, rng, tols.verify_tol)
                          for _ in range(MAX_RANDOM_RETRIES))
            algebra = certified(len(comm), splits)
    if algebra is None:
        raise VerificationError("commutant split failed after deterministic retries")
    return algebra


def decompose_structure(algebra: OperatorAlgebra,
                        tols: Tolerances = DEFAULT_TOLS) -> BlockStructure:
    """The algebra's block structure, as found by ``generate_algebra``.

    Raises VerificationError if verify_structure puts it beyond verify_tol.
    An algebra from generate_algebra carries that value as its certificate,
    which is read instead of verifying again; any other is verified here.
    """
    dev = algebra.certificate
    if dev is None:
        dev = verify_structure(algebra, algebra.structure)
    if dev > tols.verify_tol:
        raise VerificationError(f"structure deviation {dev:.3e} exceeds tolerance")
    return algebra.structure


def verify_structure(algebra: OperatorAlgebra, structure: BlockStructure) -> float:
    """Certificate that structure is the algebra's block structure.

    Infinite when the structure's support dimension differs from the
    algebra's or its commutant dimension sum_j m_j^2 differs from the
    computed commutant's.  Otherwise the larger of the isometry's deviation
    from orthonormal columns and the largest generator's distance from the
    structured algebra relative to the largest generator, both Frobenius.
    A zero result makes, by the double commutant theorem, the algebra
    exactly the structured one.
    """
    if (structure.support_dim != algebra.support_dim
            or sum(m * m for _, m in structure.blocks) != algebra.commutant_dim):
        return math.inf
    iso = structure.iso
    dev = float(np.linalg.norm(iso.conj().T @ iso - np.eye(iso.shape[1])))
    worst = structure.structure_deviation(algebra.generators).max()
    return max(dev, float(worst) / _largest_norm(algebra.generators))
