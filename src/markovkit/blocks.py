"""The padded block format shared by the Koashi-Imoto and Markov splittings.

Both splittings write part of a space H as a direct sum of two-factor
products and the state as a weighted sum of block products,

    H  >=  (+)_j  L_j (x) R_j,      rho  =  (+)_j  w_j  left_j (x) right_j,

stored behind one padded isometry gamma: H -> J (x) L (x) R with dims
(J, L, R) = (number of blocks, max dim L_j, max dim R_j).  Block j occupies
slice j of J, L indices below dim L_j and R indices below dim R_j, R
fastest; gamma+ gamma projects onto the part of H the blocks cover.  The
state may carry an untouched system X on the left factor's side and Y on
the right factor's: left_j lives on X (x) L_j and right_j on R_j (x) Y.

``ki_decompose`` reads the format with (L, R) = (aL, aR), X trivial and
Y = C; ``markov_decompose`` with (L, R) = (bL, bR), X = A and Y = C.
Blocks are put in canonical order (descending weight, then ascending
(dim L_j, dim R_j), then discovery order) so repeated runs agree bitwise.
"""

from __future__ import annotations

import numpy as np

from .qcore import SystemLayout, VerificationError


def _hermitian_operator_basis(d: int) -> list[np.ndarray]:
    """The d^2 matrix units |k><k|, |k><l| + |l><k|, -i|k><l| + i|l><k|."""
    ops = []
    for k in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[k, k] = 1.0
        ops.append(e)
    for k in range(d):
        for l in range(k + 1, d):
            x = np.zeros((d, d), dtype=complex)
            x[k, l] = x[l, k] = 1.0
            ops.append(x)
            y = np.zeros((d, d), dtype=complex)
            y[k, l] = -1j
            y[l, k] = 1j
            ops.append(y)
    return ops


def conditional_operators(rho4: np.ndarray, inv_sqrt: np.ndarray,
                          probe_dim: int) -> list[np.ndarray]:
    """Operators on S reachable by probing the other side X of a state.

    rho4 carries the state as an (S, X, S, X) tensor and inv_sqrt is the
    inverse square root of rho^S; each Hermitian Y on X gives
    inv_sqrt Tr_X[rho (I (x) Y)] inv_sqrt.  The family spans the range of
    the conditional expectation onto S, whose algebra is the splitting.
    """
    ops = []
    for y in _hermitian_operator_basis(probe_dim):
        t = np.einsum("ce,aeqc->aq", y, rho4)
        ops.append(inv_sqrt @ t @ inv_sqrt)
    return ops


def factor_block(block: np.ndarray, min_weight: float, tol: float | None = None):
    """Weight and normalized marginals of one block of a state.

    block is the state's compression to one block, as a (left, right, left,
    right) tensor.  Returns None when its trace is at most min_weight, else
    (weight, left marginal / weight, right marginal / weight).  With tol
    given, raises VerificationError unless the block equals
    weight * left (x) right to within tol in operator norm.
    """
    weight = float(np.einsum("arar->", block).real)
    if weight <= min_weight:
        return None
    left = np.einsum("arbr->ab", block) / weight
    right = np.einsum("arat->rt", block) / weight
    if tol is not None:
        dim = block.shape[0] * block.shape[1]
        product = weight * np.einsum("ab,rt->arbt", left, right)
        resid = np.linalg.norm((block - product).reshape(dim, dim), 2)
        if resid > tol:
            raise VerificationError(
                f"block fails to factor as left (x) right (residual {resid:.2e})")
    return weight, left, right


def canonical_order(weights, shapes) -> list[int]:
    """Block indices by descending weight, then (dim L, dim R), then index."""
    return sorted(range(len(weights)),
                  key=lambda i: (-weights[i], tuple(shapes[i]), i))


def padded_isometry(columns) -> tuple[np.ndarray, tuple[int, int, int]]:
    """gamma and its dims from each block's isometry into H.

    columns[j] has shape (dim H, dim L_j, dim R_j): the images in H of block
    j's product basis.  Row (j, l, r) of gamma is the conjugate of column
    (l, r) of block j; padding rows are zero.
    """
    d = columns[0].shape[0]
    dims = (len(columns), max(c.shape[1] for c in columns),
            max(c.shape[2] for c in columns))
    gamma = np.zeros(dims + (d,), dtype=complex)
    for j, cols in enumerate(columns):
        gamma[j, : cols.shape[1], : cols.shape[2], :] = \
            cols.transpose(1, 2, 0).conj()
    return gamma.reshape(-1, d), dims


def padded_layout(side: str, dims) -> SystemLayout:
    """Layout (side0, sideL, sideR) of the padded target with dims (J, L, R)."""
    return SystemLayout.of(*((side + tag, d) for tag, d in zip("0LR", dims)))


def block_slice(gamma: np.ndarray, dims, j: int, l: int, r: int) -> np.ndarray:
    """Rows of gamma belonging to block j (native dims l, r): (l, r, dim H)."""
    return gamma.reshape(tuple(dims) + (-1,))[j, :l, :r, :]


def kernel_projector(gamma: np.ndarray) -> np.ndarray:
    """I - gamma+ gamma: the projector onto the part of H no block covers."""
    return np.eye(gamma.shape[1]) - gamma.conj().T @ gamma


def kernel_kraus(gamma: np.ndarray, tol: float) -> list[np.ndarray]:
    """The Kraus operator completing a block-wise channel on the uncovered
    part of H: [kernel_projector(gamma)], or [] when that is below tol."""
    ker = kernel_projector(gamma)
    return [ker] if np.linalg.norm(ker, 2) > tol else []


def block_state(dims, blocks, d_x: int = 1, d_y: int = 1) -> np.ndarray:
    """sum_j w_j |j><j| (x) left_j (x) right_j on (X, J, L, R, Y), padded.

    blocks lists (w_j, left_j, right_j) per block j, or None for an empty
    block; left_j is on X (x) L_j and right_j on R_j (x) Y.
    """
    d0, dl, dr = dims
    out = np.zeros((d_x, d0, dl, dr, d_y) * 2, dtype=complex)
    for j, blk in enumerate(blocks):
        if blk is None:
            continue
        w, left, right = blk
        l, r = left.shape[0] // d_x, right.shape[0] // d_y
        out[:, j, :l, :r, :, :, j, :l, :r, :] = w * np.einsum(
            "xlym,rcsd->xlrcymsd", left.reshape(d_x, l, d_x, l),
            right.reshape(r, d_y, r, d_y))
    dim = d_x * d0 * dl * dr * d_y
    return out.reshape(dim, dim)


def pull_back(mat: np.ndarray, gamma: np.ndarray, d_x: int = 1,
              d_y: int = 1) -> np.ndarray:
    """(I_X (x) gamma (x) I_Y)+ mat (I_X (x) gamma (x) I_Y): from the padded
    (X, J, L, R, Y) coordinates back to (X, H, Y)."""
    g = np.kron(np.kron(np.eye(d_x), gamma), np.eye(d_y))
    return g.conj().T @ mat @ g
