"""The splitting core and padded block format of the Koashi-Imoto and
Markov decompositions.

Both decompositions write part of a space S as a direct sum of two-factor
products and a state on (X, S, Y) as a weighted sum of block products,

    S  >=  (+)_j  L_j (x) R_j,      rho  =  (+)_j  w_j  left_j (x) right_j,

with left_j on X (x) L_j and right_j on R_j (x) Y.  ``ki_decompose`` runs
it with X trivial, S = A and Y = C, so (L, R) = (aL, aR);
``markov_decompose`` with X = A, S = B and Y = C, so (L, R) = (bL, bR).
``split_state`` is the one pipeline behind both:

1. rho_S^{-1/2} and the span of the Y-steered conditional operators
   T_Y = rho_S^{-1/2} Tr_{XY}[(I (x) Y) rho] rho_S^{-1/2}, read without a
   probe per Y: the rows of the triangular QR factor of the realigned
   marginal M[(c, e), (s, s')] = Tr_Y[rho_SY (I (x) |c><e|)][s, s'], at most
   dim S^2 of them, sandwiched by rho_S^{-1/2} (``steered_span``).  When
   dim X > 1 the X-steered span joins them, after a check that the two
   families commute (one batched product over both spans); with dim X = 1
   the X-steered family is only the support projector and is skipped.
2. ``generate_algebra`` and ``decompose_structure`` read the blocks of the
   algebra the operators generate on supp(rho_S).  With dim X = 1 each
   block's algebra factor is R_j and its multiplicity L_j.  Otherwise the
   Y-steered operators, compressed to a block's factor, must generate a
   factor M_{R_j}; its tensor complement together with the block's
   multiplicity is L_j.
3. Each block of the rotated state must factor as w_j left_j (x) right_j
   (``factor_block`` at verify_tol), and coherence between blocks must
   vanish, or the direct sum is not faithful.
4. The blocks are put in canonical order (descending weight, then
   ascending (dim L_j, dim R_j), then discovery order), so repeated runs
   agree bitwise, and stored behind one padded isometry (below); the block
   form pulled back through it must reproduce the state to verify_tol.

Every check raises VerificationError.  The operator-norm checks (the
product residual, the between-block coherence, the reconstruction and the
kernel test) are screened by the Frobenius norm, an upper bound on the
operator norm, and take an SVD only when the screen fails
(qcore._spectral_norm_above), so their verdicts and reported values are
the spectral ones.  The padded isometry
gamma: S -> J (x) L (x) R has dims (J, L, R) = (number of blocks,
max dim L_j, max dim R_j).  Block j occupies slice j of J, L indices below
dim L_j and R indices below dim R_j, R fastest; gamma+ gamma projects onto
the part of S the blocks cover.  A block form on (X, J L R, Y) is carried
back to (X, S, Y) by qcore's one tensor-axis kernel with op = gamma+,
``_congruence(gamma.conj().T, form, d_x, d_y)``, and the state is rotated
into the blocks by the same kernel, so no identity on X or Y is ever
Kronecker-expanded.

Kraus sets come as stacks: ``refill_kraus`` returns a block's operators as
one (k, d_out, dim S) array and ``kernel_kraus`` the completion on the
uncovered part as a (1, d, d) or (0, d, d) one, so a block-wise channel
is one concatenation of them.
"""

from __future__ import annotations

import numpy as np

from .algebra import decompose_structure, generate_algebra
from .qcore import (
    DensityState,
    Tolerances,
    VerificationError,
    matrix_function,
    partial_trace,
    support_eigh,
    _congruence,
    _spectral_norm_above,
)

# I(X:Y|S) at or below this counts as zero in markov_decompose; it also
# floors the relative commutator bound between the X- and Y-steered operators
MARKOV_TOL = 1e-9


def steered_span(rho4: np.ndarray, inv_sqrt: np.ndarray) -> np.ndarray:
    """Operators on S spanning everything reachable by probing the other
    side X of a state.

    rho4 carries the state as an (S, X, S, X) tensor and inv_sqrt is the
    inverse square root of rho^S.  Each operator Y on X gives
    inv_sqrt Tr_X[rho (I (x) Y)] inv_sqrt, and these span the range of the
    conditional expectation onto S, whose algebra is the splitting.  That
    span is the row space of the realigned marginal
    M[(c, e), (s, s')] = Tr_X[rho (I (x) |c><e|)][s, s'], so it is read
    from the rows of M's triangular QR factor, at most dim S^2 of them,
    each sandwiched by inv_sqrt, instead of one operator per probe.  Every
    probe's operator is a linear combination of those rows, so a structure
    certified on the rows holds for each probe up to the combination's norm.
    """
    d_s, d_x = rho4.shape[:2]
    rows = np.linalg.qr(rho4.transpose(3, 1, 0, 2).reshape(d_x * d_x, d_s * d_s),
                        mode="r")
    return inv_sqrt @ rows.reshape(-1, d_s, d_s) @ inv_sqrt


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
        resid = _spectral_norm_above((block - product).reshape(dim, dim), tol)
        if resid is not None:
            raise VerificationError(
                f"block fails to factor as left (x) right (residual {resid:.2e})")
    return weight, left, right


def canonical_order(weights, shapes) -> list[int]:
    """Block indices by descending weight, then (dim L, dim R), then index."""
    return sorted(range(len(weights)),
                  key=lambda i: (-weights[i], tuple(shapes[i]), i))


def padded_isometry(columns) -> tuple[np.ndarray, tuple[int, int, int]]:
    """gamma and its dims from each block's isometry into S.

    columns[j] has shape (dim S, dim L_j, dim R_j): the images in S of block
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


def block_slice(gamma: np.ndarray, dims, j: int, l: int, r: int) -> np.ndarray:
    """Rows of gamma belonging to block j (native dims l, r): (l, r, dim S)."""
    return gamma.reshape(tuple(dims) + (-1,))[j, :l, :r, :]


def kernel_projector(gamma: np.ndarray) -> np.ndarray:
    """I - gamma+ gamma: the projector onto the part of S no block covers."""
    return np.eye(gamma.shape[1]) - gamma.conj().T @ gamma


def kernel_kraus(gamma: np.ndarray, tol: float) -> np.ndarray:
    """The Kraus operator completing a block-wise channel on the uncovered
    part of S, as a stack: kernel_projector(gamma) in a (1, d, d) stack, or
    a (0, d, d) stack when its spectral norm is at most tol."""
    ker = kernel_projector(gamma)[None]
    return ker if _spectral_norm_above(ker[0], tol) is not None else ker[:0]


def refill_kraus(rows: np.ndarray, tau: np.ndarray, d_new: int,
                 cutoff_rel: float, side: str) -> np.ndarray:
    """Kraus operators of X -> tau (x) Tr_side[rows X rows+], read back into S.

    rows is one block's ``block_slice`` (l, r, dim S); side is "L" or "R".
    With side "L" the L factor is traced and tau, on N (x) L, refills it,
    N a new system of dim d_new placed before S; with side "R" tau is on
    R (x) N and N comes after S.  The operators run over tau's eigenpairs
    (``support_eigh`` at cutoff_rel), then over the traced index, as one
    (k, d_new dim S, dim S) stack; for tr tau = 1 their sum of K+ K is
    rows+ rows.
    """
    l, r, d_s = rows.shape
    vals, vecs, _, _ = support_eigh(tau, cutoff_rel)
    v = (vecs * np.sqrt(vals)).T
    if side == "L":
        out = np.einsum("knl,lrs->knsr", v.reshape(-1, d_new, l), rows.conj())
        kraus = np.einsum("knsr,mrt->kmnst", out, rows)
    else:
        out = np.einsum("lrs,krn->klsn", rows.conj(), v.reshape(-1, r, d_new))
        kraus = np.einsum("klsn,lmt->kmsnt", out, rows)
    return kraus.reshape(-1, d_new * d_s, d_s)


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


def split_state(state: DensityState, x, s, y, tols: Tolerances):
    """Split supp(rho_S) of a state laid out as (x, s, y) into block products.

    x, s and y are label tuples; x may be empty.  Runs the pipeline of the
    module docstring and returns (gamma, dims, blocks), blocks in canonical
    order as (w_j, left_j, right_j, dim L_j, dim R_j) with Hermitian left_j
    on X (x) L_j and right_j on R_j (x) Y.
    """
    d_x, d_s, d_y = (state.layout.dim_of(g) for g in (x, s, y))
    inv_sqrt = matrix_function(partial_trace(state, s).matrix, -0.5, tols)
    sy = partial_trace(state, s + y).matrix.reshape(d_s, d_y, d_s, d_y)
    gens_y = gens = steered_span(sy, inv_sqrt)
    if d_x > 1:
        xs = partial_trace(state, x + s).matrix.reshape(
            d_x, d_s, d_x, d_s).transpose(1, 0, 3, 2)
        gens_x = steered_span(xs, inv_sqrt)
        # Frobenius commutators of every pair, relative to the largest
        # spanning operator on each side
        scale = (np.linalg.norm(gens_x, axis=(1, 2)).max()
                 * np.linalg.norm(gens_y, axis=(1, 2)).max())
        pairs = gens_x[:, None] @ gens_y - gens_y @ gens_x[:, None]
        comm = float(np.linalg.norm(pairs, axis=(2, 3)).max() / scale)
        if comm > max(MARKOV_TOL, 100 * tols.algebra_closure_tol):
            raise VerificationError(
                f"steered algebras do not commute (deviation {comm:.3e})")
        gens = np.concatenate([gens_x, gens_y])
    structure = decompose_structure(generate_algebra(gens, tols), tols)

    columns = []  # per block, its (d_s, dim L, dim R) columns in S
    for (n, m), sl in zip(structure.blocks, structure.block_slices()):
        u = structure.iso[:, sl].reshape(d_s, n, m)
        if d_x == 1:  # the algebra factor is R, its multiplicity L
            columns.append(u.transpose(0, 2, 1))
            continue
        # split the Y-steered factor off the block's algebra factor
        reduced = np.einsum("pak,cpq,qbk->cab", u.conj(), gens_y, u) / m
        sub = decompose_structure(
            generate_algebra(np.concatenate([reduced, np.eye(n)[None]]), tols), tols)
        if len(sub.blocks) != 1:
            raise VerificationError(
                "C-steered algebra fails to be a factor inside a central block")
        r, l = sub.blocks[0]
        # rotate the factor coordinate, then regroup (l, m) into one L index
        cols = np.einsum("bak,aw->bwk", u, sub.iso).reshape(d_s, r, l, m)
        columns.append(cols.transpose(0, 2, 3, 1).reshape(d_s, l * m, r))

    # rotate the state, factor each block and clear it from the off-block rest
    w = np.hstack([c.reshape(d_s, -1) for c in columns])
    k = w.shape[1]
    off = _congruence(w.conj().T, state.matrix, d_x, d_y).reshape(
        d_x, k, d_y, d_x, k, d_y)
    blocks, start = [], 0
    for c in columns:
        _, l, r = c.shape
        sl = slice(start, start + l * r)
        start = sl.stop
        blk = off[:, sl, :, :, sl, :].reshape(d_x * l, r * d_y, d_x * l, r * d_y)
        split = factor_block(blk, tols.support_cutoff_rel, tols.verify_tol)
        if split is None:
            raise VerificationError("block with vanishing weight")
        weight, left, right = split
        blocks.append((weight, (left + left.conj().T) / 2,
                       (right + right.conj().T) / 2, l, r))
        off[:, sl, :, :, sl, :] = 0.0
    dim = d_x * k * d_y
    off_norm = _spectral_norm_above(off.reshape(dim, dim), tols.verify_tol)
    if off_norm is not None:
        raise VerificationError(
            f"between-block coherence {off_norm:.2e} breaks the direct sum")

    order = canonical_order([b[0] for b in blocks], [b[3:] for b in blocks])
    gamma, dims = padded_isometry([columns[i] for i in order])
    blocks = [blocks[i] for i in order]
    recon = _congruence(gamma.conj().T,
                        block_state(dims, [b[:3] for b in blocks], d_x, d_y), d_x, d_y)
    dev = _spectral_norm_above(recon - state.matrix, tols.verify_tol)
    if dev is not None:
        raise VerificationError(f"reconstruction deviation {dev:.2e}")
    return gamma, dims, blocks
