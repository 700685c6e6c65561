"""Core linear algebra for labeled multipartite quantum states.

Subsystems are named and ordered.  The joint basis index is row-major with
the leftmost subsystem most significant: for dims (d0, d1, ..., dk) the
product basis vector |i0 i1 ... ik> sits at index
i0*(d1*...*dk) + i1*(d2*...*dk) + ... + ik.  This matches the convention of
numpy.kron applied left to right.

All entropies and entropy-derived quantities are in bits (log base 2).

An operator acting on some of a state's tensor axes is applied by one
two-matmul kernel, ``_congruence``, with the other axes batched over, so
no identity factor is ever Kronecker-expanded.  The same kernel maps a
stack of matrices (..., d, d), as the algebra engine's compressions,
rotations and projections need, right side first: one GEMM of the whole
flattened stack by op^dagger, then one by op.

A Kraus-form sum, sum_k (K_k (x) I_Y) M (K_k (x) I_Y)^dagger, is one
product too, ``_kraus_sum``: one stacked left matmul of every K_k at once
and one GEMM over (k, d_in).  Its stack, like every stack of candidate
states, is split into chunks at one entry budget, ``_STACK_ENTRIES``.

A SystemLayout resolves its labels, dimensions and label -> axis map once,
when it is built, and refuses a subsystem name that no label spec could
address.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "SystemLayout",
    "DensityState",
    "PureState",
    "Tolerances",
    "VerificationError",
    "DEFAULT_TOLS",
    "check_density",
    "kron_all",
    "partial_trace",
    "reorder",
    "reorder_vector",
    "matrix_function",
    "von_neumann_entropy",
    "entropy_of_spectrum",
    "qcmi",
    "trace_norm",
    "trace_distance",
    "fidelity",
    "eta0",
    "eta",
    "binary_entropy",
    "recovery_error_bound",
    "parse_three_groups",
    "random_unitary",
    "random_pure",
    "random_state",
]

# Cap of -x*log2(x), attained at x = 1/e.
_ETA0_CAP = math.log2(math.e) / math.e
# A screen passes a check only below bound * _SCREEN_HEADROOM: rounding
# headroom, far beyond the rounding by which a screen's norm and the exact
# one can disagree, not a tolerance.
_SCREEN_HEADROOM = 1.0 - 1e-10
# Entries of one stacked operand (candidate states, or a Kraus set's left
# products), above which the stack is split into chunks.
_STACK_ENTRIES = 1 << 18


class VerificationError(RuntimeError):
    """A numerical invariant that should hold failed beyond tolerance."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used across the package.

    support_cutoff_rel: an eigenvalue is support iff it exceeds this
        fraction of the largest one, so a negative eigenvalue never is; the
        rest are treated as zero (support / pseudo-inverse decisions).
        Refusing an indefinite matrix is separate: only an eigenvalue below
        -verify_tol, the bound of state validation, is refused.
    algebra_closure_tol: rank cutoff for the Hermitian span of an algebra's
        generators and for the null space that is their commutant.
    verify_tol: acceptance threshold for reconstruction and invariant checks.
    """

    support_cutoff_rel: float = 1e-10
    algebra_closure_tol: float = 1e-9
    verify_tol: float = 1e-8


DEFAULT_TOLS = Tolerances()


def _split_labels(text: str) -> tuple[str, ...]:
    """The comma-separated labels of text, stripped, empty entries dropped."""
    return tuple(l.strip() for l in text.split(",") if l.strip())


@dataclass(frozen=True)
class SystemLayout:
    """Ordered collection of named subsystems with their dimensions.

    A name must be a string that a label spec can address: nonempty, with
    no comma, no "|" and no surrounding whitespace.  A dimension must be a
    positive integer, not a bool; a numpy integer is stored as int.
    labels, dims, total_dim and the label -> axis map are set once, when
    the layout is built; equality and hash read subsystems alone.
    """

    subsystems: tuple[tuple[str, int], ...]

    def __post_init__(self):
        labels = tuple(name for name, _ in self.subsystems)
        for name, d in self.subsystems:
            # exactly the names _split_labels returns unchanged, less any "|"
            if not (isinstance(name, str) and name and name == name.strip()
                    and "," not in name and "|" not in name):
                raise ValueError(f"subsystem {name!r} cannot be named by a label spec")
            if type(d) is not int and not isinstance(d, np.integer):  # a bool is an int too
                raise ValueError(f"subsystem {name!r} has non-integer dimension {d!r}")
            if d < 1:
                raise ValueError(f"subsystem {name!r} has nonpositive dimension {d}")
        axes = {name: i for i, name in enumerate(labels)}
        if len(axes) != len(labels):
            raise ValueError(f"duplicate subsystem labels in {list(labels)}")
        dims = tuple([int(d) for _, d in self.subsystems])  # numpy integers as int
        # the layout is immutable, so these are resolved once
        for attr, value in (("subsystems", tuple(zip(labels, dims))), ("labels", labels),
                            ("dims", dims), ("total_dim", math.prod(dims)), ("_axes", axes)):
            object.__setattr__(self, attr, value)

    @classmethod
    def of(cls, *parts: tuple[str, int]) -> "SystemLayout":
        # dims pass unchanged: __post_init__ refuses any non-integer or bool
        return cls(tuple((str(n), d) for n, d in parts))

    def labels_of(self, spec) -> tuple[str, ...]:
        """The labels a spec names, in the spec's order.

        A string names comma-separated labels ("A" or "A, B"; whitespace is
        stripped and empty entries dropped), a sequence names its items.
        Raises ValueError for an unknown or a repeated label.
        """
        labels = _split_labels(spec) if isinstance(spec, str) else tuple(spec)
        for l in labels:
            self.position(l)
        if len(set(labels)) != len(labels):
            raise ValueError(f"repeated labels in {labels}")
        return labels

    def dim_of(self, spec) -> int:
        return math.prod(self.dims[self.position(l)] for l in self.labels_of(spec))

    def position(self, label: str) -> int:
        try:
            return self._axes[label]
        except (KeyError, TypeError):
            raise ValueError(f"no subsystem labeled {label!r}") from None

    def subset(self, spec) -> "SystemLayout":
        """Sub-layout of the labels spec names, kept in this layout's order."""
        wanted = set(self.labels_of(spec))
        return SystemLayout(tuple(s for s in self.subsystems if s[0] in wanted))

    def concat(self, other: "SystemLayout") -> "SystemLayout":
        return SystemLayout(self.subsystems + other.subsystems)

    def renamed(self, mapping: dict[str, str]) -> "SystemLayout":
        return SystemLayout(tuple((mapping.get(n, n), d) for n, d in self.subsystems))


def _check_square(mat: np.ndarray, dim: int, what: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (dim, dim):
        raise ValueError(f"{what}: expected shape {(dim, dim)}, got {mat.shape}")
    return mat


def check_density(matrix: np.ndarray, tol: float) -> None:
    """Raise ValueError unless matrix is finite, Hermitian and of unit trace
    to tol, with no eigenvalue below -tol: the validation of DensityState.

    Positivity is certified by one Cholesky factorization of matrix + tol I,
    which reads the lower triangle as eigvalsh does and succeeds when that
    shift is positive definite, up to the factorization's backward error.
    Only when it fails does eigvalsh decide, with the same test and message,
    so the verdict differs from a direct eigenvalue test only within that
    backward error of -tol.

    matrix may be a stack (..., d, d): each slice gets the verdict and the
    message it would get alone, and the first failing slice raises.  The
    stack passes at once when every entry is finite, every slice's
    Hermiticity and trace deviations lie below tol with the relative slack
    of _spectral_norm_above, and one stacked Cholesky succeeds; otherwise
    the slices are checked one by one.
    """
    if matrix.ndim > 2:
        stack = matrix.reshape((-1,) + matrix.shape[-2:])
        bound = tol * _SCREEN_HEADROOM
        if (np.isfinite(stack).all()
                and np.linalg.norm(stack - stack.conj().transpose(0, 2, 1),
                                   axis=(1, 2)).max() <= bound
                and np.abs(np.trace(stack, axis1=1, axis2=2) - 1.0).max() <= bound):
            shifted = np.array(stack, dtype=complex)
            shifted.reshape(len(stack), -1)[:, :: stack.shape[-1] + 1] += bound
            try:
                np.linalg.cholesky(shifted)
                return
            except np.linalg.LinAlgError:
                del shifted
        for mat in stack:
            check_density(mat, tol)
        return
    if not np.isfinite(matrix).all():
        raise ValueError("matrix has non-finite entries")
    # Frobenius norm: an upper bound on the spectral norm, in O(d^2)
    herm = np.linalg.norm(matrix - matrix.conj().T)
    if herm > tol:
        raise ValueError(f"matrix not Hermitian: deviation {herm:.3e}")
    tr = matrix.trace()
    if abs(tr - 1.0) > tol:
        raise ValueError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
    shifted = np.array(matrix, dtype=complex)
    shifted.flat[:: shifted.shape[0] + 1] += tol
    try:
        np.linalg.cholesky(shifted)
        return
    except np.linalg.LinAlgError:
        del shifted
    lo = np.linalg.eigvalsh(matrix)[0]
    if lo < -tol:
        raise ValueError(f"negative eigenvalue {lo:.3e}")


class DensityState:
    """Density matrix together with its subsystem layout."""

    def __init__(self, matrix: np.ndarray, layout: SystemLayout, *,
                 validate: bool = True, tol: float = DEFAULT_TOLS.verify_tol):
        self.layout = layout
        self.matrix = _check_square(matrix, layout.total_dim, "DensityState")
        if validate:
            check_density(self.matrix, tol)

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    def __repr__(self):
        parts = ",".join(f"{n}:{d}" for n, d in self.layout.subsystems)
        return f"DensityState({parts})"


class PureState:
    """State vector together with its subsystem layout."""

    def __init__(self, vector: np.ndarray, layout: SystemLayout, *,
                 validate: bool = True, tol: float = DEFAULT_TOLS.verify_tol):
        self.layout = layout
        vec = np.asarray(vector, dtype=complex).reshape(-1)
        if vec.shape != (layout.total_dim,):
            raise ValueError(f"PureState: expected length {layout.total_dim}, got {vec.shape}")
        if validate:
            nrm = np.linalg.norm(vec)
            if abs(nrm - 1.0) > tol:
                raise ValueError(f"norm deviates from 1 by {abs(nrm - 1.0):.3e}")
        self.vector = vec

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    def to_density(self) -> DensityState:
        return DensityState(np.outer(self.vector, self.vector.conj()), self.layout,
                            validate=False)

    def __repr__(self):
        parts = ",".join(f"{n}:{d}" for n, d in self.layout.subsystems)
        return f"PureState({parts})"


def kron_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of the given matrices, left to right."""
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


def _congruence(op: np.ndarray, mat: np.ndarray, d_x: int = 1, d_y: int = 1) -> np.ndarray:
    """(I_X (x) op (x) I_Y) mat (I_X (x) op (x) I_Y)^dagger, for mat on
    (X, in, Y) x (X, in, Y) and op of shape (d_out, d_in), as a square
    matrix on (X, out, Y).

    This is how every operator is applied on some tensor axes: a Kraus
    operator, a recovery map's eigenbasis, a padded isometry gamma
    (op = gamma+ carries a block form back), or an algebra's compression,
    rotation or projection.  Two matmuls, op on the left in-axis batched
    over X, then op^dagger on the right one batched over every axis before
    it; no identity factor is formed.

    mat may also be a stack of k matrices (..., d_in, d_in), with X and Y
    trivial, mapped to (..., d_out, d_out) by one GEMM each side: the
    flattened stack times op^dagger on the right, regrouped as
    (d_in, k d_out), then op on the left.
    """
    d_out, d_in = op.shape
    if mat.ndim > 2:
        # regrouped in the same statement, so mat op+ is freed before op @
        t = (mat.reshape(-1, d_in) @ op.conj().T).reshape(-1, d_in, d_out).swapaxes(
            0, 1).reshape(d_in, -1)
        out = (op @ t).reshape(d_out, -1, d_out).swapaxes(0, 1)
        return out.reshape(mat.shape[:-2] + (d_out, d_out))
    # a plain matmul when X is trivial: a stack of one costs a little more
    left = op @ mat.reshape((d_x, d_in, -1) if d_x > 1 else (d_in, -1))
    dim = d_x * d_out * d_y
    return (op.conj() @ left.reshape(-1, d_in, d_y)).reshape(dim, dim)


def _stack_step(entries: int) -> int:
    """How many items of the given number of entries one stacked chunk
    holds: as many as _STACK_ENTRIES allows, and at least one."""
    return max(1, _STACK_ENTRIES // entries)


def _kraus_sum(kraus: np.ndarray, mat: np.ndarray, d_y: int = 1) -> np.ndarray:
    """sum_k (K_k (x) I_Y) mat (K_k (x) I_Y)^dagger, for mat on (in, Y) x
    (in, Y) and a stack kraus of shape (k, d_out, d_in), as a square matrix
    on (out, Y).

    mat is regrouped once as (in, in', Y, Y'), so that the left products
    of all K_k come out of one stacked matmul as [out, k, in', (Y, Y')],
    which one batched GEMM contracts over (k, in') with the conjugated
    stack without copying them; one transpose returns (out, Y) order.  The
    stack is taken in chunks whose left products hold at most
    _STACK_ENTRIES entries (one operator's when a single one exceeds it).
    """
    k, d_out, d_in = kraus.shape
    if d_y > 1:
        mat = mat.reshape(d_in, d_y, d_in, d_y).transpose(0, 2, 1, 3)
    mat = mat.reshape(d_in, -1)
    by_row = kraus.transpose(1, 0, 2)  # [out, k, in]
    step = _stack_step(d_out * mat.shape[1])
    out = None
    for lo in range(0, k, step):
        ops = by_row[:, lo:lo + step].reshape(d_out, -1)
        left = (ops.reshape(-1, d_in) @ mat).reshape(d_out, ops.shape[1], -1)
        part = ops.conj() @ left
        if out is None:
            out = part
        else:
            out += part
    dim = d_out * d_y
    if d_y == 1:
        return out.reshape(dim, dim)
    return out.reshape(d_out, d_out, d_y, d_y).transpose(0, 2, 1, 3).reshape(dim, dim)


def partial_trace(state: DensityState | PureState, keep) -> DensityState:
    """Trace out everything not in ``keep`` (a label spec, see
    SystemLayout.labels_of).

    Kept subsystems stay in their original layout order regardless of the
    order given in ``keep``.  A PureState is read from its vector: with the
    kept subsystems moved to the front and the vector reshaped to M of shape
    (d_keep, d_rest), the marginal is M M^+, and no d_total^2 density is
    built.
    """
    layout = state.layout
    keep_pos = sorted(layout.position(l) for l in layout.labels_of(keep))
    n = len(layout.subsystems)
    dims = layout.dims
    traced = [i for i in range(n) if i not in keep_pos]
    kept_layout = SystemLayout(tuple(layout.subsystems[i] for i in keep_pos))
    d = kept_layout.total_dim
    if isinstance(state, PureState):
        m = state.vector.reshape(dims).transpose(keep_pos + traced).reshape(d, -1)
        return DensityState(m @ m.conj().T, kept_layout, validate=False)
    t = state.matrix.reshape(dims + dims)
    for count, pos in enumerate(traced):
        # Axes shift left as earlier subsystems are consumed.
        ax = pos - count
        t = np.trace(t, axis1=ax, axis2=ax + (n - count))
    return DensityState(t.reshape(d, d), kept_layout, validate=False)


def _permutation(layout: SystemLayout, new_order) -> list[int]:
    """Positions of the labels new_order names, which must be all of them."""
    order = layout.labels_of(new_order)
    if len(order) != len(layout.labels):
        raise ValueError(f"new order {list(order)} is not a permutation of {layout.labels}")
    return [layout.position(l) for l in order]


def reorder(state: DensityState, new_order) -> DensityState:
    """Permute subsystems into the label order new_order names."""
    layout = state.layout
    perm = _permutation(layout, new_order)
    n = len(perm)
    t = state.matrix.reshape(layout.dims + layout.dims)
    t = t.transpose(perm + [p + n for p in perm])
    new_layout = SystemLayout(tuple(layout.subsystems[p] for p in perm))
    d = new_layout.total_dim
    return DensityState(t.reshape(d, d), new_layout, validate=False)


def reorder_vector(vec: np.ndarray, layout: SystemLayout, new_order) -> tuple[np.ndarray, SystemLayout]:
    perm = _permutation(layout, new_order)
    t = np.asarray(vec, dtype=complex).reshape(layout.dims).transpose(perm)
    new_layout = SystemLayout(tuple(layout.subsystems[p] for p in perm))
    return t.reshape(-1), new_layout


def support_mask(vals: np.ndarray, cutoff_rel: float) -> np.ndarray:
    """Which of a Hermitian matrix's eigenvalues are its support: those above
    cutoff_rel times the largest, so a negative eigenvalue never is.  The one
    support cut every spectrum reader applies."""
    return vals > cutoff_rel * vals.max(initial=0.0)


def support_eigh(mat: np.ndarray, cutoff_rel: float = DEFAULT_TOLS.support_cutoff_rel):
    """Eigendecomposition split at the support (see support_mask).

    Returns (vals, vecs, kernel, lowest): the support eigenvalues, all
    positive, and their eigenvectors, the eigenvectors of the rest, and the
    lowest eigenvalue, for a caller that refuses an indefinite matrix.
    Hermiticity is assumed.
    """
    vals, vecs = np.linalg.eigh(np.asarray(mat, dtype=complex))
    supp = support_mask(vals, cutoff_rel)
    return vals[supp], vecs[:, supp], vecs[:, ~supp], float(vals[0])


def matrix_function(mat: np.ndarray, exponent: float,
                    tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Hermitian matrix power on the support (see support_mask); the rest of
    the spectrum maps to zero.

    Negative exponents are pseudo-inverses restricted to the support.
    Complex exponents are allowed; they are applied as lambda**exponent to
    the support eigenvalues, which are positive.  Raises ValueError when an
    eigenvalue lies below -tols.verify_tol, the bound check_density uses.
    """
    vals, vecs, _, lowest = support_eigh(mat, tols.support_cutoff_rel)
    if lowest < -tols.verify_tol:
        raise ValueError(f"matrix_function: negative eigenvalue {lowest:.3e}")
    powered = np.power(vals.astype(complex), exponent)
    return (vecs * powered) @ vecs.conj().T


def entropy_of_spectrum(vals: np.ndarray) -> float:
    """Shannon entropy in bits of a distribution's positive weights, clamped
    at 0.  A lone positive weight is 1 up to rounding, so it reads exactly 0
    (1 - 2^-52 would give 3.2e-16 bits)."""
    vals = np.asarray(vals, dtype=float)
    vals = vals[vals > 0.0]
    if vals.size <= 1:
        return 0.0
    # a weight rounded to just above 1 would give a negative entropy
    return max(0.0, float(-(vals * np.log2(vals)).sum()))


def von_neumann_entropy(state, tols: Tolerances = DEFAULT_TOLS) -> float:
    """S(rho) = -Tr[rho log2 rho] in bits, from the eigenvalues on the
    support (see support_mask); the rest count as zero."""
    mat = state.matrix if isinstance(state, DensityState) else np.asarray(state, dtype=complex)
    tr = float(mat.trace().real)
    if abs(tr - 1.0) > tols.verify_tol * 10:
        raise ValueError(f"von_neumann_entropy: trace {tr} deviates from 1")
    vals = np.linalg.eigvalsh(mat)
    return entropy_of_spectrum(vals[support_mask(vals, tols.support_cutoff_rel)])


def parse_three_groups(grouping, layout: SystemLayout) -> tuple[tuple[str, ...], ...]:
    """The (A, B, C) label groups a grouping names.

    A string "A1,A2|B|C" separates the groups by '|' and the labels within
    a group by ','; a sequence holds one label spec per group (see
    SystemLayout.labels_of).  A group may be empty.  Either way there must
    be exactly three groups, and together they must partition the layout's
    labels; otherwise ValueError.
    """
    if isinstance(grouping, str):
        groups = tuple(_split_labels(chunk) for chunk in grouping.split("|"))
    else:
        groups = tuple(layout.labels_of(g) for g in grouping)
    _check_partition(layout, groups, grouping)
    if len(groups) != 3:
        raise ValueError(f"need exactly three groups, got {len(groups)}")
    return groups


def _check_partition(layout: SystemLayout, groups: Sequence[Sequence[str]], spec):
    """Raise ValueError unless groups partition the layout's labels; the
    message quotes spec, the grouping as given."""
    flat = [l for g in groups for l in g]
    if len(set(flat)) != len(flat):
        raise ValueError(f"grouping {spec!r} repeats a label")
    if sorted(flat) != sorted(layout.labels):
        raise ValueError(f"grouping {spec!r} does not partition labels {layout.labels}")


def qcmi(state: DensityState | PureState, grouping,
         tols: Tolerances = DEFAULT_TOLS) -> float:
    """Conditional mutual information I(A:C|B) = S(AB) + S(BC) - S(B) - S(ABC)
    in bits, for the (A, B, C) of a grouping (see parse_three_groups); the
    middle group conditions.
    A PureState is read from its vector with S(ABC) = 0: since S(AB) = S(C),
    S(BC) = S(A) and S(B) = S(AC), the value is S(A) + S(C) - S(B), each
    entropy taken from the marginal on the smaller side of its cut.
    Tiny negative values (>= -1e-9) from rounding are clamped to zero;
    anything more negative raises, since it signals an invalid input.
    """
    a, b, c = parse_three_groups(grouping, state.layout)
    if isinstance(state, PureState):
        s_a, s_b, s_c = (_pure_entropy(state, g, tols) for g in (a, b, c))
        return _clamp_information(s_a + s_c - s_b, "QCMI")
    s_abc = von_neumann_entropy(state, tols)
    s_ab = von_neumann_entropy(partial_trace(state, a + b), tols) if (a or b) else 0.0
    s_bc = von_neumann_entropy(partial_trace(state, b + c), tols) if (b or c) else 0.0
    s_b = von_neumann_entropy(partial_trace(state, b), tols) if b else 0.0
    return _clamp_information(s_ab + s_bc - s_b - s_abc, "QCMI")


def _pure_entropy(psi: PureState, part: tuple[str, ...], tols: Tolerances) -> float:
    """S of psi's marginal on part, read on the smaller side of the cut."""
    layout = psi.layout
    rest = tuple(l for l in layout.labels if l not in part)
    if not part or not rest:
        return 0.0
    side = part if layout.dim_of(part) <= layout.dim_of(rest) else rest
    return von_neumann_entropy(partial_trace(psi, side), tols)


def _clamp_information(val: float, name: str) -> float:
    """An information quantity, with rounding-level negatives (>= -1e-9)
    clamped to zero; anything more negative signals an invalid input."""
    if val < -1e-9:
        raise VerificationError(f"{name} came out {val:.3e} < -1e-9; input is not a valid state")
    return max(val, 0.0)


def trace_norm(mat: np.ndarray) -> float | np.ndarray:
    """Sum of singular values; for Hermitian input, sum of |eigenvalues|.

    mat may be a stack (..., d, d): then an array of each slice's norm, the
    value the slice gets alone.  An all-Hermitian stack takes one batched
    eigvalsh; a stack that is not all Hermitian is read slice by slice.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim > 2:
        if (np.abs(mat - np.swapaxes(mat, -1, -2).conj()).max(axis=(-2, -1)) < 1e-12).all():
            return np.abs(np.linalg.eigvalsh(mat)).sum(axis=-1)
        flat = mat.reshape(-1, *mat.shape[-2:])
        return np.array([trace_norm(m) for m in flat]).reshape(mat.shape[:-2])
    herm_dev = np.abs(mat - mat.conj().T).max()
    if herm_dev < 1e-12:
        return float(np.abs(np.linalg.eigvalsh(mat)).sum())
    return float(np.linalg.svd(mat, compute_uv=False).sum())


def _spectral_norm_above(x: np.ndarray, bound: float) -> float | None:
    """||x||_2 when it exceeds bound, else None: the verdict and the value of
    ``np.linalg.norm(x, 2) > bound`` without an SVD when the check passes.

    ||x||_2 <= ||x||_F, so a Frobenius norm at or below the bound already
    passes; the screen keeps the relative slack _SCREEN_HEADROOM below the
    bound, far beyond the rounding by which the two computed norms of a
    rank-1 matrix can disagree, so the verdict is the SVD's.  Only a failing
    screen takes the SVD, whose value is returned when it exceeds the bound.
    """
    if np.linalg.norm(x) <= bound * _SCREEN_HEADROOM:
        return None
    value = float(np.linalg.norm(x, 2))
    return value if value > bound else None


def _power_distance(x: np.ndarray, y: np.ndarray, n: int) -> float:
    """||x^(x n) - y^(x n)||_1, formed exactly.  Regrouping the copies'
    subsystems permutes both powers alike, which leaves the norm unchanged."""
    return trace_norm(kron_all([x] * n) - kron_all([y] * n))


def _power_distance_above(x: np.ndarray, y: np.ndarray, n: int,
                          bound: float) -> float | None:
    """_power_distance(x, y, n) when it exceeds bound, else None, forming
    the n-copy powers only when a one-copy screen fails.

    Telescoping x^(x n) - y^(x n) = sum_i x^(x i) (x) (x - y) (x) y^(x n-1-i)
    and the multiplicativity of the trace norm under (x) bound it by
    ||x - y||_1 sum_i ||x||_1^i ||y||_1^(n-1-i), which passes the check when
    it is at or below bound with the relative slack of
    _spectral_norm_above; at n = 1 that bound is the distance itself.
    """
    one = trace_norm(x - y)
    if n == 1:
        return one if one > bound else None
    nx, ny = trace_norm(x), trace_norm(y)
    if one * sum(nx ** i * ny ** (n - 1 - i) for i in range(n)) <= bound * _SCREEN_HEADROOM:
        return None
    value = _power_distance(x, y, n)
    return value if value > bound else None


def trace_distance(a: DensityState, b: DensityState) -> float:
    """||rho - sigma||_1 (full trace norm: orthogonal pure states give 2)."""
    if a.layout.dims != b.layout.dims:
        raise ValueError("trace_distance: layouts do not match")
    return trace_norm(a.matrix - b.matrix)


def fidelity(a: DensityState, b: DensityState) -> float:
    """Uhlmann fidelity F = ||sqrt(rho) sqrt(sigma)||_1^2, in [0, 1].

    Both square roots are taken on the support (see support_mask), so
    rounding-noise eigenvalues add nothing; in the form
    (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 each one near 1e-17 would add its
    square root, about 3e-9.  Negative eigenvalues that state validation
    lets through are never support.
    """
    if a.layout.dims != b.layout.dims:
        raise ValueError("fidelity: layouts do not match")
    roots = []
    for mat in (a.matrix, b.matrix):
        vals, vecs, _, _ = support_eigh(mat)
        roots.append((vecs * np.sqrt(vals)) @ vecs.conj().T)
    f = float(np.linalg.svd(roots[0] @ roots[1], compute_uv=False).sum() ** 2)
    return min(f, 1.0)


def eta0(x: float) -> float:
    """-x log2 x, capped at its maximum log2(e)/e for x >= 1/e."""
    if not x >= 0:
        raise ValueError("eta0 needs x >= 0")
    if x == 0.0:
        return 0.0
    if x >= 1.0 / math.e:
        return _ETA0_CAP
    return -x * math.log2(x)


def eta(x: float) -> float:
    """x + eta0(x); nondecreasing continuity coefficient."""
    return x + eta0(x)


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2(1-x) for x in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy needs x in [0,1], got {x}")
    out = 0.0
    if 0.0 < x:
        out -= x * math.log2(x)
    if x < 1.0:
        out -= (1.0 - x) * math.log2(1.0 - x)
    return out


def recovery_error_bound(eps: float, d: int) -> float:
    """f(eps, d) = sqrt(4 eps log2 d + 2 h(eps)): one-sided recovery transfer."""
    if not eps >= 0:
        raise ValueError("recovery_error_bound needs eps >= 0")
    if d < 1:
        raise ValueError("recovery_error_bound needs d >= 1")
    e = min(eps, 1.0)
    return math.sqrt(4.0 * e * math.log2(d) + 2.0 * binary_entropy(e))


def random_unitary(d: int, seed) -> np.ndarray:
    """Haar-random unitary via QR with phase normalization."""
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_pure(layout: SystemLayout, seed) -> PureState:
    rng = np.random.default_rng(seed)
    d = layout.total_dim
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(v / np.linalg.norm(v), layout, validate=False)


def random_state(layout: SystemLayout, rank: int | None = None, seed=None) -> DensityState:
    """Random mixed state of the given rank (full rank when omitted)."""
    rng = np.random.default_rng(seed)
    d = layout.total_dim
    r = d if rank is None else int(rank)
    if not 1 <= r <= d:
        raise ValueError(f"rank must be in [1, {d}], got {r}")
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    mat = g @ g.conj().T
    mat /= mat.trace().real
    return DensityState(mat, layout, validate=False)
