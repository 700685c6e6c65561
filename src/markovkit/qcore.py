"""Core linear algebra for labeled multipartite quantum states.

Subsystems are named and ordered.  The joint basis index is row-major with
the leftmost subsystem most significant: for dims (d0, d1, ..., dk) the
product basis vector |i0 i1 ... ik> sits at index
i0*(d1*...*dk) + i1*(d2*...*dk) + ... + ik.  This matches the convention of
numpy.kron applied left to right.

All entropies and entropy-derived quantities are in bits (log base 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "SystemLayout",
    "DensityState",
    "PureState",
    "Tolerances",
    "VerificationError",
    "DEFAULT_TOLS",
    "tensor_product",
    "kron_all",
    "partial_trace",
    "reorder",
    "matrix_function",
    "von_neumann_entropy",
    "entropy_of_spectrum",
    "qcmi",
    "mutual_information",
    "trace_norm",
    "trace_distance",
    "fidelity",
    "eta0",
    "eta",
    "binary_entropy",
    "recovery_error_bound",
    "continuity_functions",
    "parse_grouping",
    "purify",
    "random_unitary",
    "random_pure",
    "random_state",
]

# Cap of -x*log2(x), attained at x = 1/e.
_ETA0_CAP = math.log2(math.e) / math.e


class VerificationError(RuntimeError):
    """A numerical invariant that should hold failed beyond tolerance."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used across the package.

    support_cutoff_rel: eigenvalues below this fraction of the largest one
        are treated as zero (support / pseudo-inverse decisions).
    algebra_closure_tol: rank cutoff when orthonormalizing operator spans.
    verify_tol: acceptance threshold for reconstruction and invariant checks.
    """

    support_cutoff_rel: float = 1e-10
    algebra_closure_tol: float = 1e-9
    verify_tol: float = 1e-8


DEFAULT_TOLS = Tolerances()


@dataclass(frozen=True)
class SystemLayout:
    """Ordered collection of named subsystems with their dimensions."""

    subsystems: tuple[tuple[str, int], ...]

    def __post_init__(self):
        labels = [name for name, _ in self.subsystems]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate subsystem labels in {labels}")
        for name, d in self.subsystems:
            if d < 1:
                raise ValueError(f"subsystem {name!r} has nonpositive dimension {d}")

    @classmethod
    def of(cls, *parts: tuple[str, int]) -> "SystemLayout":
        return cls(tuple((str(n), int(d)) for n, d in parts))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.subsystems)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.subsystems)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims, dtype=np.int64)) if self.subsystems else 1

    def dim_of(self, labels: Iterable[str]) -> int:
        wanted = self._as_label_tuple(labels)
        return int(np.prod([self.dims[self.position(l)] for l in wanted], dtype=np.int64)) if wanted else 1

    def position(self, label: str) -> int:
        for i, (name, _) in enumerate(self.subsystems):
            if name == label:
                return i
        raise KeyError(f"no subsystem labeled {label!r}")

    def subset(self, labels: Iterable[str]) -> "SystemLayout":
        """Sub-layout of the given labels, kept in this layout's order."""
        wanted = set(self._as_label_tuple(labels))
        return SystemLayout(tuple(s for s in self.subsystems if s[0] in wanted))

    def _as_label_tuple(self, labels) -> tuple[str, ...]:
        if isinstance(labels, str):
            labels = (labels,)
        labels = tuple(labels)
        for l in labels:
            self.position(l)
        if len(set(labels)) != len(labels):
            raise ValueError(f"repeated labels in {labels}")
        return labels

    def concat(self, other: "SystemLayout") -> "SystemLayout":
        return SystemLayout(self.subsystems + other.subsystems)

    def renamed(self, mapping: dict[str, str]) -> "SystemLayout":
        return SystemLayout(tuple((mapping.get(n, n), d) for n, d in self.subsystems))


def _check_square(mat: np.ndarray, dim: int, what: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (dim, dim):
        raise ValueError(f"{what}: expected shape {(dim, dim)}, got {mat.shape}")
    return mat


class DensityState:
    """Density matrix together with its subsystem layout."""

    def __init__(self, matrix: np.ndarray, layout: SystemLayout, *,
                 validate: bool = True, tol: float = DEFAULT_TOLS.verify_tol):
        self.layout = layout
        self.matrix = _check_square(matrix, layout.total_dim, "DensityState")
        if validate:
            herm = np.linalg.norm(self.matrix - self.matrix.conj().T, 2)
            if herm > tol:
                raise ValueError(f"matrix not Hermitian: deviation {herm:.3e}")
            tr = self.matrix.trace()
            if abs(tr - 1.0) > tol:
                raise ValueError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
            lo = np.linalg.eigvalsh(self.matrix)[0]
            if lo < -tol:
                raise ValueError(f"negative eigenvalue {lo:.3e}")

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


def tensor_product(parts: Sequence[tuple[np.ndarray, SystemLayout]]) -> tuple[np.ndarray, SystemLayout]:
    """Tensor product of matrices-with-layouts; layouts concatenate in order."""
    if not parts:
        raise ValueError("tensor_product needs at least one part")
    mats = []
    layout = None
    for mat, lay in parts:
        mats.append(_check_square(mat, lay.total_dim, "tensor_product part"))
        layout = lay if layout is None else layout.concat(lay)
    return kron_all(mats), layout


def product_state(*states: DensityState) -> DensityState:
    mat, layout = tensor_product([(s.matrix, s.layout) for s in states])
    return DensityState(mat, layout, validate=False)


def _resolve_positions(layout: SystemLayout, labels) -> list[int]:
    if isinstance(labels, str):
        labels = (labels,)
    return [layout.position(l) for l in labels]


def partial_trace(state: DensityState, keep) -> DensityState:
    """Trace out everything not in ``keep``.

    Kept subsystems stay in their original layout order regardless of the
    order given in ``keep``.
    """
    layout = state.layout
    keep_pos = sorted(set(_resolve_positions(layout, keep)))
    n = len(layout.subsystems)
    dims = layout.dims
    traced = [i for i in range(n) if i not in keep_pos]
    t = state.matrix.reshape(dims + dims)
    for count, pos in enumerate(traced):
        # Axes shift left as earlier subsystems are consumed.
        ax = pos - count
        t = np.trace(t, axis1=ax, axis2=ax + (n - count))
    kept_layout = SystemLayout(tuple(layout.subsystems[i] for i in keep_pos))
    d = kept_layout.total_dim
    return DensityState(t.reshape(d, d), kept_layout, validate=False)


def reorder(state: DensityState, new_order: Sequence[str]) -> DensityState:
    """Permute subsystems into the given label order."""
    layout = state.layout
    order = list(new_order)
    if sorted(order) != sorted(layout.labels):
        raise ValueError(f"new order {order} is not a permutation of {layout.labels}")
    perm = [layout.position(l) for l in order]
    n = len(perm)
    t = state.matrix.reshape(layout.dims + layout.dims)
    t = t.transpose(perm + [p + n for p in perm])
    new_layout = SystemLayout(tuple(layout.subsystems[p] for p in perm))
    d = new_layout.total_dim
    return DensityState(t.reshape(d, d), new_layout, validate=False)


def reorder_vector(vec: np.ndarray, layout: SystemLayout, new_order: Sequence[str]) -> tuple[np.ndarray, SystemLayout]:
    order = list(new_order)
    if sorted(order) != sorted(layout.labels):
        raise ValueError(f"new order {order} is not a permutation of {layout.labels}")
    perm = [layout.position(l) for l in order]
    t = np.asarray(vec, dtype=complex).reshape(layout.dims).transpose(perm)
    new_layout = SystemLayout(tuple(layout.subsystems[p] for p in perm))
    return t.reshape(-1), new_layout


def support_eigh(mat: np.ndarray, cutoff_rel: float = DEFAULT_TOLS.support_cutoff_rel):
    """Eigendecomposition restricted to the support.

    Returns (vals, vecs) keeping only eigenvalues above cutoff_rel times the
    largest magnitude eigenvalue.  Hermiticity is assumed.
    """
    mat = np.asarray(mat, dtype=complex)
    vals, vecs = np.linalg.eigh(mat)
    top = np.abs(vals).max(initial=0.0)
    if top == 0.0:
        return np.array([]), np.zeros((mat.shape[0], 0), dtype=complex)
    mask = np.abs(vals) > cutoff_rel * top
    return vals[mask], vecs[:, mask]


def matrix_function(mat: np.ndarray, exponent: float,
                    cutoff_rel: float = DEFAULT_TOLS.support_cutoff_rel) -> np.ndarray:
    """Hermitian matrix power on the support; zero eigenvalues stay zero.

    Negative exponents are pseudo-inverses restricted to the support.
    Complex exponents are allowed; they are applied as lambda**exponent to
    strictly positive eigenvalues.
    """
    vals, vecs = support_eigh(mat, cutoff_rel)
    if vals.size == 0:
        return np.zeros_like(np.asarray(mat, dtype=complex))
    if np.any(vals < 0):
        neg = vals[vals < 0]
        raise ValueError(f"matrix_function: negative eigenvalue {neg.min():.3e} on support")
    powered = np.power(vals.astype(complex), exponent)
    return (vecs * powered) @ vecs.conj().T


def entropy_of_spectrum(vals: np.ndarray, cutoff: float = 0.0) -> float:
    """Shannon entropy in bits of a nonnegative weight vector."""
    vals = np.asarray(vals, dtype=float)
    vals = vals[vals > max(cutoff, 0.0)]
    if vals.size == 0:
        return 0.0
    return float(-(vals * np.log2(vals)).sum())


def von_neumann_entropy(state, tols: Tolerances = DEFAULT_TOLS) -> float:
    """S(rho) = -Tr[rho log2 rho] in bits."""
    mat = state.matrix if isinstance(state, DensityState) else np.asarray(state, dtype=complex)
    tr = float(mat.trace().real)
    if abs(tr - 1.0) > DEFAULT_TOLS.verify_tol * 10:
        raise ValueError(f"von_neumann_entropy: trace {tr} deviates from 1")
    vals = np.linalg.eigvalsh(mat)
    top = np.abs(vals).max(initial=0.0)
    return entropy_of_spectrum(vals, cutoff=tols.support_cutoff_rel * top)


def parse_grouping(spec: str, layout: SystemLayout) -> tuple[tuple[str, ...], ...]:
    """Parse "A|B|C"-style grouping strings against a layout.

    Groups are separated by '|', labels within a group by ','.  A group may
    be empty.  Together the groups must partition the layout's labels.
    """
    groups = []
    for chunk in spec.split("|"):
        labels = tuple(l.strip() for l in chunk.split(",") if l.strip())
        groups.append(labels)
    flat = [l for g in groups for l in g]
    if len(set(flat)) != len(flat):
        raise ValueError(f"grouping {spec!r} repeats a label")
    if sorted(flat) != sorted(layout.labels):
        raise ValueError(f"grouping {spec!r} does not partition labels {layout.labels}")
    return tuple(groups)


def _check_partition(layout: SystemLayout, groups: Sequence[Sequence[str]]):
    flat = [l for g in groups for l in g]
    if len(set(flat)) != len(flat):
        raise ValueError("grouping has overlapping groups")
    if sorted(flat) != sorted(layout.labels):
        raise ValueError(f"grouping {groups} does not partition {layout.labels}")


def qcmi(state: DensityState, grouping: Sequence[Sequence[str]],
         tols: Tolerances = DEFAULT_TOLS) -> float:
    """Conditional mutual information I(A:C|B) in bits.

    grouping = (A-labels, B-labels, C-labels); the middle group conditions.
    Tiny negative values (>= -1e-9) from rounding are clamped to zero;
    anything more negative raises, since it signals an invalid input.
    """
    a, b, c = grouping
    _check_partition(state.layout, (a, b, c))
    s_ab = von_neumann_entropy(partial_trace(state, tuple(a) + tuple(b)), tols) if (a or b) else 0.0
    s_bc = von_neumann_entropy(partial_trace(state, tuple(b) + tuple(c)), tols) if (b or c) else 0.0
    s_b = von_neumann_entropy(partial_trace(state, tuple(b)), tols) if b else 0.0
    s_abc = von_neumann_entropy(state, tols)
    val = s_ab + s_bc - s_b - s_abc
    if val < 0.0:
        if val < -1e-9:
            raise VerificationError(f"QCMI came out {val:.3e} < -1e-9; input is not a valid state")
        val = 0.0
    return val


def mutual_information(state: DensityState, part_a, part_b,
                       tols: Tolerances = DEFAULT_TOLS) -> float:
    """I(A:B) = S(A) + S(B) - S(AB) in bits, for a bipartition of the state."""
    a = (part_a,) if isinstance(part_a, str) else tuple(part_a)
    b = (part_b,) if isinstance(part_b, str) else tuple(part_b)
    _check_partition(state.layout, (a, b))
    s_a = von_neumann_entropy(partial_trace(state, a), tols)
    s_b = von_neumann_entropy(partial_trace(state, b), tols)
    s_ab = von_neumann_entropy(state, tols)
    val = s_a + s_b - s_ab
    return 0.0 if -1e-9 <= val < 0.0 else val


def trace_norm(mat: np.ndarray) -> float:
    """Sum of singular values; for Hermitian input, sum of |eigenvalues|."""
    mat = np.asarray(mat, dtype=complex)
    herm_dev = np.abs(mat - mat.conj().T).max()
    if herm_dev < 1e-12:
        return float(np.abs(np.linalg.eigvalsh(mat)).sum())
    return float(np.linalg.svd(mat, compute_uv=False).sum())


def trace_distance(a: DensityState, b: DensityState) -> float:
    """||rho - sigma||_1 (full trace norm: orthogonal pure states give 2)."""
    if a.layout.dims != b.layout.dims:
        raise ValueError("trace_distance: layouts do not match")
    return trace_norm(a.matrix - b.matrix)


def fidelity(a: DensityState, b: DensityState) -> float:
    """Uhlmann fidelity F = (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, in [0, 1]."""
    if a.layout.dims != b.layout.dims:
        raise ValueError("fidelity: layouts do not match")
    ra = matrix_function(a.matrix, 0.5)
    inner = ra @ b.matrix @ ra
    inner = (inner + inner.conj().T) / 2
    vals = np.linalg.eigvalsh(inner)
    vals = np.clip(vals, 0.0, None)
    f = float(np.sqrt(vals).sum() ** 2)
    return min(f, 1.0)


def eta0(x: float) -> float:
    """-x log2 x, capped at its maximum log2(e)/e for x >= 1/e."""
    if x < 0:
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
    if eps < 0:
        raise ValueError("recovery_error_bound needs eps >= 0")
    if d < 1:
        raise ValueError("recovery_error_bound needs d >= 1")
    e = min(eps, 1.0)
    return math.sqrt(4.0 * e * math.log2(d) + 2.0 * binary_entropy(e))


def continuity_functions(eps: float, d: int) -> dict[str, float]:
    """The continuity coefficients eta0, eta, h, f evaluated at (eps, d)."""
    return {
        "eta0": eta0(eps),
        "eta": eta(eps),
        "h": binary_entropy(min(eps, 1.0)),
        "f": recovery_error_bound(eps, d),
    }


def _fresh_label(layout: SystemLayout, base: str = "R") -> str:
    if base not in layout.labels:
        return base
    k = 1
    while f"{base}{k}" in layout.labels:
        k += 1
    return f"{base}{k}"


def purify(state: DensityState, ref_label: str | None = None,
           tols: Tolerances = DEFAULT_TOLS) -> PureState:
    """Purification with a reference of dimension rank(rho), appended last."""
    vals, vecs = support_eigh(state.matrix, tols.support_cutoff_rel)
    if np.any(vals < 0):
        raise ValueError("purify: state has a negative eigenvalue on support")
    rank = vals.size
    if rank == 0:
        raise ValueError("purify: zero state")
    label = ref_label or _fresh_label(state.layout)
    layout = state.layout.concat(SystemLayout.of((label, rank)))
    vec = (vecs * np.sqrt(vals)).reshape(-1)
    # vecs[:, i]*sqrt(vals[i]) occupies reference index i: row-major reshape
    # of the (dim, rank) matrix interleaves exactly that way.
    return PureState(vec / np.linalg.norm(vec), layout, validate=False)


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_unitary(d: int, seed) -> np.ndarray:
    """Haar-random unitary via QR with phase normalization."""
    rng = _as_rng(seed)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_pure(layout: SystemLayout, seed) -> PureState:
    rng = _as_rng(seed)
    d = layout.total_dim
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(v / np.linalg.norm(v), layout, validate=False)


def random_state(layout: SystemLayout, rank: int | None = None, seed=None) -> DensityState:
    """Random mixed state of the given rank (full rank when omitted)."""
    rng = _as_rng(seed)
    d = layout.total_dim
    r = d if rank is None else int(rank)
    if not 1 <= r <= d:
        raise ValueError(f"rank must be in [1, {d}], got {r}")
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    mat = g @ g.conj().T
    mat /= mat.trace().real
    return DensityState(mat, layout, validate=False)
