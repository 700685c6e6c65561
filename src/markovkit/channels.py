"""Quantum channels in Kraus form, recovery maps, and unitary ensembles.

Channels carry explicit input and output layouts.  Applying a channel to a
subset of a state's subsystems replaces those subsystems with the channel's
output subsystems in place; all other subsystems are untouched.

The recovery maps here are the transpose-channel family: for a joint state
rho_{BT} and input marginal rho_B,

    plain:      X -> rho_BT^{1/2} (rho_B^{-1/2} X rho_B^{-1/2} (x) I_T) rho_BT^{1/2}
    rotated(t): same with exponents (1 +- i t)/2
    averaged:   integral of rotated(t) against beta0(t) = (pi/2)/(cosh(pi t) + 1)

Inverses are support pseudo-inverses.  Every constructed channel is completed
on the kernel of rho_B so that its Kraus operators satisfy completeness on
the whole input space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qcore import (
    DEFAULT_TOLS,
    DensityState,
    SystemLayout,
    Tolerances,
    VerificationError,
    matrix_function,
    partial_trace,
    reorder,
    support_eigh,
    trace_distance,
    fidelity,
)

__all__ = [
    "QuantumChannel",
    "RandomUnitaryEnsemble",
    "StinespringIsometry",
    "RecoveryAssessment",
    "unitary_channel",
    "dephasing_channel",
    "phase_ops",
    "heisenberg_weyl",
    "stinespring",
    "petz_recovery",
    "petz_recoveries",
    "best_rotated_petz",
    "DEFAULT_T_GRID",
]

# Grid for best-of-family rotated recovery searches.
DEFAULT_T_GRID = tuple(np.linspace(-5.0, 5.0, 41))

# Quadrature for the averaged rotated map: Gauss-Legendre on [-20, 20].
QUAD_RANGE = 20.0
QUAD_NODES = 201

COMPLETENESS_REPAIR_MAX = 1e-8


def _beta0(t: np.ndarray) -> np.ndarray:
    return (np.pi / 2.0) / (np.cosh(np.pi * t) + 1.0)


@dataclass
class QuantumChannel:
    """CPTP map given by Kraus operators, with input/output layouts."""

    kraus: list[np.ndarray]
    in_layout: SystemLayout
    out_layout: SystemLayout

    def __post_init__(self):
        din, dout = self.in_layout.total_dim, self.out_layout.total_dim
        self.kraus = [np.asarray(k, dtype=complex) for k in self.kraus]
        for k in self.kraus:
            if k.shape != (dout, din):
                raise ValueError(f"Kraus shape {k.shape} != {(dout, din)}")

    @property
    def in_dim(self) -> int:
        return self.in_layout.total_dim

    @property
    def out_dim(self) -> int:
        return self.out_layout.total_dim

    def completeness_deviation(self) -> float:
        s = sum(k.conj().T @ k for k in self.kraus)
        return float(np.linalg.norm(s - np.eye(self.in_dim), 2))

    def check_complete(self, tol: float = DEFAULT_TOLS.verify_tol):
        dev = self.completeness_deviation()
        if dev > tol:
            raise VerificationError(f"Kraus completeness deviates by {dev:.3e}")

    def apply_matrix(self, mat: np.ndarray) -> np.ndarray:
        out = np.zeros((self.out_dim, self.out_dim), dtype=complex)
        for k in self.kraus:
            out += k @ mat @ k.conj().T
        return out

    def apply(self, state: DensityState, targets=None) -> DensityState:
        """Apply to the given target subsystems (all of them by default).

        The target labels must match the input layout dimensions in order.
        Output subsystems take the targets' place in the layout; their labels
        must not collide with the untouched subsystems.
        """
        if targets is None:
            targets = state.layout.labels
        if isinstance(targets, str):
            targets = (targets,)
        targets = tuple(targets)
        tdims = tuple(state.layout.dims[state.layout.position(l)] for l in targets)
        if int(np.prod(tdims, dtype=np.int64)) != self.in_dim or \
                tdims != self.in_layout.dims:
            raise ValueError(
                f"targets {targets} dims {tdims} do not match input layout dims {self.in_layout.dims}")
        rest = tuple(l for l in state.layout.labels if l not in targets)
        for l in self.out_layout.labels:
            if l in rest:
                raise ValueError(f"output label {l!r} collides with untouched subsystem")
        perm = reorder(state, targets + rest)
        d_rest = perm.layout.total_dim // self.in_dim
        eye = np.eye(d_rest)
        out = np.zeros((self.out_dim * d_rest,) * 2, dtype=complex)
        mat = perm.matrix
        for k in self.kraus:
            kf = np.kron(k, eye)
            out += kf @ mat @ kf.conj().T
        mid_layout = self.out_layout.concat(perm.layout.subset(rest))
        result = DensityState(out, mid_layout, validate=False)
        # Splice output labels where the first target used to sit.
        final = []
        placed = False
        for l in state.layout.labels:
            if l in targets:
                if not placed:
                    final.extend(self.out_layout.labels)
                    placed = True
            else:
                final.append(l)
        result = reorder(result, final)
        return DensityState(result.matrix, result.layout, validate=True,
                            tol=10 * DEFAULT_TOLS.verify_tol)


def unitary_channel(u: np.ndarray, layout: SystemLayout) -> QuantumChannel:
    return QuantumChannel([np.asarray(u, dtype=complex)], layout, layout)


def dephasing_channel(basis: np.ndarray, layout: SystemLayout) -> QuantumChannel:
    """Projective dephasing in the given orthonormal basis (columns)."""
    basis = np.asarray(basis, dtype=complex)
    d = layout.total_dim
    if basis.shape != (d, d):
        raise ValueError(f"basis must be {d}x{d}")
    if np.linalg.norm(basis.conj().T @ basis - np.eye(d), 2) > 1e-10:
        raise ValueError("basis columns are not orthonormal")
    kraus = [np.outer(basis[:, i], basis[:, i].conj()) for i in range(d)]
    return QuantumChannel(kraus, layout, layout)


def phase_ops(d: int) -> list[np.ndarray]:
    """Z^b for b = 0..d-1, Z|j> = exp(2 pi i j / d)|j>."""
    j = np.arange(d)
    return [np.diag(np.exp(2j * np.pi * b * j / d)) for b in range(d)]


def heisenberg_weyl(d: int) -> list[np.ndarray]:
    """The d^2 shift-and-phase unitaries X^a Z^b, ordered by (a, b)."""
    x = np.zeros((d, d), dtype=complex)
    for j in range(d):
        x[(j + 1) % d, j] = 1.0
    zs = phase_ops(d)
    out = []
    xa = np.eye(d, dtype=complex)
    for _ in range(d):
        for zb in zs:
            out.append(xa @ zb)
        xa = x @ xa
    return out


@dataclass
class RandomUnitaryEnsemble:
    """Uniform mixture of unitaries acting on a fixed layout."""

    unitaries: list[np.ndarray]
    layout: SystemLayout

    def __post_init__(self):
        d = self.layout.total_dim
        self.unitaries = [np.asarray(u, dtype=complex) for u in self.unitaries]
        for u in self.unitaries:
            if u.shape != (d, d):
                raise ValueError(f"unitary shape {u.shape} != {(d, d)}")

    @property
    def size(self) -> int:
        return len(self.unitaries)

    @property
    def cost_bits(self) -> float:
        return float(np.log2(self.size))

    def as_channel(self) -> QuantumChannel:
        w = 1.0 / np.sqrt(self.size)
        return QuantumChannel([w * u for u in self.unitaries], self.layout, self.layout)


@dataclass
class StinespringIsometry:
    """W: H_in -> H_env (x) H_in with the environment leftmost."""

    matrix: np.ndarray
    env_dim: int
    in_layout: SystemLayout

    def check(self, tol: float = 1e-10):
        d = self.in_layout.total_dim
        dev = np.linalg.norm(self.matrix.conj().T @ self.matrix - np.eye(d), 2)
        if dev > tol:
            raise VerificationError(f"isometry deviation {dev:.3e}")

    def apply_and_trace_env(self, mat: np.ndarray) -> np.ndarray:
        d = self.in_layout.total_dim
        big = self.matrix @ mat @ self.matrix.conj().T
        t = big.reshape(self.env_dim, d, self.env_dim, d)
        return np.trace(t, axis1=0, axis2=2)


def stinespring(ensemble: RandomUnitaryEnsemble) -> StinespringIsometry:
    """W = sum_k |k> (x) V_k / sqrt(K); Tr_env[W rho W+] reproduces the mixture."""
    k = ensemble.size
    d = ensemble.layout.total_dim
    w = np.zeros((k * d, d), dtype=complex)
    for i, u in enumerate(ensemble.unitaries):
        w[i * d:(i + 1) * d, :] = u / np.sqrt(k)
    iso = StinespringIsometry(w, k, ensemble.layout)
    iso.check()
    return iso


def _factor_permutation(layout: SystemLayout, first: tuple[str, ...]) -> np.ndarray:
    """Permutation matrix mapping (first-labels, rest-labels) order to layout order."""
    rest = tuple(l for l in layout.labels if l not in first)
    src_order = first + rest
    dims_src = tuple(layout.dims[layout.position(l)] for l in src_order)
    n = len(src_order)
    # dest position of each source factor
    dest_positions = [layout.position(l) for l in src_order]
    perm = np.argsort(dest_positions)
    d = layout.total_dim
    p = np.zeros((d, d))
    idx = np.arange(d).reshape(dims_src)
    idx = idx.transpose(perm).reshape(-1)
    p[np.arange(d), idx] = 1.0
    # p maps source-ordered vectors onto layout-ordered vectors: verify on dims
    return p


def petz_recovery(joint: DensityState, recover_onto, mode: str = "plain",
                  t: float = 0.0, tols: Tolerances = DEFAULT_TOLS,
                  quad_nodes: int = QUAD_NODES, quad_range: float = QUAD_RANGE) -> QuantumChannel:
    """Recovery channel reconstructing ``recover_onto`` from the rest of ``joint``.

    The returned channel maps states on B (the complement of recover_onto,
    in layout order) to states on the full joint layout.  mode is one of
    "plain", "rotated" (uses t), "averaged".
    """
    if isinstance(recover_onto, str):
        recover_onto = (recover_onto,)
    t_labels = tuple(recover_onto)
    layout = joint.layout
    for l in t_labels:
        layout.position(l)
    b_labels = tuple(l for l in layout.labels if l not in t_labels)
    if not t_labels:
        raise ValueError("recover_onto must name at least one subsystem")
    d_t = layout.dim_of(t_labels)
    d_b = layout.dim_of(b_labels)
    rho_bt = joint.matrix
    if b_labels:
        rho_b = partial_trace(joint, b_labels).matrix
    else:
        rho_b = np.eye(1, dtype=complex)
    perm = _factor_permutation(layout, b_labels)  # (B, T) order -> joint order

    vals_b, vecs_b = support_eigh(rho_b, tols.support_cutoff_rel)
    if vals_b.size == 0:
        raise ValueError("petz_recovery: input marginal has rank 0")

    def half_powers(exponent_t: float):
        e = (1.0 + 1j * exponent_t) / 2.0
        joint_half = matrix_function(rho_bt, e, tols.support_cutoff_rel)
        b_neg_half = matrix_function(rho_b, -e, tols.support_cutoff_rel)
        return joint_half, b_neg_half

    t_basis = np.eye(d_t, dtype=complex)

    def kraus_at(exponent_t: float, weight: float = 1.0) -> list[np.ndarray]:
        joint_half, b_neg_half = half_powers(exponent_t)
        front = joint_half @ perm
        out = []
        for tau in range(d_t):
            lift = np.kron(b_neg_half, t_basis[:, tau:tau + 1])
            out.append(np.sqrt(weight) * (front @ lift))
        return out

    if mode == "plain":
        kraus = kraus_at(0.0)
    elif mode == "rotated":
        kraus = kraus_at(float(t))
    elif mode == "averaged":
        nodes, weights = np.polynomial.legendre.leggauss(quad_nodes)
        nodes = nodes * quad_range
        weights = weights * quad_range * _beta0(nodes)
        # beta0 integrates to 1 exactly; renormalize the discretized measure
        # so completeness is not limited by quadrature error.
        weights = weights / weights.sum()
        kraus = []
        for tq, wq in zip(nodes, weights):
            if wq < 1e-26:  # tail nodes contribute nothing at double precision
                continue
            kraus.extend(kraus_at(tq, wq))
    else:
        raise ValueError(f"unknown mode {mode!r}")

    # On supp(rho_B) the Kraus sum should already be the support projector.
    supp_proj = vecs_b @ vecs_b.conj().T
    s = sum(k.conj().T @ k for k in kraus)
    dev = np.linalg.norm(s - supp_proj, 2)
    if dev > COMPLETENESS_REPAIR_MAX:
        raise VerificationError(
            f"petz_recovery: completeness deviation {dev:.3e} exceeds repair threshold")
    if dev > 1e-14:
        fix = matrix_function(s, -0.5, tols.support_cutoff_rel)
        kraus = [k @ fix for k in kraus]

    # Complete on the kernel of rho_B: route kernel weight to rho_BT.
    rank = vals_b.size
    if rank < d_b:
        full_vals, full_vecs = np.linalg.eigh(rho_b)
        top = np.abs(full_vals).max()
        kernel = full_vecs[:, np.abs(full_vals) <= tols.support_cutoff_rel * top]
        jvals, jvecs = support_eigh(rho_bt, tols.support_cutoff_rel)
        for r in range(kernel.shape[1]):
            bra = kernel[:, r].conj()[None, :]
            for m in range(jvals.size):
                kraus.append(np.sqrt(jvals[m]) * np.outer(jvecs[:, m], bra))

    in_layout = layout.subset(b_labels) if b_labels else SystemLayout.of(("triv", 1))
    chan = QuantumChannel(kraus, in_layout, layout)
    chan.check_complete(COMPLETENESS_REPAIR_MAX)
    return chan


@dataclass
class RecoveryAssessment:
    """Outcome of a best-in-family recovery search."""

    mode: str
    t: float | None
    error: float
    fidelity: float
    channel: QuantumChannel
    recovered: DensityState
    per_candidate: list[tuple[str, float | None, float]] = field(default_factory=list)


def petz_recoveries(state: DensityState, grouping, direction: str,
                    candidates=(("plain", 0.0),),
                    tols: Tolerances = DEFAULT_TOLS):
    """Yield (channel, recovered state) for each (mode, t) candidate.

    direction "from_bc" rebuilds A from the BC marginal, "from_ab" rebuilds
    C from the AB marginal; either way the Petz map of the given mode is
    modelled on the marginal of B and the rebuilt side and acts on B.  The
    recovered state comes back in the layout order of ``state``.  Both
    marginals are taken once for all candidates.
    """
    if direction not in ("from_bc", "from_ab"):
        raise ValueError(f"unknown direction {direction!r}")
    a, b, c = (tuple(g) for g in grouping)
    onto, read = (a, b + c) if direction == "from_bc" else (c, a + b)
    model = partial_trace(state, onto + b)
    inp = partial_trace(state, read)
    for mode, t in candidates:
        chan = petz_recovery(model, onto, mode=mode, t=t, tols=tols)
        yield chan, reorder(chan.apply(inp, targets=b), state.layout.labels)


def best_rotated_petz(state: DensityState, grouping, direction: str = "from_bc",
                      t_grid=None, include_averaged: bool = True,
                      tols: Tolerances = DEFAULT_TOLS) -> RecoveryAssessment:
    """Search plain, rotated-over-grid, and averaged recovery; keep the best.

    direction "from_bc" rebuilds A from the BC marginal (channel on B);
    "from_ab" rebuilds C from the AB marginal.  Ties keep the earliest
    candidate, so results are reproducible for a fixed grid.
    """
    if t_grid is None:
        t_grid = DEFAULT_T_GRID

    candidates: list[tuple[str, float | None]] = [("plain", None)]
    candidates += [("rotated", float(tv)) for tv in t_grid]
    if include_averaged:
        candidates.append(("averaged", None))

    best = None
    per = []
    runs = petz_recoveries(state, grouping, direction,
                           [(mode, tv or 0.0) for mode, tv in candidates], tols)
    for (mode, tv), (chan, recovered) in zip(candidates, runs):
        err = trace_distance(recovered, state)
        per.append((mode, tv, err))
        if best is None or err < best[2] - 1e-15:
            best = (mode, tv, err, chan, recovered)
    mode, tv, err, chan, recovered = best
    return RecoveryAssessment(mode, tv, err, fidelity(recovered, state), chan,
                              recovered, per)
