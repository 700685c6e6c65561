"""Quantum channels in Kraus form, recovery maps, and unitary ensembles.

Channels carry explicit input and output layouts.  Applying a channel to a
subset of a state's subsystems replaces those subsystems with the channel's
output subsystems in place; all other subsystems are untouched.

The recovery maps here are the transpose-channel family: for a joint state
rho_{BT} and input marginal rho_B,

    plain:      X -> rho_BT^{1/2} (rho_B^{-1/2} X rho_B^{-1/2} (x) I_T) rho_BT^{1/2}
    rotated(t): same with exponents (1 +- i t)/2
    averaged:   integral of rotated(t) against beta0(t) = (pi/2)/(cosh(pi t) + 1)

In the eigenbases of rho_BT (eigenvalues lam_i) and rho_B (mu_k), t enters
rotated(t) only through phases exp(i t (a_ik - a_jl)) with
a_ik = (ln lam_i - ln mu_k)/2.  Since the integral of beta0(t) exp(i w t) is
w / sinh(w), the averaged map is exact without quadrature: it is the plain
map's coefficients weighted by the PSD kernel w / sinh(w) at w = a_ik - a_jl
(the universal recovery map of Junge, Renner, Sutter, Wilde and Winter,
arXiv:1509.07127).

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
    partial_trace,
    reorder,
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


def _spectrum(mat: np.ndarray, cutoff_rel: float):
    """(support eigenvalues, support eigenvectors, kernel eigenvectors) of a PSD matrix."""
    vals, vecs = np.linalg.eigh(mat)
    supp = np.abs(vals) > cutoff_rel * np.abs(vals).max(initial=0.0)
    if np.any(vals[supp] < 0):
        raise ValueError(
            f"petz_recovery: negative eigenvalue {vals[supp].min():.3e} on support")
    return vals[supp], vecs[:, supp], vecs[:, ~supp]


def _omega_over_sinh(omega: np.ndarray) -> np.ndarray:
    """g(w) = w / sinh(w), the beta0-average of exp(i w t), with g(0) = 1."""
    zero = omega == 0.0
    safe = np.where(zero, 1.0, omega)
    return np.where(zero, 1.0, safe / np.sinh(safe))


def petz_recovery(joint: DensityState, recover_onto, mode: str = "plain",
                  t: float = 0.0, tols: Tolerances = DEFAULT_TOLS) -> QuantumChannel:
    """Recovery channel reconstructing ``recover_onto`` from the rest of ``joint``.

    The returned channel maps states on B (the complement of recover_onto,
    in layout order) to states on the full joint layout.  mode is one of
    "plain", "rotated" (uses t), "averaged".

    All three modes are built in the eigenbases rho_BT = sum_i lam_i |w_i><w_i|
    and rho_B = sum_k mu_k |v_k><v_k| from the Kraus coefficients
    c[i, k, tau] = sqrt(lam_i / mu_k) <w_i|v_k (x) tau>, with T in layout order;
    the rotated map multiplies them by exp(i t a_ik), a_ik = (ln lam_i - ln mu_k)/2.
    """
    if isinstance(recover_onto, str):
        recover_onto = (recover_onto,)
    layout = joint.layout
    for l in recover_onto:
        layout.position(l)
    if not recover_onto:
        raise ValueError("recover_onto must name at least one subsystem")
    if mode not in ("plain", "rotated", "averaged"):
        raise ValueError(f"unknown mode {mode!r}")
    t_labels = tuple(l for l in layout.labels if l in recover_onto)
    b_labels = tuple(l for l in layout.labels if l not in recover_onto)
    d_t = layout.dim_of(t_labels)
    d_b = layout.dim_of(b_labels)
    if b_labels:
        rho_b = partial_trace(joint, b_labels).matrix
    else:
        rho_b = np.eye(1, dtype=complex)

    lam, w_vecs, _ = _spectrum(joint.matrix, tols.support_cutoff_rel)
    mu, v_vecs, kernel = _spectrum(rho_b, tols.support_cutoff_rel)
    if mu.size == 0:
        raise ValueError("petz_recovery: input marginal has rank 0")

    # Joint eigenvectors read in (B, T) order give the overlaps <w_i|v_k (x) tau>.
    axes = [layout.position(l) for l in b_labels + t_labels]
    w_bt = w_vecs.reshape(layout.dims + (-1,)).transpose(axes + [len(axes)])
    overlaps = np.einsum("bti,bk->ikt", w_bt.reshape(d_b, d_t, -1).conj(), v_vecs)
    a = 0.5 * (np.log(lam)[:, None] - np.log(mu)[None, :])
    coeff = np.sqrt(lam[:, None] / mu[None, :])[:, :, None] * overlaps
    if mode == "rotated":
        coeff = coeff * np.exp(1j * t * a)[:, :, None]
    coeffs = coeff[None]
    if mode == "averaged":
        # Averaging exp(i t (a_ik - a_jl)) against beta0 gives the PSD kernel
        # G[(ik), (jl)] = g(a_ik - a_jl); each factor of G gives d_T Kraus operators.
        # G is numerically low-rank: eigenvalues no larger than its most negative
        # computed one are rounding noise and would only add Kraus operators.
        flat = a.reshape(-1)
        gvals, gvecs = np.linalg.eigh(_omega_over_sinh(flat[:, None] - flat[None, :]))
        keep = gvals > max(-gvals.min(), 0.0)
        factors = (gvecs[:, keep] * np.sqrt(gvals[keep])).T.reshape((-1,) + a.shape)
        coeffs = factors[:, :, :, None] * coeff[None]
    v_dag = v_vecs.conj().T
    kraus = [w_vecs @ c[:, :, tau] @ v_dag for c in coeffs for tau in range(d_t)]

    # Complete on the kernel of rho_B: route kernel weight to rho_BT.
    for bra in kernel.conj().T:
        kraus += [np.sqrt(lam[m]) * np.outer(w_vecs[:, m], bra) for m in range(lam.size)]

    in_layout = layout.subset(b_labels) if b_labels else SystemLayout.of(("triv", 1))
    chan = QuantumChannel(kraus, in_layout, layout)
    chan.check_complete(tols.verify_tol)
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
                      t_grid=None, tols: Tolerances = DEFAULT_TOLS) -> RecoveryAssessment:
    """Search plain, rotated-over-grid, and averaged recovery; keep the best.

    direction "from_bc" rebuilds A from the BC marginal (channel on B);
    "from_ab" rebuilds C from the AB marginal.  Ties keep the earliest
    candidate, so results are reproducible for a fixed grid.
    """
    if t_grid is None:
        t_grid = DEFAULT_T_GRID

    candidates: list[tuple[str, float | None]] = [("plain", None)]
    candidates += [("rotated", float(tv)) for tv in t_grid]
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
