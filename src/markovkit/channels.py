"""Quantum channels in Kraus form, recovery maps, and unitary ensembles.

Channels carry explicit input and output layouts.  Applying a channel to a
subset of a state's subsystems replaces those subsystems with the channel's
output subsystems in place; all other subsystems are untouched.  The
channel's input labels are bound to the targets in order, and an output
subsystem that carries an input label takes that target's label, so a
channel built on "A" applies unchanged to a copy labelled "A#2".

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

A recovery runs in one of two directions on a grouping (A, B, C): "from_bc"
reads the BC marginal and rebuilds A, "from_ab" reads the AB marginal and
rebuilds C.  Every recovery map acts on B, and ``recover`` applies any such
map, a Petz map or a Markov decomposition's block refill
(markov.recovery_from_decomposition), to the marginal its direction reads.

Inverses are support pseudo-inverses.  Every constructed channel is completed
on the kernel of rho_B so that its Kraus operators satisfy completeness on
the whole input space.

All maps of the family on one model state share these eigenbases and the
plain coefficients, so petz_errors, which reads every recovery error here,
scores each candidate in rho_B's eigenbasis without building its channel;
the coefficients of all its rotated candidates come from one product over
the t grid (_PetzSpectrum.coefficients with an array of t).
Completeness is certified in that basis too, by one _PetzSpectrum method
that petz_recovery and petz_errors both call.  As
c(t) = D_lam(t) c(0) D_mu(t)^dagger for diagonal phases, one certificate
covers the plain map and every t; the averaged map has its own.
Every operator set here is one stack from the moment it is built: a
channel holds its Kraus operators as one (k, d_out, d_in) array, a
RandomUnitaryEnsemble its unitaries as one (k, d, d) array, and phase_ops
and heisenberg_weyl return theirs as one; len, iteration and indexing read
each as a sequence of matrices.  Every Kraus-form sum sum_k K M K^dagger,
in QuantumChannel.apply and in petz_errors' candidates, is qcore's one
stacked Kraus-sum kernel (_kraus_sum), chunked at qcore's entry budget
_STACK_ENTRIES.  Eigenbases and isometries are applied on a state's tensor
axes by qcore's two-matmul kernel (_congruence); neither forms an identity
factor.
Completeness certificates compare a spectral norm with a bound: the
Frobenius norm screens them (qcore._spectral_norm_above), and the SVD runs
only when the screen fails, so the verdict and a reported deviation are the
spectral ones.  completeness_deviation() stays an exact spectral norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .qcore import (
    DEFAULT_TOLS,
    DensityState,
    SystemLayout,
    Tolerances,
    VerificationError,
    check_density,
    partial_trace,
    reorder,
    trace_norm,
    fidelity,
    parse_three_groups,
    support_eigh,
    _congruence,
    _kraus_sum,
    _spectral_norm_above,
    _stack_step,
)

__all__ = [
    "QuantumChannel",
    "RandomUnitaryEnsemble",
    "RecoveryAssessment",
    "unitary_channel",
    "phase_ops",
    "heisenberg_weyl",
    "petz_recovery",
    "petz_recoveries",
    "petz_errors",
    "recover",
    "best_rotated_petz",
    "DEFAULT_T_GRID",
]

# Grid for best-of-family rotated recovery searches.
DEFAULT_T_GRID = tuple(np.linspace(-5.0, 5.0, 41))

@dataclass
class QuantumChannel:
    """CPTP map given by Kraus operators, with input/output layouts.

    kraus is any nonempty sequence of (d_out, d_in) matrices, held as one
    complex (k, d_out, d_in) stack.
    """

    kraus: np.ndarray
    in_layout: SystemLayout
    out_layout: SystemLayout

    def __post_init__(self):
        din, dout = self.in_layout.total_dim, self.out_layout.total_dim
        self.kraus = np.asarray(self.kraus, dtype=complex)
        if len(self.kraus) == 0:
            raise ValueError("a channel needs at least one Kraus operator")
        if self.kraus.shape[1:] != (dout, din):
            raise ValueError(f"Kraus shape {self.kraus.shape[1:]} != {(dout, din)}")

    def completeness_deviation(self) -> float:
        """||sum K^dagger K - I||_2, exact."""
        return float(np.linalg.norm(_gram_gap(self.kraus), 2))

    def check_complete(self, tol: float = DEFAULT_TOLS.verify_tol):
        """Raise VerificationError when completeness_deviation() exceeds tol,
        with that value; a passing check is screened by the Frobenius norm."""
        dev = _spectral_norm_above(_gram_gap(self.kraus), tol)
        if dev is not None:
            raise VerificationError(f"Kraus completeness deviates by {dev:.3e}")

    def apply(self, state: DensityState, targets=None,
              tols: Tolerances = DEFAULT_TOLS) -> DensityState:
        """Apply to the target subsystems a label spec names (all of them by
        default; see SystemLayout.labels_of).

        The input labels are bound to the targets in order, so the target
        dims must equal the input layout's.  Output subsystems take the place
        of the first target; one carrying an input label takes that target's
        label, and the others must not collide with untouched subsystems.
        The result is validated as a state to 10 * tols.verify_tol.
        """
        layout = state.layout
        targets = layout.labels if targets is None else layout.labels_of(targets)
        pos = [layout.position(l) for l in targets]
        tdims = tuple(layout.dims[p] for p in pos)
        if tdims != self.in_layout.dims:
            raise ValueError(
                f"targets {targets} dims {tdims} do not match input layout dims {self.in_layout.dims}")
        rest = layout.subset(l for l in layout.labels if l not in targets)
        out_layout = self.out_layout.renamed(dict(zip(self.in_layout.labels, targets)))
        # on (in, rest) x (in, rest) each Kraus operator acts on the target
        # axes alone
        mat = reorder(state, targets + rest.labels).matrix
        out = _kraus_sum(self.kraus, mat, rest.total_dim)
        del mat
        # concat rejects output labels that collide with untouched ones
        mid = DensityState(out, out_layout.concat(rest), validate=False)
        del out
        first = min(pos)
        result = reorder(mid, layout.labels[:first] + out_layout.labels + rest.labels[first:])
        # only the result is held while it is validated
        del mid
        return DensityState(result.matrix, result.layout, tol=10 * tols.verify_tol)


def unitary_channel(u: np.ndarray, layout: SystemLayout) -> QuantumChannel:
    return QuantumChannel([np.asarray(u, dtype=complex)], layout, layout)


def phase_ops(d: int) -> np.ndarray:
    """Z^b for b = 0..d-1, Z|j> = exp(2 pi i j / d)|j>, as a (d, d, d) stack."""
    j = np.arange(d)
    out = np.zeros((d, d, d), dtype=complex)
    out[:, j, j] = np.exp(2j * np.pi * j[:, None] * j / d)
    return out


def heisenberg_weyl(d: int) -> np.ndarray:
    """The d^2 shift-and-phase unitaries X^a Z^b, ordered by (a, b), as a
    (d^2, d, d) stack; X^a|j> = |j + a mod d>."""
    j = np.arange(d)
    shifts = np.eye(d, dtype=complex)[(j - j[:, None]) % d]
    return (shifts[:, None] @ phase_ops(d)).reshape(d * d, d, d)


@dataclass
class RandomUnitaryEnsemble:
    """Uniform mixture of unitaries acting on a fixed layout.

    unitaries is any nonempty sequence of (d, d) matrices, d the layout's
    dimension, held as one complex (k, d, d) stack.
    """

    unitaries: np.ndarray
    layout: SystemLayout

    def __post_init__(self):
        d = self.layout.total_dim
        self.unitaries = np.asarray(self.unitaries, dtype=complex)
        if self.unitaries.size == 0:
            raise ValueError("an ensemble needs at least one unitary")
        if self.unitaries.shape[1:] != (d, d):
            raise ValueError(f"unitary shape {self.unitaries.shape[1:]} != {(d, d)}")

    @property
    def size(self) -> int:
        return len(self.unitaries)


def _omega_over_sinh(omega: np.ndarray) -> np.ndarray:
    """g(w) = w / sinh(w), the beta0-average of exp(i w t), with g(0) = 1."""
    zero = omega == 0.0
    safe = np.where(zero, 1.0, omega)
    return np.where(zero, 1.0, safe / np.sinh(safe))


def _gram_gap(stack: np.ndarray) -> np.ndarray:
    """sum_n c_n^dagger c_n - I for a stack c of shape (n, p, q), as one GEMM
    over (n, p): a Kraus set's completeness gap and, for a Petz map's
    coefficients, its support part in rho_B's eigenbasis."""
    flat = stack.reshape(-1, stack.shape[-1])
    return flat.conj().T @ flat - np.eye(flat.shape[1])


class _PetzSpectrum:
    """The spectral core that every Petz map of one model state shares: the
    support eigenpairs of rho_BT and rho_B, rho_B's kernel, a_ik and the
    plain coefficients coeff[tau, i, k] (see petz_recovery).

    modes are the modes the caller will ask coefficients() for, each checked
    before anything is decomposed.  b_side, when given, is support_eigh of
    rho_B, for a caller that models both directions of one state on one
    decomposition of rho_B.
    """

    def __init__(self, joint: DensityState, recover_onto, modes,
                 tols: Tolerances, b_side=None):
        for mode in modes:
            if mode not in ("plain", "rotated", "averaged"):
                raise ValueError(f"unknown mode {mode!r}")
        layout = self.layout = joint.layout
        recover_onto = layout.labels_of(recover_onto)
        if not recover_onto:
            raise ValueError("recover_onto must name at least one subsystem")
        t_labels = tuple(l for l in layout.labels if l in recover_onto)
        b_labels = tuple(l for l in layout.labels if l not in recover_onto)
        if not b_labels:
            raise ValueError("recover_onto must leave a subsystem B to read")
        self.d_t = layout.dim_of(t_labels)
        d_b = layout.dim_of(b_labels)
        self.in_layout = layout.subset(b_labels)
        if b_side is None:
            b_side = support_eigh(partial_trace(joint, b_labels).matrix,
                                  tols.support_cutoff_rel)

        self.lam, self.w_vecs, _, low_bt = support_eigh(joint.matrix, tols.support_cutoff_rel)
        lam = self.lam
        mu, self.v_vecs, self.kernel, low_b = b_side
        # refused only below the bound a state is validated to
        lowest = min(low_bt, low_b)
        if lowest < -tols.verify_tol:
            raise ValueError(f"petz_recovery: negative eigenvalue {lowest:.3e}")
        if mu.size == 0:
            raise ValueError("petz_recovery: input marginal has rank 0")

        # Joint eigenvectors read in (B, T) order give the overlaps <w_i|v_k (x) tau>.
        axes = [layout.position(l) for l in b_labels + t_labels]
        w_bt = self.w_vecs.reshape(layout.dims + (-1,)).transpose(axes + [len(axes)])
        overlaps = np.einsum("bti,bk->tik", w_bt.reshape(d_b, self.d_t, -1).conj(),
                             self.v_vecs)
        self.a = 0.5 * (np.log(lam)[:, None] - np.log(mu)[None, :])
        self.coeff = np.sqrt(lam[:, None] / mu[None, :]) * overlaps

    @cached_property
    def kernel_factors(self) -> np.ndarray:
        """Factors F[r, i, k] of the PSD kernel G[(ik), (jl)] = g(a_ik - a_jl).

        Averaging exp(i t (a_ik - a_jl)) against beta0 gives G; each factor
        gives d_T Kraus operators.  G is numerically low-rank: eigenvalues no
        larger than its most negative computed one are rounding noise and
        would only add Kraus operators.
        """
        flat = self.a.reshape(-1)
        gvals, gvecs = np.linalg.eigh(_omega_over_sinh(flat[:, None] - flat[None, :]))
        keep = gvals > max(-gvals.min(), 0.0)
        return (gvecs[:, keep] * np.sqrt(gvals[keep])).T.reshape((-1,) + self.a.shape)

    def coefficients(self, mode: str, t: float | np.ndarray = 0.0) -> np.ndarray:
        """Kraus coefficients as one stack c[n, i, k], n = (r, tau) with r
        the kernel factor of the averaged map (one for the others): the
        map's support Kraus operators are W c[n] V^dagger.

        A rotated map's t may be an array of points; the stacks then come
        as one array c[..., n, i, k] with t's shape leading."""
        if mode == "rotated":
            return self.coeff * np.exp(1j * np.asarray(t)[..., None, None, None] * self.a)
        if mode == "averaged":
            return (self.kernel_factors[:, None] * self.coeff).reshape(
                (-1,) + self.a.shape)
        return self.coeff

    def check_complete(self, mode: str, t: float, tol: float) -> None:
        """Raise VerificationError unless the map (mode, t), completed on
        rho_B's kernel, has ||sum K^dagger K - I||_2 <= tol.

        In rho_B's eigenbasis that gap is block-diagonal: sum c^dagger c - I
        on the support (_gram_gap), and (sum lam - 1) times the identity
        on the kernel, where the completion routes weight to rho_BT.  So its
        norm is the larger of the two, and no d_B x d_B sum is formed.
        """
        dev = _spectral_norm_above(_gram_gap(self.coefficients(mode, t)), tol) or 0.0
        if self.kernel.shape[1]:
            dev = max(dev, abs(self.lam.sum() - 1.0))
        if dev > tol:
            raise VerificationError(f"Kraus completeness deviates by {dev:.3e}")


def petz_recovery(joint: DensityState, recover_onto, mode: str = "plain",
                  t: float = 0.0, tols: Tolerances = DEFAULT_TOLS) -> QuantumChannel:
    """Recovery channel reconstructing ``recover_onto`` (a label spec, see
    SystemLayout.labels_of) from the rest of ``joint``.

    The returned channel maps states on B (the complement of recover_onto,
    in layout order) to states on the full joint layout.  mode is one of
    "plain", "rotated" (uses t), "averaged".

    All three modes are built in the eigenbases rho_BT = sum_i lam_i |w_i><w_i|
    and rho_B = sum_k mu_k |v_k><v_k| from the Kraus coefficients
    c[tau, i, k] = sqrt(lam_i / mu_k) <w_i|v_k (x) tau>, with T in layout order;
    the rotated map multiplies them by exp(i t a_ik), a_ik = (ln lam_i - ln mu_k)/2.
    Completeness is certified on those coefficients before any Kraus
    operator is formed (_PetzSpectrum.check_complete).  The Kraus operators
    come as one stack: W c V^dagger for every coefficient matrix, then, when
    rho_B has a kernel, the completion's operators.
    """
    spec = _PetzSpectrum(joint, recover_onto, [mode], tols)
    spec.check_complete(mode, t, tols.verify_tol)
    kraus = spec.w_vecs @ spec.coefficients(mode, t) @ spec.v_vecs.conj().T
    if spec.kernel.shape[1]:
        # Complete on the kernel of rho_B: route kernel weight to rho_BT, by
        # sqrt(lam_m) |w_m><ker_j| for each kernel vector j and support m.
        roots = (spec.w_vecs * np.sqrt(spec.lam)).T
        completion = roots[None, :, :, None] * spec.kernel.conj().T[:, None, None, :]
        kraus = np.concatenate([kraus, completion.reshape((-1,) + kraus.shape[1:])])
    return QuantumChannel(kraus, spec.in_layout, spec.layout)


@dataclass
class RecoveryAssessment:
    """Outcome of a best-in-family recovery search."""

    mode: str
    t: float | None
    error: float
    fidelity: float
    per_candidate: list[tuple[str, float | None, float]] = field(default_factory=list)


def _recovery_sides(state: DensityState, grouping, direction: str):
    """(rebuilt labels, read labels, B in layout order) for a recovery in
    ``direction``, with the (A, B, C) of grouping read by parse_three_groups:
    "from_bc" rebuilds A from BC, "from_ab" rebuilds C from AB."""
    if direction not in ("from_bc", "from_ab"):
        raise ValueError(f"unknown direction {direction!r}")
    a, b, c = parse_three_groups(grouping, state.layout)
    if not b:
        raise ValueError("the conditioning group B is empty; a recovery map "
                         "acts on B, so B must name at least one subsystem")
    onto, read = (a, b + c) if direction == "from_bc" else (c, a + b)
    # a recovery map's input is B in layout order, whatever order grouping lists
    return onto, read, tuple(l for l in state.layout.labels if l in b)


def recover(state: DensityState, grouping, direction: str, channel: QuantumChannel,
            tols: Tolerances = DEFAULT_TOLS) -> DensityState:
    """Apply a recovery map on B to the marginal it reads, in ``state``'s
    layout order.

    direction "from_bc" reads the BC marginal and "from_ab" the AB one, of
    the (A, B, C) that grouping names; channel acts on B in layout order and
    rebuilds the other side.  Any map on B works: a Petz map
    (petz_recoveries) or a Markov decomposition's block refill
    (markov.recovery_from_decomposition).  The read-side marginal is the
    only partial trace taken.
    """
    _, read, b_in = _recovery_sides(state, grouping, direction)
    return reorder(channel.apply(partial_trace(state, read), b_in, tols),
                   state.layout.labels)


def petz_recoveries(state: DensityState, grouping, direction: str,
                    candidates=(("plain", 0.0),),
                    tols: Tolerances = DEFAULT_TOLS):
    """Yield (channel, recovered state) for each (mode, t) candidate.

    direction "from_bc" rebuilds A from the BC marginal, "from_ab" rebuilds
    C from the AB marginal; either way the Petz map of the given mode is
    modelled on the marginal of B and the rebuilt side and acts on B.  The
    model marginal is taken once for all candidates, and each map is read
    through recover, so the recovered state comes back in the layout order
    of ``state``.
    """
    onto, _, b_in = _recovery_sides(state, grouping, direction)
    model = partial_trace(state, onto + b_in)
    for mode, t in candidates:
        chan = petz_recovery(model, onto, mode=mode, t=t, tols=tols)
        yield chan, recover(state, grouping, direction, chan, tols)


def _petz_core(state: DensityState, grouping, direction: str, modes,
               tols: Tolerances, b_side=None):
    """(spectral core, read-side marginal, B in layout order) of the Petz maps
    that petz_errors scores; modes and b_side as for _PetzSpectrum."""
    onto, read, b_in = _recovery_sides(state, grouping, direction)
    spec = _PetzSpectrum(partial_trace(state, onto + b_in), onto, modes, tols, b_side)
    return spec, partial_trace(state, read), b_in


def petz_errors(state: DensityState, grouping, direction: str, candidates,
                tols: Tolerances = DEFAULT_TOLS):
    """Yield (error, recovered - state) for each (mode, t) candidate of
    petz_recoveries, from one spectral core and without building any channel.

    Each difference is a fresh matrix in the layout order of ``state``.
    Completeness is certified to tols.verify_tol once per coefficient family
    (plain, which covers every rotated t, and averaged), and each recovered
    state is validated to 10 * tols.verify_tol, as petz_recoveries does.
    best_rotated_petz reads its errors here, and markov.is_markov its
    differences through _petz_differences on its own two cores.
    """
    candidates = list(candidates)
    core = _petz_core(state, grouping, direction, [m for m, _ in candidates], tols)
    for diff in _petz_differences(state, *core, candidates, tols):
        yield trace_norm(diff), diff


def _petz_differences(state: DensityState, spec: _PetzSpectrum, inp: DensityState,
                      b_in, candidates, tols: Tolerances):
    """petz_errors' differences, from a spectral core built by _petz_core;
    candidates is a list."""
    rest = inp.layout.subset(l for l in inp.layout.labels if l not in b_in)
    d_x, d_b = rest.total_dim, inp.layout.dim_of(b_in)
    r_lam = spec.lam.size
    # the read side X on (B, rest), rotated into rho_B's eigenbasis: Y[(k, x), (l, x')]
    x = reorder(inp, b_in + rest.labels).matrix
    y = _congruence(spec.v_vecs.conj().T, x, d_y=d_x)
    # the kernel completion adds (rho_BT on its support) (x) Tr_B[(P_ker (x) I) X]
    # to every candidate; not noise: X's weight in directions the support
    # cutoff drops lands here
    ker_term = None
    if spec.kernel.shape[1]:
        p_ker = spec.kernel @ spec.kernel.conj().T
        ker_term = spec.lam[:, None, None] * np.einsum(
            "bxcy,cb->xy", x.reshape(d_b, d_x, d_b, d_x), p_ker)[None]
    diag = np.arange(r_lam)
    # recovered states come out on (model, rest); one transpose to the state's order
    order = spec.layout.labels + rest.labels
    dims = spec.layout.dims + rest.dims
    perm = [order.index(l) for l in state.layout.labels]
    axes = perm + [p + len(perm) for p in perm]
    for family in dict.fromkeys("averaged" if mode == "averaged" else "plain"
                                for mode, _ in candidates):
        spec.check_complete(family, 0.0, tols.verify_tol)

    # every rotated candidate's coefficients in one product, a chunk of t
    # points at a time
    rotated = np.array([t for mode, t in candidates if mode == "rotated"], dtype=float)
    step = _stack_step(spec.coeff.size)
    stacks = chain.from_iterable(spec.coefficients("rotated", rotated[lo:lo + step])
                                 for lo in range(0, rotated.size, step))
    for mode, t in candidates:
        coeffs = next(stacks) if mode == "rotated" else spec.coefficients(mode, t)
        m = _kraus_sum(coeffs, y, d_x)
        if ker_term is not None:
            m.reshape(r_lam, d_x, r_lam, d_x)[diag, :, diag, :] += ker_term
        out = _congruence(spec.w_vecs, m, d_y=d_x)
        del m
        out = out.reshape(dims + dims).transpose(axes).reshape(state.matrix.shape)
        check_density(out, 10 * tols.verify_tol)
        out -= state.matrix
        yield out


def best_rotated_petz(state: DensityState, grouping, direction: str = "from_bc",
                      t_grid=DEFAULT_T_GRID,
                      tols: Tolerances = DEFAULT_TOLS) -> RecoveryAssessment:
    """Search plain, rotated-over-grid, and averaged recovery; keep the best.

    direction "from_bc" rebuilds A from the BC marginal (channel on B);
    "from_ab" rebuilds C from the AB marginal.  Ties keep the earliest
    candidate, so results are reproducible for a fixed grid.

    Every candidate is scored in one pass of petz_errors; the search keeps
    only the best recovered state so far and reads the fidelity from it.
    """
    candidates: list[tuple[str, float | None]] = [("plain", None)]
    candidates += [("rotated", float(tv)) for tv in t_grid]
    candidates.append(("averaged", None))

    per, best, best_diff = [], 0, None
    scored = petz_errors(state, grouping, direction, candidates, tols)
    for index, ((mode, tv), (err, diff)) in enumerate(zip(candidates, scored)):
        per.append((mode, tv, err))
        if best_diff is None or err < per[best][2] - 1e-15:
            best, best_diff = index, diff
    best_diff += state.matrix
    recovered = DensityState(best_diff, state.layout, validate=False)
    return RecoveryAssessment(*per[best], fidelity(recovered, state), per)
