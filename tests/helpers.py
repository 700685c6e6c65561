"""Shared constructions used across the test modules."""

from __future__ import annotations

import numpy as np

from markovkit.qcore import (
    DensityState,
    PureState,
    SystemLayout,
    kron_all,
    matrix_function,
    partial_trace,
    random_state,
    random_unitary,
)


def ghz(d: int = 2) -> PureState:
    """|GHZ> = sum_j |jjj> / sqrt(d) on A,B,C."""
    layout = SystemLayout.of(("A", d), ("B", d), ("C", d))
    v = np.zeros(d ** 3, dtype=complex)
    for j in range(d):
        v[j * d * d + j * d + j] = 1.0
    return PureState(v / np.sqrt(d), layout)


def bell_pair(label_a: str = "A", label_b: str = "B") -> PureState:
    layout = SystemLayout.of((label_a, 2), (label_b, 2))
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return PureState(v, layout)


def embedded_unitary_on_b(u: np.ndarray, d_a: int, d_c: int) -> np.ndarray:
    return kron_all([np.eye(d_a), u, np.eye(d_c)])


def planted_markov_state(
    rng: np.random.Generator,
    b0: int = 2,
    b_l: int = 2,
    b_r: int = 2,
    d_a: int = 2,
    d_c: int = 2,
    rotate: bool = True,
):
    """Random state of the exact block-decomposed Markov form.

    Returns (state, plant) where plant records the block data and the
    B-side isometry gamma (rows map B onto b0 (x) b_l (x) b_r coordinates).
    """
    d_b = b0 * b_l * b_r
    q = rng.dirichlet(np.ones(b0) * 4.0)
    sigmas, phis = [], []
    lay_s = SystemLayout.of(("A", d_a), ("bL", b_l))
    lay_p = SystemLayout.of(("bR", b_r), ("C", d_c))
    blocks = []
    for i in range(b0):
        sig = random_state(lay_s, seed=rng).matrix
        phi = random_state(lay_p, seed=rng).matrix
        sigmas.append(sig)
        phis.append(phi)
        blocks.append((float(q[i]), sig, phi))
    # Assemble on (A, b0, bL, bR, C), then permute B-factors together.
    dim = d_a * d_b * d_c
    full = np.zeros((dim, dim), dtype=complex)
    for i in range(b0):
        e = np.zeros((b0, b0))
        e[i, i] = 1.0
        # order (A, bL) x (b0) x (bR, C) -> rearrange to A,(b0,bL,bR),C
        blk = kron_all([np.array([[q[i]]]), sigmas[i], e, phis[i]])
        # current order: (A, bL, b0, bR, C); move b0 before bL
        t = blk.reshape((d_a, b_l, b0, b_r, d_c) * 2)
        t = t.transpose(0, 2, 1, 3, 4, 5, 7, 6, 8, 9)
        full += t.reshape(dim, dim)
    gamma = np.eye(d_b, dtype=complex)
    if rotate:
        u = random_unitary(d_b, rng)
        ub = embedded_unitary_on_b(u.conj().T, d_a, d_c)
        full = ub @ full @ ub.conj().T
        gamma = u
    layout = SystemLayout.of(("A", d_a), ("B", d_b), ("C", d_c))
    state = DensityState(full, layout, validate=False)
    plant = {
        "q": np.asarray(q, dtype=float),
        "blocks": blocks,
        "gamma": gamma,
        "dims": (b0, b_l, b_r),
    }
    return state, plant


def mix_with_noise(state: DensityState, rng: np.random.Generator, weight: float) -> DensityState:
    noise = random_state(state.layout, seed=rng)
    mat = (1.0 - weight) * state.matrix + weight * noise.matrix
    return DensityState(mat, state.layout, validate=False)


def _petz_oracle_parts(joint: DensityState, recover_onto):
    """rho_B, the permutation from (B, T) order to layout order, and d_T."""
    layout = joint.layout
    t_labels = tuple(l for l in layout.labels if l in recover_onto)
    b_labels = tuple(l for l in layout.labels if l not in recover_onto)
    axes = [layout.position(l) for l in b_labels + t_labels]
    perm = np.eye(layout.total_dim).reshape((-1,) + tuple(layout.dims[x] for x in axes))
    perm = perm.transpose([0] + [1 + axes.index(x) for x in range(len(axes))])
    perm = perm.reshape(layout.total_dim, -1).T
    return partial_trace(joint, b_labels).matrix, perm, layout.dim_of(t_labels)


def _rotated_choi(rho_bt, rho_b, perm, d_t, t):
    """Choi matrix of the support part: K_tau = rho_BT^e P (rho_B^{-e} (x) |tau>)."""
    e = (1.0 + 1j * t) / 2.0
    front = matrix_function(rho_bt, e) @ perm
    b_neg = matrix_function(rho_b, -e)
    vecs = np.array([(front @ np.kron(b_neg, np.eye(d_t)[:, tau:tau + 1])).reshape(-1)
                     for tau in range(d_t)])
    return vecs.T @ vecs.conj()


def _kernel_choi(rho_bt, rho_b):
    """Choi matrix of the kernel completion X -> Tr[Pi_ker(rho_B) X] rho_BT."""
    kernel = np.eye(rho_b.shape[0]) - matrix_function(rho_b, 0.0)
    return np.kron(rho_bt, kernel.T)


def petz_choi_oracle(joint: DensityState, recover_onto, t: float = 0.0) -> np.ndarray:
    """Choi matrix, in (output, input) order, of the rotated Petz map at t.

    Reference construction from matrix powers, one per subsystem marginal:
    K_tau = rho_BT^{(1+it)/2} P (rho_B^{-(1+it)/2} (x) |tau>), with P the
    permutation from (B, T) order to layout order, plus the completion on
    the kernel of rho_B.  t = 0 is the plain map.
    """
    rho_b, perm, d_t = _petz_oracle_parts(joint, recover_onto)
    return _rotated_choi(joint.matrix, rho_b, perm, d_t, t) + _kernel_choi(joint.matrix, rho_b)


def averaged_petz_choi_oracle(joint: DensityState, recover_onto,
                              nodes: int = 801, half_width: float = 16.0) -> np.ndarray:
    """Gauss-Legendre average of the rotated map against beta0(t) on a fine grid.

    beta0(t) = (pi/2)/(cosh(pi t) + 1); its mass outside [-16, 16] is below
    1e-21, and 801 nodes resolve the oscillating integrand on that range.
    """
    rho_b, perm, d_t = _petz_oracle_parts(joint, recover_onto)
    ts, ws = np.polynomial.legendre.leggauss(nodes)
    ts, ws = ts * half_width, ws * half_width
    ws = ws * (np.pi / 2.0) / (np.cosh(np.pi * ts) + 1.0)
    total = sum(w * _rotated_choi(joint.matrix, rho_b, perm, d_t, t) for t, w in zip(ts, ws))
    return total + _kernel_choi(joint.matrix, rho_b)


def choi_of(channel) -> np.ndarray:
    """Choi matrix of a Kraus channel in (output, input) order."""
    vecs = np.array([k.reshape(-1) for k in channel.kraus])
    return vecs.T @ vecs.conj()
