"""Shared constructions used across the test modules."""

from __future__ import annotations

import itertools

import numpy as np

from markovkit.blocks import block_state, padded_isometry
from markovkit.channels import (
    QuantumChannel,
    RandomUnitaryEnsemble,
    best_rotated_petz,
    petz_recoveries,
    unitary_channel,
)
from markovkit.kidecomp import ki_decompose, state_preserving_channel
from markovkit.markov import _pinched_tilde
from markovkit.protocols import _copies, build_twirl_ensemble, n_fold_state
from markovkit.qcore import (
    DEFAULT_TOLS,
    DensityState,
    PureState,
    SystemLayout,
    _check_partition,
    _clamp_information,
    _congruence,
    kron_all,
    matrix_function,
    parse_three_groups,
    partial_trace,
    qcmi,
    random_state,
    random_unitary,
    reorder,
    reorder_vector,
    support_eigh,
    trace_distance,
    von_neumann_entropy,
)


def mutual_information(state: DensityState, part_a, part_b, tols=DEFAULT_TOLS) -> float:
    """I(A:B) = S(A) + S(B) - S(AB) in bits, for a bipartition of the state
    into two label specs, clamped as qcore.qcmi clamps."""
    a, b = state.layout.labels_of(part_a), state.layout.labels_of(part_b)
    _check_partition(state.layout, (a, b), (part_a, part_b))
    s_a = von_neumann_entropy(partial_trace(state, a), tols)
    s_b = von_neumann_entropy(partial_trace(state, b), tols)
    s_ab = von_neumann_entropy(state, tols)
    return _clamp_information(s_a + s_b - s_ab, "mutual information")


def tensor_product(parts):
    """Tensor product of (matrix, layout) pairs; layouts concatenate in order."""
    layout = parts[0][1]
    for _, lay in parts[1:]:
        layout = layout.concat(lay)
    return kron_all([mat for mat, _ in parts]), layout


def product_state(*states: DensityState) -> DensityState:
    mat, layout = tensor_product([(s.matrix, s.layout) for s in states])
    return DensityState(mat, layout, validate=False)


def _fresh_label(layout: SystemLayout, base: str = "R") -> str:
    if base not in layout.labels:
        return base
    k = 1
    while f"{base}{k}" in layout.labels:
        k += 1
    return f"{base}{k}"


def purify(state: DensityState, ref_label: str | None = None) -> PureState:
    """Purification with a reference of dimension rank(rho), appended last."""
    vals, vecs, _, _ = support_eigh(state.matrix, DEFAULT_TOLS.support_cutoff_rel)
    layout = state.layout.concat(
        SystemLayout.of((ref_label or _fresh_label(state.layout), vals.size)))
    # row-major reshape of the (dim, rank) matrix puts vecs[:, i] sqrt(vals[i])
    # at reference index i
    vec = (vecs * np.sqrt(vals)).reshape(-1)
    return PureState(vec / np.linalg.norm(vec), layout, validate=False)


def dephasing_channel(basis: np.ndarray, layout: SystemLayout) -> QuantumChannel:
    """Projective dephasing in the orthonormal basis given by the columns."""
    return QuantumChannel([np.outer(b, b.conj()) for b in np.asarray(basis).T],
                          layout, layout)


def ensemble_channel(ensemble) -> QuantumChannel:
    """The uniform mixture of a RandomUnitaryEnsemble as a Kraus channel."""
    return QuantumChannel(ensemble.unitaries / np.sqrt(ensemble.size),
                          ensemble.layout, ensemble.layout)


def loop_phase_ops(d: int) -> list[np.ndarray]:
    """Z^b for b = 0..d-1, one matrix at a time."""
    j = np.arange(d)
    return [np.diag(np.exp(2j * np.pi * b * j / d)) for b in range(d)]


def loop_heisenberg_weyl(d: int) -> list[np.ndarray]:
    """X^a Z^b ordered by (a, b), X^a built by repeated products with the
    shift and multiplied into each Z^b."""
    x = np.zeros((d, d), dtype=complex)
    for j in range(d):
        x[(j + 1) % d, j] = 1.0
    out = []
    xa = np.eye(d, dtype=complex)
    for _ in range(d):
        out += [xa @ zb for zb in loop_phase_ops(d)]
        xa = x @ xa
    return out


def loop_twirl_elements(ki) -> list[np.ndarray]:
    """The twirl's per-copy unitaries one at a time, as dense products:
    gamma+ (Z^b (x) I_aL (x) W) gamma + I - gamma+ gamma, b most significant."""
    d0, dl, dr = ki.dims
    kernel = np.eye(ki.gamma.shape[1]) - ki.gamma.conj().T @ ki.gamma
    return [ki.gamma.conj().T @ kron_all([z, np.eye(dl), w]) @ ki.gamma + kernel
            for z in loop_phase_ops(d0) for w in loop_heisenberg_weyl(dr)]


def product_twirl_ensemble(ki, n: int) -> RandomUnitaryEnsemble:
    """The n-copy twirl as its (d_a0 d_aR^2)^n product unitaries on A^n,
    copy 1 most significant; copy i's labels carry "#i" for n >= 2."""
    copy = build_twirl_ensemble(ki)
    if n == 1:
        return copy
    return RandomUnitaryEnsemble(
        [kron_all(combo) for combo in itertools.product(copy.unitaries, repeat=n)],
        _copies(ki.part, (), n)[0])


def dense_lemma6_information(psi: PureState, chan, n: int, tols=DEFAULT_TOLS) -> float:
    """I(A^n:B^n C^n) / n after chan acts on every A copy of the full density
    matrix of Psi^(x n) on (A, B, C)."""
    psi_n, (a, b, c) = n_fold_state(psi, (("A",), ("B",), ("C",)), n)
    state = psi_n.to_density()
    for copy in a:
        state = chan.apply(state, copy, tols)
    return mutual_information(state, a, b + c, tols) / n


def dense_twirl_purification(psi: PureState, grouping, n: int, tols=DEFAULT_TOLS):
    """The n-copy twirl purification sum_k |k>_G (x) (U_k (x) I) Psi^(x n) /
    sqrt(K^n) on (A^n, B^n, C^n, G), from the K^n product unitaries of
    product_twirl_ensemble, k = (k_1 .. k_n) copy 1 most significant, and
    Psi^(x n) from n_fold_state.  Returns it and n_fold_state's groups."""
    a, b, c = parse_three_groups(grouping, psi.layout)
    ki = ki_decompose(partial_trace(psi.to_density(), a + c), a, tols)
    ensemble = product_twirl_ensemble(ki, n)
    psi_n, groups_n = n_fold_state(psi, (a, b, c), n)
    g = ensemble.unitaries @ psi_n.vector.reshape(ensemble.layout.total_dim, -1)
    layout = psi_n.layout.concat(SystemLayout.of(("G", ensemble.size)))
    vec = g.reshape(ensemble.size, -1).T.reshape(-1) / np.sqrt(ensemble.size)
    return PureState(vec, layout), groups_n


def dense_markovianize(psi: PureState, grouping, n: int, tols=DEFAULT_TOLS):
    """Reference for markovianize, read on the full twirl output.

    The output is the dense twirl purification's state on (A^n, B^n, C^n);
    its QCMI and both plain-Petz errors are computed on that full matrix
    with no frame reading.  Returns (output, QCMI, error from BC, error
    from AB).

    At n >= 2 its Petz maps cut the support of the n-copy marginals, which
    is wrong where a one-copy weight lies above the support cut and its
    n-th power below it: on tests/data/near_cutoff_b.json (rho_B weights
    1 - 1e-6 and 1e-6) two copies drop the 1e-12 product direction and read
    a recovery error of 1.8e-6, where markovianize's exact two-copy norm,
    formed from one copy's recovered state, reads 2.0e-15.
    """
    purification, groups_n = dense_twirl_purification(psi, grouping, n, tols)
    output = partial_trace(purification, sum(groups_n, ()))
    output = DensityState(output.matrix, output.layout, tol=10 * tols.verify_tol)
    err_bc, err_ab = (
        trace_distance(next(petz_recoveries(output, groups_n, d, tols=tols))[1], output)
        for d in ("from_bc", "from_ab"))
    return output, qcmi(output, groups_n, tols), err_bc, err_ab


def block_phase_channel(ki, rng: np.random.Generator, tols=DEFAULT_TOLS) -> QuantumChannel:
    """An exact preserver of ki's rho^{AC}: state_preserving_channel of one
    unitary per block, diagonal in omega_j's eigenbasis, with phases drawn
    uniformly, block by block, from rng."""
    isos = []
    for blk in ki.blocks:
        vecs = np.linalg.eigh(blk.omega)[1]
        phases = np.exp(2j * np.pi * rng.random(blk.a_l_dim))
        isos.append((vecs * phases) @ vecs.conj().T)
    return state_preserving_channel(ki, isos, tols)


def dense_estimate_zeta(psi: PureState, ki, eps: float, trials: int = 12,
                        seed: int = 0, tols=DEFAULT_TOLS) -> float:
    """Reference for markov.estimate_zeta, channel by channel.

    Every candidate of the rotation and dephasing families is built as a
    Kraus channel on A, from the same draws, and applied to psi^{AC} and,
    when it moves that by at most eps + 1e-12, to the Markov state, each
    application validated and scored on its own.  Every third trial draws
    an exact preserver (block_phase_channel) and scores it the same way,
    where estimate_zeta scores it 0.
    """
    rho_ac = partial_trace(psi, ki.part.labels + ki.rest.labels)
    tilde = _pinched_tilde(psi, ki, tols)
    a_layout = psi.layout.subset(ki.part.labels)
    d_a = a_layout.total_dim
    best = 0.0

    def consider(channel: QuantumChannel):
        nonlocal best
        moved_ac = trace_distance(channel.apply(rho_ac, a_layout.labels, tols), rho_ac)
        if moved_ac <= eps + 1e-12:
            moved = trace_distance(channel.apply(tilde, a_layout.labels, tols), tilde)
            best = max(best, moved)

    amp_grid = [2.0 ** -j for j in range(10, -1, -1)]
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        kind = trial % 3
        if kind == 0:
            x = rng.standard_normal((d_a, d_a)) + 1j * rng.standard_normal((d_a, d_a))
            h = (x + x.conj().T) / 2.0
            h /= np.linalg.norm(h, 2)
            evals, evecs = np.linalg.eigh(h)
            for amp in amp_grid:
                u = (evecs * np.exp(1j * np.pi * amp * evals)) @ evecs.conj().T
                consider(unitary_channel(u, a_layout))
        elif kind == 1:
            v = random_unitary(d_a, rng)
            for amp in amp_grid:
                kraus = [np.sqrt(1.0 - amp) * np.eye(d_a)]
                kraus += [np.sqrt(amp) * np.outer(v[:, k], v[:, k].conj())
                          for k in range(d_a)]
                consider(QuantumChannel(kraus, a_layout, a_layout))
        else:
            consider(block_phase_channel(ki, rng, tols))
    return best


def dense_measurement_reading(psi: PureState, grouping, n: int, tols=DEFAULT_TOLS):
    """Reference for measurement_protocol's shared diagnostics, read on the
    full state of the dense twirl purification.

    The output G^T G^* on (A^n, B^n, C^n) gives eps as the trace-norm change
    of the B^n C^n marginal and eps' from best_rotated_petz from AB; G's Gram
    matrix gives S(G), and I(G:B^n C^n) = S(G) + S(B^n C^n) - S(A^n).
    Returns (eps, eps', I(G:B^n C^n)).
    """
    purification, (a, b, c) = dense_twirl_purification(psi, grouping, n, tols)
    psi_n = n_fold_state(psi, grouping, n)[0]
    t = purification.vector.reshape(psi_n.dim, -1)  # G^T
    output = DensityState(t @ t.conj().T, psi_n.layout)
    rho_bc = partial_trace(output, b + c)
    eps = trace_distance(rho_bc, partial_trace(psi_n.to_density(), b + c))
    eps_prime = best_rotated_petz(output, (a, b, c), "from_ab", tols=tols).error
    i_g_bc = (von_neumann_entropy(t.T @ t.conj(), tols) + von_neumann_entropy(rho_bc, tols)
              - von_neumann_entropy(partial_trace(output, a), tols))
    return eps, eps_prime, i_g_bc


def markov_reconstruct(md) -> DensityState:
    """A MarkovDecomposition's block-product form pulled back to (A, B, C)."""
    d_a, d_c = md.a_part.total_dim, md.c_part.total_dim
    mat = block_state(md.b_dims, [(e.q, e.sigma, e.phi) for e in md.entries], d_a, d_c)
    return DensityState(_congruence(md.gamma_prime.conj().T, mat, d_a, d_c),
                        md.a_part.concat(md.b_part).concat(md.c_part), validate=False)


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


def planted_ki_pure(seed, l_dims, d_r, kernel, d_c=2) -> PureState:
    """Pure state on (A, B, C) whose rho^AC is (+)_j p_j omega_j (x) phi_j in a
    random frame of A: block j has aL dim l_dims[j] with a full-rank omega_j,
    all share aR dim d_r with a generic phi_j on aR (x) C, and A has
    ``kernel`` dims outside supp(rho^A).  B purifies.

    phi_j is pure when one block or d_r = 1 leaves nothing to confuse; else
    of rank 2, since pure phi_j make every block's conditional operators
    unitarily equivalent and ki_decompose then merges the blocks (only
    modular closure of those operators would tell them apart)."""
    rng = np.random.default_rng(seed)
    shapes = [(l, d_r) for l in l_dims]
    d_a = sum(l * d_r for l in l_dims) + kernel
    u = random_unitary(d_a, rng)
    gamma, dims = padded_isometry(
        [u[:, off:off + l * r].reshape(d_a, l, r)
         for off, (l, r) in zip(np.cumsum([0] + [l * r for l, r in shapes]), shapes)])
    p = rng.dirichlet(4.0 * np.ones(len(l_dims)))
    blocks = np.zeros((dims[0], dims[1], d_r * d_c) * 2, dtype=complex)
    for j, l in enumerate(l_dims):
        omega = random_state(SystemLayout.of(("l", l)), seed=rng).matrix
        phi = random_state(SystemLayout.of(("r", d_r), ("c", d_c)), seed=rng,
                           rank=1 if len(l_dims) == 1 or d_r == 1 else 2).matrix
        blocks[j, :l, :, j, :l, :] = p[j] * np.einsum("ab,rt->arbt", omega, phi)
    size = dims[0] * dims[1] * d_r * d_c
    frame = np.kron(gamma, np.eye(d_c))
    rho_ac = DensityState(frame.conj().T @ blocks.reshape(size, size) @ frame,
                          SystemLayout.of(("A", d_a), ("C", d_c)))
    psi = purify(rho_ac, "B")
    vec, layout = reorder_vector(psi.vector, psi.layout, ("A", "B", "C"))
    return PureState(vec, layout)


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


def kron_apply(channel, state: DensityState, targets) -> DensityState:
    """Reference for QuantumChannel.apply: each Kraus operator lifted by a
    Kronecker product with the identity on the untouched subsystems.

    Targets are moved to the front, the lifted operators act there, and the
    output subsystems are put back where the first target sat, with input
    labels renamed to the targets they are bound to.
    """
    if isinstance(targets, str):
        targets = (targets,)
    targets = tuple(targets)
    rest = tuple(l for l in state.layout.labels if l not in targets)
    perm = reorder(state, targets + rest)
    d_rest = perm.layout.total_dim // channel.in_layout.total_dim
    eye = np.eye(d_rest)
    out = np.zeros((channel.out_layout.total_dim * d_rest,) * 2, dtype=complex)
    for k in channel.kraus:
        kf = np.kron(k, eye)
        out += kf @ perm.matrix @ kf.conj().T
    out_layout = channel.out_layout.renamed(dict(zip(channel.in_layout.labels, targets)))
    mid = DensityState(out, out_layout.concat(perm.layout.subset(rest)), validate=False)
    final = []
    placed = False
    for l in state.layout.labels:
        if l in targets:
            if not placed:
                final.extend(out_layout.labels)
                placed = True
        else:
            final.append(l)
    return reorder(mid, final)


def dense_commutant(herm: np.ndarray, tol: float) -> np.ndarray:
    """Reference for algebra._commutant: one SVD of the whole stacked
    h (x) I - I (x) h^T (row-major vec), all k r^2 rows at once, cut at tol
    times the largest singular value when that exceeds 1."""
    k, r, _ = herm.shape
    eye = np.eye(r)
    maps = (np.einsum("kac,bd->kabcd", herm, eye)
            - np.einsum("ac,kdb->kabcd", eye, herm)).reshape(k * r * r, r * r)
    _, s, vh = np.linalg.svd(maps, full_matrices=False)
    return vh[s <= tol * max(1.0, s[0])].conj().reshape(-1, r, r)


def kron_congruence(op: np.ndarray, mat: np.ndarray, d_x: int = 1,
                    d_y: int = 1) -> np.ndarray:
    """Reference for qcore._congruence with the identities Kronecker-expanded."""
    g = np.kron(np.kron(np.eye(d_x), op), np.eye(d_y))
    return g @ mat @ g.conj().T


def conditional_operators(rho4: np.ndarray, inv_sqrt: np.ndarray,
                          probe_dim: int) -> np.ndarray:
    """Reference for blocks.steered_span: one operator per Hermitian probe.

    rho4 carries the state as an (S, X, S, X) tensor and inv_sqrt is the
    inverse square root of rho^S; each Hermitian Y on X gives
    inv_sqrt Tr_X[rho (I (x) Y)] inv_sqrt.  Returned as a (probe_dim^2, S, S)
    stack for the matrix units Y = |k><k| for each k, then |k><l| + |l><k|
    and -i|k><l| + i|l><k| for each k < l.
    """
    r = rho4.transpose(3, 1, 0, 2)  # r[c, e] = Tr_X[rho (I (x) |c><e|)]
    k, l = np.triu_indices(probe_dim, 1)
    upper, lower = r[k, l], r[l, k]
    pairs = np.stack([upper + lower, -1j * upper + 1j * lower], axis=1)
    ops = np.concatenate([r[np.arange(probe_dim), np.arange(probe_dim)],
                          pairs.reshape((-1,) + r.shape[2:])])
    return inv_sqrt @ ops @ inv_sqrt
