"""The splitting core and the padded block format: isometry layout,
per-block factoring, order, and the core's trivial-X and X-steered paths."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from markovkit import (
    SystemLayout,
    VerificationError,
    ki_decompose,
    markov_decompose,
    markovianize,
    markovianizing_cost,
    partial_trace,
    random_pure,
    random_state,
    random_unitary,
)
from markovkit import blocks, markov
from markovkit.algebra import generate_algebra
from markovkit.blocks import (
    MARKOV_TOL,
    block_slice,
    block_state,
    canonical_order,
    factor_block,
    kernel_kraus,
    kernel_projector,
    padded_isometry,
    refill_kraus,
    split_state,
    steered_span,
)
from markovkit.qcore import DEFAULT_TOLS, DensityState, _congruence, matrix_function

from helpers import (
    conditional_operators,
    kron_congruence,
    planted_markov_state,
    product_state,
)


def _loop_padded_isometry(columns):
    """Reference: row j*dl*dr + l*dr + r holds conj(column (l, r) of block j)."""
    d = columns[0].shape[0]
    d0 = len(columns)
    dl = max(c.shape[1] for c in columns)
    dr = max(c.shape[2] for c in columns)
    gamma = np.zeros((d0 * dl * dr, d), dtype=complex)
    for j, cols in enumerate(columns):
        for l in range(cols.shape[1]):
            for r in range(cols.shape[2]):
                gamma[j * dl * dr + l * dr + r, :] = cols[:, l, r].conj()
    return gamma, (d0, dl, dr)


def _loop_conditional_operators(rho4, inv_sqrt, d):
    """Reference: one einsum per Hermitian matrix unit Y on X, in the order
    |k><k|, then |k><l| + |l><k| and -i|k><l| + i|l><k| for k < l."""
    units = []
    for k in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[k, k] = 1.0
        units.append(e)
    for k in range(d):
        for l in range(k + 1, d):
            x = np.zeros((d, d), dtype=complex)
            x[k, l] = x[l, k] = 1.0
            y = np.zeros((d, d), dtype=complex)
            y[k, l], y[l, k] = -1j, 1j
            units += [x, y]
    return [inv_sqrt @ np.einsum("ce,aeqc->aq", y, rho4) @ inv_sqrt
            for y in units]


def _split_columns(u, shapes):
    """Consecutive columns of a unitary, grouped into (d, l, r) blocks."""
    out, off = [], 0
    for l, r in shapes:
        out.append(u[:, off: off + l * r].reshape(-1, l, r))
        off += l * r
    return out


def test_padded_isometry_matches_row_by_row_layout():
    rng = np.random.default_rng(3)
    columns = _split_columns(random_unitary(9, rng), [(1, 3), (2, 1), (2, 2)])
    gamma, dims = padded_isometry(columns)
    want, want_dims = _loop_padded_isometry(columns)
    assert dims == want_dims == (3, 2, 3)
    assert np.array_equal(gamma, want)
    # the blocks cover all nine dimensions: nothing is left for the kernel
    assert kernel_kraus(gamma, 1e-10).shape == (0, 9, 9)


@pytest.mark.parametrize("d_s, d_x", [(2, 16), (4, 4), (16, 2), (3, 7)])
def test_conditional_operators_match_the_matrix_unit_loop(d_s, d_x):
    # the same arithmetic, so the same bits: generate_algebra seeds its
    # random draws from its generators
    state = random_state(SystemLayout.of(("S", d_s), ("X", d_x)), seed=d_s * d_x)
    rho4 = state.matrix.reshape(d_s, d_x, d_s, d_x)
    inv_sqrt = matrix_function(np.einsum("axbx->ab", rho4), -0.5)
    got = conditional_operators(rho4, inv_sqrt, d_x)
    assert got.shape == (d_x ** 2, d_s, d_s)
    assert np.array_equal(got, _loop_conditional_operators(rho4, inv_sqrt, d_x))


def _span_projector(ops, cut=1e-8):
    """Orthogonal projector onto the complex span of a stack of operators."""
    flat = ops.reshape(len(ops), -1)
    _, sv, vh = np.linalg.svd(flat, full_matrices=False)
    basis = vh[sv > cut * sv[0]]
    return basis.conj().T @ basis


def _sx_tensor(state, d_s, d_x):
    rho4 = state.matrix.reshape(d_s, d_x, d_s, d_x)
    return rho4, matrix_function(np.einsum("axbx->ab", rho4), -0.5)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(hs.integers(1, 4), hs.integers(1, 5), hs.integers(0, 2 ** 32 - 1), hs.data())
def test_the_steered_span_spans_every_probe(d_s, d_x, seed, data):
    rank = data.draw(hs.integers(1, d_s * d_x))
    state = random_state(SystemLayout.of(("S", d_s), ("X", d_x)), rank, seed)
    rho4, inv_sqrt = _sx_tensor(state, d_s, d_x)
    rows = steered_span(rho4, inv_sqrt)
    assert len(rows) == min(d_x ** 2, d_s ** 2)
    want = _span_projector(conditional_operators(rho4, inv_sqrt, d_x))
    assert np.abs(_span_projector(rows) - want).max() <= 1e-10


def _near_cut_state(rng, d, weight):
    """(I (x) I + A (x) A' / 4 + weight B (x) B') / d^2 on (S, X), each
    factor traceless with Frobenius norm 1, A and A' diagonal in a random
    frame, B orthogonal to A and B' to A': the steered span is I, A and a
    direction B, which alone makes the algebra non-abelian."""
    def traceless(against=None):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if against is None:
            u = random_unitary(d, rng)
            x = u @ np.diag(rng.standard_normal(d)) @ u.conj().T
        x = x + x.conj().T - 2 * np.trace(x).real / d * np.eye(d)
        if against is not None:
            x = x - np.trace(against @ x).real * against
        return x / np.linalg.norm(x)
    a, a_x = traceless(), traceless()
    b, b_x = traceless(a), traceless(a_x)
    mat = (np.eye(d * d) + np.kron(a, a_x) / 4 + weight * np.kron(b, b_x)) / d ** 2
    return DensityState(mat, SystemLayout.of(("S", d), ("X", d)))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("factor, want", [
    (4.0, [(3, 1)]),  # B kept: I, A and B generate M_3
    (0.25, [(1, 1)] * 3),  # B cut: I and A generate the diagonal algebra
], ids=["above", "below"])
def test_a_direction_near_the_closure_cut_splits_alike_on_both_paths(seed, factor,
                                                                     want):
    # the realigned marginal's singular values are 1, 1/12 and weight / 3
    # relative, and so are the spanning rows'; the probe stack's ratios
    # differ from them by a factor of at most sqrt(2)
    weight = 3 * factor * DEFAULT_TOLS.algebra_closure_tol
    state = _near_cut_state(np.random.default_rng(seed), 3, weight)
    rho4, inv_sqrt = _sx_tensor(state, 3, 3)
    for ops in (steered_span(rho4, inv_sqrt), conditional_operators(rho4, inv_sqrt, 3)):
        assert sorted(generate_algebra(ops).structure.blocks) == want


class _Passed(Exception):
    pass


@pytest.mark.parametrize("factor", [1.01, 0.99])
def test_the_steered_families_must_commute_to_the_markov_floor(factor, monkeypatch):
    # rho = (I + d Z (x) P (x) I + d I (x) Q (x) Z) / 8 on (X, S, Y) with
    # P = sigma_x and Q = cos t sigma_x + sin t sigma_y.  Both spans are
    # {I, d P} / sqrt(2) and {I, d Q} / sqrt(2) after rho_S^{-1/2} = sqrt(2) I,
    # so the relative commutator is |[d P, d Q]| / 2 = sqrt(2) d^2 sin t
    bound = max(MARKOV_TOL, 100 * DEFAULT_TOLS.algebra_closure_tol)
    d = 0.4
    t = np.arcsin(factor * bound / (np.sqrt(2) * d * d))
    pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
    pauli_y = np.array([[0, -1j], [1j, 0]])
    pauli_z = np.diag([1.0, -1.0]).astype(complex)
    q = np.cos(t) * pauli_x + np.sin(t) * pauli_y
    eye = np.eye(2)
    mat = (np.eye(8) + d * np.kron(np.kron(pauli_z, pauli_x), eye)
           + d * np.kron(np.kron(eye, q), pauli_z)) / 8
    state = DensityState(mat, SystemLayout.of(("X", 2), ("S", 2), ("Y", 2)))

    def passed(*args, **kwargs):
        raise _Passed
    monkeypatch.setattr(blocks, "generate_algebra", passed)
    if factor > 1:
        with pytest.raises(VerificationError, match="steered algebras do not commute"):
            split_state(state, ("X",), ("S",), ("Y",), DEFAULT_TOLS)
    else:
        with pytest.raises(_Passed):
            split_state(state, ("X",), ("S",), ("Y",), DEFAULT_TOLS)


def test_uncovered_dimensions_get_the_kernel_projector():
    rng = np.random.default_rng(4)
    u = random_unitary(5, rng)
    gamma, _ = padded_isometry(_split_columns(u, [(1, 2), (1, 1)]))
    (ker,) = kernel_kraus(gamma, 1e-10)
    want = u[:, 3:] @ u[:, 3:].conj().T
    assert np.allclose(ker, want, atol=1e-12)


def test_factor_block_recovers_a_planted_product_and_its_weight():
    rng = np.random.default_rng(5)
    left = random_state(SystemLayout.of(("l", 2)), seed=rng).matrix
    right = random_state(SystemLayout.of(("r", 3)), seed=rng).matrix
    block = 0.4 * np.einsum("ab,rt->arbt", left, right)
    w, got_left, got_right = factor_block(block, 0.0, 1e-10)
    assert w == pytest.approx(0.4, abs=1e-14)
    assert np.allclose(got_left, left, atol=1e-14)
    assert np.allclose(got_right, right, atol=1e-14)
    assert factor_block(block, 0.5) is None


def test_factor_block_rejects_a_correlated_block():
    bell = np.zeros(4)
    bell[0] = bell[3] = 2 ** -0.5
    block = np.outer(bell, bell).reshape(2, 2, 2, 2)
    with pytest.raises(VerificationError):
        factor_block(block, 0.0, 1e-8)


def test_canonical_order_breaks_weight_ties_by_dims_then_index():
    weights = [0.25, 0.5, 0.25, 0.25]
    shapes = [(2, 1), (1, 1), (1, 2), (1, 2)]
    assert canonical_order(weights, shapes) == [1, 2, 3, 0]


def test_block_state_pulls_back_to_the_block_sum():
    rng = np.random.default_rng(6)
    shapes = [(2, 1), (1, 2)]
    columns = _split_columns(random_unitary(4, rng), shapes)
    gamma, dims = padded_isometry(columns)
    d_y = 2
    parts, want = [], np.zeros((4 * d_y, 4 * d_y), dtype=complex)
    for w, cols, (l, r) in zip((0.7, 0.3), columns, shapes):
        left = random_state(SystemLayout.of(("l", l)), seed=rng).matrix
        right = random_state(SystemLayout.of(("r", r), ("y", d_y)), seed=rng).matrix
        parts.append((w, left, right))
        v = np.kron(cols.reshape(4, l * r), np.eye(d_y))  # (H, Y) <- (L, R, Y)
        want += w * v @ np.kron(left, right) @ v.conj().T
    got = _congruence(gamma.conj().T, block_state(dims, parts, d_y=d_y), d_y=d_y)
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("d_x, d_y", [(x, y) for x in (1, 2, 3) for y in (1, 2, 3)])
def test_pull_back_matches_the_kronecker_lift(d_x, d_y):
    # a block form on (X, J L R, Y) carried back to (X, S, Y) by op = gamma+,
    # with gamma rectangular (6 padded rows, 4 columns)
    rng = np.random.default_rng(10 * d_x + d_y)
    gamma = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    dim = d_x * 6 * d_y
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    want = kron_congruence(gamma.conj().T, mat, d_x, d_y)
    got = _congruence(gamma.conj().T, mat, d_x, d_y)
    assert got.shape == (d_x * 4 * d_y,) * 2
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _refill_blocks(rng, side, d_new):
    """A padded isometry on 6 dims (blocks (2, 1), (1, 2), (1, 1), one dim
    left uncovered) and, per block, its rows and a random tau on N (x) L
    (side L) or R (x) N (side R)."""
    shapes = [(2, 1), (1, 2), (1, 1)]
    gamma, dims = padded_isometry(_split_columns(random_unitary(6, rng), shapes))
    out = []
    for j, (l, r) in enumerate(shapes):
        dim_tau = d_new * (l if side == "L" else r)
        tau = random_state(SystemLayout.of(("t", dim_tau)), seed=rng).matrix
        out.append((block_slice(gamma, dims, j, l, r), tau))
    return out


def _dense_refill(rows, tau, d_new, side, x):
    """tau (x) Tr_side[rows x rows+] on N (x) L (x) R or L (x) R (x) N,
    read back into S through rows+."""
    l, r, d_s = rows.shape
    g = rows.reshape(l * r, d_s)
    y = (g @ x @ g.conj().T).reshape(l, r, l, r)
    if side == "L":
        m = np.kron(tau, np.einsum("arat->rt", y))
        v = np.kron(np.eye(d_new), g)
    else:
        m = np.kron(np.einsum("arbr->ab", y), tau)
        v = np.kron(g, np.eye(d_new))
    return v.conj().T @ m @ v


@pytest.mark.parametrize("side", ["L", "R"])
@pytest.mark.parametrize("d_new", [1, 2])
def test_refill_kraus_is_the_dense_block_refill(side, d_new):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    got = want = 0.0
    for rows, tau in _refill_blocks(rng, side, d_new):
        kraus = refill_kraus(rows, tau, d_new, 1e-10, side)
        assert all(k.shape == (6 * d_new, 6) for k in kraus)
        got = got + sum(k @ x @ k.conj().T for k in kraus)
        want = want + _dense_refill(rows, tau, d_new, side, x)
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("side", ["L", "R"])
@pytest.mark.parametrize("d_new", [1, 2])
def test_refill_kraus_completes_to_the_block_projector(side, d_new):
    rng = np.random.default_rng(8)
    for rows, tau in _refill_blocks(rng, side, d_new):
        kraus = refill_kraus(rows, tau, d_new, 1e-10, side)
        g = rows.reshape(-1, 6)
        assert np.allclose(sum(k.conj().T @ k for k in kraus), g.conj().T @ g,
                           atol=1e-12)


@pytest.mark.parametrize("side", ["L", "R"])
def test_refill_channel_stacks_the_blocks_then_the_lifted_kernel(side):
    # two blocks cover 4 of 7 dims; the kernel goes to |0> on N, which
    # leads the output on side "L" and trails it on side "R"
    rng = np.random.default_rng(9)
    shapes, d_new = [(1, 2), (2, 1)], 2
    gamma, dims = padded_isometry(_split_columns(random_unitary(7, rng), shapes))
    refills = [(l, r, random_state(SystemLayout.of(("t", d_new * (l if side == "L" else r))),
                                   seed=rng).matrix) for l, r in shapes]
    s, n = SystemLayout.of(("S", 7)), SystemLayout.of(("N", d_new))
    chan = markov._refill_channel(gamma, dims, refills, side, s,
                                  n.concat(s) if side == "L" else s.concat(n), DEFAULT_TOLS)
    want = [k for j, (l, r, tau) in enumerate(refills)
            for k in refill_kraus(block_slice(gamma, dims, j, l, r), tau, d_new,
                                  DEFAULT_TOLS.support_cutoff_rel, side)]
    e0, ker = np.eye(d_new, 1), kernel_projector(gamma)
    want.append(np.kron(e0, ker) if side == "L" else np.kron(ker, e0))
    assert np.array_equal(chan.kraus, np.stack(want))


@pytest.mark.parametrize("seed", range(4))
def test_markov_path_matches_the_ki_path_on_a_planted_product(seed):
    # rho_X (x) rho_SY with dim X = 2 runs the X-steered branch of the core;
    # rho_SY alone runs the trivial-X branch, and both must split S alike
    rng = np.random.default_rng(seed)
    planted, _ = planted_markov_state(rng)
    rho_sy = partial_trace(planted, ("B", "C"))
    rho_x = random_state(SystemLayout.of(("X", 2)), seed=rng)
    md = markov_decompose(product_state(rho_x, rho_sy), "B")
    ki = ki_decompose(rho_sy, "B")
    np.testing.assert_allclose([e.q for e in md.entries], ki.probabilities, atol=1e-12)
    assert [(e.b_l_dim, e.b_r_dim) for e in md.entries] == \
        [(b.a_l_dim, b.a_r_dim) for b in ki.blocks]
    for entry, blk in zip(md.entries, ki.blocks):
        np.testing.assert_allclose(
            np.linalg.eigvalsh(entry.sigma),
            np.linalg.eigvalsh(np.kron(rho_x.matrix, blk.omega)), atol=1e-10)


@pytest.mark.parametrize("dims", [(1, 2, 2), (2, 1, 2), (2, 2, 1), (1, 1, 2)])
def test_dimension_one_subsystems(dims):
    psi = random_pure(SystemLayout.of(*zip("ABC", dims)), seed=3)
    rho = psi.to_density()
    ki = ki_decompose(partial_trace(rho, ("A", "C")), "A")
    assert abs(ki.probabilities.sum() - 1.0) < 1e-12
    report = markovianizing_cost(psi, "A|B|C")
    assert report.m_dec_bits >= 0.0
    assert report.m_dec_bits >= report.qcmi_lower_bits - 1e-12
    run = markovianize(psi, "A|B|C", 1)
    assert run.cost_bits_per_copy >= 0.0
    md = markov_decompose(run.output, "B")
    assert abs(sum(e.q for e in md.entries) - 1.0) < 1e-12
