"""The padded block format: isometry layout, per-block factoring, order."""

import numpy as np
import pytest

from markovkit import VerificationError, random_state, random_unitary, SystemLayout
from markovkit.blocks import (
    block_state,
    canonical_order,
    factor_block,
    kernel_kraus,
    padded_isometry,
    pull_back,
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
    assert kernel_kraus(gamma, 1e-10) == []


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
    got = pull_back(block_state(dims, parts, d_y=d_y), gamma, d_y=d_y)
    assert np.allclose(got, want, atol=1e-12)
