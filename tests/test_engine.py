"""The algebra engine on planted block structures.

An algebra U ((+)_j M_{n_j} (x) I_{m_j}) U+ is planted in a random frame U,
on its whole space or beside a kernel, and generated from random elements.
``generate_algebra`` must return the planted block multiset, the commutant
dimension sum_j m_j^2 and a certificate within verify_tol, whichever exit
it takes: a full-span generating set leaves at once, an abelian algebra
leaves on the eigenvalue clusters of one span element h, a factor whose few
generators span less than M_r leaves after the commutant fold finds C I,
and every other algebra is split by seeded draws.  The commutant fold, run
on the entries block-diagonal in h's clusters, must match the dense SVD of
the whole ad-map stack (``helpers.dense_commutant``) as a null-space
projector, also where eigenvalues of h closer than CLUSTER_GAP merge.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from markovkit import algebra
from markovkit.algebra import _hermitian_span, generate_algebra
from markovkit.qcore import DEFAULT_TOLS, random_unitary

from helpers import dense_commutant

TOL = DEFAULT_TOLS.algebra_closure_tol


def _plant(rng, blocks, kernel, count, hermitian=False):
    """count random elements of U ((+)_j M_{n_j} (x) I_{m_j}) U+ on a space
    with kernel extra dims, U random."""
    s = sum(n * m for n, m in blocks)
    d = s + kernel
    u = random_unitary(d, rng)[:, :s]
    gens = []
    for _ in range(count):
        full = np.zeros((s, s), dtype=complex)
        off = 0
        for n, m in blocks:
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            if hermitian:
                x = x + x.conj().T
            full[off:off + n * m, off:off + n * m] = np.kron(x, np.eye(m))
            off += n * m
        gens.append(u @ full @ u.conj().T)
    return np.array(gens)


def _projector(basis):
    """sum_k vec(C_k) vec(C_k)+ of an orthonormal stack of matrices."""
    flat = basis.reshape(len(basis), -1)
    return flat.T @ flat.conj()


def _generate(gens):
    """generate_algebra with its commutant fold and commutant split watched."""
    with mock.patch.object(algebra, "_commutant", wraps=algebra._commutant) as comm, \
            mock.patch.object(algebra, "_split_commutant",
                              wraps=algebra._split_commutant) as split:
        alg = generate_algebra(gens)
    return alg, comm, split


def _check(alg, blocks, s):
    assert sorted(alg.structure.blocks) == sorted(blocks)
    assert alg.support_dim == s
    assert alg.commutant_dim == sum(m * m for _, m in blocks)
    assert alg.certificate <= DEFAULT_TOLS.verify_tol


def _check_fold(comm, atol=1e-10):
    """Every fold generate_algebra ran, in the eigenbasis it was given,
    matches the dense oracle."""
    for call in comm.call_args_list:
        folded = algebra._commutant(*call.args, **call.kwargs)
        dense = dense_commutant(*call.args)
        assert folded.shape == dense.shape
        assert np.abs(_projector(folded) - _projector(dense)).max() <= atol


_BLOCK = hs.tuples(hs.integers(1, 3), hs.integers(1, 3))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(hs.lists(_BLOCK, min_size=1, max_size=3).filter(
           lambda b: sum(n * m for n, m in b) <= 10),
       hs.integers(0, 2), hs.integers(1, 3), hs.integers(0, 2 ** 32 - 1))
def test_planted_direct_sums_come_back(blocks, kernel, count, seed):
    gens = _plant(np.random.default_rng(seed), blocks, kernel, count)
    alg, comm, _ = _generate(gens)
    _check(alg, blocks, sum(n * m for n, m in blocks))
    _check_fold(comm)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(hs.integers(1, 5), hs.integers(0, 2), hs.integers(0, 2 ** 32 - 1))
def test_a_full_span_reads_the_factor_without_a_fold(r, kernel, seed):
    # r^2 generic Hermitian elements span all of M_r
    gens = _plant(np.random.default_rng(seed), [(r, 1)], kernel, r * r, hermitian=True)
    alg, comm, split = _generate(gens)
    _check(alg, [(r, 1)], r)
    assert comm.call_count == 0 and split.call_count == 0


@settings(derandomize=True, max_examples=30, deadline=None)
@given(hs.integers(3, 6), hs.integers(0, 2), hs.integers(0, 2 ** 32 - 1))
def test_a_factor_found_by_the_fold_takes_no_seeded_split(r, kernel, seed):
    # two generic elements generate M_r but span only 4 < r^2 Hermitian ones
    gens = _plant(np.random.default_rng(seed), [(r, 1)], kernel, 2)
    assert len(_hermitian_span(gens, TOL)) < r * r
    alg, comm, split = _generate(gens)
    _check(alg, [(r, 1)], r)
    assert comm.call_count == 1 and split.call_count == 0
    _check_fold(comm)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(hs.lists(hs.integers(1, 3), min_size=1, max_size=4).filter(lambda m: sum(m) <= 8),
       hs.integers(0, 2), hs.integers(1, 3), hs.integers(0, 2 ** 32 - 1))
def test_an_abelian_algebra_leaves_without_a_fold(mults, kernel, count, seed):
    # (+)_a C I_{m_a}: every element is constant on each block
    blocks = [(1, m) for m in mults]
    gens = _plant(np.random.default_rng(seed), blocks, kernel, count)
    alg, comm, split = _generate(gens)
    _check(alg, blocks, sum(mults))
    assert comm.call_count == 0 and split.call_count == 0


def _near_pair(rng, gap, kernel):
    """Two elements of U (M_2 (+) diag(c, c + gap)) U+ on a space with kernel
    extra dims, U random: the last two eigenvalues of every element, so of
    every span element h, differ by at most a small multiple of gap."""
    u = random_unitary(4 + kernel, rng)[:, :4]
    gens = []
    for _ in range(2):
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        full = np.zeros((4, 4), dtype=complex)
        full[:2, :2] = x + x.conj().T
        c = rng.standard_normal()
        full[2, 2], full[3, 3] = c, c + gap
        gens.append(u @ full @ u.conj().T)
    return np.array(gens)


@pytest.mark.parametrize("kernel", [0, 2])
# an ad-map singular value of about gap, just above the null space, leaves
# both folds accurate to about rounding / gap
@pytest.mark.parametrize("gap, blocks, atol", [
    (1e-12, [(2, 1), (1, 2)], 1e-10),  # a multiplicity up to rounding
    (1e-8, [(2, 1), (1, 1), (1, 1)], 1e-7),  # merged in h, above the commutant cut
], ids=["degenerate", "split"])
def test_eigenvalues_closer_than_the_cluster_gap_merge_into_one_cluster(gap, blocks,
                                                                        atol, kernel):
    gens = _near_pair(np.random.default_rng(7), gap, kernel)
    alg, comm, _ = _generate(gens)
    _check(alg, blocks, 4)
    (call,) = comm.call_args_list
    _, clusters = call.kwargs["basis"]
    assert sorted(c.size for c in clusters) == [1, 1, 2]
    assert len(dense_commutant(*call.args)) == alg.commutant_dim
    _check_fold(comm, atol)


def test_an_abelian_span_with_a_merged_cluster_falls_through_to_the_fold():
    # diag(1, 1 + 3e-8, 2): h merges the first two eigenvalues, but the span
    # is not constant on that cluster, so the fold separates them
    u = random_unitary(3, np.random.default_rng(11))
    gens = (u @ np.diag([1.0, 1.0 + 3e-8, 2.0]) @ u.conj().T)[None]
    alg, comm, split = _generate(gens)
    _check(alg, [(1, 1)] * 3, 3)
    (call,) = comm.call_args_list
    assert sorted(c.size for c in call.kwargs["basis"][1]) == [1, 2]
    assert split.call_count == 1
    _check_fold(comm, atol=1e-7)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(hs.integers(1, 4), hs.integers(0, 2), hs.integers(0, 2 ** 32 - 1))
def test_a_multiple_of_the_support_projector_is_one_scalar_block(m, kernel, seed):
    gens = _plant(np.random.default_rng(seed), [(1, m)], kernel, 1)
    alg, comm, _ = _generate(gens)
    _check(alg, [(1, m)], m)
    _check_fold(comm)


def test_the_fold_reads_every_chunk():
    # the first FOLD_GENERATORS elements are diagonal, so their commutant is
    # the diagonal algebra; one generic element after them cuts it to C I
    rng = np.random.default_rng(3)
    diag = [np.diag(rng.standard_normal(4)).astype(complex)
            for _ in range(algebra.FOLD_GENERATORS)]
    generic = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    herm = np.array(diag + [generic + generic.conj().T])
    assert len(algebra._commutant(herm[:-1], TOL)) == 4
    folded = algebra._commutant(herm, TOL)
    assert len(folded) == 1
    assert np.abs(_projector(folded) - _projector(dense_commutant(herm, TOL))).max() <= 1e-10


def test_the_fold_matches_the_dense_stack_beyond_one_chunk():
    rng = np.random.default_rng(3)
    gens = _plant(rng, [(3, 2), (2, 1)], 0, 12)
    herm = _hermitian_span(gens, TOL)
    assert len(herm) > algebra.FOLD_GENERATORS
    folded = algebra._commutant(herm, TOL)
    assert len(folded) == 2 ** 2 + 1
    assert np.abs(_projector(folded) - _projector(dense_commutant(herm, TOL))).max() <= 1e-10


@pytest.mark.parametrize("rows", [1, 3])
def test_the_null_space_of_a_short_stack_counts_the_missing_rows(rows):
    # a single matrix with fewer rows than columns has a null space of at
    # least columns - rows, which the fold's triangular factor lacks rows for
    rng = np.random.default_rng(rows)
    a = rng.standard_normal((rows, 5)) + 1j * rng.standard_normal((rows, 5))
    null = algebra._null_space(iter([a]), TOL)
    assert null.shape == (5 - rows, 5)
    assert np.abs(a @ null.T).max() < 1e-12
    assert np.allclose(null @ null.conj().T, np.eye(5 - rows))
