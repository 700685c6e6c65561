"""Algebra generation and block-structure recovery.

The main oracle is plant-and-recover: build an algebra as an explicit
direct sum of matrix factors with multiplicity, hide it behind a random
unitary, and check the decomposition finds the planted block dimensions.
"""

import dataclasses

import numpy as np
import pytest

from markovkit import VerificationError
from markovkit.algebra import (
    BlockStructure,
    OperatorAlgebra,
    decompose_structure,
    generate_algebra,
    verify_structure,
)
from markovkit.kidecomp import ki_decompose
from markovkit.markov import markov_decompose
from markovkit.qcore import _congruence, partial_trace, random_unitary

from helpers import planted_ki_pure, planted_markov_state


def planted_algebra(rng, blocks, ambient=None):
    """Random generators of U (+_j M_{n_j} (x) I_{m_j}) U+, with U random.

    Returns (generators, rotation, support_dim).
    """
    s = sum(n * m for n, m in blocks)
    d = s if ambient is None else ambient
    assert d >= s
    u = random_unitary(d, rng)

    def element():
        mats = []
        for n, m in blocks:
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            mats.append(np.kron(x, np.eye(m)))
        full = np.zeros((d, d), dtype=complex)
        off = 0
        for mat in mats:
            k = mat.shape[0]
            full[off:off + k, off:off + k] = mat
            off += k
        return u @ full @ u.conj().T

    return [element(), element()], u, s


class TestGenerateAlgebra:
    def test_identity_generator_gives_dimension_one(self):
        alg = generate_algebra([np.eye(4)])
        assert alg.dim == 1
        assert alg.structure.structure_deviation(np.eye(4) / 2) < 1e-12

    def test_pauli_z_generates_diagonal_subalgebra(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        alg = generate_algebra([z])
        assert alg.dim == 2
        assert alg.structure.structure_deviation(np.diag([3.0, 7.0])) < 1e-10
        assert alg.structure.structure_deviation(np.array([[0, 1], [0, 0]], dtype=complex)) > 0.9

    def test_x_and_z_generate_full_matrix_algebra(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        alg = generate_algebra([x, z])
        assert alg.dim == 4

    def test_random_generators_close_to_planted_dimension(self):
        rng = np.random.default_rng(7)
        for blocks in [[(2, 1)], [(1, 2), (2, 1)], [(2, 2), (1, 1)]]:
            gens, _, _ = planted_algebra(rng, blocks)
            alg = generate_algebra(gens)
            assert alg.dim == sum(n * n for n, m in blocks)
            adjoints = alg.generators.conj().transpose(0, 2, 1)
            assert alg.structure.structure_deviation(adjoints).max() < 1e-10

    def test_non_unital_support_handled(self):
        # Generator supported on a 2-dim subspace of a 4-dim space.
        g = np.zeros((4, 4), dtype=complex)
        g[1, 2] = 1.0
        alg = generate_algebra([g])
        # span{|1><2|, |2><1|, |1><1|, |2><2|} is full 2x2 on the support
        assert alg.dim == 4
        proj = np.zeros((4, 4))
        proj[1, 1] = proj[2, 2] = 1.0
        assert alg.structure.structure_deviation(proj.astype(complex)) < 1e-10

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            generate_algebra([])
        with pytest.raises(ValueError):
            generate_algebra([np.eye(2), np.eye(3)])
        for shape in ((0, 2, 2), (2, 2), (2, 2, 3)):
            with pytest.raises(ValueError):
                generate_algebra(np.zeros(shape))

    def test_one_stack_reads_as_its_list(self):
        rng = np.random.default_rng(23)
        gens, _, _ = planted_algebra(rng, [(2, 1), (1, 2)])
        from_list, from_stack = generate_algebra(gens), generate_algebra(np.stack(gens))
        assert from_stack.structure.blocks == from_list.structure.blocks
        assert np.array_equal(from_stack.structure.iso, from_list.structure.iso)


class TestDecomposeStructure:
    def test_full_matrix_algebra_single_block(self):
        rng = np.random.default_rng(3)
        gens, _, _ = planted_algebra(rng, [(3, 1)])
        structure = decompose_structure(generate_algebra(gens))
        assert structure.blocks == [(3, 1)]

    def test_trivial_algebra_single_multiplicity_block(self):
        alg = generate_algebra([np.eye(5)])
        structure = decompose_structure(alg)
        assert structure.blocks == [(1, 5)]

    def test_diagonal_algebra_splits_into_scalars(self):
        alg = generate_algebra([np.diag([1.0, 2.0, 3.0]).astype(complex)])
        structure = decompose_structure(alg)
        assert structure.blocks == [(1, 1), (1, 1), (1, 1)]

    @pytest.mark.parametrize("blocks, hermitian", [
        ([(2, 1), (1, 1)], False),
        ([(2, 2)], False),
        ([(1, 2), (1, 1)], False),
        ([(2, 1), (1, 3), (3, 2)], False),
        ([(2, 2), (2, 1)], False),
        # 16-dimensional: M_2 (x) I_4 (+) M_8, and two generic Hermitian
        # generators of the full M_16
        ([(2, 4), (8, 1)], False),
        ([(16, 1)], True),
    ], ids=[f"blocks{i}" for i in range(6)] + ["hermitian16"])
    def test_planted_blocks_recovered(self, blocks, hermitian):
        rng = np.random.default_rng(sum(n * 10 + m for n, m in blocks))
        gens, _, _ = planted_algebra(rng, blocks)
        if hermitian:
            gens = [(g + g.conj().T) / 2 for g in gens]
        alg = generate_algebra(gens)
        structure = decompose_structure(alg)
        expect = sorted(blocks, key=lambda nm: (-nm[0] * nm[1], -nm[0]))
        assert structure.blocks == expect
        assert alg.commutant_dim == sum(m * m for _, m in blocks)
        assert verify_structure(alg, structure) <= 1e-8

    def test_planted_with_ambient_kernel(self):
        rng = np.random.default_rng(11)
        gens, _, s = planted_algebra(rng, [(2, 1), (1, 2)], ambient=7)
        alg = generate_algebra(gens)
        structure = decompose_structure(alg)
        assert structure.support_dim == s == 4
        assert structure.iso.shape == (7, 4)
        assert verify_structure(alg, structure) <= 1e-8

    def test_dimension_identity_sum_of_squares(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            n_blocks = int(rng.integers(1, 4))
            blocks = [(int(rng.integers(1, 4)), int(rng.integers(1, 3)))
                      for _ in range(n_blocks)]
            if sum(n * m for n, m in blocks) > 10:
                continue
            gens, _, _ = planted_algebra(rng, blocks)
            alg = generate_algebra(gens)
            structure = decompose_structure(alg)
            assert sum(n * n for n, _ in structure.blocks) == alg.dim

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        gens, _, _ = planted_algebra(rng, [(2, 1), (1, 2)])
        alg = generate_algebra(gens)
        s1 = decompose_structure(alg)
        s2 = decompose_structure(alg)
        assert s1.blocks == s2.blocks
        assert np.array_equal(s1.iso, s2.iso)

    def test_rotation_carries_elements_to_block_form(self):
        rng = np.random.default_rng(9)
        blocks = [(2, 2), (1, 1)]
        gens, _, _ = planted_algebra(rng, blocks)
        alg = generate_algebra(gens)
        structure = decompose_structure(alg)
        x = gens[0]
        rot = structure.iso.conj().T @ x @ structure.iso
        # off-diagonal (between-block) parts must vanish
        slices = structure.block_slices()
        for i, si in enumerate(slices):
            for j, sj in enumerate(slices):
                if i != j:
                    assert np.linalg.norm(rot[si, sj]) < 1e-9

    def test_projection_is_idempotent_and_contractive(self):
        rng = np.random.default_rng(13)
        gens, _, _ = planted_algebra(rng, [(2, 1), (1, 2)])
        structure = decompose_structure(generate_algebra(gens))
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        p1 = structure.project_to_structure(x)
        # projecting the already-structured matrix changes nothing
        back = structure.iso @ p1 @ structure.iso.conj().T
        p2 = structure.project_to_structure(back)
        assert np.linalg.norm(p1 - p2) < 1e-10


def kron_projection(structure: BlockStructure, x: np.ndarray) -> np.ndarray:
    """project_to_structure with each block's avg (x) I_m Kronecker-expanded."""
    rot = _congruence(structure.iso.conj().T, x)
    out = np.zeros_like(rot)
    for (n, m), sl in zip(structure.blocks, structure.block_slices()):
        blk = rot[..., sl, sl].reshape(rot.shape[:-2] + (n, m, n, m))
        out[..., sl, sl] = np.kron(np.einsum("...arbr->...ab", blk) / m, np.eye(m))
    return out


@pytest.mark.parametrize("blocks, kernel", [([(2, 1), (1, 1)], 0), ([(2, 3), (1, 2)], 0),
                                            ([(1, 3), (2, 1)], 2), ([(3, 2)], 1),
                                            ([(2, 2), (2, 2), (1, 3)], 0),
                                            ([(1, 2), (1, 2), (1, 2)], 1),
                                            ([(1, 2), (2, 1), (2, 1), (1, 2)], 2)])
@pytest.mark.parametrize("stack", [(), (1,), (4,), (2, 3)])
def test_projection_equals_the_kronecker_expanded_form(blocks, kernel, stack):
    # planted structures with m = 1 and m > 1 blocks, with runs of equal
    # (n, m) blocks and an equal pair apart, on the whole space or with a
    # kernel, for one matrix and for stacks: the same values, bit for bit
    rng = np.random.default_rng([len(blocks), kernel, len(stack)])
    support = sum(n * m for n, m in blocks)
    structure = BlockStructure(random_unitary(support + kernel, rng)[:, :support], blocks)
    shape = stack + (support + kernel,) * 2
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = structure.project_to_structure(x)
    assert got.shape == stack + (support, support)
    assert np.array_equal(got, kron_projection(structure, x))


class TestVerifyStructure:
    def test_wrong_rotation_reports_large_deviation(self):
        rng = np.random.default_rng(17)
        gens, _, _ = planted_algebra(rng, [(2, 1), (1, 2)])
        alg = generate_algebra(gens)
        structure = decompose_structure(alg)
        scrambled = BlockStructure(
            random_unitary(4, rng) @ structure.iso, structure.blocks)
        assert verify_structure(alg, scrambled) > 1e-3

    def test_coarse_structure_fails_the_commutant_count(self):
        # every generator fits the claim, but the algebra is smaller
        alg = generate_algebra([np.diag([1.0, 2.0]).astype(complex)])
        coarse = BlockStructure(np.eye(2, dtype=complex), [(2, 1)])
        assert verify_structure(alg, coarse) > 1e-3
        # a claim reaching past the joint support fails the same way
        alg = generate_algebra([np.diag([1.0, 0.0]).astype(complex)])
        assert verify_structure(alg, coarse) > 1e-3

    def test_commuting_algebra_all_abelian_blocks(self):
        rng = np.random.default_rng(19)
        d = np.diag(rng.standard_normal(4)).astype(complex)
        u = random_unitary(4, rng)
        alg = generate_algebra([u @ d @ u.conj().T])
        structure = decompose_structure(alg)
        assert all(n == 1 for n, _ in structure.blocks)


class TestStructureCertificate:
    def test_generated_algebra_keeps_its_certificate(self):
        rng = np.random.default_rng(29)
        gens, _, _ = planted_algebra(rng, [(2, 1), (1, 2)], ambient=5)
        alg = generate_algebra(gens)
        assert alg.certificate == verify_structure(alg, alg.structure) <= 1e-8

    def test_an_uncertified_wrong_structure_is_refused(self):
        rng = np.random.default_rng(17)
        gens, _, _ = planted_algebra(rng, [(2, 1), (1, 2)])
        alg = generate_algebra(gens)
        scrambled = BlockStructure(
            random_unitary(4, rng) @ alg.structure.iso, alg.structure.blocks)
        by_hand = OperatorAlgebra(alg.ambient_dim, alg.generators, alg.support_dim,
                                  alg.commutant_dim, scrambled)
        assert by_hand.certificate is None
        with pytest.raises(VerificationError, match="structure deviation"):
            decompose_structure(by_hand)
        # a copy with another structure does not inherit the certificate
        with pytest.raises(VerificationError, match="structure deviation"):
            decompose_structure(dataclasses.replace(alg, structure=scrambled))
        # an uncertified right structure still passes, verified from scratch
        fresh = dataclasses.replace(alg)
        assert fresh.certificate is None
        assert decompose_structure(fresh) is alg.structure

    @pytest.mark.parametrize("split", ["ki", "markov"])
    def test_one_structure_certificate_per_generated_algebra(self, split, monkeypatch):
        calls = {"generate": 0, "verify": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        # split_state calls generate_algebra, which calls verify_structure
        monkeypatch.setattr("markovkit.blocks.generate_algebra",
                            counted("generate", generate_algebra))
        monkeypatch.setattr("markovkit.algebra.verify_structure",
                            counted("verify", verify_structure))
        if split == "ki":
            psi = planted_ki_pure(5, [1, 2], 2, 1)
            assert len(ki_decompose(partial_trace(psi, ("A", "C")), "A").blocks) == 2
        else:
            state, _ = planted_markov_state(np.random.default_rng(31), 2, 2, 1)
            assert len(markov_decompose(state, "B").entries) == 2
        assert calls["generate"] >= (1 if split == "ki" else 3)
        assert calls["verify"] == calls["generate"], calls
