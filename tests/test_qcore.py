import dataclasses
import itertools
import math
import pickle
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as hs

from markovkit.qcore import (
    DEFAULT_TOLS,
    DensityState,
    PureState,
    SystemLayout,
    Tolerances,
    VerificationError,
    _congruence,
    _kraus_sum,
    _split_labels,
    binary_entropy,
    check_density,
    eta,
    entropy_of_spectrum,
    eta0,
    fidelity,
    matrix_function,
    parse_three_groups,
    partial_trace,
    qcmi,
    random_pure,
    random_state,
    random_unitary,
    recovery_error_bound,
    reorder,
    reorder_vector,
    support_eigh,
    support_mask,
    trace_distance,
    trace_norm,
    von_neumann_entropy,
)
from markovkit import channels, qcore
from markovkit.channels import (
    QuantumChannel,
    best_rotated_petz,
    petz_recoveries,
    petz_recovery,
    unitary_channel,
)
from markovkit.kidecomp import KIDecomposition, ki_decompose
from markovkit.markov import split_by_conditioner

from helpers import bell_pair, ghz, kron_congruence, mutual_information, purify, tensor_product


def qubits(*names):
    return SystemLayout.of(*[(n, 2) for n in names])


class TestLayout:
    def test_total_dim_and_positions(self):
        lay = SystemLayout.of(("A", 2), ("B", 3), ("C", 4))
        assert lay.total_dim == 24
        assert lay.position("B") == 1
        assert lay.dim_of(("A", "C")) == 8

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            SystemLayout.of(("A", 2), ("A", 2))

    def test_subset_keeps_layout_order(self):
        lay = SystemLayout.of(("A", 2), ("B", 3), ("C", 4))
        assert lay.subset(("C", "A")).labels == ("A", "C")

    def test_equality_and_hash_read_the_subsystems_alone(self):
        lay = SystemLayout.of(("A", 2), ("B", 3))
        same = SystemLayout((("A", 2), ("B", 3)))
        assert lay == same and hash(lay) == hash(same)
        assert lay != SystemLayout.of(("B", 3), ("A", 2))
        assert lay != SystemLayout.of(("A", 2), ("B", 4))
        assert len({lay, same}) == 1

    def test_a_layout_survives_pickle_and_replace(self):
        lay = SystemLayout.of(("A", 2), ("B", 3), ("C", 4))
        back = pickle.loads(pickle.dumps(lay))
        assert back == lay
        assert (back.labels, back.dims, back.total_dim) == (lay.labels, lay.dims, 24)
        assert back.position("C") == 2
        moved = dataclasses.replace(lay, subsystems=(("C", 4), ("A", 5)))
        assert (moved.labels, moved.dims, moved.total_dim) == (("C", "A"), (4, 5), 20)
        assert moved.position("A") == 1
        with pytest.raises(ValueError, match="no subsystem labeled 'B'"):
            moved.position("B")

    @pytest.mark.parametrize("attr", ["subsystems", "labels", "dims", "total_dim"])
    def test_a_layout_is_frozen(self, attr):
        lay = SystemLayout.of(("A", 2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(lay, attr, getattr(lay, attr))

    @pytest.mark.parametrize("label", ["Q", "", "A,B", 0, None, ["A"], {"A": 1}])
    def test_an_unknown_or_unhashable_label_has_no_position(self, label):
        lay = SystemLayout.of(("A", 2), ("B", 3))
        with pytest.raises(ValueError, match=f"no subsystem labeled {re.escape(repr(label))}"):
            lay.position(label)

    @pytest.mark.parametrize("name", ["", " ", "A,B", ",A", " A", "A ", "A\t", "A|B", "|",
                                      1, None, ("A",)])
    def test_a_name_no_label_spec_can_address_is_refused(self, name):
        with pytest.raises(ValueError, match="cannot be named by a label spec"):
            SystemLayout((("A", 2), (name, 2)))

    @settings(max_examples=200, deadline=None)
    @given(name=hs.text(alphabet=hs.sampled_from("Ab ,|\t\u00a0#"), max_size=5))
    def test_a_name_is_kept_exactly_when_a_label_spec_returns_it_unchanged(self, name):
        addressable = _split_labels(name) == (name,) and "|" not in name
        try:
            SystemLayout.of((name, 2))
        except ValueError:
            assert not addressable
        else:
            assert addressable

    @pytest.mark.parametrize("dim", [2.5, 3.0, "3", True, np.True_, np.float64(2.0), None])
    @pytest.mark.parametrize("build", ["of", "init"])
    def test_a_non_integer_dimension_is_refused(self, dim, build):
        with pytest.raises(ValueError, match="subsystem 'A' has non-integer dimension"):
            if build == "of":
                SystemLayout.of(("B", 2), ("A", dim))
            else:
                SystemLayout((("B", 2), ("A", dim)))

    def test_a_numpy_integer_dimension_is_stored_as_int(self):
        want = SystemLayout.of(("A", 3))
        for lay in (SystemLayout.of(("A", np.int64(3))), SystemLayout((("A", np.int64(3)),))):
            assert lay == want and hash(lay) == hash(want)
            assert type(lay.subsystems[0][1]) is int and type(lay.total_dim) is int

    @pytest.mark.parametrize("name", ["A", "A#1", "rho_A'", "A B", "Ä"])
    def test_every_addressable_name_is_its_own_label_spec(self, name):
        lay = SystemLayout.of((name, 2), ("Z", 3))
        assert lay.labels_of(name) == (name,)
        assert lay.labels_of(f" {name} ,Z") == (name, "Z")


class TestIndexConvention:
    def test_leftmost_most_significant(self):
        # |0>_A |1>_B must sit at index 1 = 0*2 + 1.
        lay = qubits("A", "B")
        v = np.zeros(4)
        v[1] = 1.0
        st = PureState(v, lay).to_density()
        a = partial_trace(st, "A").matrix
        b = partial_trace(st, "B").matrix
        assert np.allclose(a, np.diag([1.0, 0.0]))
        assert np.allclose(b, np.diag([0.0, 1.0]))

    def test_tensor_product_matches_kron(self):
        lay_a = SystemLayout.of(("A", 2))
        lay_b = SystemLayout.of(("B", 2))
        mat, lay = tensor_product([(np.eye(2), lay_a), (np.eye(2), lay_b)])
        assert np.allclose(mat, np.eye(4))
        assert lay.labels == ("A", "B")
        x = np.array([[0, 1], [1, 0]])
        z = np.diag([1.0, -1.0])
        mat, _ = tensor_product([(x, lay_a), (z, lay_b)])
        assert np.allclose(mat, np.kron(x, z))

    @pytest.mark.parametrize("d_x, d_y", [(x, y) for x in (1, 2, 3) for y in (1, 2, 3)])
    def test_a_kraus_operator_acts_on_its_axes_alone(self, d_x, d_y):
        # a rectangular Kraus family (B of dim 2 -> B of dim 3) on the middle
        # of (A, B, C): each operator against its Kronecker lift, and the sum
        # against QuantumChannel.apply on B
        rng = np.random.default_rng(10 * d_x + d_y)
        iso = random_unitary(6, rng)[:, :2]
        kraus = [iso[:3], iso[3:]]
        layout = SystemLayout.of(("A", d_x), ("B", 2), ("C", d_y))
        st = random_state(layout, seed=rng)
        total = 0.0
        for k in kraus:
            want = kron_congruence(k, st.matrix, d_x, d_y)
            got = _congruence(k, st.matrix, d_x, d_y)
            assert got.shape == (d_x * 3 * d_y,) * 2
            assert np.abs(got - want).max() <= 1e-14
            total = total + got
        out = SystemLayout.of(("B", 3))
        applied = QuantumChannel(kraus, layout.subset("B"), out).apply(st, "B")
        assert applied.layout.dims == (d_x, 3, d_y)
        assert np.abs(applied.matrix - total).max() <= 1e-15


@settings(max_examples=60, deadline=None)
@given(d_x=hs.integers(1, 3), d_y=hs.integers(1, 3), d_in=hs.integers(1, 4),
       d_out=hs.integers(1, 4), stack=hs.sampled_from([(), (1,), (4,), (2, 3)]),
       seed=hs.integers(0, 2**32 - 1))
def test_congruence_equals_the_kronecker_expanded_form(d_x, d_y, d_in, d_out, stack, seed):
    # (I (x) op (x) I) M (I (x) op (x) I)+ for a rectangular op, on one matrix
    # with any X and Y, and on stacks of any shape with X and Y trivial
    assume(d_in != d_out)
    if stack:
        d_x = d_y = 1
    rng = np.random.default_rng(seed)
    op = rng.standard_normal((d_out, d_in)) + 1j * rng.standard_normal((d_out, d_in))
    shape = stack + (d_x * d_in * d_y,) * 2
    mat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = _congruence(op, mat, d_x, d_y)
    assert got.shape == stack + (d_x * d_out * d_y,) * 2
    want = np.array([kron_congruence(op, m, d_x, d_y)
                     for m in mat.reshape((-1,) + shape[-2:])]).reshape(got.shape)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@settings(max_examples=60, deadline=None)
@given(k=hs.integers(1, 6), d_in=hs.integers(1, 4), d_out=hs.integers(1, 4),
       d_y=hs.integers(1, 3), seed=hs.integers(0, 2**32 - 1))
def test_kraus_sum_equals_the_per_operator_loop(k, d_in, d_out, d_y, seed):
    # sum_k (K_k (x) I_Y) M (K_k (x) I_Y)+ for a rectangular stack, whole and
    # with the budget cut to one and to two operators' left products per chunk
    assume(d_in != d_out)
    rng = np.random.default_rng(seed)
    kraus = rng.standard_normal((k, d_out, d_in)) + 1j * rng.standard_normal((k, d_out, d_in))
    shape = (d_in * d_y,) * 2
    mat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = sum(_congruence(op, mat, d_y=d_y) for op in kraus)
    per_op = d_out * d_in * d_y * d_y
    for budget in (qcore._STACK_ENTRIES, per_op, 2 * per_op + 1):
        with mock.patch.object(qcore, "_STACK_ENTRIES", budget):
            got = _kraus_sum(kraus, mat, d_y)
        assert got.shape == (d_out * d_y,) * 2
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def _with_spectrum(vals, seed) -> np.ndarray:
    """U diag(vals) U+ for a Haar-random U, Hermitian to the last bit."""
    u = random_unitary(len(vals), seed)
    mat = (u * np.asarray(vals, dtype=float)) @ u.conj().T
    return (mat + mat.conj().T) / 2


def _lowest_at(lo, d, seed) -> np.ndarray:
    """Unit-trace matrix of dim d whose lowest eigenvalue is lo."""
    rest = np.random.default_rng(seed).uniform(0.5, 1.5, d - 1)
    return _with_spectrum(np.concatenate([[lo], rest * (1.0 - lo) / rest.sum()]), seed)


def _verdict(mat, tol) -> bool:
    try:
        check_density(mat, tol)
    except ValueError:
        return False
    return True


class TestCheckDensity:
    TOL = DEFAULT_TOLS.verify_tol

    def test_eigenvalue_at_minus_two_tol_is_rejected_with_its_value(self):
        with pytest.raises(ValueError, match="negative eigenvalue -2.000e-08"):
            check_density(_lowest_at(-2 * self.TOL, 12, 1), self.TOL)

    @pytest.mark.parametrize("d", [2, 8, 64])
    def test_eigenvalue_at_minus_half_tol_and_rank_one_pass(self, d):
        check_density(_lowest_at(-self.TOL / 2, d, 2), self.TOL)
        v = random_pure(SystemLayout.of(("A", d)), seed=3).vector
        check_density(np.outer(v, v.conj()), self.TOL)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_entries_are_rejected_first(self, bad):
        mat = np.eye(3, dtype=complex) / 3
        mat[0, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            check_density(mat, self.TOL)

    def test_density_state_validation_goes_through_it(self):
        lay = SystemLayout.of(("A", 4))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityState(_lowest_at(-1e-3, 4, 4), lay)
        with pytest.raises(ValueError, match="non-finite"):
            DensityState(np.full((4, 4), np.nan), lay)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(hs.integers(2, 12), hs.integers(0, 2**32 - 1),
           hs.sampled_from([1e-8, 1e-6, 1e-10]),
           hs.one_of(hs.floats(-3.0, 1.0),
                     hs.sampled_from([-1e-3, -1e-4, 1e-4, 1e-3]).map(lambda x: x - 1.0)))
    def test_verdict_agrees_with_eigvalsh_off_the_boundary(self, d, seed, tol, lo):
        # lo is the lowest eigenvalue in units of tol
        mat = _lowest_at(lo * tol, d, seed)
        computed = np.linalg.eigvalsh(mat)[0]
        assume(abs(computed + tol) > 1e-12)
        assert _verdict(mat, tol) == (computed >= -tol)


def _planted(kind: str, d: int, seed: int) -> np.ndarray:
    """A d x d matrix failing exactly one of check_density's checks."""
    mat = random_state(SystemLayout.of(("A", d)), seed=seed).matrix.copy()
    if kind == "non-hermitian":
        mat[0, 1] += 1e-3
    elif kind == "trace":
        mat *= 1.01
    elif kind == "negative":
        mat = _lowest_at(-1e-3, d, seed)
    else:
        mat[1, 0] = np.nan
    return mat


def _message(mat, tol) -> str:
    with pytest.raises(ValueError) as err:
        check_density(mat, tol)
    return str(err.value)


BAD_KINDS = ("non-hermitian", "trace", "negative", "nan")


class TestStackedChecks:
    TOL = DEFAULT_TOLS.verify_tol

    @staticmethod
    def good(count, d, seed):
        lay = SystemLayout.of(("A", d))
        return np.stack([random_state(lay, rank=1 + i % d, seed=[seed, i]).matrix
                         for i in range(count)])

    def test_good_stacks_pass_in_any_leading_shape(self):
        stack = self.good(6, 4, 1)
        check_density(stack, self.TOL)
        check_density(stack.reshape(2, 3, 4, 4), self.TOL)

    @pytest.mark.parametrize("kind", BAD_KINDS)
    @pytest.mark.parametrize("where", [0, 3, 5])
    def test_one_bad_slice_raises_its_own_message(self, kind, where):
        stack = self.good(6, 4, 2)
        stack[where] = _planted(kind, 4, 3)
        alone = _message(stack[where], self.TOL)
        assert _message(stack, self.TOL) == alone
        assert _message(stack.reshape(3, 2, 4, 4), self.TOL) == alone

    @pytest.mark.parametrize("first, second", itertools.permutations(BAD_KINDS, 2))
    def test_the_first_bad_slice_wins(self, first, second):
        stack = self.good(5, 3, 4)
        stack[1], stack[3] = _planted(first, 3, 5), _planted(second, 3, 6)
        assert _message(stack, self.TOL) == _message(stack[1], self.TOL)

    def test_stacked_trace_norms_equal_the_per_matrix_values(self):
        rng = np.random.default_rng(7)
        herm = self.good(5, 4, 8) - self.good(5, 4, 9)
        general = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        mixed = np.concatenate([herm[:2], general, herm[2:]])
        for stack in (herm, general, mixed):
            norms = trace_norm(stack)
            assert norms.shape == (len(stack),)
            assert norms.tolist() == [trace_norm(m) for m in stack]
        assert (trace_norm(mixed.reshape(2, 4, 4, 4)) == trace_norm(mixed).reshape(2, 4)).all()
        assert isinstance(trace_norm(herm[0]), float)


class TestPartialTrace:
    def test_bell_marginals_maximally_mixed(self):
        st = bell_pair().to_density()
        for lab in ("A", "B"):
            m = partial_trace(st, lab).matrix
            assert np.allclose(m, np.eye(2) / 2, atol=1e-12)

    def test_product_state_factors(self):
        rng = np.random.default_rng(7)
        a = random_state(SystemLayout.of(("A", 2)), seed=rng)
        b = random_state(SystemLayout.of(("B", 3)), seed=rng)
        mat, lay = tensor_product([(a.matrix, a.layout), (b.matrix, b.layout)])
        joint = DensityState(mat, lay)
        assert np.allclose(partial_trace(joint, "A").matrix, a.matrix, atol=1e-12)
        assert np.allclose(partial_trace(joint, "B").matrix, b.matrix, atol=1e-12)

    def test_keep_order_is_layout_order(self):
        rng = np.random.default_rng(8)
        st = random_state(SystemLayout.of(("A", 2), ("B", 3), ("C", 2)), seed=rng)
        kept = partial_trace(st, ("C", "A"))
        assert kept.layout.labels == ("A", "C")
        # Against independent two-step reduction.
        two = partial_trace(partial_trace(st, ("A", "C")), ("A", "C"))
        assert np.allclose(kept.matrix, two.matrix)

    def test_trace_preserved(self):
        rng = np.random.default_rng(9)
        st = random_state(SystemLayout.of(("A", 3), ("B", 2), ("C", 2)), seed=rng)
        for keep in (("A",), ("B",), ("A", "C"), ("A", "B", "C")):
            assert partial_trace(st, keep).matrix.trace() == pytest.approx(1.0, abs=1e-12)

    def test_reorder_roundtrip(self):
        rng = np.random.default_rng(10)
        st = random_state(SystemLayout.of(("A", 2), ("B", 3), ("C", 4)), seed=rng)
        perm = reorder(st, ("C", "A", "B"))
        assert perm.layout.dims == (4, 2, 3)
        back = reorder(perm, ("A", "B", "C"))
        assert np.allclose(back.matrix, st.matrix)
        # Partial trace commutes with reordering.
        assert np.allclose(
            partial_trace(perm, ("A", "B")).matrix,
            partial_trace(st, ("A", "B")).matrix,
        )


class TestMatrixFunction:
    def test_pseudo_inverse_on_support(self):
        m = np.diag([0.5, 0.25, 0.0])
        inv = matrix_function(m, -1.0)
        assert np.allclose(inv, np.diag([2.0, 4.0, 0.0]))

    def test_sqrt_squares_back(self):
        rng = np.random.default_rng(11)
        st = random_state(SystemLayout.of(("A", 4)), rank=3, seed=rng)
        r = matrix_function(st.matrix, 0.5)
        assert np.allclose(r @ r, st.matrix, atol=1e-10)

    def test_rank_deficient_support_respected(self):
        rng = np.random.default_rng(12)
        st = random_state(SystemLayout.of(("A", 4)), rank=2, seed=rng)
        inv = matrix_function(st.matrix, -1.0)
        proj = inv @ st.matrix
        # inv * rho = projector onto the support
        assert np.allclose(proj @ proj, proj, atol=1e-10)
        assert np.isclose(proj.trace().real, 2.0, atol=1e-9)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            matrix_function(np.diag([1.0, -0.5]), 0.5)

    def test_imaginary_exponent_is_isometric_on_support(self):
        rng = np.random.default_rng(13)
        st = random_state(SystemLayout.of(("A", 3)), seed=rng)
        u = matrix_function(st.matrix, 0.5 + 0.3j)
        v = matrix_function(st.matrix, 0.5 - 0.3j)
        assert np.allclose(u @ v, st.matrix, atol=1e-10)


class TestSupportCut:
    """Support is what exceeds support_cutoff_rel times the largest
    eigenvalue, so a negative eigenvalue never is; only one below -verify_tol,
    the bound of state validation, is refused."""

    TOL = DEFAULT_TOLS.verify_tol

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(hs.integers(1, 5), hs.integers(0, 2), hs.integers(0, 2**32 - 1),
           hs.lists(hs.floats(-TOL / 2, 0.0, exclude_max=True), min_size=1, max_size=3))
    def test_rounding_negatives_are_kernel_and_a_real_one_is_refused(
            self, rank, zeros, seed, planted):
        weights = np.random.default_rng(seed).uniform(0.5, 1.5, rank)
        weights *= (1.0 - sum(planted)) / weights.sum()
        spectrum = np.concatenate([weights, planted, np.zeros(zeros)])
        m = _with_spectrum(spectrum, seed)
        vals, vecs, kernel, lowest = support_eigh(m)
        assert vals.size == rank and np.all(vals > 0.0)
        assert vecs.shape[1] + kernel.shape[1] == spectrum.size
        assert lowest == pytest.approx(min(planted), abs=1e-15)
        inv_sqrt = matrix_function(m, -0.5)
        assert np.isfinite(inv_sqrt).all()
        # inv_sqrt m inv_sqrt is the projector onto the support
        assert np.trace(inv_sqrt @ m @ inv_sqrt).real == pytest.approx(rank, abs=1e-8)
        spectrum[rank] = -2 * self.TOL
        with pytest.raises(ValueError, match="negative eigenvalue -2.000e-08"):
            matrix_function(_with_spectrum(spectrum, seed), -0.5)


class TestEntropy:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(ghz().to_density()) == pytest.approx(0.0, abs=1e-10)

    def test_diag_quarter_three_quarters(self):
        lay = SystemLayout.of(("A", 2))
        st = DensityState(np.diag([0.25, 0.75]), lay)
        assert von_neumann_entropy(st) == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_maximally_mixed(self):
        lay = SystemLayout.of(("A", 8))
        st = DensityState(np.eye(8) / 8, lay)
        assert von_neumann_entropy(st) == pytest.approx(3.0, abs=1e-12)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(14)
        st = random_state(SystemLayout.of(("A", 5)), seed=rng)
        u = random_unitary(5, rng)
        rotated = DensityState(u @ st.matrix @ u.conj().T, st.layout, validate=False)
        assert von_neumann_entropy(rotated) == pytest.approx(von_neumann_entropy(st), abs=1e-10)

    def test_trace_deviation_rejected(self):
        with pytest.raises(ValueError):
            von_neumann_entropy(np.diag([0.7, 0.7]))

    def test_lone_weight_reads_exactly_zero(self):
        # -(1 - 2^-52) log2(1 - 2^-52) would read 3.2e-16 bits
        assert entropy_of_spectrum(np.array([1.0 - 2.0 ** -52])) == 0.0
        vals = np.array([1e-20, 1.0 - 2.0 ** -52])
        assert entropy_of_spectrum(vals[support_mask(vals, 1e-10)]) == 0.0
        assert von_neumann_entropy(np.array([[1.0 - 2.0 ** -52]])) == 0.0

    def test_trace_check_follows_tols(self):
        # trace off by 1e-6: above 10 * 1e-8, below 10 * 1e-6
        mat = np.diag([0.5, 0.5 + 1e-6])
        with pytest.raises(ValueError):
            von_neumann_entropy(mat)
        assert von_neumann_entropy(mat, Tolerances(verify_tol=1e-6)) == pytest.approx(1.0, abs=1e-5)


class TestQCMI:
    def test_ghz_is_one_bit(self):
        val = qcmi(ghz().to_density(), (("A",), ("B",), ("C",)))
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_bell_with_trivial_conditioner(self):
        st = bell_pair("A", "C").to_density()
        val = qcmi(st, (("A",), (), ("C",)))
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_product_state_zero(self):
        rng = np.random.default_rng(15)
        parts = [random_state(SystemLayout.of((n, 2)), seed=rng) for n in "ABC"]
        mat, lay = tensor_product([(p.matrix, p.layout) for p in parts])
        val = qcmi(DensityState(mat, lay), (("A",), ("B",), ("C",)))
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_ssa_nonnegative_on_random_states(self):
        # Strong subadditivity: QCMI >= 0 for arbitrary states.
        rng = np.random.default_rng(16)
        lay = SystemLayout.of(("A", 2), ("B", 3), ("C", 2))
        for _ in range(25):
            st = random_state(lay, seed=rng)
            assert qcmi(st, (("A",), ("B",), ("C",))) >= 0.0

    def test_grouped_labels(self):
        rng = np.random.default_rng(17)
        lay = SystemLayout.of(("A1", 2), ("A2", 2), ("B", 2), ("C", 2))
        st = random_state(lay, seed=rng)
        val = qcmi(st, (("A1", "A2"), ("B",), ("C",)))
        assert val >= 0.0

    def test_overlapping_groups_rejected(self):
        st = ghz().to_density()
        with pytest.raises(ValueError):
            qcmi(st, (("A", "B"), ("B",), ("C",)))

    def test_invalid_input_raises(self):
        # A non-PSD "state" can push QCMI genuinely negative.
        lay = SystemLayout.of(("A", 2), ("B", 2), ("C", 2))
        mat = np.diag([0.6, 0.5, 0.2, 0.1, 0.1, -0.2, -0.1, -0.2])
        bad = DensityState(mat, lay, validate=False)
        with pytest.raises((VerificationError, ValueError)):
            qcmi(bad, (("A",), ("B",), ("C",)))


@hs.composite
def _pure_states(draw):
    """A random pure state on 2 to 4 subsystems of dims in {1, 2, 3}."""
    dims = draw(hs.lists(hs.sampled_from([1, 2, 3]), min_size=2, max_size=4))
    layout = SystemLayout.of(*((f"S{i}", d) for i, d in enumerate(dims)))
    return random_pure(layout, seed=draw(hs.integers(0, 2**32 - 1)))


class TestPureStatePaths:
    """partial_trace and qcmi read a PureState from its vector; the density
    path is the oracle."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(_pure_states(), hs.randoms(use_true_random=False))
    def test_partial_trace_matches_the_density_path(self, psi, shuffle):
        labels = psi.layout.labels
        rho = psi.to_density()
        for k in range(1, len(labels) + 1):
            for keep in itertools.combinations(labels, k):
                keep = shuffle.sample(keep, len(keep))
                got, want = partial_trace(psi, keep), partial_trace(rho, keep)
                assert got.layout == want.layout
                assert np.abs(got.matrix - want.matrix).max() <= 1e-12

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(_pure_states())
    def test_qcmi_matches_the_density_path(self, psi):
        labels = psi.layout.labels
        rho = psi.to_density()
        for assign in itertools.product(range(3), repeat=len(labels)):
            groups = tuple(tuple(l for l, g in zip(labels, assign) if g == i)
                           for i in range(3))
            got = qcmi(psi, groups)
            assert got >= 0.0
            assert got == pytest.approx(qcmi(rho, groups), abs=1e-12)


class TestDistances:
    def test_trace_distance_extremes(self):
        lay = SystemLayout.of(("A", 2))
        zero = DensityState(np.diag([1.0, 0.0]), lay)
        one = DensityState(np.diag([0.0, 1.0]), lay)
        assert trace_distance(zero, zero) == pytest.approx(0.0, abs=1e-14)
        assert trace_distance(zero, one) == pytest.approx(2.0, abs=1e-14)

    def test_fidelity_extremes(self):
        lay = SystemLayout.of(("A", 2))
        zero = DensityState(np.diag([1.0, 0.0]), lay)
        one = DensityState(np.diag([0.0, 1.0]), lay)
        assert fidelity(zero, zero) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)

    def test_fidelity_of_identical_and_orthogonal_states(self):
        rng = np.random.default_rng(21)
        lay = SystemLayout.of(("A", 2), ("B", 2), ("C", 2))
        for rank in (1, 2, 8):
            st = random_state(lay, rank=rank, seed=rng)
            assert fidelity(st, st) == pytest.approx(1.0, abs=1e-12)
        u = random_unitary(8, rng)
        psi, phi = (DensityState(np.outer(u[:, j], u[:, j].conj()), lay, validate=False)
                    for j in (0, 5))
        assert fidelity(psi, phi) == pytest.approx(0.0, abs=1e-12)

    def test_fidelity_ignores_rounding_asymmetry_on_rank_deficient_input(self):
        # the square root of a rounding-noise eigenvalue near 1e-17 is about
        # 3e-9, so a form that keeps them moves F by 1e-9 to 1e-8 under
        # symmetrizing
        rng = np.random.default_rng(22)
        lay = SystemLayout.of(("A", 2), ("B", 2), ("C", 2))
        rho = random_state(lay, rank=2, seed=rng)
        u = random_unitary(8, rng)
        mat = (u * rng.dirichlet(np.ones(8))) @ u.conj().T
        sigma = DensityState(mat, lay, validate=False)
        sym = DensityState((mat + mat.conj().T) / 2, lay, validate=False)
        assert np.abs(mat - sym.matrix).max() > 0
        assert abs(fidelity(sigma, rho) - fidelity(sym, rho)) <= 1e-12
        assert abs(fidelity(rho, sigma) - fidelity(rho, sym)) <= 1e-12

    def test_fidelity_accepts_negative_eigenvalues_validation_admits(self):
        rng = np.random.default_rng(23)
        lay = SystemLayout.of(("A", 2), ("B", 2))
        u = random_unitary(4, rng)
        st = DensityState((u * [0.6, 0.4 + 5e-9, -5e-9, 0.0]) @ u.conj().T, lay)
        other = random_state(lay, seed=rng)
        assert fidelity(st, st) == pytest.approx(1.0, abs=1e-8)
        assert fidelity(st, other) == pytest.approx(fidelity(other, st), abs=1e-12)

    def test_fidelity_symmetric_and_unitary_invariant(self):
        rng = np.random.default_rng(18)
        lay = SystemLayout.of(("A", 4))
        a = random_state(lay, seed=rng)
        b = random_state(lay, seed=rng)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-10)
        u = random_unitary(4, rng)
        au = DensityState(u @ a.matrix @ u.conj().T, lay, validate=False)
        bu = DensityState(u @ b.matrix @ u.conj().T, lay, validate=False)
        assert fidelity(au, bu) == pytest.approx(fidelity(a, b), abs=1e-10)

    def test_fuchs_van_de_graaf(self):
        rng = np.random.default_rng(19)
        lay = SystemLayout.of(("A", 3))
        for _ in range(50):
            a = random_state(lay, seed=rng)
            b = random_state(lay, seed=rng)
            f = fidelity(a, b)
            half_dist = trace_distance(a, b) / 2.0
            assert 1.0 - math.sqrt(f) <= half_dist + 1e-9
            assert half_dist <= math.sqrt(1.0 - f) + 1e-9

    def test_triangle_inequality(self):
        rng = np.random.default_rng(20)
        lay = SystemLayout.of(("A", 3))
        for _ in range(25):
            a, b, c = (random_state(lay, seed=rng) for _ in range(3))
            assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12

    def test_contraction_under_partial_trace(self):
        rng = np.random.default_rng(21)
        lay = SystemLayout.of(("A", 2), ("B", 3))
        for _ in range(25):
            a = random_state(lay, seed=rng)
            b = random_state(lay, seed=rng)
            assert trace_distance(partial_trace(a, "A"), partial_trace(b, "A")) \
                <= trace_distance(a, b) + 1e-12


class TestContinuityFunctions:
    def test_eta0_small_and_capped(self):
        assert eta0(0.0) == 0.0
        assert eta0(0.25) == pytest.approx(0.5, abs=1e-12)
        assert eta0(0.5) == pytest.approx(math.log2(math.e) / math.e, abs=1e-12)
        assert eta0(0.9) == eta0(0.5)

    def test_eta0_continuous_at_cap(self):
        x = 1.0 / math.e
        assert eta0(x - 1e-9) == pytest.approx(eta0(x), abs=1e-8)

    def test_eta_monotone(self):
        xs = np.linspace(0, 1.5, 200)
        ys = [eta(float(x)) for x in xs]
        assert all(b >= a - 1e-12 for a, b in zip(ys, ys[1:]))

    def test_binary_entropy_values(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-12)
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.1) == pytest.approx(0.4689955935892812, abs=1e-12)

    def test_recovery_error_bound_frozen_value(self):
        assert recovery_error_bound(0.01, 2) == pytest.approx(0.4489835985777458, abs=1e-9)

    def test_recovery_error_bound_zero(self):
        assert recovery_error_bound(0.0, 5) == 0.0

    @pytest.mark.parametrize("func, name", [
        (eta0, "eta0"), (eta, "eta0"),
        (lambda x: recovery_error_bound(x, 2), "recovery_error_bound")],
        ids=["eta0", "eta", "recovery_error_bound"])
    @pytest.mark.parametrize("x", [math.nan, -0.1])
    def test_refuse_nan_and_negative_arguments(self, func, name, x):
        with pytest.raises(ValueError, match=f"{name} needs"):
            func(x)

    def test_fannes_bound_on_random_pairs(self):
        rng = np.random.default_rng(22)
        lay = SystemLayout.of(("A", 4))
        d = 4
        for _ in range(50):
            a = random_state(lay, seed=rng)
            b = random_state(lay, seed=rng)
            eps = trace_distance(a, b)
            ds = abs(von_neumann_entropy(a) - von_neumann_entropy(b))
            assert ds <= eta(eps) * math.log2(d) + 1e-9

    def test_alicki_fannes_bound_on_random_pairs(self):
        rng = np.random.default_rng(23)
        lay = SystemLayout.of(("A", 2), ("B", 3))
        for _ in range(50):
            a = random_state(lay, seed=rng)
            b = random_state(lay, seed=rng)
            eps = trace_distance(a, b)
            if eps >= 1.0:
                continue
            cond_a = von_neumann_entropy(a) - von_neumann_entropy(partial_trace(a, "B"))
            cond_b = von_neumann_entropy(b) - von_neumann_entropy(partial_trace(b, "B"))
            assert abs(cond_a - cond_b) <= 4.0 * eta(eps) * 1.0 + 1e-9


class TestPurify:
    def test_reference_dim_is_rank(self):
        rng = np.random.default_rng(24)
        st = random_state(SystemLayout.of(("A", 4)), rank=2, seed=rng)
        psi = purify(st)
        assert psi.layout.dims[-1] == 2

    def test_marginal_recovers_state(self):
        rng = np.random.default_rng(25)
        lay = SystemLayout.of(("A", 2), ("B", 3))
        st = random_state(lay, seed=rng)
        psi = purify(st)
        back = partial_trace(psi.to_density(), ("A", "B"))
        assert np.allclose(back.matrix, st.matrix, atol=1e-10)

    def test_label_collision_avoided(self):
        rng = np.random.default_rng(26)
        st = random_state(SystemLayout.of(("R", 2)), seed=rng)
        psi = purify(st)
        assert len(set(psi.layout.labels)) == 2


class TestRandom:
    def test_unitary_is_unitary(self):
        u = random_unitary(6, 12345)
        assert np.allclose(u @ u.conj().T, np.eye(6), atol=1e-12)

    def test_seed_reproducibility(self):
        a = random_unitary(4, 99)
        b = random_unitary(4, 99)
        assert np.array_equal(a, b)
        lay = SystemLayout.of(("A", 3))
        s1 = random_state(lay, seed=5)
        s2 = random_state(lay, seed=5)
        assert np.array_equal(s1.matrix, s2.matrix)
        p1 = random_pure(lay, seed=5)
        p2 = random_pure(lay, seed=5)
        assert np.array_equal(p1.vector, p2.vector)

    def test_rank_control(self):
        lay = SystemLayout.of(("A", 6))
        st = random_state(lay, rank=3, seed=31)
        vals = np.linalg.eigvalsh(st.matrix)
        assert (vals > 1e-10).sum() == 3

    def test_bad_rank_rejected(self):
        lay = SystemLayout.of(("A", 2))
        with pytest.raises(ValueError):
            random_state(lay, rank=5, seed=0)


class TestGroupingParser:
    def test_basic(self):
        lay = SystemLayout.of(("A", 2), ("B", 2), ("C", 2))
        assert parse_three_groups("A|B|C", lay) == (("A",), ("B",), ("C",))

    def test_multi_label_groups(self):
        lay = SystemLayout.of(("A1", 2), ("A2", 2), ("B", 2), ("C", 2))
        assert parse_three_groups("A1,A2|B|C", lay) == (("A1", "A2"), ("B",), ("C",))

    def test_empty_middle_group(self):
        lay = SystemLayout.of(("A", 2), ("C", 2))
        assert parse_three_groups("A||C", lay) == (("A",), (), ("C",))

    def test_non_partition_rejected(self):
        lay = SystemLayout.of(("A", 2), ("B", 2), ("C", 2))
        with pytest.raises(ValueError):
            parse_three_groups("A|B", lay)
        with pytest.raises(ValueError):
            parse_three_groups("A|B|B", lay)
        with pytest.raises(ValueError):
            parse_three_groups("A|B|D", lay)


class TestMutualInformation:
    def test_bell_two_bits(self):
        st = bell_pair().to_density()
        assert mutual_information(st, "A", "B") == pytest.approx(2.0, abs=1e-10)

    def test_product_zero(self):
        rng = np.random.default_rng(27)
        a = random_state(SystemLayout.of(("A", 2)), seed=rng)
        b = random_state(SystemLayout.of(("B", 2)), seed=rng)
        mat, lay = tensor_product([(a.matrix, a.layout), (b.matrix, b.layout)])
        assert mutual_information(DensityState(mat, lay), "A", "B") == pytest.approx(0.0, abs=1e-10)

    def test_invalid_input_raises(self):
        # S(A) = S(B) = 0 and S(AB) = 1.5 on the positive part: I = -1.5
        lay = SystemLayout.of(("A", 2), ("B", 2))
        bad = DensityState(np.diag([0.5, 0.5, 0.5, -0.5]), lay, validate=False)
        with pytest.raises(VerificationError, match="mutual information"):
            mutual_information(bad, "A", "B")


def _comparable(result):
    """A value that compares equal exactly when two results are equal."""
    if isinstance(result, DensityState):
        return (result.layout, result.matrix.tobytes())
    if isinstance(result, QuantumChannel):
        return (result.in_layout, result.out_layout,
                tuple(k.tobytes() for k in result.kraus))
    if isinstance(result, KIDecomposition):
        return (result.part, result.rest, result.dims, result.gamma.tobytes(),
                tuple(blk.p for blk in result.blocks))
    if isinstance(result, tuple) and isinstance(result[0], np.ndarray):
        return (result[0].tobytes(), result[1])
    return result


# Each entry point of a label spec, called with a spec naming A and B on the
# state below (reorder and reorder_vector on its A-B marginal, into B, A).
_AB_SPEC_ENTRY_POINTS = {
    "dim_of": (("A", "B"), lambda st, spec: st.layout.dim_of(spec)),
    "subset": (("A", "B"), lambda st, spec: st.layout.subset(spec)),
    "partial_trace": (("A", "B"), partial_trace),
    "reorder": (("B", "A"), lambda st, spec: reorder(partial_trace(st, ("A", "B")), spec)),
    "reorder_vector": (("B", "A"), lambda st, spec: reorder_vector(
        np.arange(4.0), st.layout.subset(("A", "B")), spec)),
    "apply": (("A", "B"), lambda st, spec: unitary_channel(
        random_unitary(4, seed=3), qubits("A", "B")).apply(st, spec)),
    "petz_recovery": (("A", "B"), petz_recovery),
    "ki_decompose": (("A", "B"), ki_decompose),
    "split_by_conditioner": (("A", "B"), lambda st, spec: split_by_conditioner(st.layout, spec)),
    "parse_three_groups": (("A", "B"), lambda st, spec: parse_three_groups(
        ("X", spec, "C"), st.layout)),
}


@pytest.mark.parametrize("entry", sorted(_AB_SPEC_ENTRY_POINTS))
def test_every_entry_point_reads_a_label_spec_the_same_way(entry):
    labels, call = _AB_SPEC_ENTRY_POINTS[entry]
    state = random_state(qubits("X", "A", "B", "C"), seed=2)
    first, second = labels
    results = [_comparable(call(state, spec)) for spec in (
        f"{first},{second}", f" {first} , {second} ", (first, second))]
    assert results[1:] == results[:1] * 2
    for spec in (f"{first},Q", (first, "Q")):
        with pytest.raises(ValueError, match="no subsystem labeled 'Q'"):
            call(state, spec)
    for spec in (f"{first},{first}", (first, first)):
        with pytest.raises(ValueError, match="repeated labels"):
            call(state, spec)


# Each entry point of a grouping, called with the state's (A, B, C)
_GROUPING_ENTRY_POINTS = {
    "qcmi": qcmi,
    "petz_recoveries_from_bc": lambda st, g: next(petz_recoveries(st, g, "from_bc"))[1],
    "petz_recoveries_from_ab": lambda st, g: next(petz_recoveries(st, g, "from_ab"))[1],
    "best_rotated_petz": lambda st, g: best_rotated_petz(st, g).error,
}


@pytest.mark.parametrize("entry", sorted(_GROUPING_ENTRY_POINTS))
def test_every_entry_point_reads_a_grouping_the_same_way(entry):
    call = _GROUPING_ENTRY_POINTS[entry]
    state = random_state(SystemLayout.of(("A1", 2), ("B", 2), ("C", 2)), seed=4)
    results = [_comparable(call(state, grouping)) for grouping in (
        "A1|B|C", ("A1", "B", "C"), (("A1",), ("B",), ("C",)))]
    assert results[1:] == results[:1] * 2


@pytest.mark.parametrize("entry", sorted(_GROUPING_ENTRY_POINTS))
def test_a_non_partition_is_refused_before_any_spectrum(entry, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a spectrum was computed")
    monkeypatch.setattr(channels, "_PetzSpectrum", refuse)
    state = random_state(qubits("A", "B", "C", "D"), seed=1)
    with pytest.raises(ValueError, match="does not partition labels"):
        _GROUPING_ENTRY_POINTS[entry](state, (("A",), ("B",), ("C",)))
