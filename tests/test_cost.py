"""Tests for the markovianizing-cost computation and its lower bound."""

import numpy as np
import pytest

from markovkit.cost import markovianizing_cost
from markovkit.markov import nearest_markov_tilde
from markovkit.protocols import markovianize
from markovkit.qcore import (
    PureState,
    SystemLayout,
    kron_all,
    partial_trace,
    qcmi,
    random_pure,
    random_unitary,
    von_neumann_entropy,
)

from helpers import bell_pair, ghz, mutual_information, planted_markov_state, purify


def test_entanglement_inside_ab_costs_nothing():
    # |Phi+>^{AB} (x) |0>^C: nothing crosses the B cut.
    bell = bell_pair("A", "B")
    layout = SystemLayout.of(("A", 2), ("B", 2), ("C", 2))
    v = np.kron(bell.vector, np.array([1.0, 0.0]))
    report = markovianizing_cost(PureState(v, layout), "A|B|C")
    assert abs(report.m_dec_bits) < 1e-10
    assert report.qcmi_lower_bits < 1e-10


def test_entanglement_across_trivial_b_costs_two_bits():
    layout = SystemLayout.of(("A", 2), ("B", 1), ("C", 2))
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    report = markovianizing_cost(PureState(v, layout), "A|B|C")
    assert abs(report.m_dec_bits - 2.0) < 1e-9
    assert abs(report.qcmi_lower_bits - 2.0) < 1e-9
    # one block, all of the cost from the entangled aR factor
    assert abs(report.weight_entropy_bits) < 1e-9
    assert abs(report.mean_right_entropy_bits - 1.0) < 1e-9


def test_ghz_cost_is_one_bit_and_the_lower_bound_is_tight():
    report = markovianizing_cost(ghz(), "A|B|C")
    assert abs(report.m_dec_bits - 1.0) < 1e-9
    assert abs(report.m_dec_bits - report.qcmi_lower_bits) < 1e-9
    # classical copy: all weight entropy, no aR contribution
    assert abs(report.weight_entropy_bits - 1.0) < 1e-9
    assert abs(report.mean_right_entropy_bits) < 1e-9


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 2)])
def test_cost_sits_between_qcmi_and_total_correlation(dims):
    for seed in range(10):
        layout = SystemLayout.of(("A", dims[0]), ("B", dims[1]), ("C", dims[2]))
        psi = random_pure(layout, seed=(seed, dims[0]))
        report = markovianizing_cost(psi, "A|B|C")
        rho = psi.to_density()
        lower = qcmi(rho, (("A",), ("B",), ("C",)))
        upper = 2.0 * von_neumann_entropy(partial_trace(rho, ("A",)))
        assert report.m_dec_bits >= lower - 1e-9
        assert report.m_dec_bits <= upper + 1e-9
        assert abs(report.m_dec_bits - (report.weight_entropy_bits
                                        + 2.0 * report.mean_right_entropy_bits)) < 1e-12


def test_cost_equals_mutual_information_of_the_tilde_state():
    for seed in (0, 7, 23, 41):
        layout = SystemLayout.of(("A", 2), ("B", 2), ("C", 2))
        psi = random_pure(layout, seed=seed)
        report = markovianizing_cost(psi, "A|B|C")
        tilde = nearest_markov_tilde(psi, "A|B|C")
        i_tilde = mutual_information(tilde, ("A",), ("B", "C"))
        assert abs(report.m_dec_bits - i_tilde) < 1e-9


def test_cost_is_invariant_under_local_unitaries():
    layout = SystemLayout.of(("A", 2), ("B", 2), ("C", 2))
    psi = random_pure(layout, seed=11)
    base = markovianizing_cost(psi, "A|B|C").m_dec_bits
    for seed in range(3):
        u = kron_all([random_unitary(2, seed=(seed, k)) for k in range(3)])
        rotated = PureState(u @ psi.vector, layout)
        moved = markovianizing_cost(rotated, "A|B|C").m_dec_bits
        assert abs(moved - base) < 1e-9


def test_cost_and_twirl_never_build_the_pure_density(monkeypatch):
    # the planted state's purification on (A, B, C, R), as the benchmark's
    # cost-purified operations read it
    purified = purify(planted_markov_state(np.random.default_rng(31))[0])
    psi = random_pure(SystemLayout.of(("A", 2), ("B", 3), ("C", 2)), seed=4)

    def values():
        run = markovianize(psi, "A|B|C", n=1)
        return (markovianizing_cost(purified, "A|R|B,C"),
                (run.qcmi_out, run.recovery_error_from_bc,
                 run.recovery_error_from_ab, run.cost_bits_per_copy,
                 run.m_dec_bits))

    before = values()

    def refuse(self):
        raise AssertionError("a pure-state reader built the d_total density")

    monkeypatch.setattr(PureState, "to_density", refuse)
    assert values() == before
