"""Markovianizing cost of a pure tripartite state.

The cost of erasing the A-to-C conditional correlation by randomizing A is
determined by the splitting of supp(psi^A): H({p_j}) + 2 sum_j p_j S(phi_j^{aR})
bits per copy.  I(A:C|B) lower-bounds it for every state, pure or mixed; no
closed form is known for mixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kidecomp import KIDecomposition, ki_decompose
from .qcore import (
    DEFAULT_TOLS,
    PureState,
    Tolerances,
    VerificationError,
    entropy_of_spectrum,
    parse_three_groups,
    partial_trace,
    qcmi,
    von_neumann_entropy,
)

__all__ = ["CostReport", "markovianizing_cost", "splitting_cost"]


@dataclass
class CostReport:
    """Cost value, its universal lower bound, and the two summands."""

    m_dec_bits: float
    qcmi_lower_bits: float
    weight_entropy_bits: float  # H({p_j})
    mean_right_entropy_bits: float  # sum_j p_j S(phi_j^{aR})


def markovianizing_cost(psi: PureState, grouping,
                        tols: Tolerances = DEFAULT_TOLS) -> CostReport:
    """H({p_j}) + 2 sum_j p_j S(phi_j^{aR}) in bits for a pure state.

    The splitting comes from the decomposition of psi^{AC} over the A
    grouping; see ``splitting_cost``.
    """
    a, b, c = parse_three_groups(grouping, psi.layout)
    ki = ki_decompose(partial_trace(psi, a + c), a, tols)
    return splitting_cost(ki, psi, (a, b, c), tols)


def splitting_cost(ki: KIDecomposition, psi: PureState, groups,
                   tols: Tolerances = DEFAULT_TOLS) -> CostReport:
    """The cost formula on ki, the splitting of psi^{AC} over A.

    psi is the pure state on groups = (A, B, C); I(A:C|B) of it, read from
    the vector with S(ABC) = 0 (see qcore.qcmi), is attached as the
    universal lower bound and checked against the value.
    """
    d_c = ki.rest.total_dim
    h = entropy_of_spectrum(ki.probabilities)
    mean = 0.0
    for blk in ki.blocks:
        n = blk.a_r_dim
        marg = np.einsum("acbc->ab", blk.phi.reshape(n, d_c, n, d_c))
        mean += blk.p * von_neumann_entropy(marg, tols)
    value = h + 2.0 * mean
    lower = qcmi(psi, groups, tols)
    if lower > value + 1e-9:
        raise VerificationError(
            f"cost {value:.12f} bits fell below its lower bound {lower:.12f}")
    return CostReport(value, lower, h, mean)

