"""markovkit: numerics for quantum Markov structure and recoverability."""

from .algebra import (
    BlockStructure,
    OperatorAlgebra,
    decompose_structure,
    generate_algebra,
    verify_structure,
)
from .channels import (
    QuantumChannel,
    RandomUnitaryEnsemble,
    RecoveryAssessment,
    best_rotated_petz,
    heisenberg_weyl,
    petz_recovery,
    phase_ops,
    unitary_channel,
)
from .cost import (
    CostReport,
    markovianizing_cost,
)
from .kidecomp import (
    KIBlock,
    KIDecomposition,
    extend_to_purification,
    ki_decompose,
    state_preserving_channel,
)
from .markov import (
    MarkovDecomposition,
    MarkovEntry,
    MarkovReport,
    estimate_zeta,
    is_markov,
    markov_decompose,
    nearest_markov_tilde,
    recovery_from_decomposition,
    split_by_conditioner,
    squeeze_T,
)
from .protocols import (
    Lemma1Report,
    MarkovianizationRun,
    MeasurementRun,
    ProbePoint,
    StructuralReport,
    build_twirl_ensemble,
    conjecture_probe,
    markovianize,
    measurement_protocol,
    n_fold_state,
    random_markov_state,
    verify_appendix_a,
    verify_lemma1,
    verify_lemma6,
)
from .qcore import (
    DEFAULT_TOLS,
    DensityState,
    PureState,
    SystemLayout,
    Tolerances,
    VerificationError,
    binary_entropy,
    eta,
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
    trace_distance,
    von_neumann_entropy,
)
from .serialize import (
    SCHEMA,
    dumps_canonical,
    load_state,
    probe_csv,
    save_state,
    state_from_jsonable,
    state_to_jsonable,
    to_jsonable,
)

__version__ = "0.1.0"
