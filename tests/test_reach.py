"""What the golden command list leaves unentered.

tools/reach.py runs tools/cli_diff.py's command list at seed 0 under a line
tracer.  Every top-level function or method of src/markovkit that no
command enters must be named here with the reason it stays; a name that a
command starts to enter, or a new name that none enters, fails the test.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

_PINNED = "bench-pinned: bench/spans.py times or reads it"
_WITH_EXTENSION = "bench-pinned: read only by extend_to_purification"

NEVER_ENTERED = {
    "algebra.BlockStructure.num_blocks": _PINNED,
    "algebra.OperatorAlgebra.dim": _PINNED,
    "markov.nearest_markov_tilde": _PINNED,
    "kidecomp.state_preserving_channel": _PINNED,
    "kidecomp.extend_to_purification": _PINNED,
    "kidecomp.KIDecomposition.reconstruct": _WITH_EXTENSION,
    "kidecomp.TripartiteKIForm.ki_vector": _WITH_EXTENSION,
    "protocols.MeasurementRun.measurement":
        "acceptance criterion 09 reads it for its completeness sum",
    "channels.QuantumChannel.completeness_deviation": "a test oracle",
    "qcore.PureState.dim": "API symmetry with DensityState.dim",
    "qcore.DensityState.__repr__": "API symmetry: every state type has a repr",
    "qcore.PureState.__repr__": "API symmetry: every state type has a repr",
}


def test_every_function_no_command_enters_is_declared():
    _, unentered = reach.trace_golden_list()
    assert unentered == set(NEVER_ENTERED)
