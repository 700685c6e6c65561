"""State file round trips, the index convention, and report encoding."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from markovkit.protocols import ProbePoint
from markovkit.qcore import (
    DensityState,
    PureState,
    SystemLayout,
    partial_trace,
    qcmi,
    random_pure,
    random_state,
)
from markovkit.serialize import (
    SCHEMA,
    complex_to_pairs,
    dumps_canonical,
    load_state,
    pairs_to_complex,
    probe_csv,
    save_state,
    state_from_jsonable,
    state_to_jsonable,
    to_jsonable,
)

DATA = Path(__file__).parent / "data"


def test_schema_tag():
    assert SCHEMA == "markovkit/1"


def test_pairs_roundtrip_exact():
    rng = np.random.default_rng(3)
    arr = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    back = pairs_to_complex(complex_to_pairs(arr))
    assert np.array_equal(back, arr)


def test_pairs_reject_malformed():
    with pytest.raises(ValueError):
        pairs_to_complex([[0.1, 0.2, 0.3]])
    with pytest.raises(ValueError):
        pairs_to_complex([[0.1, "x"]])
    with pytest.raises(ValueError):
        pairs_to_complex(0.5)


def test_density_roundtrip(tmp_path):
    layout = SystemLayout.of(("A", 2), ("B", 3))
    state = random_state(layout, rank=2, seed=11)
    path = tmp_path / "rho.json"
    save_state(state, path)
    again = load_state(path)
    assert isinstance(again, DensityState)
    assert again.layout == state.layout
    assert np.allclose(again.matrix, state.matrix, atol=1e-15)


def test_pure_roundtrip(tmp_path):
    layout = SystemLayout.of(("A", 2), ("B", 2), ("C", 2))
    state = random_pure(layout, seed=5)
    path = tmp_path / "psi.json"
    save_state(state, path)
    again = load_state(path)
    assert isinstance(again, PureState)
    assert np.allclose(again.vector, state.vector, atol=1e-15)


def test_index_convention_leftmost_most_significant():
    # |0>_A |1>_B sits at flat index 1 when A is listed first.
    payload = {
        "systems": [{"name": "A", "dim": 2}, {"name": "B", "dim": 2}],
        "vector": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
    }
    state = state_from_jsonable(payload)
    rho_a = partial_trace(state.to_density(), ("A",)).matrix
    rho_b = partial_trace(state.to_density(), ("B",)).matrix
    assert np.allclose(rho_a, np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(rho_b, np.diag([0.0, 1.0]), atol=1e-12)


def test_golden_ghz_pins_convention_and_bytes():
    path = DATA / "ghz.json"
    state = load_state(path)
    assert isinstance(state, PureState)
    assert state.layout.labels == ("A", "B", "C")
    expect = np.zeros(8, dtype=complex)
    expect[0] = expect[7] = 1 / np.sqrt(2)
    assert np.allclose(state.vector, expect, atol=1e-15)
    assert qcmi(state.to_density(), (("A",), ("B",), ("C",))) == pytest.approx(1.0, abs=1e-9)
    assert dumps_canonical(state_to_jsonable(state)) == path.read_text()


def test_golden_bell_ac():
    state = load_state(DATA / "bell_ac.json")
    assert state.layout.dims == (2, 1, 2)
    assert qcmi(state.to_density(), (("A",), ("B",), ("C",))) == pytest.approx(2.0, abs=1e-9)


def test_golden_product_matrix_form():
    path = DATA / "product.json"
    state = load_state(path)
    assert isinstance(state, DensityState)
    assert np.allclose(state.matrix, np.eye(8) / 8, atol=1e-15)
    assert dumps_canonical(state_to_jsonable(state)) == path.read_text()


@pytest.mark.parametrize("payload", [
    "not a dict",
    {},
    {"systems": []},
    {"systems": [{"name": "A"}], "vector": [[1.0, 0.0]]},
    {"systems": [{"name": "A", "dim": "2"}], "vector": [[1.0, 0.0], [0.0, 0.0]]},
    {"systems": [{"name": "A", "dim": 2}]},
    {"systems": [{"name": "A", "dim": 2}],
     "vector": [[1.0, 0.0], [0.0, 0.0]],
     "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
    {"systems": [{"name": "A", "dim": 2}], "vector": [[1.0, 0.0]]},
    {"systems": [{"name": "A", "dim": 2}], "matrix": [[1.0, 0.0], [0.0, 0.0]]},
])
def test_reject_malformed_payloads(payload):
    with pytest.raises(ValueError):
        state_from_jsonable(payload)


@pytest.mark.parametrize("dim", [True, False, 2.0])
def test_a_dimension_must_be_a_json_integer(dim):
    # bool subclasses int in Python, so a JSON true once loaded as dim 1
    payload = {"systems": [{"name": "A", "dim": dim}], "vector": [[1.0, 0.0]]}
    with pytest.raises(ValueError, match='bad system entry .*integer "dim"'):
        state_from_jsonable(payload)


def test_reject_unnormalized_and_nonfinite():
    bad_norm = {"systems": [{"name": "A", "dim": 2}],
                "vector": [[1.0, 0.0], [1.0, 0.0]]}
    with pytest.raises(ValueError):
        state_from_jsonable(bad_norm)
    with_nan = {"systems": [{"name": "A", "dim": 2}],
                "vector": [[float("nan"), 0.0], [0.0, 0.0]]}
    with pytest.raises(ValueError, match="finite"):
        state_from_jsonable(with_nan)
    not_herm = {"systems": [{"name": "A", "dim": 2}],
                "matrix": [[[0.5, 0.0], [1.0, 0.0]],
                           [[0.0, 0.0], [0.5, 0.0]]]}
    with pytest.raises(ValueError):
        state_from_jsonable(not_herm)


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="JSON"):
        load_state(path)


def test_to_jsonable_scalars_and_arrays():
    assert to_jsonable(np.int64(3)) == 3
    assert to_jsonable(np.float64(0.5)) == 0.5
    assert to_jsonable(True) is True
    assert to_jsonable(1 + 2j) == [1.0, 2.0]
    assert to_jsonable(np.arange(3)) == [0, 1, 2]
    assert to_jsonable(np.array([1j, 2.0])) == [[0.0, 1.0], [2.0, 0.0]]
    assert to_jsonable((1, "a", None)) == [1, "a", None]


def test_to_jsonable_dataclass_walk():
    point = ProbePoint(trial=4, eps_ab=0.25, eps_bc=0.5)
    assert to_jsonable(point) == {"trial": 4, "eps_ab": 0.25, "eps_bc": 0.5}

    @dataclasses.dataclass
    class Wrapper:
        name: str
        values: np.ndarray

    out = to_jsonable(Wrapper(name="w", values=np.array([1.0, 2.0])))
    assert out == {"name": "w", "values": [1.0, 2.0]}


def test_to_jsonable_rejects_defects():
    with pytest.raises(ValueError, match="finite"):
        to_jsonable(float("nan"))
    with pytest.raises(ValueError, match="finite"):
        to_jsonable(np.array([1.0, np.inf]))
    with pytest.raises(TypeError):
        to_jsonable(object())
    with pytest.raises(TypeError):
        to_jsonable({1: "x"})


def test_dumps_canonical_is_byte_stable():
    first = dumps_canonical({"b": 1, "a": {"d": 2.0, "c": [1, 2]}})
    second = dumps_canonical({"a": {"c": [1, 2], "d": 2.0}, "b": 1})
    assert first == second
    assert first.endswith("\n")
    assert json.loads(first) == {"a": {"c": [1, 2], "d": 2.0}, "b": 1}


def test_probe_csv_layout():
    points = [ProbePoint(trial=0, eps_ab=1e-15, eps_bc=0.25),
              ProbePoint(trial=1, eps_ab=0.5, eps_bc=1.0)]
    text = probe_csv(points)
    lines = text.splitlines()
    assert lines[0] == "trial,eps_ab,eps_bc"
    assert lines[1] == "0,1e-15,0.25"
    assert lines[2] == "1,0.5,1.0"
    assert text.endswith("\n")
