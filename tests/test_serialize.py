"""State file round trips, the index convention, and report encoding."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

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


def _oracle(payload) -> str:
    return json.dumps(to_jsonable(payload), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _outcome(dump, payload):
    """The text dump writes, or the type and message of what it raises."""
    try:
        return dump(payload)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@dataclasses.dataclass
class _Box:
    label: str
    content: object


_TEXT = hs.one_of(hs.text(max_size=6), hs.sampled_from(
    ["", "é", "\x00\x1f\x7f", "tab\there", 'quote"back\\slash', " ", "\ud800", "日本"]))
_FLOATS = hs.one_of(hs.floats(allow_nan=False, allow_infinity=False), hs.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, 1e16, 1e-7, 0.1]))
_INTS = hs.one_of(hs.integers(), hs.sampled_from([2 ** 63, -2 ** 63 - 1, 2 ** 64 + 1, 10 ** 40]))
_NUMPY_SCALARS = hs.one_of(
    _INTS.filter(lambda i: -2 ** 63 <= i < 2 ** 63).map(np.int64),
    hs.integers(-2 ** 31, 2 ** 31 - 1).map(np.int32),
    _FLOATS.map(np.float64),
    hs.floats(-1e6, 1e6, width=32).map(np.float32),
    hs.builds(complex, _FLOATS, _FLOATS).map(np.complex128),
)
_ARRAYS = hs.builds(
    lambda shape, dtype, seed: np.random.default_rng(seed).normal(size=shape).astype(dtype),
    hs.lists(hs.integers(0, 3), max_size=3).map(tuple),
    hs.sampled_from([float, int, complex, bool, np.float32]),
    hs.integers(0, 2 ** 16))
_LAYOUTS = hs.lists(hs.integers(1, 3), min_size=1, max_size=3).map(
    lambda dims: SystemLayout.of(*zip("ABC", dims)))
_STATES = hs.builds(lambda layout, seed, pure: (random_pure if pure else random_state)(
    layout, seed=seed), _LAYOUTS, hs.integers(0, 99), hs.booleans())
_LEAVES = hs.one_of(
    hs.none(), hs.booleans(), _TEXT, _INTS, _FLOATS, hs.builds(complex, _FLOATS, _FLOATS),
    _NUMPY_SCALARS, _ARRAYS, _LAYOUTS, _STATES,
    hs.builds(ProbePoint, hs.integers(0, 9), _FLOATS, _FLOATS))
_PAYLOADS = hs.recursive(_LEAVES, lambda inner: hs.one_of(
    hs.lists(inner, max_size=4),
    hs.lists(inner, max_size=4).map(tuple),
    hs.dictionaries(_TEXT, inner, max_size=4),
    hs.builds(_Box, _TEXT, inner),
), max_leaves=12)
# one defect each: non-finite numbers, a non-string key, an unsupported type
_FAULTS = hs.sampled_from([
    float("nan"), float("inf"), -float("inf"), np.float64("nan"), np.float32("inf"),
    complex(1.0, float("nan")), np.complex128(complex(float("inf"), 0.0)),
    np.array([1.0, np.nan]), np.array([[1j, np.inf]]), {1: "x"}, {None: 1.0},
    object(), np.bool_(True), np.array(["a"]), {1.5}, b"bytes",
])
_FAULTY = hs.recursive(_FAULTS, lambda inner: hs.one_of(
    hs.builds(lambda head, bad, tail: head + [bad] + tail,
              hs.lists(_PAYLOADS, max_size=2), inner, hs.lists(_PAYLOADS, max_size=2)),
    hs.builds(lambda items, key, bad: {**items, key: bad},
              hs.dictionaries(_TEXT, _PAYLOADS, max_size=3), _TEXT, inner),
    hs.builds(_Box, _TEXT, inner),
), max_leaves=4)


@settings(max_examples=300, deadline=None)
@given(_PAYLOADS)
def test_dumps_canonical_writes_the_oracle_bytes(payload):
    assert dumps_canonical(payload) == _oracle(payload)


@settings(max_examples=200, deadline=None)
@given(_FAULTY)
def test_dumps_canonical_raises_what_to_jsonable_raises(payload):
    raised = _outcome(dumps_canonical, payload)
    assert isinstance(raised, tuple)
    assert raised == _outcome(_oracle, payload)


@pytest.mark.parametrize("payload", [
    {}, [], (), {"a": {}}, [[], {}], {"b": 1, "a": [1.0, -0.0]}, -0.0, 5e-324,
    1.7976931348623157e308, 2 ** 70, "\x00é\ud800", True, None,
    {"z": np.float64(0.5), "y": np.arange(3), "x": np.array([1j])},
])
def test_dumps_canonical_edge_payloads(payload):
    assert dumps_canonical(payload) == _oracle(payload)


def test_dumps_canonical_raises_the_first_defect_in_insertion_order():
    # the values are walked as to_jsonable walks them, not in key order
    payload = {"b": float("nan"), "a": object()}
    assert _outcome(dumps_canonical, payload) == (ValueError, "non-finite value nan in report")
    assert _outcome(_oracle, payload) == (ValueError, "non-finite value nan in report")


def test_pairs_decode_bitwise_like_a_float_array():
    # ints, signed zeros and subnormals decode as np.asarray(..., float)
    # reads them, each pair as one complex entry
    rng = np.random.default_rng(4)
    arr = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    arr[0, 0], arr[0, 1], arr[1, 0] = complex(-0.0, 0.0), complex(0.0, -0.0), 5e-324j
    pairs = complex_to_pairs(arr)
    pairs[2][2] = [1, -3]
    want = np.asarray(pairs, dtype=float).view(complex)[..., 0]
    got = pairs_to_complex(pairs, "matrix")
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert pairs_to_complex(complex_to_pairs(arr[0])).tobytes() == arr[0].tobytes()


def test_signed_zeros_round_trip_through_a_state_file(tmp_path):
    got = pairs_to_complex([[-0.0, 0.0], [1.0, -0.0]])
    assert np.signbit(got.real).tolist() == [True, False]
    assert np.signbit(got.imag).tolist() == [False, True]
    # a canonical state file holding both comes back byte for byte
    mat = np.diag([0.5, 0.5]).astype(complex)
    mat[0, 1], mat[1, 0], mat[1, 1] = complex(-0.0, 0.0), complex(0.0, -0.0), complex(0.5, -0.0)
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    save_state(DensityState(mat, SystemLayout.of(("A", 2))), first)
    save_state(load_state(first), again)
    assert "-0.0" in first.read_text()
    assert again.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("bad, message", [
    (["1", "0"], r"matrix\[3\]\[1\]\[0\] must be a number, got '1'"),
    ([True, False], r"matrix\[3\]\[1\]\[0\] must be a number, got True"),
    ([0.0, None], r"matrix\[3\]\[1\]\[1\] must be a number, got None"),
    ([0.0, [0.0]], r"matrix\[3\]\[1\]\[1\] must be a number, got \[0.0\]"),
    ([1.0, 0.0, 0.0], r"matrix\[3\]\[1\] must be a \[real, imag\] pair, got \[1.0, 0.0, 0.0\]"),
    ([1.0], r"matrix\[3\]\[1\] must be a \[real, imag\] pair"),
    ("ab", r"matrix\[3\]\[1\] must be a \[real, imag\] pair, got 'ab'"),
    ({"re": 0.0, "im": 0.0}, r"matrix\[3\]\[1\] must be a \[real, imag\] pair"),
    (0.5, r"matrix\[3\]\[1\] must be a \[real, imag\] pair, got 0.5"),
    ([10 ** 400, 0], r"matrix\[3\]\[1\]\[0\] is too large for a float"),
])
def test_pairs_refuse_a_bad_entry_by_its_path(bad, message):
    pairs = complex_to_pairs(np.eye(4) / 4)
    pairs[3][1] = bad
    with pytest.raises(ValueError, match=message):
        pairs_to_complex(pairs, "matrix")


def test_pairs_name_the_first_bad_entry_in_reading_order():
    pairs = complex_to_pairs(np.eye(4) / 4)
    pairs[2] = pairs[2][:3]           # a ragged row
    pairs[3][0] = ["0", "0"]          # a later bad leaf
    with pytest.raises(ValueError, match=r"^matrix\[2\] must be a list of 4 entries"):
        pairs_to_complex(pairs, "matrix")


@pytest.mark.parametrize("data", [0.5, "x", [], [[]], [[1.0, 0.0, 0.0]], {"a": 1}])
def test_pairs_refuse_data_without_pairs(data):
    with pytest.raises(ValueError, match="must hold"):
        pairs_to_complex(data, "vector")


@pytest.mark.parametrize("leaf", [["1", "0"], [True, False]])
def test_a_state_file_leaf_must_be_a_json_number(leaf):
    payload = {"systems": [{"name": "A", "dim": 2}],
               "vector": [leaf, [0.0, 0.0]]}
    with pytest.raises(ValueError, match=r"vector\[0\]\[0\] must be a number"):
        state_from_jsonable(payload)
