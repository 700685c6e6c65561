"""JSON and CSV serialization for states and report payloads.

State files use a small JSON schema: a ``systems`` list naming each
subsystem with its dimension, plus either a row-major ``matrix`` (density
operator) or a ``vector`` (pure state).  Complex entries are stored as
``[real, imag]`` pairs.  The first listed subsystem is the most significant
index, matching the Kronecker order used everywhere else in the package;
golden files under ``tests/data`` pin that convention.

Report payloads from the command-line tool go through :func:`to_jsonable`,
which maps dataclasses to plain dicts and numpy arrays to nested lists.
:func:`dumps_canonical` fixes key order and indentation so equal inputs
produce identical bytes.  Non-finite numbers are rejected everywhere: a NaN
in a report is a defect, not data.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from pathlib import Path

import numpy as np

from .qcore import DEFAULT_TOLS, DensityState, PureState, SystemLayout

SCHEMA = "markovkit/1"

__all__ = [
    "SCHEMA",
    "complex_to_pairs",
    "pairs_to_complex",
    "state_to_jsonable",
    "state_from_jsonable",
    "save_state",
    "load_state",
    "to_jsonable",
    "dumps_canonical",
    "probe_csv",
]


def complex_to_pairs(array: np.ndarray) -> list:
    """Encode a complex array as nested lists of [real, imag] pairs."""
    arr = np.asarray(array, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def pairs_to_complex(data) -> np.ndarray:
    """Decode nested [real, imag] pairs back into a complex array."""
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed complex data: {exc}") from exc
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise ValueError("complex entries must be [real, imag] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def state_to_jsonable(state: DensityState | PureState) -> dict:
    """State file payload: systems plus a matrix or vector in pair form."""
    systems = [{"name": name, "dim": dim} for name, dim in state.layout.subsystems]
    if isinstance(state, PureState):
        return {"systems": systems, "vector": complex_to_pairs(state.vector)}
    if isinstance(state, DensityState):
        return {"systems": systems, "matrix": complex_to_pairs(state.matrix)}
    raise TypeError(f"cannot serialize {type(state).__name__} as a state")


def state_from_jsonable(payload, *, tol: float = DEFAULT_TOLS.verify_tol):
    """Rebuild a state from a parsed file payload.

    Raises ValueError on anything malformed or physically invalid, so
    callers can treat every failure here as bad input.
    """
    if not isinstance(payload, dict):
        raise ValueError("state payload must be a JSON object")
    systems = payload.get("systems")
    if not isinstance(systems, list) or not systems:
        raise ValueError('state payload needs a non-empty "systems" list')
    parts = []
    for entry in systems:
        # type, not isinstance: a JSON true is a bool, and bool subclasses int
        if (not isinstance(entry, dict) or not isinstance(entry.get("name"), str)
                or type(entry.get("dim")) is not int):
            raise ValueError(f'bad system entry {entry!r}: need "name" and integer "dim"')
        parts.append((entry["name"], entry["dim"]))
    layout = SystemLayout.of(*parts)

    has_vector = "vector" in payload
    if has_vector == ("matrix" in payload):
        raise ValueError('state payload needs exactly one of "vector" or "matrix"')
    data = pairs_to_complex(payload["vector"] if has_vector else payload["matrix"])
    if not np.all(np.isfinite(data)):
        raise ValueError("state contains non-finite entries")
    if has_vector:
        if data.ndim != 1:
            raise ValueError(f"vector must be one-dimensional, got shape {data.shape}")
        return PureState(data, layout, tol=tol)
    if data.shape != (layout.total_dim, layout.total_dim):
        raise ValueError(f"matrix shape {data.shape} does not match "
                         f"total dimension {layout.total_dim}")
    return DensityState(data, layout, tol=tol)


def save_state(state, path) -> None:
    """Write a state file; the payload round-trips through load_state."""
    Path(path).write_text(dumps_canonical(state_to_jsonable(state)))


def load_state(path, *, tol: float = DEFAULT_TOLS.verify_tol):
    """Read a state file written by save_state (or by hand)."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    return state_from_jsonable(payload, tol=tol)


def to_jsonable(obj):
    """Map a report object onto JSON-ready builtins.

    Handles the package's states, layouts, and dataclasses (channels,
    decompositions, harness reports) alongside numpy scalars and arrays.
    Complex values become [real, imag] pairs; non-finite numbers raise.
    """
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not np.isfinite(value):
            raise ValueError(f"non-finite value {value!r} in report")
        return value
    if isinstance(obj, (complex, np.complexfloating)):
        value = complex(obj)
        if not (np.isfinite(value.real) and np.isfinite(value.imag)):
            raise ValueError(f"non-finite value {value!r} in report")
        return [value.real, value.imag]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind not in "bifc":
            raise TypeError(f"cannot serialize array of dtype {obj.dtype}")
        if not np.all(np.isfinite(obj)):
            raise ValueError("non-finite array entry in report")
        return complex_to_pairs(obj) if obj.dtype.kind == "c" else obj.tolist()
    if isinstance(obj, (DensityState, PureState)):
        return state_to_jsonable(obj)
    if isinstance(obj, SystemLayout):
        return [{"name": name, "dim": dim} for name, dim in obj.subsystems]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"non-string key {key!r} in report")
            out[key] = to_jsonable(value)
        return out
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(item) for item in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__} in a report")


def dumps_canonical(payload) -> str:
    """Byte-stable JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(to_jsonable(payload), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def probe_csv(points) -> str:
    """Render conjecture-probe samples as CSV with round-trip float precision."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["trial", "eps_ab", "eps_bc"])
    for point in points:
        writer.writerow([point.trial, repr(float(point.eps_ab)), repr(float(point.eps_bc))])
    return buf.getvalue()
