"""JSON and CSV serialization for states and report payloads.

State files use a small JSON schema: a ``systems`` list naming each
subsystem with its dimension, plus either a row-major ``matrix`` (density
operator) or a ``vector`` (pure state).  Complex entries are stored as
``[real, imag]`` pairs whose two entries are JSON numbers; a string or a
boolean is refused with the path of the entry.  The first listed subsystem
is the most significant index, matching the Kronecker order used everywhere
else in the package; golden files under ``tests/data`` pin that convention.

Report payloads from the command-line tool go through :func:`to_jsonable`,
which maps dataclasses to plain dicts and numpy arrays to nested lists.
:func:`dumps_canonical` fixes key order and indentation so equal inputs
produce identical bytes.  It is one recursive writer that emits exactly the
bytes of ``json.dumps(to_jsonable(payload), indent=2, sort_keys=True,
allow_nan=False)`` plus a newline: builtins are written directly (json's C
string quoter, ``repr`` of floats and ints), anything else goes through
to_jsonable first.  ``json.dumps``, whose indenting encoder is pure Python
and several times slower, remains the tests' oracle for those bytes.
Non-finite numbers are rejected everywhere: a NaN in a report is a defect,
not data.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from itertools import chain
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


def pairs_to_complex(data, name: str = "data") -> np.ndarray:
    """Decode nested [real, imag] pairs back into a complex array.

    data must be a rectangular nest of lists whose innermost lists are
    pairs of JSON numbers: int or float, never bool or str.  Anything else
    raises a ValueError naming the first bad entry in reading order, as a
    path below name (``matrix[3][1][0]``).  Both parts of every pair keep
    their bits, signed zeros included, so a saved state loads back as it was.
    """
    shape = []
    probe = data
    while isinstance(probe, (list, tuple)):
        shape.append(len(probe))
        if not probe:
            break
        probe = probe[0]
    if not shape or shape[-1] != 2:
        raise ValueError(f"{name} must hold [real, imag] pairs")
    # The first entry at each depth fixes the shape.  Flatten the lists a
    # level at a time, checking only lengths (zip's strict check, at the
    # pairs): a JSON string or object in a list's place flattens to
    # strings, which the leaf check refuses, and anything else has no len().
    level = [data]
    try:
        for size in shape[:-1]:
            if set(map(len, level)) != {size}:
                raise TypeError
            level = list(chain.from_iterable(level))
        real, imag = zip(*level, strict=True)
        leaves = real + imag
        if not set(map(type, leaves)) <= {int, float}:
            raise TypeError
        arr = np.fromiter(leaves, float, len(leaves)).reshape([2] + shape[:-1])
    except (TypeError, ValueError, OverflowError):  # Overflow: an int beyond float range
        raise ValueError(_first_bad_entry(data, shape, name)) from None
    # each part is copied in: re + 1j*im would add a +0.0 to both and so
    # lose a negative zero
    out = np.empty(arr.shape[1:], dtype=complex)
    out.real, out.imag = arr
    return out


def _first_bad_entry(node, shape, path: str) -> str | None:
    """Why the first entry of node, in reading order, that breaks shape or
    is not a float-sized JSON number is refused; None if there is none."""
    if not shape:
        if type(node) not in (int, float):
            return f"{path} must be a number, got {node!r}"
        try:
            float(node)
        except OverflowError:
            return f"{path} is too large for a float"
        return None
    if not isinstance(node, (list, tuple)) or len(node) != shape[0]:
        want = "a [real, imag] pair" if len(shape) == 1 else f"a list of {shape[0]} entries"
        return f"{path} must be {want}, got {node!r}"
    for index, item in enumerate(node):
        reason = _first_bad_entry(item, shape[1:], f"{path}[{index}]")
        if reason is not None:
            return reason
    return None


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
    key = "vector" if has_vector else "matrix"
    data = pairs_to_complex(payload[key], key)
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
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value!r} in report")
        return value
    if isinstance(obj, (complex, np.complexfloating)):
        value = complex(obj)
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
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
    """Byte-stable JSON: sorted keys, two-space indent, trailing newline.

    The bytes are those of ``json.dumps(to_jsonable(payload), indent=2,
    sort_keys=True, allow_nan=False) + "\\n"``, the tests' oracle, written in
    one pass: builtins directly, anything else through to_jsonable first,
    so every error is the one to_jsonable raises.
    """
    return _write(payload, "\n") + "\n"


_quote = json.encoder.encode_basestring_ascii


def _write(obj, newline: str) -> str:
    """obj as canonical JSON; newline is a line break plus obj's indent."""
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is float:
        if not math.isfinite(obj):
            raise ValueError(f"non-finite value {obj!r} in report")
        return repr(obj)
    if kind is int:
        return repr(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    inner = newline + "  "
    if kind is dict:
        # values are written in insertion order, as to_jsonable walks them,
        # so a payload with several defects raises the same one
        parts = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"non-string key {key!r} in report")
            parts[key] = _write(value, inner)
        if not parts:
            return "{}"
        return ("{" + inner + ("," + inner).join(
            [_quote(key) + ": " + parts[key] for key in sorted(parts)]) + newline + "}")
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        return ("[" + inner + ("," + inner).join([_write(item, inner) for item in obj])
                + newline + "]")
    return _write(to_jsonable(obj), newline)


def probe_csv(points) -> str:
    """Render conjecture-probe samples as CSV with round-trip float precision."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["trial", "eps_ab", "eps_bc"])
    for point in points:
        writer.writerow([point.trial, repr(float(point.eps_ab)), repr(float(point.eps_bc))])
    return buf.getvalue()
