"""Span tracer for the benchmark's traced pass.

Spans are recorded around calls into each markovkit layer's public
functions, from the benchmark's own files: `install` rebinds every listed
function in each markovkit module namespace that imported it, patches the
listed methods on their classes, and wraps numpy's eigensolvers, SVD and
matrix 2-norm.  `uninstall` restores the originals.

A span's self time is its duration minus the time its child spans cover.
Spans are kept in memory as columns and written out once, at the end.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (module, function) pairs; the span name is "<layer>.<function>" with the
# layer named after the module
FUNCTIONS = (
    ("qcore", "partial_trace"), ("qcore", "matrix_function"),
    ("qcore", "von_neumann_entropy"), ("qcore", "qcmi"),
    ("qcore", "fidelity"), ("qcore", "trace_distance"),
    ("channels", "best_rotated_petz"),
    ("algebra", "generate_algebra"), ("algebra", "decompose_structure"),
    ("kidecomp", "ki_decompose"), ("kidecomp", "extend_to_purification"),
    ("kidecomp", "state_preserving_channel"),
    ("markov", "is_markov"), ("markov", "markov_decompose"),
    ("markov", "recovery_from_decomposition"), ("markov", "squeeze_T"),
    ("markov", "nearest_markov_tilde"), ("markov", "estimate_zeta"),
    ("cost", "markovianizing_cost"),
    ("protocols", "markovianize"), ("protocols", "build_twirl_ensemble"),
    ("protocols", "measurement_protocol"), ("protocols", "verify_lemma1"),
    ("serialize", "load_state"), ("serialize", "dumps_canonical"),
    ("cli", "main"),
)
PETZ_MODES = ("plain", "rotated", "averaged")
LINALG = ("eigh", "eigvalsh", "svd", "norm2")

SPANS = tuple(
    [f"{mod}.{fn}" for mod, fn in FUNCTIONS]
    + ["qcore.DensityState.validate", "channels.QuantumChannel.apply"]
    + [f"channels.petz_recovery.{mode}" for mode in PETZ_MODES]
    + [f"linalg.{fn}" for fn in LINALG])
# work counters: returned sizes, not times, so they repeat exactly
COUNTS = (
    "channels.petz_recovery.kraus", "channels.QuantumChannel.apply.kraus",
    "algebra.generate_algebra.dim", "algebra.decompose_structure.blocks",
    "protocols.build_twirl_ensemble.unitaries",
    "protocols.build_twirl_ensemble.bytes",
) + tuple(f"linalg.{fn}.work" for fn in LINALG)
LAYERS = ("qcore", "channels", "algebra", "kidecomp", "markov", "cost",
          "protocols", "serialize", "cli", "linalg")


class Tracer:
    """Nested spans on one thread, with per-name call counts and self time."""

    def __init__(self):
        self.op = -1  # id of the operation being run, set by the caller
        self._name_ids: dict[str, int] = {}  # span name -> id, in first-seen order
        self.cols = {"id": array("q"), "parent": array("q"), "op": array("q"),
                     "name": array("i"), "start": array("d"), "end": array("d")}
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)

    def call(self, name: str, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.calls[name] += 1
            self.self_s[name] += duration - frame[1]
            name_id = self._name_ids.setdefault(name, len(self._name_ids))
            for col, value in (("id", span_id), ("parent", parent),
                               ("op", self.op), ("name", name_id),
                               ("start", start), ("end", end)):
                self.cols[col].append(value)

    def count(self, name: str, value: int) -> None:
        self.counts[name] += int(value)

    def snapshot(self) -> dict:
        """Every call and work counter so far, for per-pass differences."""
        snap = {f"{name}.calls": self.calls[name] for name in SPANS}
        snap.update({name: self.counts[name] for name in COUNTS})
        return snap

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tparent\top\tname\tstart_s\tend_s\n")
            c = self.cols
            names = list(self._name_ids)
            for i in range(len(c["id"])):
                fh.write(f"{c['id'][i]}\t{c['parent'][i]}\t{c['op'][i]}\t"
                         f"{names[c['name'][i]]}\t{c['start'][i]!r}\t"
                         f"{c['end'][i]!r}\n")


def _work(a) -> int:
    """Sum of m*n*min(m, n) over the matrices of a (stacked) array: d^3 for
    a square d x d matrix."""
    shape = np.shape(a)
    m, n = shape[-2], shape[-1]
    return int(np.prod(shape[:-2], dtype=np.int64)) * m * n * min(m, n)


def _ensemble_counts(ensemble) -> dict[str, int]:
    d = ensemble.layout.total_dim
    return {"protocols.build_twirl_ensemble.unitaries": ensemble.size,
            "protocols.build_twirl_ensemble.bytes": ensemble.size * d * d * 16}


# work counted from the returned value, by span name
RESULT_COUNTS = {
    "algebra.generate_algebra":
        lambda alg: {"algebra.generate_algebra.dim": alg.dim},
    "algebra.decompose_structure":
        lambda st: {"algebra.decompose_structure.blocks": st.num_blocks},
    "protocols.build_twirl_ensemble": _ensemble_counts,
}


def _wrap(tracer: Tracer, name: str, fn):
    counts = RESULT_COUNTS.get(name)

    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if counts is not None:
            for key, value in counts(result).items():
                tracer.count(key, value)
        return result
    return wrapper


def _wrappers(tracer: Tracer) -> list[tuple[object, object]]:
    """(original, wrapper) for every traced module-level function."""
    out = []
    for module, fn in FUNCTIONS:
        orig = getattr(importlib.import_module(f"markovkit.{module}"), fn)
        out.append((orig, _wrap(tracer, f"{module}.{fn}", orig)))

    petz = importlib.import_module("markovkit.channels").petz_recovery

    def petz_wrapper(*args, **kwargs):
        mode = kwargs.get("mode", args[2] if len(args) > 2 else "plain")
        chan = tracer.call(f"channels.petz_recovery.{mode}", petz, args, kwargs)
        tracer.count("channels.petz_recovery.kraus", len(chan.kraus))
        return chan
    out.append((petz, petz_wrapper))
    return out


def install(tracer: Tracer) -> list:
    """Route every traced call through tracer; returns the undo list."""
    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    modules = [m for name, m in list(sys.modules.items())
               if name == "markovkit" or name.startswith("markovkit.")]
    for orig, wrapper in _wrappers(tracer):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    patch(module, attr, wrapper)

    qcore = sys.modules["markovkit.qcore"]
    init = qcore.DensityState.__init__

    def density_init(self, *args, **kwargs):
        if not kwargs.get("validate", True):
            return init(self, *args, **kwargs)
        return tracer.call("qcore.DensityState.validate", init,
                           (self,) + args, kwargs)
    patch(qcore.DensityState, "__init__", density_init)

    channel = sys.modules["markovkit.channels"].QuantumChannel
    apply = channel.apply

    def channel_apply(self, *args, **kwargs):
        tracer.count("channels.QuantumChannel.apply.kraus", len(self.kraus))
        return tracer.call("channels.QuantumChannel.apply", apply,
                           (self,) + args, kwargs)
    patch(channel, "apply", channel_apply)

    linalg = np.linalg
    for fn in ("eigh", "eigvalsh", "svd"):
        orig = getattr(linalg, fn)

        def solver(a, *args, _fn=fn, _orig=orig, **kwargs):
            tracer.count(f"linalg.{_fn}.work", _work(a))
            return tracer.call(f"linalg.{_fn}", _orig, (a,) + args, kwargs)
        patch(linalg, fn, solver)

    # norm(x, 2) runs its own SVD inside numpy, out of reach of the svd
    # wrapper, so the matrix 2-norm is traced at norm itself
    norm = linalg.norm

    def norm_wrapper(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2 and not args and "axis" not in kwargs:
            tracer.count("linalg.norm2.work", _work(x))
            return tracer.call("linalg.norm2", norm, (x, ord), kwargs)
        return norm(x, ord, *args, **kwargs)
    patch(linalg, "norm", norm_wrapper)
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name in SPANS:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    out += [(name, "bytes" if name.endswith(".bytes") else "count", "lower")
            for name in COUNTS]
    out += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    out += [("trace.ops_per_s_untraced", "1/s", "higher"),
            ("trace.ops_per_s_traced", "1/s", "higher"),
            ("trace.overhead_ops_per_s", "1/s", "lower")]
    return out


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass call counts, work counts and self times, by span and layer."""
    out = {}
    layer_self = defaultdict(float)
    for name in SPANS:
        out[f"{name}.calls"] = tracer.calls[name] / passes
        out[f"{name}.self_s"] = tracer.self_s[name] / passes
        layer_self[name.split(".", 1)[0]] += tracer.self_s[name] / passes
    for name in COUNTS:
        out[name] = tracer.counts[name] / passes
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    return out
