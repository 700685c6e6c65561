"""Self-checks of the benchmark: python3 -m pytest bench/tests -q"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (pins BLAS threads as the benchmark does)
import spans  # noqa: E402
import workloads  # noqa: E402

# a few cheap operations of every kind, including ones the ki defect fails
SAMPLE = ("recover/full232_0/from-bc", "recover/rank2_222_0/from-ab",
          "lemma1/0", "measure-sim/pure222_0", "markovianize/222/n1",
          "markovianize/332/n1", "markovianize/222/n2", "ki-A/222", "ki-C/222",
          "markov-check/222", "markov-decompose/222", "cost-purified/222",
          "ki-A/212", "cost-purified/212", "cost/pure333_0")


def _sample_ops(workdir: Path) -> list[workloads.Op]:
    ops = {op.name: op for name in workloads.WORKLOADS
           for op in workloads.build_ops(name, 7, workdir)}
    return [ops[name] for name in SAMPLE]


def test_two_traced_passes_repeat_every_count(tmp_path):
    cli = run.import_cli()
    ops = _sample_ops(tmp_path)
    originals = (np.linalg.eigh, np.linalg.norm, cli.main)
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    snaps = [tracer.snapshot()]
    try:
        for _ in range(2):
            passes = run.Passes(ops)
            passes.run(cli, tracer)
            snaps.append(tracer.snapshot())
    finally:
        spans.uninstall(undo)
    assert (np.linalg.eigh, np.linalg.norm, cli.main) == originals

    first, second = ({k: after[k] - before[k] for k in after}
                     for before, after in zip(snaps, snaps[1:]))
    assert first == second
    assert not passes.unexpected, passes.unexpected
    assert set(passes.failures) == {"ki-A/212", "cost-purified/212"}
    for name in ("cli.main", "serialize.load_state", "channels.petz_recovery.averaged",
                 "qcore.DensityState.validate", "algebra.generate_algebra",
                 "kidecomp.ki_decompose", "markov.markov_decompose",
                 "protocols.build_twirl_ensemble", "linalg.eigh", "linalg.norm2"):
        assert first[f"{name}.calls"] > 0, name
    assert first["cli.main.calls"] == len(SAMPLE)
    for name in spans.COUNTS:
        assert first[name] > 0, name


def test_self_times_partition_the_root_spans():
    tracer = spans.Tracer()

    def inner():
        return sum(range(20000))

    def outer():
        return tracer.call("b.inner", inner, (), {}) + sum(range(20000))

    for _ in range(3):
        tracer.call("a.outer", outer, (), {})
    cols = tracer.cols
    roots = [cols["end"][i] - cols["start"][i]
             for i in range(len(cols["id"])) if cols["parent"][i] == -1]
    assert len(roots) == 3 and tracer.calls["b.inner"] == 3
    assert abs(sum(tracer.self_s.values()) - sum(roots)) < 1e-9
    assert 0 < tracer.self_s["a.outer"] < sum(roots)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        spans.metric_names()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: w.why for name, w in workloads.WORKLOADS.items()}
