"""Tests of the benchmark itself: tiny smoke runs, span rollup, rebinding.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

# tiny sizes: a handful of points, one start, two angles
TINY = {
    "campaign": {"days": 1, "batches_per_day": 1, "starts": 1, "trace_units": 1},
    "drive_fit": {"n_batches": 1, "starts": {"markovian": 1, "qubit_tls": 1},
                  "n_values": tuple(range(0, 71, 10))},
    "cli_sweep": {"thetas": (0.0, 2.0 * math.pi), "n_inputs": 1, "trace_units": 1},
}


def _run(monkeypatch, capsys, name, trace):
    for attr, value in TINY[name].items():
        monkeypatch.setattr(workloads.WORKLOADS[name], attr, value)
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_smoke_end_to_end(monkeypatch, capsys, name):
    code, report, result = _run(monkeypatch, capsys, name, trace=0)
    assert code == 0, report["checks"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    for value in result["metrics"].values():
        assert math.isfinite(value["value"]) and value["value"] > 0
    assert report["provenance"]["src_lines"] > 0


def test_smoke_traced(monkeypatch, capsys):
    code, report, result = _run(monkeypatch, capsys, "cli_sweep", trace=1)
    assert code == 0, report["checks"]
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # analyze runs extract_phasors and fit_purity twice per angle on equal inputs
    assert metrics["analysis.extract_phasors.dup_frac"] == 0.5
    assert metrics["analysis.fit_purity.dup_frac"] == 0.5
    assert metrics["cli.cmd_simulate.total_s"] > 0 and metrics["synth.write_records.bytes"] > 0


def test_rollup_self_and_total_time():
    # A[0,10] -> B[1,4] -> D[2,3];  A -> C[5,9] -> A[6,7] (recursion)
    spans = [
        ("A", 0.0, 10.0, -1, "u0"),
        ("B", 1.0, 4.0, 0, "u0"),
        ("D", 2.0, 3.0, 1, "u0"),
        ("C", 5.0, 9.0, 0, "u0"),
        ("A", 6.0, 7.0, 3, "u0"),
    ]
    roll = tracing.rollup(spans)
    assert roll["A"] == {"calls": 2, "self_s": 3.0 + 1.0, "total_s": 10.0}
    assert roll["B"] == {"calls": 1, "self_s": 2.0, "total_s": 3.0}
    assert roll["C"] == {"calls": 1, "self_s": 3.0, "total_s": 4.0}
    assert roll["D"]["self_s"] == 1.0
    assert tracing.child_total(spans, "A", "C") == 1.0
    assert tracing.child_total(spans, "D", "A") == 0.0


def test_covered_merges_overlaps():
    assert tracing._covered([(5.0, 6.0), (0.0, 2.0), (1.0, 3.0)]) == 4.0
    assert tracing._covered([]) == 0.0


def _snapshot():
    from noiselab.pauli import PowerEngine

    state = {}
    for module in tracing._noiselab_modules():
        for attr, value in vars(module).items():
            state[(module.__name__, attr)] = value
    for method in tracing.ENGINE_METHODS:
        state[("PowerEngine", method)] = PowerEngine.__dict__[method]
    return state


def test_instrument_rebinds_every_importer_and_restores():
    from noiselab import analysis, cli, fitting, schedule

    before = _snapshot()
    originals = {
        getattr(sys.modules[mod], attr) for (mod, attr) in tracing.TARGETS
    }
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        during = _snapshot()
        for key, value in during.items():
            assert not any(value is o for o in originals), f"{key} still unwrapped"
        # the by-name imports that patching only the defining module would miss
        for module, attr in ((fitting, "schedule_superoperator"), (fitting, "extract_phasors"),
                             (analysis, "minimize_multistart"), (cli, "fit_purity")):
            wrapper = getattr(module, attr)
            assert wrapper.__wrapped__ is before[(module.__name__, attr)]
        assert during[("PowerEngine", "__init__")] is not before[("PowerEngine", "__init__")]
        sched = schedule.PseudoidentitySchedule(theta_full=0.5, n_values=(0, 1))
        schedule.predict_trajectory(workloads.TRUTH, sched)
    after = _snapshot()
    assert all(after[k] is before[k] for k in before)
    names = {span[0] for span in tracer.spans}
    assert {"schedule.schedule_superoperator", "pauli.build_generator",
            "pauli.PowerEngine.__init__", "pauli.PowerEngine.states"} <= names


def test_duplicate_calls_are_counted_per_op():
    from noiselab import analysis

    z = [1.0 + 0.0j, 0.5 + 0.5j, 0.0 + 0.7j, -0.4 + 0.4j, -0.6 + 0.0j, -0.3 - 0.4j]
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        tracer.begin_op("u0")
        analysis.extract_phasors(z, 0.05)
        analysis.extract_phasors(z, threshold=0.05)  # same call, keyword spelling
        tracer.begin_op("u1")
        analysis.extract_phasors(z, 0.05)
    assert tracer.digests["analysis.extract_phasors"] == [False, True, False]
