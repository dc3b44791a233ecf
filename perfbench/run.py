#!/usr/bin/env python3
"""noiselab benchmark: one seeded workload per process, metrics as JSON.

Usage (from the repository root):

    python3 perfbench/run.py --workload {campaign,drive_fit,cli_sweep} \
        --seed N --seconds S --trace {0,1}

--trace 0 runs units of the workload for about S seconds and reports the
end-to-end metrics; its times are normalised to a reference host speed
measured by a fixed probe kernel during the run (see perfbench/README.md).  --trace 1 runs a fixed number of units, each once
untraced and once with every layer wrapped in spans, and reports the
per-layer metrics plus the tracing overhead; spans are written to
.perfbench_out/spans-<workload>.tsv.  Either way the last stdout line is
one JSON object {correct, attempted, failed, metrics}; the line before it
holds the provenance, the checks and the output digests.  A failed check
exits 1.  noiselab is imported from the src/ directory next to perfbench/,
never from an installed copy.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

# one BLAS thread: each workload is a single-threaded process
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 8
# median host-probe time on the reference host (2-vCPU VM, Python 3.11.7,
# numpy 2.4.6, scipy 1.17.1); only sets the scale of normalised seconds
PROBE_NOMINAL_S = 0.0185
PROBES_PER_BOUNDARY = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "rmse_over_truth_med": "ratio",
}


def _median(values):
    return statistics.median(values) if values else None


def _provenance(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path) as fh:
                    commit = fh.read().strip()
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "workload": workload,
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "git_commit": commit,
        "src_lines": src_lines,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_units(wl, inputs, seconds: float, before_unit):
    """Run units 0, 1, ... on inputs[k mod len(inputs)] for about `seconds`.

    A unit is not started when it would most likely end more than half a
    median unit past the budget, so the measured window stays close to
    `seconds` however long a unit is.  Returns (per-unit wall times,
    per-unit results, problems); a rerun whose digest differs from the
    first run of that input is a problem.
    """
    walls, results, problems = [], [], []
    first_digest: dict[int, str] = {}
    k = 0
    while True:
        before_unit(k)
        t0 = time.perf_counter()
        res = wl.run_unit(inputs[k % len(inputs)], k)
        walls.append(time.perf_counter() - t0)
        results.append(res)
        problems.extend(res.problems)
        if res.digest:
            key = k % len(inputs)
            if first_digest.setdefault(key, res.digest) != res.digest:
                problems.append(f"unit {k}: rerun of input {key} is not byte-identical")
        k += 1
        if sum(walls) + 0.5 * _median(walls) > seconds:
            break
    return walls, results, problems


def _probe_s() -> float:
    """Wall time of a fixed numpy/scipy kernel that does not touch noiselab.

    The kernel mixes what the workloads spend their time on, mostly a
    Python-level Nelder-Mead loop over small numpy expressions plus a little
    dense linear algebra, so its time tracks the speed the host gives this
    process at that moment."""
    import numpy as np
    from scipy.linalg import expm
    from scipy.optimize import minimize

    rng = np.random.default_rng(0)
    mat = 0.1 * rng.standard_normal((16, 16))

    def rosen(x):
        return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))

    t0 = time.perf_counter()
    minimize(rosen, np.zeros(4), method="Nelder-Mead", options={"maxfev": 1200, "xatol": 1e-12, "fatol": 1e-14})
    for _ in range(3):
        np.linalg.eig(expm(mat))
    return time.perf_counter() - t0


def _reimport_noiselab() -> None:
    """Execute every noiselab module again (numpy and scipy stay loaded),
    then put back the module objects the benchmark already holds."""
    mine = {n: m for n, m in sys.modules.items() if n == "noiselab" or n.startswith("noiselab.")}
    for name in mine:
        del sys.modules[name]
    importlib.import_module("noiselab.cli")  # imports every other module
    for name in [n for n in sys.modules if n == "noiselab" or n.startswith("noiselab.")]:
        del sys.modules[name]
    sys.modules.update(mine)


def _summary(results) -> dict:
    pool = {"rmse_over_truth": [], "rmse_over_floor": [], "misfit_gap": [], "nu_rel_err": []}
    for res in results:
        for key in pool:
            pool[key].extend(getattr(res, key))
    return {f"{k}_med": _median(v) for k, v in pool.items()}


def _layer_metrics(tracer, roll, fits, results, ref_wall: float, traced_wall: float) -> dict:
    from tracing import ENGINE, OBJECTIVE, child_total

    def row(name):
        return roll.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})

    m = {}
    for name in ("pauli.build_generator", "pauli.propagate", "schedule.schedule_superoperator",
                 "models.generator", "models.idle_bloch", "optim.minimize_multistart",
                 OBJECTIVE, "optim.central_jacobian"):
        m[f"{name}.calls"] = (row(name)["calls"], "count")
        m[f"{name}.self_s"] = (row(name)["self_s"], "s")
    init, states = row(f"{ENGINE}.__init__"), row(f"{ENGINE}.states")
    m[f"{ENGINE}.calls"] = (init["calls"], "count")
    m[f"{ENGINE}.self_s"] = (init["self_s"] + states["self_s"], "s")
    m["fitting.fit_model.calls"] = (row("fitting.fit_model")["calls"], "count")
    m["fitting.fit_model.total_s"] = (row("fitting.fit_model")["total_s"], "s")
    m["fitting.nfev_per_fit"] = (sum(f.nfev for f in fits) / len(fits) if fits else 0.0, "count")
    m["fitting.converged_frac"] = (sum(f.converged for f in fits) / len(fits) if fits else 0.0, "ratio")
    m["fitting.seed_s"] = (child_total(tracer.spans, "analysis.extract_phasors", "fitting.fit_model"), "s")
    for name in ("analysis.extract_phasors", "analysis.fit_purity",
                 "analysis.fit_single_frequency", "analysis.detect_nonmarkovianity"):
        m[f"{name}.calls"] = (row(name)["calls"], "count")
        m[f"{name}.total_s"] = (row(name)["total_s"], "s")
    for name, dups in tracer.digests.items():
        m[f"{name}.dup_frac"] = (sum(dups) / len(dups) if dups else 0.0, "ratio")
    m["synth.generate.total_s"] = (row("synth.generate")["total_s"], "s")
    m["synth.write_records.bytes"] = (tracer.write_bytes, "B")
    m["synth.write_records.self_s"] = (row("synth.write_records")["self_s"], "s")
    m["synth.read_records.self_s"] = (row("synth.read_records")["self_s"], "s")
    m["cli.cmd_simulate.total_s"] = (row("cli.cmd_simulate")["total_s"], "s")
    m["cli.cmd_analyze.total_s"] = (row("cli.cmd_analyze")["total_s"], "s")
    m["cli.output_bytes"] = (sum(r.output_bytes for r in results), "B")
    m["trace.overhead_frac"] = (traced_wall / ref_wall - 1.0, "ratio")
    m["trace.ops"] = (sum(r.ops for r in results), "count")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("campaign", "drive_fit", "cli_sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not os.path.isdir(os.path.join(SRC, "noiselab")):
        print(f"error: no noiselab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import noiselab

    if os.path.dirname(os.path.abspath(noiselab.__file__)) != os.path.join(SRC, "noiselab"):
        print(f"error: noiselab imported from {noiselab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    import_s = time.perf_counter() - T_START
    wl = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        return _measure(args, wl, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _timed_setup(wl, seed: int, workdir: str, times: list[float]):
    t0 = time.perf_counter()
    _reimport_noiselab()
    inputs = wl.setup(seed, workdir)
    times.append(time.perf_counter() - t0)
    return inputs


def _measure(args, wl, workdir: str, import_s: float) -> int:
    import tracing

    setup_times: list[float] = []
    inputs = _timed_setup(wl, args.seed, workdir, setup_times)

    if args.trace:
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            inputs = wl.setup(args.seed, workdir)
        # each unit runs untraced and then traced, so the overhead compares
        # identical work done moments apart on a host whose speed drifts
        walls, results, t_walls, t_results, problems = [], [], [], [], []
        for k in range(wl.trace_units):
            item = inputs[k % len(inputs)]
            t0 = time.perf_counter()
            results.append(wl.run_unit(item, k))
            walls.append(time.perf_counter() - t0)
            tracer.begin_op(f"unit{k}")
            with tracing.instrument(tracer):
                t0 = time.perf_counter()
                t_results.append(wl.run_unit(item, k))
                t_walls.append(time.perf_counter() - t0)
            problems += results[-1].problems + t_results[-1].problems
            if t_results[-1].digest != results[-1].digest:
                problems.append(f"unit {k}: traced outputs differ from untraced outputs")
        tracer.write(os.path.join(OUT_DIR, f"spans-{wl.name}.tsv"))
        fits = [f for r in t_results for f in r.fits]
        roll = tracing.rollup(tracer.spans)
        traced_self = sum(row["self_s"] for row in roll.values())
        self_share = {n: roll[n]["self_s"] / traced_self for n in sorted(roll, key=lambda n: -roll[n]["self_s"])}
        layer = _layer_metrics(tracer, roll, fits, t_results, sum(walls), sum(t_walls))
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
        results = results + t_results
    else:
        self_share = None
        # The host's speed changes by up to 1.7x over seconds to minutes, so
        # the host probe runs at every unit boundary, and set-up is timed
        # again at the first boundary after each eighth of the run and at its
        # end; both sets of samples span the run instead of one moment of it.
        start = time.perf_counter()
        probes = []

        def between_units(k):
            probes.extend(_probe_s() for _ in range(PROBES_PER_BOUNDARY))
            if time.perf_counter() - start >= len(setup_times) * args.seconds / SETUP_SAMPLES:
                _timed_setup(wl, args.seed, workdir, setup_times)

        walls, results, problems = _run_units(wl, inputs, seconds=args.seconds, before_unit=between_units)
        _timed_setup(wl, args.seed, workdir, setup_times)
        probes.extend(_probe_s() for _ in range(PROBES_PER_BOUNDARY))

    attempted = sum(r.ops for r in results)
    failed = sum(r.failed for r in results)
    summary = _summary(results[: len(walls)])
    checks = [(f"op {p}", False, "") for p in problems]
    checks += wl.checks(summary)
    checks.append(("no failed ops", failed == 0, f"{failed} of {attempted}"))
    correct = all(ok for _, ok, _ in checks)

    if not args.trace:
        per_op = [w / r.ops for w, r in zip(walls, results)]
        raw = {
            "setup_s": _median(setup_times),
            "ops_per_s": (attempted - failed) / sum(walls),
            "op_p50_s": _median(per_op),
        }
        # times in seconds of a host running at the reference probe speed;
        # the host alternates between a fast and a slow state, so the mean
        # probe time, not the median, tracks the share of time spent in each
        scale = PROBE_NOMINAL_S / statistics.fmean(probes)
        metrics = {
            "setup_s": raw["setup_s"] * scale,
            "ops_per_s": raw["ops_per_s"] / scale,
            "op_p50_s": raw["op_p50_s"] * scale,
            "peak_rss_mb": _peak_rss_mb(),
            "ok_frac": 1.0 - failed / attempted,
            "rmse_over_truth_med": summary["rmse_over_truth_med"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}

    report = {
        "provenance": _provenance(wl.name, args.seed),
        "units": len(walls),
        "unit_walls_s": walls,
        "setup": {"first_import_s": import_s, "setup_s": setup_times},
        "host": None if args.trace else {"probe_s": probes, "raw": raw},
        "quality": summary,
        "self_share": self_share,
        "checks": [{"check": c, "ok": ok, "detail": d} for c, ok, d in checks],
        "digests": [r.digest for r in results],
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
