"""The three benchmark workloads, driven through noiselab's public API and CLI.

Each workload builds a list of inputs from the benchmark seed in `setup`;
the runner then calls `run_unit` for unit k on input k mod len(inputs), so a
run that outlasts the list repeats earlier units on identical inputs and
their output digests must match (the byte-identical-rerun promise).  An op is the
user-visible piece of work a unit is made of, and an op's latency is its
unit's wall time over the ops in the unit:

- campaign: one batch of an idle drifting-TLS campaign fitted with
  qubit_tls and with the markovian misfit reference (8 starts each);
  unit = op = one batch;
- drive_fit: one README-truth (pi/5, 0) batch fitted jointly with
  markovian and qubit_tls, each followed by parameter_ratios;
  unit = one batch, op = one joint fit and its ratios;
- cli_sweep: ``noiselab simulate`` over a theta grid, then ``noiselab
  analyze`` on its records, in process through ``noiselab.cli.main``;
  unit = one sweep, op = one theta of it.

noiselab names are looked up through their modules at call time (never
imported by name here) so that tracing, which rebinds module attributes,
sees every call the benchmark makes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from noiselab import cli, fitting, models, schedule, synth

# the README / theta_sweep.py truth
TRUTH = models.QubitTLSParams(
    delta_omega=0.002, gamma_ad=3.6e-5, gamma_d=1.9e-4, nu_zx=0.0027, kappa=0.0
)
N_GRID = tuple(range(0, 151, 10))


@dataclass
class UnitResult:
    ops: int
    failed: int = 0
    rmse_over_truth: list[float] = field(default_factory=list)
    rmse_over_floor: list[float] = field(default_factory=list)
    misfit_gap: list[float] = field(default_factory=list)
    nu_rel_err: list[float] = field(default_factory=list)
    fits: list = field(default_factory=list)
    output_bytes: int = 0
    digest: str = ""
    problems: list[str] = field(default_factory=list)


def _seed_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _fit_ok(fit) -> bool:
    sig = list(fit.sigmas.values()) if fit.sigmas else []
    return _finite(fit.loss, fit.rmse, *fit.free_values, *sig)


def _truth_rmse(params, records) -> float:
    """RMSE of the generating parameters on the records, over every theta."""
    by_theta = synth.records_by_theta(records)
    total = sum(fitting.loss(params, recs) for recs in by_theta.values())
    return math.sqrt(total / len(records))


def _fit_pair(out: UnitResult, k: int, records, starts: dict, ratios: bool) -> dict:
    """Fit qubit_tls and markovian (each with parameter_ratios if asked) and
    record the pair's quality.  Returns the fits that succeeded; a fit that
    raises or returns a non-finite value is left out."""
    fits = {}
    for model, n in starts.items():
        try:
            fit = fitting.fit_model(model, records, fitting.FitConfig(starts=n))
            extra = [v for r in fitting.parameter_ratios(fit) for v in (r.value, r.sigma)] if ratios else []
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out.problems.append(f"unit {k} {model}: {exc!r}")
            continue
        if not (_fit_ok(fit) and _finite(*extra)):
            out.problems.append(f"unit {k} {model}: non-finite output")
            continue
        fits[model] = fit
    out.fits = list(fits.values())
    if len(fits) == len(starts):
        tls, mk = fits["qubit_tls"], fits["markovian"]
        out.rmse_over_floor.append(tls.rmse * math.sqrt(records[0].shots))
        out.misfit_gap.append(mk.rmse / tls.rmse)
        out.digest = hashlib.sha256(b"".join(f.free_values.tobytes() for f in out.fits)).hexdigest()
    return fits


class Campaign:
    """scripts/drift_campaign.py: fit every batch of a drifting-TLS campaign."""

    name = "campaign"
    days, batches_per_day, shots, starts = 4, 3, 1024, 8
    n_values = N_GRID
    trace_units = 6

    def setup(self, seed: int, workdir: str):
        drift = synth.DriftProcess(
            base=TRUTH,
            jump_rate_nu=0.15,
            nu_distribution=(0.0027, 0.0008),
            day_scales={"delta_omega": 0.03, "gamma_ad": 0.05},
            batch_scales={"gamma_d": 0.02},
        )
        sched = schedule.PseudoidentitySchedule(theta_full=0.0, n_values=self.n_values)
        records, truth = synth.generate_campaign(
            drift, self.days, [sched], self.shots, seed, batches_per_day=self.batches_per_day
        )
        by_batch: dict[str, list] = {}
        for r in records:
            by_batch.setdefault(r.batch_id, []).append(r)
        return [
            (by_batch[t["batch_id"]], t["params"], _truth_rmse(t["params"], by_batch[t["batch_id"]]))
            for t in truth
        ]

    def run_unit(self, item, k: int) -> UnitResult:
        records, truth, truth_rmse = item
        out = UnitResult(ops=1)
        fits = _fit_pair(out, k, records, {"qubit_tls": self.starts, "markovian": self.starts}, ratios=False)
        out.failed = int(len(fits) < 2)
        if not out.failed:
            tls = fits["qubit_tls"]
            out.rmse_over_truth.append(tls.rmse / truth_rmse)
            if truth.nu_zx > 0:
                out.nu_rel_err.append(abs(tls.params.nu_zx - truth.nu_zx) / truth.nu_zx)
        return out

    def checks(self, summary: dict) -> list[tuple[str, bool, str]]:
        nu, gap = summary["nu_rel_err_med"], summary["misfit_gap_med"]
        return [
            ("nu_rel_err_med < 0.05", nu is not None and nu < 0.05, f"{nu}"),
            ("misfit_gap_med >= 3", gap is not None and gap >= 3.0, f"{gap}"),
        ]


class DriveFit:
    """Joint (pi/5, 0) fits with qubit_tls and markovian, then ratios."""

    name = "drive_fit"
    theta = math.pi / 5
    # at 16384 shots the optimiser's path barely depends on the noise draw,
    # so run-to-run spread reflects the code, not the luck of the seed
    n_batches, shots = 4, 16384
    starts = {"qubit_tls": 1, "markovian": 2}
    n_values = N_GRID
    trace_units = 1

    def setup(self, seed: int, workdir: str):
        sched = schedule.PseudoidentitySchedule(theta_full=self.theta, n_values=self.n_values)
        batches = [
            synth.generate_batch(TRUTH, sched, self.shots, _seed_rng(seed, i))
            for i in range(self.n_batches)
        ]
        return [(records, _truth_rmse(TRUTH, records)) for records in batches]

    def run_unit(self, item, k: int) -> UnitResult:
        records, truth_rmse = item
        out = UnitResult(ops=len(self.starts))
        fits = _fit_pair(out, k, records, self.starts, ratios=True)
        out.failed = len(self.starts) - len(fits)
        if not out.failed:
            tls = fits["qubit_tls"]
            out.rmse_over_truth.append(tls.rmse / truth_rmse)
            out.nu_rel_err.append(abs(tls.params_by_theta[0.0].nu_zx - TRUTH.nu_zx) / TRUTH.nu_zx)
        return out

    def checks(self, summary: dict) -> list[tuple[str, bool, str]]:
        return []


class CliSweep:
    """README CLI: simulate over a theta grid, then analyze the records."""

    name = "cli_sweep"
    # k pi/5 for k in (0, 2, 7, 10): idle, two driven angles and the 2 pi echo
    thetas = tuple(k * math.pi / 5 for k in (0, 2, 7, 10))
    shots, n_inputs = 4096, 3
    n_values = N_GRID
    trace_units = 2

    def setup(self, seed: int, workdir: str):
        params_path = os.path.join(workdir, "tls.json")
        sched_path = os.path.join(workdir, "grid.json")
        with open(params_path, "w") as fh:
            json.dump({"model": "qubit_tls", **models.params_to_dict(TRUTH)}, fh)
        with open(sched_path, "w") as fh:
            json.dump({"theta_full": list(self.thetas), "n_values": list(self.n_values)}, fh)
        # exact purity (1 + |bloch|^2) / 2 per theta and n, the reference
        # the purity fit residual is measured against
        exact = {}
        for theta in self.thetas:
            sched = schedule.PseudoidentitySchedule(theta_full=theta, n_values=self.n_values)
            traj = schedule.predict_trajectory(TRUTH, sched)
            exact[theta] = {n: 0.5 * (1.0 + sum(c * c for c in b)) for n, b in traj.items()}
        # each input writes to its own directory, so a rerun of an input
        # must reproduce that directory byte for byte
        return [
            (params_path, sched_path, int(_seed_rng(seed, i).integers(2**31)),
             os.path.join(workdir, f"in{i}"), exact)
            for i in range(self.n_inputs)
        ]

    def run_unit(self, item, k: int) -> UnitResult:
        params_path, sched_path, sim_seed, outdir, exact = item
        os.makedirs(outdir, exist_ok=True)
        sim, an = os.path.join(outdir, "run"), os.path.join(outdir, "report")
        out = UnitResult(ops=len(self.thetas))
        codes = [
            cli.main(["simulate", "--params", params_path, "--schedule", sched_path,
                      "--shots", str(self.shots), "--seed", str(sim_seed), "--out", sim]),
            cli.main(["analyze", "--data", f"{sim}.records.csv", "--out", an]),
        ]
        if codes != [0, 0]:
            out.failed, out.problems = out.ops, [f"sweep {k}: exit codes {codes}"]
            return out
        h = hashlib.sha256()
        for name in sorted(os.listdir(outdir)):
            with open(os.path.join(outdir, name), "rb") as fh:
                blob = fh.read()
            h.update(name.encode() + b"\0" + blob)
            out.output_bytes += len(blob)
        out.digest = h.hexdigest()
        with open(f"{an}.verdicts.json") as fh:
            verdicts = {v["theta_full"]: v for v in json.load(fh)["verdicts"]}
        observed: dict[float, dict[int, float]] = {}
        with open(f"{an}.observables.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                slot = observed.setdefault(float(row["theta_full"]), {})
                slot[int(row["n"])] = slot.get(int(row["n"]), 0.5) + 0.5 * float(row["expval"]) ** 2
        for theta in self.thetas:
            v = verdicts.get(theta)
            if v is None or v["purity"] is None:
                out.failed += 1
                out.problems.append(f"sweep {k}: theta {theta:.4f} has no verdict")
                continue
            nums = [v["shot_rmse"], v["form_residual"], *v["frequencies"], *v["purity"].values()]
            if not all(x is not None and _finite(x) for x in nums):
                out.failed += 1
                out.problems.append(f"sweep {k}: theta {theta:.4f} has non-finite output")
                continue
            dev = [observed[theta][n] - p for n, p in exact[theta].items()]
            out.rmse_over_truth.append(v["purity"]["residual"] / math.sqrt(sum(d * d for d in dev) / len(dev)))
            out.rmse_over_floor.append(v["form_residual"] / v["shot_rmse"])
            if theta == 0.0:
                fp_ratio = v["purity"]["f_p"] * math.pi / TRUTH.nu_zx
                out.nu_rel_err.append(abs(fp_ratio - 1.0))
                if v["verdict"] != "non_markovian" or abs(fp_ratio - 1.0) > 0.01:
                    out.problems.append(
                        f"sweep {k}: theta 0 gives {v['verdict']} with f_p/(nu/pi) = {fp_ratio:.5f}"
                    )
            if math.isclose(theta, 2.0 * math.pi) and v["verdict"] != "markovian_consistent":
                out.problems.append(f"sweep {k}: theta 2pi gives {v['verdict']}")
        return out

    def checks(self, summary: dict) -> list[tuple[str, bool, str]]:
        return []


WORKLOADS = {w.name: w for w in (Campaign(), DriveFit(), CliSweep())}
