"""Command-line front end for reproducible simulate / fit / analyze runs.

Every command is a pure function of its input files, flags, and seed: output
files carry a schema version and a hash of the resolved configuration, no
wall-clock state enters, and JSON is dumped with sorted keys, so reruns are
byte-identical.  Work runs sequentially in deterministic key order (batch,
theta); fits are cheap enough that a pool would only buy output-order risk.

Exit codes: 0 success, 1 an oracle check failed, 2 configuration/file
errors, 3 model/schedule incompatibility, 4 fit did not converge (the report
is still written).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import numbers
import sys

import numpy as np

from .analysis import (
    aggregate_ratios,
    bloch_series,
    density_profile,
    detect_nonmarkovianity,
    fit_purity,
    interpolate_spline,
)
from .fitting import FitConfig, fit_model, fit_to_dict, parameter_ratios
from .models import (
    PARAM_NAMES,
    QubitTLSParams,
    UnsupportedModelError,
    effective_dephasing,
    map_pmme_to_qubit_tls,
    map_qubit_tls_to_pmme,
    model_tag,
    params_from_dict,
    params_to_dict,
)
from .oracles import CHECKS
from .schedule import PseudoidentitySchedule, _half_length
from .synth import (
    DriftProcess,
    generate_batch,
    generate_campaign,
    generate_grid_batch,
    open_output,
    read_records_csv,
    read_records_jsonl,
    write_records_csv,
    write_records_jsonl,
)

SCHEMA = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_UNSUPPORTED = 3
EXIT_NO_CONVERGENCE = 4

_UNITS_NOTE = (
    "Frequencies (delta_omega, nu_zx, f_p) are quoted in kHz as the observed "
    "precession rate f = 2 x / (2 pi T_gate): the coherence phase advances by "
    "2 x per gate unit, and the 2 pi division to cycles is applied explicitly "
    "here.  Halve these numbers for the x / (2 pi T_gate) convention.  Decay "
    "rates (gamma_*, kappa, b) are 1/e rates x / T_gate in 1/us."
)


class CliError(Exception):
    """Configuration or input-file problem (exit 2)."""


# ---------------------------------------------------------------------------
# small IO helpers

def _load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from exc


def _dump_json(obj, path) -> None:
    with open_output(path) as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _read_records(path):
    path = str(path)
    if path.endswith(".csv"):
        return read_records_csv(path)
    if path.endswith(".jsonl"):
        return read_records_jsonl(path)
    raise CliError(f"record file {path} must end in .csv or .jsonl")


def _write_records(records, path, fmt: str) -> None:
    if fmt == "csv":
        write_records_csv(records, path)
    else:
        write_records_jsonl(records, path)


def _load_schedules(path) -> tuple[dict, list[PseudoidentitySchedule]]:
    raw = _load_json(path)
    thetas = raw.get("theta_full")
    if isinstance(thetas, (list, tuple)):
        scheds = [PseudoidentitySchedule.from_dict({**raw, "theta_full": t}) for t in thetas]
    else:
        scheds = [PseudoidentitySchedule.from_dict(raw)]
    return raw, scheds


# ---------------------------------------------------------------------------
# simulate

def _build_drift(base, raw: dict) -> DriftProcess:
    if not isinstance(base, QubitTLSParams):
        raise CliError("campaign drift needs qubit_tls base parameters")
    if not isinstance(raw, dict):
        raise CliError(f"drift file must hold a JSON object, got {raw!r}")
    known = {"jump_rate_nu", "nu_distribution", "day_scales", "batch_scales"}
    extra = set(raw) - known
    if extra:
        raise CliError(f"unknown drift keys: {sorted(extra)}")
    return DriftProcess(
        base=base,
        jump_rate_nu=raw.get("jump_rate_nu", 0.0),
        nu_distribution=raw.get("nu_distribution", (0.0, 0.0)),
        day_scales=raw.get("day_scales"),
        batch_scales=raw.get("batch_scales"),
    )


def _check_seed(seed: int) -> None:
    """numpy takes only non-negative seeds; say so before any file is touched."""
    if seed < 0:
        raise CliError(f"--seed must be a non-negative integer, got {seed}")


def cmd_simulate(args) -> int:
    _check_seed(args.seed)
    params = params_from_dict(_load_json(args.params))
    sched_raw, schedules = _load_schedules(args.schedule)
    config = {
        "command": "simulate",
        "params": params_to_dict(params),
        "schedule": sched_raw,
        "shots": args.shots,
        "seed": args.seed,
        "format": args.format,
        "days": args.days,
        "batches_per_day": args.batches_per_day,
    }
    outputs = {"records": f"{args.out}.records.{args.format}"}
    truth_json = None
    if args.days:
        drift_raw = _load_json(args.drift) if args.drift else {}
        config["drift"] = drift_raw
        drift = _build_drift(params, drift_raw)
        records, truth = generate_campaign(
            drift, args.days, schedules, args.shots, args.seed,
            batches_per_day=args.batches_per_day,
        )
        truth_json = [
            {**{k: t[k] for k in ("batch_id", "timestamp", "day", "batch", "theta_full", "nu_jumped")},
             "params": params_to_dict(t["params"])}
            for t in truth
        ]
        outputs["truth"] = f"{args.out}.truth.json"
    elif len(schedules) > 1:
        records = generate_grid_batch(params, schedules, args.shots, args.seed)
    else:
        records = generate_batch(params, schedules[0], args.shots, args.seed)
    _write_records(records, outputs["records"], args.format)
    if truth_json is not None:
        _dump_json({"schema": SCHEMA, "batches": truth_json}, outputs["truth"])
    meta = {
        "schema": SCHEMA,
        "config": config,
        "config_hash": _config_hash(config),
        "n_records": len(records),
        "outputs": outputs,
    }
    _dump_json(meta, f"{args.out}.meta.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit

def _parse_constrain(text: str | None) -> tuple[str, ...]:
    if text is None:
        return FitConfig().shared
    if text.strip() in ("", "none"):
        return ()
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_freeze(items) -> dict | None:
    if not items:
        return None
    out = {}
    for item in items:
        if item.strip() == "none":
            continue
        if "=" not in item:
            raise CliError(f"--freeze expects name=value, got {item!r}")
        name, value = item.split("=", 1)
        try:
            out[name.strip()] = float(value)
        except ValueError as exc:
            raise CliError(f"--freeze {item!r}: bad value") from exc
    return out


def _filter_thetas(records, wanted):
    if not wanted:
        return records
    available = sorted({r.theta_full for r in records})
    kept = []
    for t in wanted:
        matches = [v for v in available if abs(v - t) <= 1e-9 + 1e-9 * abs(t)]
        if not matches:
            raise CliError(f"theta {t} not in data (available: {available})")
        kept.extend(matches)
    return [r for r in records if r.theta_full in kept]


def _physical_units(fit, gate_ns: float) -> dict:
    t_gate = gate_ns * 1e-9
    out = {}
    for theta, params in sorted(fit.params_by_theta.items()):
        block = {}
        for name, value in params_to_dict(params).items():
            if name == "model":
                continue
            if name in ("delta_omega", "nu_zx"):
                block[f"{name}_khz"] = 2.0 * value / (2.0 * math.pi * t_gate) / 1e3
            else:
                block[f"{name}_per_us"] = value / t_gate / 1e6
        out[repr(float(theta))] = block
    return out


def cmd_fit(args) -> int:
    _check_seed(args.seed)
    if not (math.isfinite(args.gate_duration_ns) and args.gate_duration_ns > 0):
        raise CliError(f"--gate-duration-ns must be finite and positive, got {args.gate_duration_ns}")
    frozen = _parse_freeze(args.freeze)
    fit_config = FitConfig(
        shared=_parse_constrain(args.constrain),
        frozen=frozen,
        tie_b=args.tie_b,
        starts=args.starts,
        seed=args.seed,
        m=args.m,
    )
    records = _filter_thetas(_read_records(args.data), args.theta)
    fit = fit_model(args.model, records, fit_config)
    config = {
        "command": "fit",
        "model": args.model,
        "data": str(args.data),
        "theta": args.theta,
        "constrain": list(fit_config.shared),
        "freeze": frozen,
        "tie_b": args.tie_b,
        "starts": args.starts,
        "seed": args.seed,
        "m": args.m,
        "gate_duration_ns": args.gate_duration_ns,
        "drop_ratio_cross_term": args.drop_ratio_cross_term,
    }
    report = {
        "schema": SCHEMA,
        "config": config,
        "config_hash": _config_hash(config),
        "fit": fit_to_dict(fit),
        "physical": _physical_units(fit, args.gate_duration_ns),
        "units_note": _UNITS_NOTE,
    }
    if len(fit.params_by_theta) == 2 and 0.0 in fit.params_by_theta:
        report["ratios"] = [
            {
                "parameter": r.parameter,
                "theta_full": r.theta_full,
                "value": r.value,
                "sigma": r.sigma,
                "unstable": r.unstable,
            }
            for r in parameter_ratios(fit, drop_cross_term=args.drop_ratio_cross_term)
        ]
    _dump_json(report, args.out)
    return EXIT_OK if fit.converged else EXIT_NO_CONVERGENCE


# ---------------------------------------------------------------------------
# analyze

def _group_records(records) -> dict[tuple[str, float], list]:
    groups: dict[tuple[str, float], list] = {}
    for r in records:
        groups.setdefault((r.batch_id, r.theta_full), []).append(r)
    return dict(sorted(groups.items()))


def _purity_row(batch_id, theta, records, m):
    p = fit_purity(records, m=m)
    return [batch_id, repr(float(theta)), repr(p.f_p), repr(p.gamma_p), repr(p.sigma_f),
            repr(p.significance), repr(p.residual), int(p.degenerate)]


def _verdict_entry(batch_id, theta, records, m):
    rep = detect_nonmarkovianity(records, m=m)
    entry = {
        "batch_id": batch_id,
        "theta_full": float(theta),
        "verdict": rep.verdict,
        "criteria": list(rep.criteria),
        "frequency_count": rep.frequency_count,
        "frequencies": [float(f) for f in rep.frequencies],
        "form_residual": None if math.isnan(rep.form_residual) else rep.form_residual,
        "shot_rmse": rep.shot_rmse,
        "n_points": rep.n_points,
    }
    if rep.purity is not None:
        entry["purity"] = {
            "f_p": rep.purity.f_p,
            "gamma_p": rep.purity.gamma_p,
            "sigma_f": rep.purity.sigma_f,
            "significance": rep.purity.significance,
            "residual": rep.purity.residual,
        }
    return entry


_RATIO_KEYS = ("parameter", "theta_full", "value", "sigma")


def _read_ratios(fit_paths) -> tuple[dict[tuple[str, float], list[tuple[float, float]]], int]:
    """Every ratio row of the fit reports, checked and grouped by (parameter,
    theta_full); rows with a non-finite value or sigma are dropped and counted."""
    by_key: dict[tuple[str, float], list[tuple[float, float]]] = {}
    dropped = 0
    for path in fit_paths:
        report = _load_json(path)
        rows = report.get("ratios", []) if isinstance(report, dict) else None
        if not isinstance(rows, list):
            raise CliError(f"{path}: a fit report must be a JSON object with a list of ratios")
        if report.get("schema") != SCHEMA:
            raise CliError(f"{path}: unsupported schema {report.get('schema')!r}")
        for i, row in enumerate(rows):
            where = f"{path}: ratio row {i}"
            if not isinstance(row, dict) or any(k not in row for k in _RATIO_KEYS):
                raise CliError(f"{where} must be an object with keys {list(_RATIO_KEYS)}, got {row!r}")
            name, theta, value, sigma = (row[k] for k in _RATIO_KEYS)
            if not isinstance(name, str):
                raise CliError(f"{where}: parameter must be a string, got {name!r}")
            for key, x in zip(_RATIO_KEYS[1:], (theta, value, sigma)):
                if isinstance(x, bool) or not isinstance(x, numbers.Real):
                    raise CliError(f"{where}: {key} must be a number, got {x!r}")
            if not math.isfinite(theta):
                raise CliError(f"{where}: theta_full must be finite, got {theta!r}")
            if math.isfinite(sigma) and sigma < 0:
                raise CliError(f"{where}: sigma must be non-negative, got {sigma!r}")
            if not (math.isfinite(value) and math.isfinite(sigma)):
                dropped += 1
                continue
            by_key.setdefault((name, float(theta)), []).append((float(value), float(sigma)))
    return by_key, dropped


def _ratio_tables(by_key, out_prefix) -> list[str]:
    """Aggregate the checked ratio rows and write the summary and density tables."""
    summary_path = f"{out_prefix}.ratio_summary.csv"
    density_path = f"{out_prefix}.density.csv"
    with open_output(summary_path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["parameter", "theta_full", "mean", "sigma_fit", "sigma_disp", "sigma_total", "n"])
        for (name, theta), pairs in sorted(by_key.items()):
            values = [p[0] for p in pairs]
            sigmas = [p[1] for p in pairs]
            agg = aggregate_ratios(values, sigmas)
            writer.writerow([name, repr(theta), repr(agg.mean), repr(agg.sigma_fit),
                             repr(agg.sigma_disp), repr(agg.sigma_total), agg.n])
    with open_output(density_path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["parameter", "theta_full", "z", "density"])
        for (name, theta), pairs in sorted(by_key.items()):
            values = np.array([p[0] for p in pairs])
            sigmas = np.array([p[1] for p in pairs])
            width = float(np.max(sigmas)) if np.max(sigmas) > 0 else 1e-3
            lo = float(np.min(values)) - 8.0 * width
            hi = float(np.max(values)) + 8.0 * width
            grid = np.linspace(lo, hi, 801)
            dens = density_profile(values, sigmas, grid)
            for z, d in zip(grid, dens):
                writer.writerow([name, repr(theta), repr(float(z)), repr(float(d))])
    return [summary_path, density_path]


def cmd_analyze(args) -> int:
    # every input is checked before any table is written
    _half_length(args.m)
    by_key, dropped = _read_ratios(args.fits or [])
    records = []
    for path in args.data:
        records.extend(_read_records(path))
    if not records:
        raise CliError("no records in input")
    groups = _group_records(records)
    for (batch_id, theta), recs in groups.items():
        try:
            bloch_series(recs)
        except ValueError as exc:
            raise CliError(f"batch {batch_id!r} at theta_full {theta!r}: {exc}") from exc
    outputs = {}

    obs_path = f"{args.out}.observables.csv"
    with open_output(obs_path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["batch_id", "theta_full", "n", "basis", "expval"])
        for (batch_id, theta), recs in groups.items():
            for r in sorted(recs, key=lambda r: (r.n, "XYZ".index(r.basis))):
                writer.writerow([batch_id, repr(float(theta)), r.n, r.basis, repr(float(r.expval))])
    outputs["observables"] = obs_path

    spline_path = f"{args.out}.spline.csv"
    with open_output(spline_path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["batch_id", "theta_full", "basis", "n", "value"])
        for (batch_id, theta), recs in groups.items():
            ns = sorted({r.n for r in recs})
            if len(ns) < 4:
                continue
            dense = np.linspace(ns[0], ns[-1], 201)
            for basis in ("X", "Y", "Z"):
                curve = interpolate_spline([r for r in recs if r.basis == basis])(dense)
                for n, v in zip(dense, curve):
                    writer.writerow([batch_id, repr(float(theta)), basis, repr(float(n)), repr(float(v))])
    outputs["spline"] = spline_path

    purity_path = f"{args.out}.purity.csv"
    with open_output(purity_path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["batch_id", "theta_full", "f_p", "gamma_p", "sigma_f",
                         "significance", "residual", "degenerate"])
        for (batch_id, theta), recs in groups.items():
            if len({r.n for r in recs}) < 3:
                continue
            writer.writerow(_purity_row(batch_id, theta, recs, args.m))
    outputs["purity"] = purity_path

    verdicts = [_verdict_entry(b, t, recs, args.m) for (b, t), recs in groups.items()]
    verdict_path = f"{args.out}.verdicts.json"
    _dump_json({"schema": SCHEMA, "verdicts": verdicts}, verdict_path)
    outputs["verdicts"] = verdict_path

    if args.fits:
        outputs["ratio_summary"], outputs["density"] = _ratio_tables(by_key, args.out)

    config = {
        "command": "analyze",
        "data": [str(p) for p in args.data],
        "fits": [str(p) for p in (args.fits or [])],
        "m": args.m,
    }
    meta = {
        "schema": SCHEMA,
        "config": config,
        "config_hash": _config_hash(config),
        "n_records": len(records),
        "n_groups": len(groups),
        "dropped_ratios": dropped,
        "outputs": outputs,
    }
    _dump_json(meta, f"{args.out}.meta.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# map-models

def cmd_map_models(args) -> int:
    params = params_from_dict(_load_json(args.params))
    tag = model_tag(params)
    try:
        if args.to == "pmme":
            if tag != "qubit_tls":
                raise CliError(f"--to pmme needs qubit_tls input, got {tag}")
            mapped = map_qubit_tls_to_pmme(params)
        else:
            if tag != "pmme":
                raise CliError(f"--to qubit_tls needs pmme input, got {tag}")
            mapped = map_pmme_to_qubit_tls(params)
    except ValueError as exc:
        raise UnsupportedModelError(str(exc)) from exc
    out = {
        "schema": SCHEMA,
        "input": params_to_dict(params),
        "mapped": params_to_dict(mapped),
        "effective_dephasing": {
            "input": effective_dephasing(params),
            "mapped": effective_dephasing(mapped),
        },
    }
    if args.out:
        _dump_json(out, args.out)
    else:
        json.dump(out, sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle

def cmd_oracle(args) -> int:
    _check_seed(args.seed)
    rng = np.random.default_rng(args.seed)
    rows = []
    all_pass = True
    for name, run, tol in CHECKS:
        dev = run(rng, args.draws)
        ok = dev < tol
        all_pass = all_pass and ok
        rows.append({"check": name, "max_dev": dev, "tol": tol, "pass": ok})
        print(f"{'PASS' if ok else 'FAIL'}  {name:42s} max dev {dev:.3e}  (tol {tol:.0e})")
    if args.out:
        _dump_json({"schema": SCHEMA, "seed": args.seed, "draws": args.draws, "checks": rows}, args.out)
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noiselab",
        description="Simulate and characterise noise in pseudoidentity sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate synthetic records")
    p.add_argument("--params", required=True, help="noise parameter JSON")
    p.add_argument("--schedule", required=True, help="schedule JSON (theta_full may be a list)")
    p.add_argument("--shots", type=int, required=True, help="shots per record (0 = exact)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output prefix")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--days", type=int, default=0, help="campaign length; 0 = single batch")
    p.add_argument("--batches-per-day", type=int, default=None)
    p.add_argument("--drift", default=None, help="drift process JSON (campaigns)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit a noise model to records")
    p.add_argument("--model", required=True, choices=sorted(PARAM_NAMES))
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--theta", type=float, action="append", default=None,
                   help="restrict to this theta_full (repeatable)")
    p.add_argument("--constrain", default=None,
                   help="comma-separated parameters shared across the (theta, 0) pair; 'none' to unshare")
    p.add_argument("--freeze", action="append", default=None,
                   help="name=value to pin a parameter; 'none' to lift model defaults")
    p.add_argument("--tie-b", action="store_true", help="pmme: eliminate b via b = -2 gamma_z")
    p.add_argument("--starts", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--gate-duration-ns", type=float, default=71.1)
    p.add_argument("--drop-ratio-cross-term", action="store_true")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("analyze", help="detector verdicts, purity fits, ratio tables")
    p.add_argument("--data", action="append", required=True, help="record file (repeatable)")
    p.add_argument("--fits", action="append", default=None, help="fit report JSON (repeatable)")
    p.add_argument("--out", required=True, help="output prefix")
    p.add_argument("--m", type=int, default=4)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("map-models", help="convert between qubit_tls and pmme parameters")
    p.add_argument("--params", required=True)
    p.add_argument("--to", required=True, choices=("pmme", "qubit_tls"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_map_models)

    p = sub.add_parser("oracle", help="analytic-vs-numeric cross-check table")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--draws", type=int, default=5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
