"""Synthetic pseudoidentity experiments: shot noise, drift, batches, campaigns.

A batch is one job submission: the pseudoidentity at theta_full plus its
theta_full = 0 partner, every n in the grid, every measurement basis, at a
fixed shot count.  A campaign strings batches over days with the noise
parameters drifting between batches:

  - nu_zx jumps telegraph-style: a Bernoulli trial per batch decides whether
    the TLS coupling is resampled from its configured distribution;
  - delta_omega and gamma_ad random-walk on the day scale (constant within a
    day);
  - gamma_d random-walks on the batch scale.

Sampling is binomial per record (shots Bernoulli trials of the +1 outcome);
shots = 0 is the sentinel for exact expectation values.  All randomness is
keyed: batch k draws from SeedSequence(entropy=seed, spawn_key=(1, k)) and
the drift path from spawn_key=(0, 0), with records generated in canonical
(theta asc, n asc, basis X/Y/Z) order, so campaigns are reproducible and
batches are independent streams.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .models import NoiseParams, QubitTLSParams, _check_finite, _check_rate
from .schedule import BASES, PseudoidentitySchedule, _count, bloch_trajectory

_CSV_FIELDS = ("batch_id", "timestamp", "theta_full", "n", "basis", "shots", "expval")

# parameter names allowed to drift, on either time scale
_DRIFT_PARAMS = ("delta_omega", "gamma_ad", "gamma_d")


@dataclass(frozen=True)
class ExperimentRecord:
    """One measured expectation value."""

    batch_id: str
    timestamp: int
    theta_full: float
    n: int
    basis: str
    shots: int
    expval: float


def sample_shots(expval: float, shots: int, rng: np.random.Generator) -> float:
    """Binomial estimate of an expectation value from `shots` measurements.

    The +1 outcome has probability (1 + expval)/2; the estimate is
    2 k/shots - 1 and is therefore quantised to that grid.  shots = 0 returns
    the exact value (infinite-shot sentinel).
    """
    if not isinstance(shots, (int, np.integer)) or isinstance(shots, bool):
        raise ValueError(f"shots must be an integer, got {shots!r}")
    if shots < 0:
        raise ValueError(f"shots must be non-negative, got {shots}")
    if not math.isfinite(expval):
        raise ValueError(f"expectation value must be finite, got {expval}")
    if abs(expval) > 1.0 + 1e-9:
        raise ValueError(f"expectation value out of [-1, 1]: {expval}")
    expval = min(1.0, max(-1.0, expval))
    if shots == 0:
        return float(expval)
    k = rng.binomial(shots, 0.5 * (1.0 + expval))
    return 2.0 * k / shots - 1.0


def _theta_records(
    params: NoiseParams,
    schedule: PseudoidentitySchedule,
    shots: int,
    rng: np.random.Generator,
    batch_id: str,
    timestamp: int,
) -> list[ExperimentRecord]:
    out = []
    for n, row in zip(schedule.n_values, bloch_trajectory(params, schedule).tolist()):
        for basis in schedule.bases:
            value = sample_shots(row[BASES.index(basis)], shots, rng)
            out.append(
                ExperimentRecord(
                    batch_id=batch_id,
                    timestamp=timestamp,
                    theta_full=schedule.theta_full,
                    n=int(n),
                    basis=basis,
                    shots=int(shots),
                    expval=value,
                )
            )
    return out


def generate_batch(
    params: NoiseParams,
    schedule: PseudoidentitySchedule,
    shots: int,
    seed: int | np.random.Generator,
    batch_id: str = "batch-0000",
    timestamp: int = 0,
) -> list[ExperimentRecord]:
    """Records for one batch: the theta_full = 0 partner plus the driven
    pseudoidentity (skipped if theta_full is already 0)."""
    grid = [replace(schedule, theta_full=t) for t in sorted({0.0, float(schedule.theta_full)})]
    return generate_grid_batch(params, grid, shots, seed, batch_id, timestamp)


def generate_grid_batch(
    params: NoiseParams,
    schedules: Sequence[PseudoidentitySchedule],
    shots: int,
    seed: int | np.random.Generator,
    batch_id: str = "batch-0000",
    timestamp: int = 0,
) -> list[ExperimentRecord]:
    """Records for one batch over a schedule grid, in canonical theta order.

    Unlike generate_batch, the thetas come solely from the grid - no implicit
    theta_full = 0 partner is added, so a grid that wants the idle reference
    must include it.
    """
    rng = np.random.default_rng(seed)
    by_theta: dict[float, PseudoidentitySchedule] = {}
    for sched in schedules:
        if sched.theta_full in by_theta:
            raise ValueError(f"duplicate theta_full {sched.theta_full} in grid")
        by_theta[float(sched.theta_full)] = sched
    out: list[ExperimentRecord] = []
    for theta in sorted(by_theta):
        out.extend(_theta_records(params, by_theta[theta], shots, rng, batch_id, timestamp))
    return out


@dataclass(frozen=True)
class DriftProcess:
    """Between-batch drift of qubit-TLS noise parameters.

    jump_rate_nu: per-batch Bernoulli probability that nu_zx is resampled
        from N(nu_distribution[0], nu_distribution[1]), clipped to >= 0.
    day_scales: per-parameter relative step of a day-scale Gaussian random
        walk (parameter constant within a day).
    batch_scales: same, but stepping every batch.
    Rates are clipped at zero after applying the walk.
    """

    base: QubitTLSParams
    jump_rate_nu: float = 0.0
    nu_distribution: tuple[float, float] = (0.0, 0.0)
    day_scales: Mapping[str, float] | None = None
    batch_scales: Mapping[str, float] | None = None

    def __post_init__(self):
        rate = _check_finite("jump_rate_nu", self.jump_rate_nu)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"jump_rate_nu must be a probability, got {rate}")
        object.__setattr__(self, "jump_rate_nu", rate)
        try:
            mean, spread = self.nu_distribution
        except (TypeError, ValueError):
            raise ValueError(
                f"nu_distribution must be a (mean, spread) pair, got {self.nu_distribution!r}"
            ) from None
        object.__setattr__(self, "nu_distribution", (
            _check_finite("nu_distribution mean", mean), _check_rate("nu_distribution spread", spread),
        ))
        for name in ("day_scales", "batch_scales"):
            scales = getattr(self, name)
            if scales is None:
                continue
            if not isinstance(scales, Mapping):
                raise ValueError(f"{name} must map parameter names to steps, got {scales!r}")
            for key in scales:
                if key not in _DRIFT_PARAMS:
                    raise ValueError(f"{name} key {key!r} not one of {_DRIFT_PARAMS}")
            object.__setattr__(self, name, {k: _check_rate(f"{name}[{k!r}]", v) for k, v in scales.items()})


def drift_path(
    drift: DriftProcess, days: int, batches_per_day: int, seed: int | np.random.Generator
) -> list[dict]:
    """Ground-truth parameter trajectory over a campaign.

    Returns one entry per batch: {day, batch, params, nu_jumped}.  Walk order
    per batch is fixed (jump trial, then batch-scale steps) so the stream is
    reproducible.
    """
    if days < 1 or batches_per_day < 1:
        raise ValueError("days and batches_per_day must be positive")
    rng = np.random.default_rng(seed)
    day_scales = dict(drift.day_scales or {})
    batch_scales = dict(drift.batch_scales or {})
    day_walk = {k: 0.0 for k in day_scales}
    batch_walk = {k: 0.0 for k in batch_scales}
    base = drift.base
    nu = base.nu_zx
    out = []
    for day in range(days):
        if day > 0:
            for k in day_walk:
                day_walk[k] += rng.standard_normal()
        for j in range(batches_per_day):
            if rng.uniform() < drift.jump_rate_nu:
                mean, spread = drift.nu_distribution
                nu = max(0.0, mean + spread * rng.standard_normal())
                jumped = True
            else:
                jumped = False
            if day > 0 or j > 0:
                for k in batch_walk:
                    batch_walk[k] += rng.standard_normal()
            values = {}
            for name in _DRIFT_PARAMS:
                value = getattr(base, name)
                if name in day_walk:
                    value = value * (1.0 + day_scales[name] * day_walk[name])
                if name in batch_walk:
                    value = value * (1.0 + batch_scales[name] * batch_walk[name])
                if name != "delta_omega":
                    value = max(0.0, value)
                values[name] = value
            params = QubitTLSParams(
                delta_omega=values["delta_omega"],
                gamma_ad=values["gamma_ad"],
                gamma_d=values["gamma_d"],
                nu_zx=nu,
                kappa=base.kappa,
            )
            out.append({"day": day, "batch": j, "params": params, "nu_jumped": jumped})
    return out


def generate_campaign(
    drift: DriftProcess,
    days: int,
    schedules: Sequence[PseudoidentitySchedule],
    shots: int,
    seed: int,
    batches_per_day: int | None = None,
) -> tuple[list[ExperimentRecord], list[dict]]:
    """Multi-day campaign over a schedule grid.

    Each day runs one batch per schedule (cycling if batches_per_day exceeds
    the grid).  Returns (records, truth) where truth logs the drifted
    parameters and jump flags per batch.  Batch k draws from the spawned
    stream (1, k); the drift path from (0, 0).
    """
    schedules = list(schedules)
    if not schedules:
        raise ValueError("schedule grid must be non-empty")
    if batches_per_day is None:
        batches_per_day = len(schedules)
    path = drift_path(
        drift,
        days,
        batches_per_day,
        np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0, 0))),
    )
    records: list[ExperimentRecord] = []
    truth: list[dict] = []
    for idx, entry in enumerate(path):
        day, j = entry["day"], entry["batch"]
        sched = schedules[j % len(schedules)]
        batch_id = f"d{day:03d}-b{j:03d}"
        timestamp = day * 86400 + j * 120
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1, idx)))
        records.extend(
            generate_batch(entry["params"], sched, shots, rng, batch_id=batch_id, timestamp=timestamp)
        )
        truth.append(
            {
                "batch_id": batch_id,
                "timestamp": timestamp,
                "day": day,
                "batch": j,
                "theta_full": sched.theta_full,
                "nu_jumped": entry["nu_jumped"],
                "params": entry["params"],
            }
        )
    return records, truth


def records_by_theta(records: Sequence[ExperimentRecord]) -> dict[float, list[ExperimentRecord]]:
    """Group records by theta_full (keys sorted ascending)."""
    out: dict[float, list[ExperimentRecord]] = {}
    for rec in records:
        out.setdefault(rec.theta_full, []).append(rec)
    return {k: out[k] for k in sorted(out)}


# ---------------------------------------------------------------------------
# record IO

def open_output(path, newline: str | None = None):
    """Open path for writing as a new file, replacing any file there.

    An existing file (or symlink) is unlinked, not truncated.  ext4 flushes
    a file that was truncated and rewritten when it is closed
    (auto_da_alloc), and truncating it again waits for that flush to reach
    the disk: rerunning `simulate` + `analyze` on the same outputs a second
    later stalled 0.1-0.3 s on a virtual disk.  A new file never waits.
    """
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, "w", newline=newline)


def write_records_csv(records: Sequence[ExperimentRecord], path) -> None:
    with open_output(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_FIELDS)
        for r in records:
            writer.writerow(
                [r.batch_id, r.timestamp, repr(float(r.theta_full)), r.n, r.basis, r.shots, repr(float(r.expval))]
            )


def read_records_csv(path) -> list[ExperimentRecord]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(_CSV_FIELDS):
            raise ValueError(f"bad record CSV header: {header}")
        out = []
        for row in reader:
            if len(row) != len(_CSV_FIELDS):
                raise ValueError(f"bad record row: {row}")
            batch_id, timestamp, theta, n, basis, shots, expval = row
            out.append(_record(batch_id, int(timestamp), float(theta), int(n), basis, int(shots), float(expval)))
    return out


def _record(batch_id, timestamp, theta_full, n, basis, shots, expval) -> ExperimentRecord:
    """Validated record; a non-string batch id, a non-integral count or a
    non-numeric value raises."""
    if not isinstance(batch_id, str):
        raise ValueError(f"batch_id must be a string, got {batch_id!r}")
    if basis not in ("X", "Y", "Z"):
        raise ValueError(f"bad basis {basis!r}")
    rec = ExperimentRecord(
        batch_id=batch_id,
        timestamp=_count(timestamp, "timestamp"),
        theta_full=_check_finite("theta_full", theta_full),
        n=_count(n, "n"),
        basis=basis,
        shots=_count(shots, "shots"),
        expval=_check_finite("expval", expval),
    )
    if rec.n < 0 or rec.shots < 0 or abs(rec.expval) > 1.0:
        raise ValueError(f"record out of range: {rec}")
    return rec


def write_records_jsonl(records: Sequence[ExperimentRecord], path) -> None:
    with open_output(path) as fh:
        for r in records:
            fh.write(
                json.dumps(
                    {
                        "batch_id": r.batch_id,
                        "timestamp": r.timestamp,
                        "theta_full": r.theta_full,
                        "n": r.n,
                        "basis": r.basis,
                        "shots": r.shots,
                        "expval": r.expval,
                    }
                )
            )
            fh.write("\n")


def read_records_jsonl(path) -> list[ExperimentRecord]:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            d = json.loads(line)
            keys = set(d) if isinstance(d, dict) else set()
            extra, missing = keys - set(_CSV_FIELDS), set(_CSV_FIELDS) - keys
            if extra or missing:
                raise ValueError(f"unknown record keys: {sorted(extra)}, missing: {sorted(missing)}")
            out.append(_record(*(d[k] for k in _CSV_FIELDS)))
    return out
