"""Synthetic-record generation: shot sampling, batches, drift, campaigns, IO."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noiselab.models import MarkovianParams, QubitTLSParams
from noiselab.schedule import PseudoidentitySchedule, predict_trajectory
from noiselab.synth import (
    DriftProcess,
    ExperimentRecord,
    drift_path,
    generate_batch,
    generate_campaign,
    generate_grid_batch,
    read_records_csv,
    read_records_jsonl,
    records_by_theta,
    sample_shots,
    write_records_csv,
    write_records_jsonl,
)

SMALL_GRID = (0, 5, 10, 15)
MARKOV = MarkovianParams(delta_omega=0.01, gamma_ad=1e-4, gamma_d=3e-4)
TLS = QubitTLSParams(delta_omega=0.002, gamma_ad=3.6e-5, gamma_d=1.9e-4, nu_zx=0.0027, kappa=0.0)


def _clamped(value: float) -> float:
    # exact-sentinel records clamp rounding overshoot into [-1, 1]
    return min(1.0, max(-1.0, float(value)))


# ---------------------------------------------------------------------------
# shot sampling

class TestSampleShots:
    def test_zero_shots_returns_exact_value(self):
        rng = np.random.default_rng(0)
        assert sample_shots(0.4321, 0, rng) == 0.4321

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_shots(0.5, -1, rng)
        with pytest.raises(ValueError):
            sample_shots(0.5, 2.0, rng)
        with pytest.raises(ValueError):
            sample_shots(0.5, True, rng)
        with pytest.raises(ValueError):
            sample_shots(float("nan"), 16, rng)
        with pytest.raises(ValueError):
            sample_shots(1.5, 16, rng)

    def test_tiny_overshoot_is_clamped_not_rejected(self):
        # expectation values a rounding error outside [-1, 1] must sample fine
        rng = np.random.default_rng(0)
        value = sample_shots(1.0 + 1e-12, 64, rng)
        assert -1.0 <= value <= 1.0

    @settings(deadline=None, derandomize=True)
    @given(
        expval=st.floats(min_value=-1.0, max_value=1.0),
        shots=st.integers(min_value=1, max_value=4096),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_estimate_lies_on_shot_grid(self, expval, shots, seed):
        value = sample_shots(expval, shots, np.random.default_rng(seed))
        assert -1.0 <= value <= 1.0
        k = (value + 1.0) * shots / 2.0
        assert abs(k - round(k)) < 1e-9

    def test_spread_matches_binomial_noise(self):
        # at expval = 0 the estimator std is exactly 1/sqrt(shots)
        rng = np.random.default_rng(123)
        shots = 1024
        draws = np.array([sample_shots(0.0, shots, rng) for _ in range(4000)])
        assert abs(draws.mean()) < 3.0 / math.sqrt(shots * len(draws) / shots) / 30
        assert draws.std() == pytest.approx(1.0 / math.sqrt(shots), rel=0.1)


# ---------------------------------------------------------------------------
# batches

class TestGenerateBatch:
    def test_driven_batch_contains_idle_partner(self):
        sched = PseudoidentitySchedule(theta_full=2.0, n_values=SMALL_GRID)
        recs = generate_batch(MARKOV, sched, 256, 0)
        assert len(recs) == 2 * len(SMALL_GRID) * 3
        assert sorted(records_by_theta(recs)) == [0.0, 2.0]

    def test_idle_batch_has_no_duplicate(self):
        sched = PseudoidentitySchedule(theta_full=0.0, n_values=SMALL_GRID)
        recs = generate_batch(MARKOV, sched, 256, 0)
        assert len(recs) == len(SMALL_GRID) * 3

    def test_canonical_record_order(self):
        sched = PseudoidentitySchedule(theta_full=1.0, n_values=SMALL_GRID)
        recs = generate_batch(MARKOV, sched, 16, 0)
        keys = [(r.theta_full, r.n, r.basis) for r in recs]
        expected = [
            (theta, n, basis)
            for theta in (0.0, 1.0)
            for n in SMALL_GRID
            for basis in ("X", "Y", "Z")
        ]
        assert keys == expected

    def test_same_seed_reproduces_records_exactly(self):
        sched = PseudoidentitySchedule(theta_full=1.0, n_values=SMALL_GRID)
        assert generate_batch(TLS, sched, 512, 42) == generate_batch(TLS, sched, 512, 42)

    def test_different_seeds_differ(self):
        sched = PseudoidentitySchedule(theta_full=1.0, n_values=SMALL_GRID)
        a = generate_batch(TLS, sched, 512, 1)
        b = generate_batch(TLS, sched, 512, 2)
        assert any(x.expval != y.expval for x, y in zip(a, b))

    def test_exact_sentinel_matches_trajectory(self):
        sched = PseudoidentitySchedule(theta_full=0.0, n_values=SMALL_GRID)
        recs = generate_batch(TLS, sched, 0, 0)
        traj = predict_trajectory(TLS, sched)
        axis = {"X": 0, "Y": 1, "Z": 2}
        for rec in recs:
            assert rec.expval == _clamped(traj[rec.n][axis[rec.basis]])

    def test_batch_metadata_propagates(self):
        sched = PseudoidentitySchedule(theta_full=0.0, n_values=SMALL_GRID)
        recs = generate_batch(MARKOV, sched, 8, 0, batch_id="d001-b003", timestamp=360)
        assert all(r.batch_id == "d001-b003" and r.timestamp == 360 for r in recs)


class TestGenerateGridBatch:
    def test_grid_covers_every_schedule_without_implicit_idle(self):
        grid = [
            PseudoidentitySchedule(theta_full=t, n_values=SMALL_GRID)
            for t in (2.0, 0.5, 1.0)
        ]
        recs = generate_grid_batch(MARKOV, grid, 128, 0)
        assert len(recs) == 3 * len(SMALL_GRID) * 3
        assert sorted(records_by_theta(recs)) == [0.5, 1.0, 2.0]

    def test_sixteen_point_theta_grid_record_count(self):
        n_grid = tuple(range(0, 151, 10))
        grid = [
            PseudoidentitySchedule(theta_full=k * math.pi / 5, n_values=n_grid)
            for k in range(16)
        ]
        recs = generate_grid_batch(MARKOV, grid, 0, 0)
        assert len(recs) == 16 * 16 * 3

    def test_duplicate_theta_rejected(self):
        grid = [
            PseudoidentitySchedule(theta_full=1.0, n_values=SMALL_GRID),
            PseudoidentitySchedule(theta_full=1.0, n_values=(0, 2, 4)),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            generate_grid_batch(MARKOV, grid, 16, 0)


# ---------------------------------------------------------------------------
# drift

class TestDriftProcess:
    def test_validation(self):
        with pytest.raises(ValueError):
            DriftProcess(base=TLS, jump_rate_nu=1.5)
        with pytest.raises(ValueError):
            DriftProcess(base=TLS, nu_distribution=(0.001, -1e-4))
        with pytest.raises(ValueError):
            DriftProcess(base=TLS, day_scales={"nu_zx": 0.1})
        with pytest.raises(ValueError):
            DriftProcess(base=TLS, batch_scales={"gamma_d": -0.1})

    @pytest.mark.parametrize("kwargs, key", [
        ({"day_scales": {"gamma_d": "x"}}, "day_scales"),
        ({"batch_scales": {"gamma_d": float("nan")}}, "batch_scales"),
        ({"day_scales": [0.1]}, "day_scales"),
        ({"nu_distribution": [0.1]}, "nu_distribution"),
        ({"nu_distribution": (float("nan"), 0.1), "jump_rate_nu": 1.0}, "nu_distribution"),
        ({"nu_distribution": (0.1, float("inf"))}, "nu_distribution"),
        ({"jump_rate_nu": True}, "jump_rate_nu"),
        ({"jump_rate_nu": "0.5"}, "jump_rate_nu"),
        ({"jump_rate_nu": float("nan")}, "jump_rate_nu"),
    ])
    def test_malformed_values_rejected_not_coerced(self, kwargs, key):
        with pytest.raises(ValueError, match=key):
            DriftProcess(base=TLS, **kwargs)

    def test_values_stored_as_floats(self):
        drift = DriftProcess(base=TLS, jump_rate_nu=1, nu_distribution=[0, 1], day_scales={"gamma_d": 2})
        assert drift.jump_rate_nu == 1.0 and type(drift.jump_rate_nu) is float
        assert drift.nu_distribution == (0.0, 1.0)
        assert drift.day_scales == {"gamma_d": 2.0}

    def test_path_shape_and_keys(self):
        drift = DriftProcess(base=TLS)
        path = drift_path(drift, days=3, batches_per_day=4, seed=0)
        assert len(path) == 12
        assert [(e["day"], e["batch"]) for e in path] == [
            (d, b) for d in range(3) for b in range(4)
        ]

    def test_no_drift_means_constant_parameters(self):
        drift = DriftProcess(base=TLS)
        path = drift_path(drift, days=2, batches_per_day=3, seed=5)
        assert all(e["params"] == TLS for e in path)
        assert not any(e["nu_jumped"] for e in path)

    def test_first_batch_starts_at_base(self):
        drift = DriftProcess(
            base=TLS, day_scales={"delta_omega": 0.05}, batch_scales={"gamma_d": 0.05}
        )
        path = drift_path(drift, days=2, batches_per_day=2, seed=0)
        assert path[0]["params"].delta_omega == TLS.delta_omega
        assert path[0]["params"].gamma_d == TLS.gamma_d

    def test_day_scale_parameter_constant_within_day(self):
        drift = DriftProcess(base=TLS, day_scales={"delta_omega": 0.1})
        path = drift_path(drift, days=3, batches_per_day=4, seed=1)
        by_day = {}
        for e in path:
            by_day.setdefault(e["day"], set()).add(e["params"].delta_omega)
        assert all(len(vals) == 1 for vals in by_day.values())
        assert len({next(iter(v)) for v in by_day.values()}) == 3

    def test_batch_scale_parameter_steps_every_batch(self):
        drift = DriftProcess(base=TLS, batch_scales={"gamma_d": 0.1})
        path = drift_path(drift, days=1, batches_per_day=6, seed=1)
        values = [e["params"].gamma_d for e in path]
        assert len(set(values)) > 1

    def test_certain_jump_resamples_nu_every_batch(self):
        drift = DriftProcess(base=TLS, jump_rate_nu=1.0, nu_distribution=(0.005, 0.0))
        path = drift_path(drift, days=1, batches_per_day=5, seed=0)
        assert all(e["nu_jumped"] for e in path)
        assert all(e["params"].nu_zx == 0.005 for e in path)

    def test_rates_clipped_at_zero_under_large_walks(self):
        drift = DriftProcess(base=TLS, batch_scales={"gamma_d": 50.0})
        path = drift_path(drift, days=1, batches_per_day=40, seed=3)
        assert all(e["params"].gamma_d >= 0.0 for e in path)
        assert any(e["params"].gamma_d == 0.0 for e in path)

    def test_path_is_seed_deterministic(self):
        drift = DriftProcess(
            base=TLS,
            jump_rate_nu=0.3,
            nu_distribution=(0.003, 0.001),
            day_scales={"delta_omega": 0.02},
            batch_scales={"gamma_d": 0.05},
        )
        assert drift_path(drift, 3, 4, 9) == drift_path(drift, 3, 4, 9)

    def test_invalid_extent_rejected(self):
        with pytest.raises(ValueError):
            drift_path(DriftProcess(base=TLS), days=0, batches_per_day=1, seed=0)


class TestGenerateCampaign:
    def test_batch_ids_and_timestamps(self):
        drift = DriftProcess(base=TLS)
        scheds = [PseudoidentitySchedule(theta_full=0.0, n_values=SMALL_GRID)]
        records, truth = generate_campaign(drift, days=2, schedules=scheds, shots=64, seed=0, batches_per_day=3)
        assert [t["batch_id"] for t in truth] == [
            "d000-b000", "d000-b001", "d000-b002", "d001-b000", "d001-b001", "d001-b002",
        ]
        assert [t["timestamp"] for t in truth] == [0, 120, 240, 86400, 86520, 86640]
        per_batch = len(SMALL_GRID) * 3
        assert len(records) == 6 * per_batch

    def test_schedule_grid_cycles_over_batches(self):
        drift = DriftProcess(base=TLS)
        scheds = [
            PseudoidentitySchedule(theta_full=0.0, n_values=SMALL_GRID),
            PseudoidentitySchedule(theta_full=1.0, n_values=SMALL_GRID),
        ]
        records, truth = generate_campaign(drift, days=1, schedules=scheds, shots=0, seed=0)
        assert [t["theta_full"] for t in truth] == [0.0, 1.0]
        groups = records_by_theta(records)
        assert sorted(groups) == [0.0, 1.0]

    def test_campaign_is_deterministic(self):
        drift = DriftProcess(base=TLS, jump_rate_nu=0.5, nu_distribution=(0.004, 0.001))
        scheds = [PseudoidentitySchedule(theta_full=0.0, n_values=SMALL_GRID)]
        a = generate_campaign(drift, 2, scheds, 128, 11)
        b = generate_campaign(drift, 2, scheds, 128, 11)
        assert a == b

    def test_truth_parameters_generate_the_records(self):
        # with exact sampling the records must equal the trajectory of the
        # drifted parameters logged in the truth output
        drift = DriftProcess(base=TLS, jump_rate_nu=1.0, nu_distribution=(0.004, 0.002))
        sched = PseudoidentitySchedule(theta_full=0.0, n_values=SMALL_GRID)
        records, truth = generate_campaign(drift, days=1, schedules=[sched], shots=0, seed=4)
        axis = {"X": 0, "Y": 1, "Z": 2}
        traj = predict_trajectory(truth[0]["params"], sched)
        for rec in records:
            assert rec.expval == _clamped(traj[rec.n][axis[rec.basis]])

    def test_empty_schedule_grid_rejected(self):
        with pytest.raises(ValueError):
            generate_campaign(DriftProcess(base=TLS), 1, [], 16, 0)


# ---------------------------------------------------------------------------
# record IO

def _sample_records() -> list[ExperimentRecord]:
    sched = PseudoidentitySchedule(theta_full=2.0943951023931953, n_values=SMALL_GRID)
    return generate_batch(TLS, sched, 1024, 3, batch_id="d000-b000", timestamp=120)


class TestRecordIO:
    def test_csv_roundtrip_is_exact(self, tmp_path):
        recs = _sample_records()
        path = tmp_path / "records.csv"
        write_records_csv(recs, path)
        assert read_records_csv(path) == recs

    def test_jsonl_roundtrip_is_exact(self, tmp_path):
        recs = _sample_records()
        path = tmp_path / "records.jsonl"
        write_records_jsonl(recs, path)
        assert read_records_jsonl(path) == recs

    @pytest.mark.parametrize("write", [write_records_csv, write_records_jsonl])
    def test_rewrite_replaces_the_file_instead_of_truncating_it(self, tmp_path, write):
        # a hard link to the old file keeps the old bytes: the path now names
        # a new file, so no truncation of the old one (and no wait on its flush)
        path, link = tmp_path / "records", tmp_path / "old"
        path.write_text("old\n")
        link.hardlink_to(path)
        recs = _sample_records()
        write(recs, path)
        assert link.read_text() == "old\n"
        assert (read_records_csv if write is write_records_csv else read_records_jsonl)(path) == recs

    def test_csv_header_is_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_records_csv(path)

    def test_csv_row_length_is_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("batch_id,timestamp,theta_full,n,basis,shots,expval\nb,0,0.0,0,X,16\n")
        with pytest.raises(ValueError, match="row"):
            read_records_csv(path)

    def test_bad_basis_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("batch_id,timestamp,theta_full,n,basis,shots,expval\nb,0,0.0,0,Q,16,0.5\n")
        with pytest.raises(ValueError, match="basis"):
            read_records_csv(path)

    def test_out_of_range_expval_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("batch_id,timestamp,theta_full,n,basis,shots,expval\nb,0,0.0,0,X,16,1.5\n")
        with pytest.raises(ValueError, match="out of range"):
            read_records_csv(path)

    @pytest.mark.parametrize("theta, expval", [("nan", "0.5"), ("inf", "0.5"), ("0.0", "nan"), ("0.0", "-inf")])
    def test_non_finite_csv_values_rejected(self, tmp_path, theta, expval):
        path = tmp_path / "bad.csv"
        path.write_text(f"batch_id,timestamp,theta_full,n,basis,shots,expval\nb,0,{theta},0,X,16,{expval}\n")
        with pytest.raises(ValueError, match="non-finite"):
            read_records_csv(path)

    @pytest.mark.parametrize("theta, expval", [("NaN", "0.5"), ("Infinity", "0.5"), ("0.0", "NaN")])
    def test_non_finite_jsonl_values_rejected(self, tmp_path, theta, expval):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            f'{{"batch_id": "b", "timestamp": 0, "theta_full": {theta}, "n": 0, '
            f'"basis": "X", "shots": 16, "expval": {expval}}}\n'
        )
        with pytest.raises(ValueError, match="non-finite"):
            read_records_jsonl(path)

    @pytest.mark.parametrize(
        "bad",
        [
            {"n": 2.5}, {"n": True}, {"n": "2"},
            {"shots": 16.7}, {"shots": False},
            {"timestamp": 1.9},
            {"theta_full": True}, {"theta_full": "0.5"},
            {"expval": True}, {"expval": "0.5"}, {"expval": None},
        ],
    )
    def test_jsonl_rejects_truncated_or_coerced_values(self, tmp_path, bad):
        good = {"batch_id": "b", "timestamp": 0, "theta_full": 0.0, "n": 0,
                "basis": "X", "shots": 16, "expval": 0.5}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({**good, **bad}) + "\n")
        with pytest.raises(ValueError):
            read_records_jsonl(path)

    @pytest.mark.parametrize("batch_id", [5, None, ["a"]])
    def test_jsonl_rejects_non_string_batch_id(self, tmp_path, batch_id):
        # analyze sorts groups by batch id, so 5 next to "a" must fail here
        record = {"batch_id": batch_id, "timestamp": 0, "theta_full": 0.0, "n": 0,
                  "basis": "X", "shots": 16, "expval": 0.5}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match="batch_id must be a string"):
            read_records_jsonl(path)

    def test_jsonl_accepts_integral_floats(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        path.write_text('{"batch_id": "b", "timestamp": 3.0, "theta_full": 1, "n": 2.0, '
                        '"basis": "X", "shots": 16, "expval": 0}\n')
        (rec,) = read_records_jsonl(path)
        assert (rec.timestamp, rec.n, rec.theta_full, rec.expval) == (3, 2, 1.0, 0.0)
        assert type(rec.n) is int and type(rec.theta_full) is float

    @pytest.mark.parametrize("field, value", [("n", "2.5"), ("shots", "16.7"), ("timestamp", "1.9")])
    def test_csv_rejects_non_integral_counts(self, tmp_path, field, value):
        row = {"batch_id": "b", "timestamp": "0", "theta_full": "0.0", "n": "0",
               "basis": "X", "shots": "16", "expval": "0.5", field: value}
        path = tmp_path / "bad.csv"
        path.write_text("batch_id,timestamp,theta_full,n,basis,shots,expval\n"
                        + ",".join(row[k] for k in ("batch_id", "timestamp", "theta_full", "n",
                                                     "basis", "shots", "expval")) + "\n")
        with pytest.raises(ValueError):
            read_records_csv(path)

    def test_unknown_jsonl_key_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"batch_id": "b", "timestamp": 0, "theta_full": 0.0, "n": 0, '
            '"basis": "X", "shots": 16, "expval": 0.5, "extra": 1}\n'
        )
        with pytest.raises(ValueError, match="unknown record keys"):
            read_records_jsonl(path)

    def test_missing_jsonl_key_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"batch_id": "b", "timestamp": 0, "theta_full": 0.0, "n": 0, "basis": "X", "shots": 16}\n')
        with pytest.raises(ValueError, match=r"missing: \['expval'\]"):
            read_records_jsonl(path)

    @pytest.mark.parametrize("line", ["5", '["batch_id"]', '"record"', "null"])
    def test_jsonl_line_that_is_not_an_object_rejected(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match="missing"):
            read_records_jsonl(path)

    def test_jsonl_skips_blank_lines(self, tmp_path):
        recs = _sample_records()[:2]
        path = tmp_path / "records.jsonl"
        write_records_jsonl(recs, path)
        path.write_text(path.read_text() + "\n\n")
        assert read_records_jsonl(path) == recs
