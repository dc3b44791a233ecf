"""Command-line interface: subcommands, exit codes, file outputs, determinism."""

import json
import math
import os

import numpy as np
import pytest

from noiselab.cli import main
from noiselab.fitting import FitResult
from noiselab.models import MarkovianParams
from noiselab.oracles import CHECKS
from noiselab.synth import read_records_csv, read_records_jsonl

IDLE_N = list(range(0, 151, 10))
TLS_PARAMS = {
    "model": "qubit_tls",
    "delta_omega": 0.002,
    "gamma_ad": 3.6e-05,
    "gamma_d": 0.00019,
    "nu_zx": 0.0027,
    "kappa": 0.0,
}
MARKOV_PARAMS = {
    "model": "markovian",
    "delta_omega": 0.01,
    "gamma_ad": 0.0001,
    "gamma_d": 0.0003,
}


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def idle_schedule(tmp_path):
    return _write(tmp_path / "idle.json", {"theta_full": 0.0, "n_values": IDLE_N})


@pytest.fixture
def driven_schedule(tmp_path):
    return _write(
        tmp_path / "driven.json",
        {"theta_full": 1.2566370614359172, "n_values": list(range(0, 61, 10))},
    )


# ---------------------------------------------------------------------------
# simulate

class TestSimulate:
    def test_single_batch_outputs(self, tmp_path, idle_schedule):
        params = _write(tmp_path / "p.json", TLS_PARAMS)
        out = str(tmp_path / "run")
        rc = main(["simulate", "--params", params, "--schedule", idle_schedule,
                   "--shots", "1024", "--seed", "7", "--out", out])
        assert rc == 0
        records = read_records_csv(out + ".records.csv")
        assert len(records) == len(IDLE_N) * 3
        meta = json.loads((tmp_path / "run.meta.json").read_text())
        assert meta["schema"] == 1
        assert meta["n_records"] == len(records)
        assert len(meta["config_hash"]) == 16

    def test_driven_batch_adds_idle_partner(self, tmp_path, driven_schedule):
        params = _write(tmp_path / "p.json", MARKOV_PARAMS)
        out = str(tmp_path / "run")
        rc = main(["simulate", "--params", params, "--schedule", driven_schedule,
                   "--shots", "256", "--seed", "1", "--out", out])
        assert rc == 0
        records = read_records_csv(out + ".records.csv")
        assert len(records) == 2 * 7 * 3
        assert sorted({r.theta_full for r in records}) == [0.0, 1.2566370614359172]

    def test_theta_grid_in_one_batch(self, tmp_path):
        params = _write(tmp_path / "p.json", MARKOV_PARAMS)
        sched = _write(
            tmp_path / "grid.json",
            {"theta_full": [0.0, 0.5, 1.0, 1.5], "n_values": IDLE_N},
        )
        out = str(tmp_path / "grid")
        rc = main(["simulate", "--params", params, "--schedule", sched,
                   "--shots", "0", "--seed", "0", "--out", out])
        assert rc == 0
        records = read_records_csv(out + ".records.csv")
        assert len(records) == 4 * len(IDLE_N) * 3
        # exact sampling: from |+> every X expectation at n = 0 is 1
        assert all(
            abs(r.expval - 1.0) < 1e-12 for r in records if r.n == 0 and r.basis == "X"
        )

    def test_jsonl_format(self, tmp_path, idle_schedule):
        params = _write(tmp_path / "p.json", TLS_PARAMS)
        out = str(tmp_path / "run")
        rc = main(["simulate", "--params", params, "--schedule", idle_schedule,
                   "--shots", "64", "--seed", "3", "--out", out, "--format", "jsonl"])
        assert rc == 0
        assert len(read_records_jsonl(out + ".records.jsonl")) == len(IDLE_N) * 3

    def test_campaign_writes_truth(self, tmp_path, idle_schedule):
        params = _write(tmp_path / "p.json", TLS_PARAMS)
        drift = _write(
            tmp_path / "drift.json",
            {"jump_rate_nu": 0.5, "nu_distribution": [0.003, 0.001]},
        )
        out = str(tmp_path / "camp")
        rc = main(["simulate", "--params", params, "--schedule", idle_schedule,
                   "--shots", "128", "--seed", "2", "--out", out,
                   "--days", "2", "--batches-per-day", "3", "--drift", drift])
        assert rc == 0
        records = read_records_csv(out + ".records.csv")
        assert len(records) == 6 * len(IDLE_N) * 3
        truth = json.loads((tmp_path / "camp.truth.json").read_text())
        assert [b["batch_id"] for b in truth["batches"]] == [
            "d000-b000", "d000-b001", "d000-b002", "d001-b000", "d001-b001", "d001-b002",
        ]
        assert all(b["params"]["model"] == "qubit_tls" for b in truth["batches"])

    def test_campaign_drift_requires_tls_base(self, tmp_path, idle_schedule):
        params = _write(tmp_path / "p.json", MARKOV_PARAMS)
        out = str(tmp_path / "camp")
        rc = main(["simulate", "--params", params, "--schedule", idle_schedule,
                   "--shots", "16", "--seed", "0", "--out", out, "--days", "1"])
        assert rc == 2

    @pytest.mark.parametrize("drift, key", [
        ('{"day_scales": {"gamma_d": "x"}}', "day_scales"),
        ('{"nu_distribution": [0.1]}', "nu_distribution"),
        ('{"jump_rate_nu": true}', "jump_rate_nu"),
        ('{"nu_distribution": [NaN, 0.1], "jump_rate_nu": 1.0}', "nu_distribution"),
        ('[0.5]', "drift file"),
    ])
    def test_bad_drift_file_is_config_error(self, tmp_path, idle_schedule, capsys, drift, key):
        params = _write(tmp_path / "p.json", TLS_PARAMS)
        (tmp_path / "drift.json").write_text(drift)
        rc = main(["simulate", "--params", params, "--schedule", idle_schedule,
                   "--shots", "16", "--seed", "0", "--out", str(tmp_path / "camp"),
                   "--days", "1", "--drift", str(tmp_path / "drift.json")])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not list(tmp_path.glob("camp*"))

    def test_rerun_is_byte_identical(self, tmp_path, idle_schedule):
        params = _write(tmp_path / "p.json", TLS_PARAMS)
        out = str(tmp_path / "run")
        argv = ["simulate", "--params", params, "--schedule", idle_schedule,
                "--shots", "1024", "--seed", "7", "--out", out]
        assert main(argv) == 0
        first = {
            name: (tmp_path / name).read_bytes()
            for name in ("run.records.csv", "run.meta.json")
        }
        assert main(argv) == 0
        for name, blob in first.items():
            assert (tmp_path / name).read_bytes() == blob


# ---------------------------------------------------------------------------
# fit

class TestFit:
    def _simulate_idle(self, tmp_path, idle_schedule, shots="0", seed="0"):
        params = _write(tmp_path / "p.json", TLS_PARAMS)
        out = str(tmp_path / "sim")
        assert main(["simulate", "--params", params, "--schedule", idle_schedule,
                     "--shots", shots, "--seed", seed, "--out", out]) == 0
        return out + ".records.csv"

    @pytest.mark.parametrize("flags, physical", [([], False), (["--tie-b"], True)])
    def test_memory_kernel_report_flags_unphysical_fit(self, tmp_path, idle_schedule, flags, physical):
        # README quick-start data: a free-b fit lands at b < -2 gamma_z
        data = self._simulate_idle(tmp_path, idle_schedule, shots="1024", seed="7")
        out = tmp_path / "fit.json"
        assert main(["fit", "--model", "pmme", "--data", data, "--out", str(out),
                     "--starts", "4", *flags]) == 0
        assert json.loads(out.read_text())["fit"]["physical"] is physical

    def test_idle_fit_report(self, tmp_path, idle_schedule):
        data = self._simulate_idle(tmp_path, idle_schedule)
        out = str(tmp_path / "fit.json")
        rc = main(["fit", "--model", "qubit_tls", "--data", data, "--out", out,
                   "--starts", "6"])
        assert rc == 0
        report = json.loads((tmp_path / "fit.json").read_text())
        fit = report["fit"]
        assert fit["converged"] is True
        params = fit["params_by_theta"]["0.0"]
        assert params["nu_zx"] == pytest.approx(0.0027, abs=1e-5)
        assert params["delta_omega"] == pytest.approx(0.002, abs=1e-5)
        assert "ratios" not in report
        assert "delta_omega_khz" in report["physical"]["0.0"]
        assert "units_note" in report
        # kHz convention: 2 x / (2 pi T_gate) with T_gate = 71.1 ns
        khz = report["physical"]["0.0"]["delta_omega_khz"]
        x = params["delta_omega"]
        assert khz == pytest.approx(2 * x / (2 * math.pi * 71.1e-9) / 1e3, rel=1e-12)

    def test_joint_fit_reports_ratios(self, tmp_path, driven_schedule):
        params = _write(tmp_path / "p.json", MARKOV_PARAMS)
        sim = str(tmp_path / "sim")
        assert main(["simulate", "--params", params, "--schedule", driven_schedule,
                     "--shots", "0", "--seed", "0", "--out", sim]) == 0
        out = str(tmp_path / "fit.json")
        rc = main(["fit", "--model", "markovian", "--data", sim + ".records.csv",
                   "--out", out, "--starts", "6"])
        assert rc == 0
        report = json.loads((tmp_path / "fit.json").read_text())
        ratios = {r["parameter"]: r for r in report["ratios"]}
        assert ratios["delta_omega"]["value"] == pytest.approx(1.0, abs=1e-3)
        assert ratios["delta_omega"]["unstable"] is False

    def test_freeze_and_constrain_flags(self, tmp_path, driven_schedule):
        params = _write(tmp_path / "p.json", MARKOV_PARAMS)
        sim = str(tmp_path / "sim")
        assert main(["simulate", "--params", params, "--schedule", driven_schedule,
                     "--shots", "0", "--seed", "0", "--out", sim]) == 0
        out = str(tmp_path / "fit.json")
        rc = main(["fit", "--model", "markovian", "--data", sim + ".records.csv",
                   "--out", out, "--starts", "4", "--constrain", "none",
                   "--freeze", "gamma_ad=0.0001"])
        assert rc == 0
        report = json.loads((tmp_path / "fit.json").read_text())
        names = report["fit"]["free_names"]
        assert not any(n.startswith("gamma_ad") for n in names)
        # unshared: every remaining parameter appears per theta
        assert all("@" in n for n in names)

    def test_theta_filter_selects_subset(self, tmp_path, driven_schedule):
        params = _write(tmp_path / "p.json", MARKOV_PARAMS)
        sim = str(tmp_path / "sim")
        assert main(["simulate", "--params", params, "--schedule", driven_schedule,
                     "--shots", "0", "--seed", "0", "--out", sim]) == 0
        out = str(tmp_path / "fit.json")
        rc = main(["fit", "--model", "markovian", "--data", sim + ".records.csv",
                   "--out", out, "--starts", "4", "--theta", "0.0"])
        assert rc == 0
        report = json.loads((tmp_path / "fit.json").read_text())
        assert list(report["fit"]["params_by_theta"]) == ["0.0"]

    def test_missing_theta_is_config_error(self, tmp_path, idle_schedule):
        data = self._simulate_idle(tmp_path, idle_schedule)
        rc = main(["fit", "--model", "qubit_tls", "--data", data,
                   "--out", str(tmp_path / "fit.json"), "--theta", "2.5"])
        assert rc == 2

    def test_nonconvergent_fit_exits_4_but_writes_report(self, tmp_path, idle_schedule, monkeypatch):
        data = self._simulate_idle(tmp_path, idle_schedule)

        def fake_fit(model, records, config=None):
            return FitResult(
                model=model,
                params_by_theta={0.0: MarkovianParams(0.0, 0.0, 0.0)},
                free_names=("delta_omega",),
                free_values=np.zeros(1),
                loss=1.0, rmse=0.1, n_points=100, converged=False, nfev=1600, njev=0,
                covariance=np.zeros((1, 1)), sigmas={"delta_omega": 0.0},
            )

        monkeypatch.setattr("noiselab.cli.fit_model", fake_fit)
        out = tmp_path / "fit.json"
        rc = main(["fit", "--model", "markovian", "--data", data, "--out", str(out)])
        assert rc == 4
        assert json.loads(out.read_text())["fit"]["converged"] is False

    def test_fit_rerun_is_byte_identical(self, tmp_path, idle_schedule):
        data = self._simulate_idle(tmp_path, idle_schedule, shots="1024", seed="5")
        out = str(tmp_path / "fit.json")
        argv = ["fit", "--model", "qubit_tls", "--data", data, "--out", out,
                "--starts", "4"]
        assert main(argv) == 0
        first = (tmp_path / "fit.json").read_bytes()
        assert main(argv) == 0
        assert (tmp_path / "fit.json").read_bytes() == first

    @pytest.mark.parametrize("flags, option", [
        (["--gate-duration-ns", "0"], "--gate-duration-ns"),
        (["--gate-duration-ns", "-71.1"], "--gate-duration-ns"),
        (["--gate-duration-ns", "nan"], "--gate-duration-ns"),
        (["--gate-duration-ns", "inf"], "--gate-duration-ns"),
        (["--starts", "-5"], "starts"),
        (["--starts", "0"], "starts"),
        (["--m", "0"], "m must be"),
    ])
    def test_bad_numeric_option_is_config_error(self, tmp_path, idle_schedule, capsys, flags, option,
                                                monkeypatch):
        data = self._simulate_idle(tmp_path, idle_schedule)

        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran before the options were checked")

        monkeypatch.setattr("noiselab.cli.fit_model", no_fit)
        out = tmp_path / "fit.json"
        rc = main(["fit", "--model", "markovian", "--data", data, "--out", str(out), *flags])
        assert rc == 2
        assert option in capsys.readouterr().err
        assert not out.exists()

    def test_memory_kernel_on_driven_data_exits_3(self, tmp_path, driven_schedule):
        params = _write(tmp_path / "p.json", MARKOV_PARAMS)
        sim = str(tmp_path / "sim")
        assert main(["simulate", "--params", params, "--schedule", driven_schedule,
                     "--shots", "0", "--seed", "0", "--out", sim]) == 0
        rc = main(["fit", "--model", "pmme", "--data", sim + ".records.csv",
                   "--out", str(tmp_path / "fit.json")])
        assert rc == 3


# ---------------------------------------------------------------------------
# analyze

class TestAnalyze:
    def test_detector_tables(self, tmp_path, idle_schedule):
        params = _write(tmp_path / "p.json", TLS_PARAMS)
        sim = str(tmp_path / "sim")
        assert main(["simulate", "--params", params, "--schedule", idle_schedule,
                     "--shots", "0", "--seed", "0", "--out", sim]) == 0
        out = str(tmp_path / "an")
        rc = main(["analyze", "--data", sim + ".records.csv", "--out", out])
        assert rc == 0
        verdicts = json.loads((tmp_path / "an.verdicts.json").read_text())["verdicts"]
        assert len(verdicts) == 1
        assert verdicts[0]["verdict"] == "non_markovian"
        assert verdicts[0]["criteria"] == ["purity_z"]
        assert "nfev" not in verdicts[0]["purity"]
        purity = (tmp_path / "an.purity.csv").read_text().splitlines()
        assert len(purity) == 2  # header + one group
        assert "nfev" not in purity[0]
        spline = (tmp_path / "an.spline.csv").read_text().splitlines()
        assert len(spline) == 1 + 3 * 201
        obs = (tmp_path / "an.observables.csv").read_text().splitlines()
        assert len(obs) == 1 + len(IDLE_N) * 3
        meta = json.loads((tmp_path / "an.meta.json").read_text())
        assert meta["n_groups"] == 1

    def test_rerun_replaces_every_output_file(self, tmp_path, idle_schedule):
        # rewriting a file in place waits on ext4 for the flush of its last
        # write; every output is a new file instead, with the same bytes
        params = _write(tmp_path / "p.json", TLS_PARAMS)
        sim, out = str(tmp_path / "sim"), str(tmp_path / "an")
        argv = [["simulate", "--params", params, "--schedule", idle_schedule,
                 "--shots", "1024", "--seed", "3", "--out", sim],
                ["analyze", "--data", sim + ".records.csv", "--out", out]]
        for args in argv:
            assert main(args) == 0
        outputs = sorted(p for p in tmp_path.iterdir() if p.name.startswith(("sim.", "an.")))
        assert len(outputs) == 7
        for path in outputs:
            os.link(path, f"{path}.old")
        for args in argv:
            assert main(args) == 0
        for path in outputs:
            assert not os.path.samefile(path, f"{path}.old")
            assert path.read_bytes() == (tmp_path / f"{path.name}.old").read_bytes()

    def test_ratio_aggregation_tables(self, tmp_path, driven_schedule):
        params = _write(tmp_path / "p.json", MARKOV_PARAMS)
        fit_paths = []
        for seed in ("3", "4"):
            sim = str(tmp_path / f"sim{seed}")
            assert main(["simulate", "--params", params, "--schedule", driven_schedule,
                         "--shots", "2048", "--seed", seed, "--out", sim]) == 0
            fit_out = str(tmp_path / f"fit{seed}.json")
            assert main(["fit", "--model", "markovian", "--data", sim + ".records.csv",
                         "--out", fit_out, "--starts", "6"]) == 0
            fit_paths.append(fit_out)
        out = str(tmp_path / "an")
        rc = main(["analyze", "--data", str(tmp_path / "sim3.records.csv"),
                   "--fits", fit_paths[0], "--fits", fit_paths[1], "--out", out])
        assert rc == 0
        rows = (tmp_path / "an.ratio_summary.csv").read_text().splitlines()
        assert rows[0] == "parameter,theta_full,mean,sigma_fit,sigma_disp,sigma_total,n"
        table = {line.split(",")[0]: line.split(",") for line in rows[1:]}
        assert float(table["delta_omega"][2]) == pytest.approx(1.0, abs=0.2)
        assert int(table["delta_omega"][6]) == 2
        density = (tmp_path / "an.density.csv").read_text().splitlines()
        keys = {line.split(",")[0] for line in density[1:]}
        assert len(density) == 1 + 801 * len(keys)
        meta = json.loads((tmp_path / "an.meta.json").read_text())
        assert meta["dropped_ratios"] == 0

    @pytest.mark.parametrize("m", ["0", "-2"])
    def test_bad_m_is_config_error_before_any_output(self, tmp_path, idle_schedule, capsys, m):
        params = _write(tmp_path / "p.json", TLS_PARAMS)
        sim = str(tmp_path / "sim")
        assert main(["simulate", "--params", params, "--schedule", idle_schedule,
                     "--shots", "0", "--seed", "0", "--out", sim]) == 0
        rc = main(["analyze", "--data", sim + ".records.csv", "--out", str(tmp_path / "an"), "--m", m])
        assert rc == 2
        assert "m must be a positive integer" in capsys.readouterr().err
        assert not list(tmp_path.glob("an.*"))

    @pytest.mark.parametrize("fault", ["missing_basis", "duplicate"])
    def test_incomplete_group_is_config_error_before_any_output(self, tmp_path, capsys, fault):
        params = _write(tmp_path / "p.json", TLS_PARAMS)
        bases = ["X", "Y"] if fault == "missing_basis" else ["X", "Y", "Z"]
        sched = _write(tmp_path / "s.json", {"theta_full": 0.0, "n_values": IDLE_N, "bases": bases})
        sim = str(tmp_path / "sim")
        assert main(["simulate", "--params", params, "--schedule", sched,
                     "--shots", "0", "--seed", "0", "--out", sim]) == 0
        data = ["--data", sim + ".records.csv"] * (2 if fault == "duplicate" else 1)
        rc = main(["analyze", *data, "--out", str(tmp_path / "an")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "batch 'batch-0000' at theta_full 0.0" in err
        assert ("missing bases ['Z']" if fault == "missing_basis" else "duplicate record") in err
        assert not list(tmp_path.glob("an.*"))

    def test_non_string_batch_id_is_config_error_before_any_output(self, tmp_path, capsys):
        record = {"timestamp": 0, "theta_full": 0.0, "n": 0, "basis": "X", "shots": 16, "expval": 0.5}
        path = tmp_path / "records.jsonl"
        path.write_text("".join(json.dumps({"batch_id": b, **record}) + "\n" for b in ("a", 5)))
        rc = main(["analyze", "--data", str(path), "--out", str(tmp_path / "an")])
        assert rc == 2
        assert "batch_id must be a string, got 5" in capsys.readouterr().err
        assert not list(tmp_path.glob("an.*"))

    @pytest.mark.parametrize(
        "bad",
        [None, {"sigma": -0.5}, {"sigma": "0.1"}, {"value": True}, {"theta_full": None}, "no_sigma"],
        ids=["not_object", "negative_sigma", "string_sigma", "bool_value", "null_theta", "no_sigma"],
    )
    def test_bad_fit_report_is_config_error_before_any_output(self, tmp_path, idle_schedule, capsys, bad):
        params = _write(tmp_path / "p.json", TLS_PARAMS)
        sim = str(tmp_path / "sim")
        assert main(["simulate", "--params", params, "--schedule", idle_schedule,
                     "--shots", "0", "--seed", "0", "--out", sim]) == 0
        good = {"parameter": "gamma_d", "theta_full": 1.0, "value": 1.1, "sigma": 0.1}
        if bad is None:
            report = [good]
        elif bad == "no_sigma":
            report = {"schema": 1, "ratios": [good, {k: v for k, v in good.items() if k != "sigma"}]}
        else:
            report = {"schema": 1, "ratios": [good, {**good, **bad}]}
        fits = _write(tmp_path / "bad_fit.json", report)
        rc = main(["analyze", "--data", sim + ".records.csv", "--fits", fits, "--out", str(tmp_path / "an")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad_fit.json" in err
        assert bad is None or "ratio row 1" in err
        assert not list(tmp_path.glob("an.*"))

    def test_non_finite_ratio_is_dropped_and_counted(self, tmp_path, idle_schedule):
        params = _write(tmp_path / "p.json", TLS_PARAMS)
        sim = str(tmp_path / "sim")
        assert main(["simulate", "--params", params, "--schedule", idle_schedule,
                     "--shots", "0", "--seed", "0", "--out", sim]) == 0
        good = {"parameter": "gamma_d", "theta_full": 1.0, "value": 1.1, "sigma": 0.1}
        rows = [good, {**good, "value": math.nan}, {**good, "sigma": -math.inf}]
        fits = _write(tmp_path / "fit.json", {"schema": 1, "ratios": rows})
        out = str(tmp_path / "an")
        assert main(["analyze", "--data", sim + ".records.csv", "--fits", fits, "--out", out]) == 0
        assert json.loads((tmp_path / "an.meta.json").read_text())["dropped_ratios"] == 2

    def test_empty_input_is_config_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("batch_id,timestamp,theta_full,n,basis,shots,expval\n")
        rc = main(["analyze", "--data", str(empty), "--out", str(tmp_path / "an")])
        assert rc == 2


# ---------------------------------------------------------------------------
# map-models

class TestMapModels:
    def test_tls_to_memory_kernel(self, tmp_path, capsys):
        params = _write(tmp_path / "p.json", TLS_PARAMS)
        rc = main(["map-models", "--params", params, "--to", "pmme"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mapped"]["model"] == "pmme"
        assert out["mapped"]["gamma_z"] == pytest.approx(2 * 0.0027**2, rel=1e-12)
        assert out["effective_dephasing"]["input"] == pytest.approx(
            out["effective_dephasing"]["mapped"], rel=1e-12
        )

    def test_infeasible_inverse_exits_3(self, tmp_path):
        params = _write(
            tmp_path / "p.json",
            {"model": "pmme", "delta_omega": 0.0, "gamma_ad": 0.0,
             "gamma_d": 0.0, "gamma_z": 0.01, "b": -0.1},
        )
        rc = main(["map-models", "--params", params, "--to", "qubit_tls",
                   "--out", str(tmp_path / "m.json")])
        assert rc == 3

    def test_wrong_direction_is_config_error(self, tmp_path):
        params = _write(tmp_path / "p.json", MARKOV_PARAMS)
        assert main(["map-models", "--params", params, "--to", "pmme"]) == 2


# ---------------------------------------------------------------------------
# oracle and parser plumbing

class TestOracleCommand:
    def test_all_checks_pass(self, tmp_path, capsys):
        out = tmp_path / "oracle.json"
        rc = main(["oracle", "--draws", "1", "--out", str(out)])
        captured = capsys.readouterr().out
        assert rc == 0
        assert captured.count("PASS") == 4
        report = json.loads(out.read_text())
        assert all(c["pass"] for c in report["checks"])
        assert all(c["max_dev"] < c["tol"] for c in report["checks"])

    def test_printed_names_are_the_shared_checks(self, capsys):
        assert main(["oracle", "--draws", "1"]) == 0
        printed = [line.split()[1] for line in capsys.readouterr().out.splitlines()]
        assert printed == [name for name, _, _ in CHECKS]

    @pytest.mark.parametrize("draws", ["0", "-3"])
    def test_no_draws_is_config_error(self, tmp_path, draws):
        out = tmp_path / "oracle.json"
        assert main(["oracle", "--draws", draws, "--out", str(out)]) == 2
        assert not out.exists()


class TestParser:
    def test_unknown_subcommand_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("argv", [
        ["simulate", "--params", "p.json", "--schedule", "s.json", "--shots", "16", "--out", "run"],
        ["fit", "--model", "markovian", "--data", "r.csv", "--out", "fit.json"],
        ["fit", "--model", "markovian", "--data", "r.csv", "--out", "fit.json", "--starts", "1"],
        ["oracle", "--draws", "1", "--out", "oracle.json"],
    ], ids=["simulate", "fit", "fit-one-start", "oracle"])
    def test_negative_seed_is_config_error_before_any_io(self, tmp_path, monkeypatch, capsys, argv):
        # the input files do not exist: reading them first would fail on the path
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_missing_file_is_config_error(self, tmp_path):
        rc = main(["fit", "--model", "markovian",
                   "--data", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "fit.json")])
        assert rc == 2

    def test_invalid_json_is_config_error(self, tmp_path, idle_schedule):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["simulate", "--params", str(bad), "--schedule", idle_schedule,
                   "--shots", "16", "--seed", "0", "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_bad_record_extension_is_config_error(self, tmp_path):
        path = tmp_path / "records.txt"
        path.write_text("")
        rc = main(["fit", "--model", "markovian", "--data", str(path),
                   "--out", str(tmp_path / "fit.json")])
        assert rc == 2

    def test_non_finite_record_is_config_error(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("batch_id,timestamp,theta_full,n,basis,shots,expval\nb,0,0.0,0,X,16,nan\n")
        rc = main(["fit", "--model", "markovian", "--data", str(path),
                   "--out", str(tmp_path / "fit.json")])
        assert rc == 2

    @pytest.mark.parametrize("bad", [{"m": 4.5}, {"m": True}, {"n_values": [0, 2.5, 7.9]}])
    def test_non_integral_schedule_count_is_config_error(self, tmp_path, bad):
        params = _write(tmp_path / "p.json", MARKOV_PARAMS)
        sched = _write(tmp_path / "s.json", {"theta_full": 0.0, "n_values": IDLE_N, **bad})
        rc = main(["simulate", "--params", params, "--schedule", sched,
                   "--shots", "0", "--seed", "0", "--out", str(tmp_path / "run")])
        assert rc == 2
        assert not list(tmp_path.glob("run*"))

    @pytest.mark.parametrize("bad", [{"n": 2.5}, {"n": True}, {"theta_full": "0.5"}])
    def test_coercible_jsonl_record_is_config_error(self, tmp_path, bad):
        record = {"batch_id": "b", "timestamp": 0, "theta_full": 0.0, "n": 0,
                  "basis": "X", "shots": 16, "expval": 0.5, **bad}
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(record) + "\n")
        rc = main(["fit", "--model", "markovian", "--data", str(path),
                   "--out", str(tmp_path / "fit.json")])
        assert rc == 2

    @pytest.mark.parametrize("bad", [{"theta_full": True}, {"theta_full": "0.5"}, {"bases": "XZ"}])
    def test_coercible_schedule_value_is_config_error(self, tmp_path, bad):
        params = _write(tmp_path / "p.json", MARKOV_PARAMS)
        sched = _write(tmp_path / "s.json", {"theta_full": 0.0, "n_values": IDLE_N, **bad})
        rc = main(["simulate", "--params", params, "--schedule", sched,
                   "--shots", "0", "--seed", "0", "--out", str(tmp_path / "run")])
        assert rc == 2
        assert not list(tmp_path.glob("run*"))

    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_bad_freeze_value_is_config_error(self, tmp_path, idle_schedule, value):
        params = _write(tmp_path / "p.json", TLS_PARAMS)
        sim = str(tmp_path / "sim")
        assert main(["simulate", "--params", params, "--schedule", idle_schedule,
                     "--shots", "0", "--seed", "0", "--out", sim]) == 0
        rc = main(["fit", "--model", "qubit_tls", "--data", sim + ".records.csv",
                   "--out", str(tmp_path / "fit.json"), "--freeze", f"gamma_ad={value}"])
        assert rc == 2
        assert not (tmp_path / "fit.json").exists()

    def test_bad_freeze_syntax_is_config_error(self, tmp_path, idle_schedule):
        params = _write(tmp_path / "p.json", TLS_PARAMS)
        sim = str(tmp_path / "sim")
        assert main(["simulate", "--params", params, "--schedule", idle_schedule,
                     "--shots", "0", "--seed", "0", "--out", sim]) == 0
        rc = main(["fit", "--model", "qubit_tls", "--data", sim + ".records.csv",
                   "--out", str(tmp_path / "fit.json"), "--freeze", "kappa:0"])
        assert rc == 2

    def test_all_parameters_frozen_is_config_error(self, tmp_path, idle_schedule, capsys):
        params = _write(tmp_path / "p.json", MARKOV_PARAMS)
        sim = str(tmp_path / "sim")
        assert main(["simulate", "--params", params, "--schedule", idle_schedule,
                     "--shots", "0", "--seed", "0", "--out", sim]) == 0
        capsys.readouterr()
        rc = main(["fit", "--model", "markovian", "--data", sim + ".records.csv",
                   "--out", str(tmp_path / "fit.json"), "--freeze", "delta_omega=0",
                   "--freeze", "gamma_ad=0", "--freeze", "gamma_d=0"])
        assert rc == 2
        assert "no free parameters: every markovian parameter is frozen" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()
