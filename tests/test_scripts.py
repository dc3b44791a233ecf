"""The example scripts run end to end and keep their documented promises."""

import csv
import math
import pathlib
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _run(script, tmp_path, *args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_drift_campaign_writes_one_row_per_batch(tmp_path):
    _run("drift_campaign.py", tmp_path, "--days", "1", "--batches-per-day", "2", "--out", "drift")
    rows = _rows(tmp_path / "drift" / "trajectory.csv")
    assert [r["batch_id"] for r in rows] == ["d000-b000", "d000-b001"]
    assert all(math.isfinite(float(r["nu_fit"])) for r in rows)


def test_theta_sweep_finds_the_two_pi_echo(tmp_path):
    _run("theta_sweep.py", tmp_path, "--out", "sweep.csv")
    rows = _rows(tmp_path / "sweep.csv")
    assert len(rows) == 16
    verdict = {round(float(r["theta_full"]), 6): r["verdict"] for r in rows}
    assert verdict[0.0] == "non_markovian"
    assert verdict[round(2.0 * math.pi, 6)] == "markovian_consistent"
