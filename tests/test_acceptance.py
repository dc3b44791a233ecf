"""End-to-end acceptance scorecard: one test per release criterion.

Every test prints exactly one summary line (PASS/FAIL plus the measured
numbers, emitted outside capture so it is always visible) and then asserts
the same conditions.  The thresholds are deliberately written out literally
here rather than imported from anywhere, so this file is the single place
to read what the toolkit promises.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np

from conftest import STUDY_SCHEDULE, STUDY_TRUTH

from noiselab.analysis import aggregate_ratios, detect_nonmarkovianity, fit_purity
from noiselab.cli import main as cli_main
from noiselab.fitting import FitConfig, fit_model, parameter_ratios
from noiselab.models import (
    MarkovianParams,
    PMMEParams,
    QubitTLSParams,
    effective_dephasing,
    pmme_idle_bloch,
    pmme_numeric_oracle,
)
from noiselab.oracles import (
    pmme_closed_form_vs_kernel_integration,
    qubit_tls_engine_vs_closed_form,
    tls_pmme_mapped_equivalence,
)
from noiselab.schedule import (
    PseudoidentitySchedule,
    pseudoidentity_unitary,
    schedule_superoperator,
)
from noiselab.synth import generate_batch, generate_grid_batch, records_by_theta


def _report(capsys, index: int, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE [{index}/8] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# 1. full 16-dim engine against the closed-form idle solution

def test_engine_matches_closed_form(capsys):
    t0 = time.time()
    worst = qubit_tls_engine_vs_closed_form(np.random.default_rng(2024), 50)
    elapsed = time.time() - t0
    ok = worst < 1e-8 and elapsed < 10.0
    _report(capsys, 1, "engine-vs-closed-form", ok,
            f"50 draws, t in [0, 200], max dev {worst:.2e} < 1e-08, {elapsed:.1f}s < 10s")
    assert worst < 1e-8
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. memory-kernel analytic solution against direct integration

def test_memory_kernel_oracle(capsys):
    t0 = time.time()
    worst = pmme_closed_form_vs_kernel_integration(np.random.default_rng(7), 20)
    # stiff draw: halving the requested step must cut the error by >= 3x
    stiff = PMMEParams(delta_omega=0.5, gamma_ad=0.0, gamma_d=0.0, gamma_z=0.5, b=0.3)
    errs = []
    for h in (0.01, 0.005):
        th = np.arange(0.0, 5.0 + 1e-12, h)
        numeric = np.array([s.coeffs[1:] for s in pmme_numeric_oracle(stiff, th)])
        errs.append(float(np.max(np.abs(numeric - pmme_idle_bloch(stiff, th)))))
    ratio = errs[0] / errs[1]
    elapsed = time.time() - t0
    ok = worst < 1e-5 and ratio >= 3.0 and elapsed < 60.0
    _report(capsys, 2, "kernel-integration-oracle", ok,
            f"20 draws at step 0.01, max dev {worst:.2e} < 1e-05; "
            f"halving cuts error {ratio:.1f}x >= 3x; {elapsed:.1f}s < 60s")
    assert worst < 1e-5
    assert ratio >= 3.0
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 3. model equivalence: exact parameter mapping and independent refits

def test_model_equivalence_and_cross_fits(capsys):
    # pointwise: mapped memory-kernel trajectory == TLS qubit marginal (no AD)
    worst = tls_pmme_mapped_equivalence(np.random.default_rng(11), 20)

    # statistical: both models fitted independently to the same shot-noisy
    # idle data must land on the same point of the shared function family
    truth = QubitTLSParams(delta_omega=0.002, gamma_ad=0.0, gamma_d=1.9e-4,
                           nu_zx=0.0027, kappa=0.0)
    dense = PseudoidentitySchedule(theta_full=0.0, n_values=tuple(range(0, 151)))
    worst_gz, worst_eff = 0.0, 0.0
    for seed in range(3):
        records = generate_batch(truth, dense, 1024, seed)
        tls = fit_model("qubit_tls", records,
                        FitConfig(starts=8, frozen={"kappa": 0.0, "gamma_ad": 0.0}))
        pmme = fit_model("pmme", records,
                         FitConfig(starts=8, frozen={"gamma_ad": 0.0}, tie_b=True))
        two_nu2 = 2.0 * tls.params.nu_zx**2
        worst_gz = max(worst_gz, abs(pmme.params.gamma_z - two_nu2) / two_nu2)
        ed_t, ed_p = effective_dephasing(tls.params), effective_dephasing(pmme.params)
        worst_eff = max(worst_eff, abs(ed_t - ed_p) / ed_t)
    ok = worst < 1e-9 and worst_gz < 0.05 and worst_eff < 0.05
    _report(capsys, 3, "model-equivalence", ok,
            f"mapped idle dev {worst:.2e} < 1e-09; refits over 3 seeds: "
            f"gamma_z vs 2 nu^2 rel {worst_gz:.4f} < 0.05, "
            f"effective-dephasing rel {worst_eff:.4f} < 0.05")
    assert worst < 1e-9
    assert worst_gz < 0.05
    assert worst_eff < 0.05


# ---------------------------------------------------------------------------
# 4. memory signatures: no false positives, calibrated weak-signal response

def test_memory_signature_detectors(capsys):
    # false-positive control: the detectors must stay quiet on memoryless data
    memoryless = MarkovianParams(delta_omega=0.002, gamma_ad=3.6e-5, gamma_d=2.09e-4)
    coarse = PseudoidentitySchedule(theta_full=0.0, n_values=tuple(range(0, 151, 10)))
    max_z, max_count = 0.0, 0
    for seed in range(100):
        rep = detect_nonmarkovianity(generate_batch(memoryless, coarse, 1024, seed))
        if rep.purity is not None:
            max_z = max(max_z, rep.purity.significance)
        max_count = max(max_count, rep.frequency_count)

    # weak-coupling band: purity frequency nu/pi and the split spectral lines
    dense = PseudoidentitySchedule(theta_full=0.0, n_values=tuple(range(0, 151)))
    worst_fp, worst_pos = 0.0, 0.0
    counts = []
    for scale in (0.1, 0.4, 1.0):  # 2 nu * (2m) per sample
        nu = scale / 16.0
        tls = QubitTLSParams(delta_omega=0.3 / 16.0, gamma_ad=3.6e-5,
                             gamma_d=1.9e-4, nu_zx=nu, kappa=0.0)
        rep = detect_nonmarkovianity(generate_batch(tls, dense, 1024, 7))
        counts.append(rep.frequency_count)
        worst_fp = max(worst_fp, abs(rep.purity.f_p - nu / math.pi) / (nu / math.pi))
        want = sorted((abs(2.0 * (tls.delta_omega - nu)), 2.0 * (tls.delta_omega + nu)))
        if rep.frequency_count == 2:
            got = sorted(rep.frequencies)
            worst_pos = max(worst_pos,
                            max(abs(g - w) / w for g, w in zip(got, want)))
    ok = (max_z <= 3.0 and max_count <= 1
          and all(c == 2 for c in counts) and worst_fp < 0.05 and worst_pos < 0.05)
    _report(capsys, 4, "signature-detectors", ok,
            f"100 memoryless seeds: max z {max_z:.2f} <= 3, max lines {max_count} <= 1; "
            f"weak band at 1024 shots: lines {counts} == 2, f_p rel {worst_fp:.4f} < 0.05, "
            f"line positions rel {worst_pos:.4f} < 0.05")
    assert max_z <= 3.0
    assert max_count <= 1
    assert counts == [2, 2, 2]
    assert worst_fp < 0.05
    assert worst_pos < 0.05


# ---------------------------------------------------------------------------
# 5. insensitivity points of the mirrored composite

def test_insensitivity_points(capsys):
    # (a) noiseless composite is the identity channel at any drive angle
    noiseless = MarkovianParams(delta_omega=0.0, gamma_ad=0.0, gamma_d=0.0)
    worst_id = 0.0
    for theta in (0.4, 2.0, math.pi, 2.0 * math.pi, 5.7):
        sup = schedule_superoperator(noiseless, PseudoidentitySchedule(theta_full=theta, n_values=(1,)))
        worst_id = max(worst_id, float(np.max(np.abs(sup - np.eye(4)))))

    # (b) over-rotation cancels to better than O(eps^2)
    worst_over = 0.0
    over_ok = True
    for eps in (0.01, 0.05):
        u = pseudoidentity_unitary(2.0 * math.pi, m=4, over_rotation=eps)
        dev = float(np.max(np.abs(u - np.eye(2))))
        worst_over = max(worst_over, dev)
        over_ok = over_ok and dev < eps**2

    # (c) sigma_z perturbation at theta_full = 2 pi: cubic diagonal phase
    worst_cubic = 0.0
    for eps in (0.01, 0.03, 0.05):
        u = pseudoidentity_unitary(2.0 * math.pi, m=4, sigma_z_error=eps)
        phase = abs(np.angle(u[0, 0]))
        worst_cubic = max(worst_cubic, abs(phase - math.pi * eps**3) / (math.pi * eps**3))

    # (d) fitted purity frequency at theta_full = 2 pi consistent with zero
    grid = [PseudoidentitySchedule(theta_full=2.0 * math.pi, n_values=tuple(range(0, 151, 10)))]
    max_z = 0.0
    for seed in (1, 2, 3):
        records = generate_grid_batch(STUDY_TRUTH, grid, 1024, seed)
        _, block = next(iter(records_by_theta(records).items()))
        max_z = max(max_z, fit_purity(block).significance)

    ok = worst_id < 1e-12 and over_ok and worst_cubic < 0.2 and max_z < 3.0
    _report(capsys, 5, "insensitivity-points", ok,
            f"noiseless composite dev {worst_id:.2e} < 1e-12; over-rotation dev "
            f"{worst_over:.1e} < eps^2; 2pi sigma_z phase vs pi eps^3 rel "
            f"{worst_cubic:.3f} < 0.2; f_p z at 2pi {max_z:.2f} < 3")
    assert worst_id < 1e-12
    assert over_ok
    assert worst_cubic < 0.2
    assert max_z < 3.0


# ---------------------------------------------------------------------------
# 6. parameter recovery under shot noise (shared 50-seed study)

def test_shot_noise_recovery(capsys, recovery_study):
    truth = recovery_study["truth"]
    rel_nu = np.abs(recovery_study["nu"] - truth.nu_zx) / truth.nu_zx
    rel_dw = np.abs(recovery_study["domega"] - truth.delta_omega) / truth.delta_omega
    med_nu, med_dw = float(np.median(rel_nu)), float(np.median(rel_dw))

    cal_nu = float(np.median(recovery_study["sigma_nu"])
                   / np.std(recovery_study["nu"], ddof=1))
    cal_dw = float(np.median(recovery_study["sigma_domega"])
                   / np.std(recovery_study["domega"], ddof=1))

    rmse_true = float(np.median(recovery_study["rmse_tls"]))
    rmse_wrong = float(np.median(recovery_study["rmse_markovian"]))
    gap = rmse_wrong / rmse_true
    elapsed = float(recovery_study["elapsed"])

    ok = (med_nu < 0.05 and med_dw < 0.05
          and 0.5 <= cal_nu <= 2.0 and 0.5 <= cal_dw <= 2.0
          and 0.021 <= rmse_true <= 0.039 and gap >= 3.0 and elapsed < 600.0)
    _report(capsys, 6, "shot-noise-recovery", ok,
            f"median rel err nu {med_nu:.4f} / domega {med_dw:.4f} < 0.05; "
            f"sigma vs spread {cal_nu:.2f} / {cal_dw:.2f} in [0.5, 2]; "
            f"RMSE {rmse_true:.4f} in [0.021, 0.039]; misfit gap {gap:.1f}x >= 3x; "
            f"{elapsed:.0f}s < 600s")
    assert med_nu < 0.05
    assert med_dw < 0.05
    assert 0.5 <= cal_nu <= 2.0
    assert 0.5 <= cal_dw <= 2.0
    assert 0.021 <= rmse_true <= 0.039
    assert gap >= 3.0
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 7. statistics layer: hand-checked aggregation and a planted drive trend

def test_statistics_layer(capsys):
    # hand examples for the inverse-variance aggregate
    one = aggregate_ratios([0.97], [0.12])
    hand_ok = (abs(one.mean - 0.97) < 1e-15 and abs(one.sigma_fit - 0.12) < 1e-15
               and one.sigma_disp < 1e-15)
    pair = aggregate_ratios([1.0, 2.0], [0.5, 0.5])
    hand_ok = hand_ok and (abs(pair.mean - 1.5) < 1e-15
                           and abs(pair.sigma_fit - 0.5 / math.sqrt(2.0)) < 1e-15
                           and abs(pair.sigma_disp - 0.5) < 1e-15)
    clean = aggregate_ratios([1.0] * 10, [0.1] * 10)
    tainted = aggregate_ratios([1.0] * 10 + [0.0], [0.1] * 10 + [10.0])
    outlier_shift = abs(tainted.mean - clean.mean)
    hand_ok = hand_ok and outlier_shift < 0.01

    # plant delta_omega(theta_gate) = delta_omega0 (1 - c theta_gate^2) and
    # recover c through joint fits, per-day ratios, and aggregation
    base = MarkovianParams(delta_omega=0.01, gamma_ad=1e-4, gamma_d=3e-4)
    c_true = 2.0
    n_grid = tuple(range(0, 151, 10))
    xs, ys, ws = [], [], []
    stable = True
    for theta in (math.pi / 5.0, 2.0 * math.pi / 5.0, 3.0 * math.pi / 5.0):
        sched = PseudoidentitySchedule(theta_full=theta, n_values=n_grid)
        theta_g = sched.theta_gate
        shifted = replace(base, delta_omega=base.delta_omega * (1.0 - c_true * theta_g**2))
        values, sigmas = [], []
        for day in range(3):
            # one stream: the idle partner at base, then the driven member shifted
            rng = np.random.default_rng(100 * day + int(theta * 1000))
            records = (generate_grid_batch(base, [replace(sched, theta_full=0.0)], 2048, rng)
                       + generate_grid_batch(shifted, [sched], 2048, rng))
            fit = fit_model("markovian", records, FitConfig(starts=6))
            est = {e.parameter: e for e in parameter_ratios(fit)}["delta_omega"]
            stable = stable and fit.converged and not est.unstable
            values.append(est.value)
            sigmas.append(est.sigma)
        agg = aggregate_ratios(values, sigmas)
        xs.append(theta_g**2)
        ys.append(1.0 - agg.mean)
        ws.append(1.0 / max(agg.sigma_total, 1e-12) ** 2)
    xs, ys, ws = map(np.asarray, (xs, ys, ws))
    c_hat = float(np.sum(ws * xs * ys) / np.sum(ws * xs * xs))
    c_rel = abs(c_hat - c_true) / c_true

    ok = hand_ok and stable and c_rel < 0.10
    _report(capsys, 7, "statistics-layer", ok,
            f"hand aggregates exact: {hand_ok} (outlier shift {outlier_shift:.1e}); "
            f"planted quadratic c_hat {c_hat:.3f} vs 2.0, rel {c_rel:.4f} < 0.10")
    assert hand_ok
    assert stable
    assert c_rel < 0.10


# ---------------------------------------------------------------------------
# 8. determinism of the full generate/fit path

def test_determinism(capsys, tmp_path):
    params = {"model": "qubit_tls", "delta_omega": 0.002, "gamma_ad": 3.6e-5,
              "gamma_d": 1.9e-4, "nu_zx": 0.0027, "kappa": 0.0}
    schedule = {"theta_full": 0.0, "n_values": list(range(0, 151, 10))}
    params_file = tmp_path / "params.json"
    schedule_file = tmp_path / "schedule.json"
    params_file.write_text(json.dumps(params))
    schedule_file.write_text(json.dumps(schedule))
    out = tmp_path / "run"
    blobs = []
    for _ in range(2):
        rc = cli_main(["simulate", "--params", str(params_file),
                       "--schedule", str(schedule_file), "--shots", "1024",
                       "--seed", "11", "--out", str(out)])
        assert rc == 0
        blobs.append(tuple((tmp_path / name).read_bytes()
                           for name in ("run.records.csv", "run.meta.json")))
    sim_ok = blobs[0] == blobs[1]

    records = generate_batch(STUDY_TRUTH, STUDY_SCHEDULE, 1024, seed=0)
    first = fit_model("qubit_tls", records, FitConfig(starts=4))
    second = fit_model("qubit_tls", records, FitConfig(starts=4))
    fit_ok = (np.array_equal(first.free_values, second.free_values)
              and first.loss == second.loss and first.nfev == second.nfev)

    ok = sim_ok and fit_ok
    _report(capsys, 8, "determinism", ok,
            f"simulate rerun byte-identical: {sim_ok}; "
            f"refit identical values/loss/nfev: {fit_ok}")
    assert sim_ok
    assert fit_ok
