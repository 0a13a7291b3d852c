"""Full-scale acceptance checks.

Each criterion is one test that appends a `[criterion NN] PASS/FAIL` line to
CRITERION_LINES (echoed in the terminal summary) and then asserts. The heavy
experiment grids run once per session through module fixtures; everything is
pinned to the package's default configuration, so these results are the
reference behaviour of the released defaults.
"""

import itertools
import json
import math
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from fairsim import (
    ExperimentConfig,
    GenConfig,
    Pool,
    UserConfig,
    compute_baseline,
    derive_seed,
    feature_matrix,
    fit_auxiliary,
    generate_pool,
    ndcs,
    protected_values,
    run_evolution,
    run_final_eval,
    run_reg_sweep,
    score_all,
    skew_at_k,
    solve_exact,
)
from fairsim.experiments import STREAM_FAIR_POOL, STREAM_ONLINE_POOL
from fairsim.metrics import Baseline

from _oracles import auc_oracle, baseline_oracle, ndcs_oracle, skew_oracle

CFG = ExperimentConfig()
LAM_MAX = max(CFG.lambda_grid)
CRITERION_LINES: list[str] = []


def record(num, name, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    CRITERION_LINES.append(line)
    print(line)
    assert ok, line


def mean(values):
    return float(np.mean(list(values)))


def cells(results, **match):
    out = [r for res in results for r in res.cells
           if all(getattr(r, key) == v for key, v in match.items())]
    assert out, f"no result cells match {match}"
    return out


@pytest.fixture(scope="module")
def final_results():
    return run_final_eval(replace(CFG, eta_grid=(0.01,)))


@pytest.fixture(scope="module")
def evolution_results():
    return run_evolution(replace(CFG, eta_grid=(0.01,), p_bias_grid=(0.0, 0.4)))


@pytest.fixture(scope="module")
def sweep_results():
    return run_reg_sweep(CFG)


@pytest.fixture(scope="module")
def online_pools():
    pools = {}
    for seed in CFG.seeds:
        pool = generate_pool(replace(CFG.gen, seed=derive_seed(seed, STREAM_ONLINE_POOL)))
        pools[seed] = (feature_matrix(pool), protected_values(pool))
    return pools


def test_criterion_01_metric_oracle_equivalence():
    user = UserConfig(0.0)
    base_pool = generate_pool(GenConfig(n=12, seed=2))
    order = np.argsort(-score_all(user.weights, feature_matrix(base_pool)), kind="stable")
    features = feature_matrix(base_pool)[order]

    start = time.monotonic()
    checked = 0
    worst = 0.0
    for n in range(1, 13):
        for flags in itertools.product((0, 1), repeat=n):
            pool = Pool(features=features[:n], protected=flags)
            got_base = compute_baseline(pool, user)
            want_p, want_count = baseline_oracle(pool, user.weights)
            assert got_base.qualified_count == want_count
            assert abs(got_base.p_qualified[1] - want_p[1]) <= 1e-15
            p_base = want_p[1]
            for k in range(1, n + 1):
                diff = abs(skew_at_k(pool.protected, k, got_base) - skew_oracle(flags, k, p_base))
                worst = max(worst, diff)
            diff = abs(ndcs(pool.protected, n, got_base) - ndcs_oracle(flags, n, p_base))
            worst = max(worst, diff)
            checked += 1
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    record(
        1,
        "metric oracle equivalence",
        ok,
        f"{checked} labelings, worst diff {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_skew_hand_value():
    ranking = np.array([1 if i < 20 else 0 for i in range(25)])
    baseline = Baseline(p_qualified={0: 0.5, 1: 0.5}, qualified_count=100)
    value = skew_at_k(ranking, 25, baseline)
    diff = abs(value - math.log(1.6))
    record(2, "skew hand value ln(1.6)", diff <= 1e-9, f"skew@25 {value:.10f}, diff {diff:.2e}")


def test_criterion_03_zero_bias_fixed_point(final_results):
    deltas = {}
    for k in CFG.k_list:
        per_seed = [
            abs(r.report_final.skew_at[k] - r.report_warm.skew_at[k])
            for r in cells(final_results, p_bias=0.0)
        ]
        deltas[k] = mean(per_seed)
    ok = all(v <= 0.05 for v in deltas.values())
    detail = ", ".join(f"k={k}: {v:.4f}" for k, v in deltas.items())
    record(3, "zero-bias fixed point", ok, f"mean |skew delta| {detail}")


def test_criterion_04_bias_absorption_trend(final_results):
    means = [
        mean(r.report_final.skew_at[100] for r in cells(final_results, p_bias=pb))
        for pb in (0.0, 0.4, 0.8)
    ]
    gaps = [means[1] - means[0], means[2] - means[1]]
    ok = all(g >= 0.05 for g in gaps)
    record(
        4,
        "bias absorption trend",
        ok,
        f"mean skew@100 {[round(v, 3) for v in means]}, gaps {[round(g, 3) for g in gaps]}",
    )


def test_criterion_05_precision_recovery(final_results):
    online = mean(r.report_final.precision_at[100] for r in cells(final_results, p_bias=1.0))
    warm = mean(r.report_warm.precision_at[100] for r in cells(final_results, p_bias=1.0))
    ok = online >= 0.85 and warm <= online - 0.2
    record(
        5,
        "precision recovery",
        ok,
        f"online prec@100 {online:.3f}, warm {warm:.3f}, gap {online - warm:.3f}",
    )


def _evolution_series(results, p_bias):
    runs = cells(results, p_bias=p_bias)
    rounds = [r_idx for r_idx, _ in runs[0].reports_evolution]
    series = [
        mean(run.reports_evolution[i][1].skew_at[25] for run in runs)
        for i in range(len(rounds))
    ]
    return rounds, series


def test_criterion_06_evolution_monotonicity(evolution_results):
    rounds, rising = _evolution_series(evolution_results, 0.4)
    rho = float(stats.spearmanr(rounds, rising).statistic)
    _, flat = _evolution_series(evolution_results, 0.0)
    deviation = max(abs(v - flat[0]) for v in flat)
    ok = rho >= 0.8 and deviation <= 0.05
    record(
        6,
        "evolution monotonicity",
        ok,
        f"spearman(round, skew@25) {rho:.3f} at p_bias 0.4, flat deviation {deviation:.4f} at 0",
    )


def test_criterion_07_mitigation_efficacy(sweep_results):
    ok = True
    details = []
    for pb in CFG.p_bias_grid:
        ndcs_mean = mean(
            r.report_final.ndcs for r in cells(sweep_results, p_bias=pb, lam=LAM_MAX)
        )
        abs_skews = [
            abs(mean(r.report_final.skew_at[100] for r in cells(sweep_results, p_bias=pb, lam=lam)))
            for lam in CFG.lambda_grid
        ]
        rho = float(stats.spearmanr(CFG.lambda_grid, abs_skews).statistic)
        ok = ok and abs(ndcs_mean) <= 0.1 and rho <= -0.8
        details.append(f"pb={pb:g}: ndcs {ndcs_mean:+.3f} rho {rho:+.2f}")
    record(7, "mitigation efficacy", ok, "; ".join(details))


def test_criterion_08_fairness_precision_tradeoff(sweep_results):
    ok = True
    details = []
    for pb in (0.4, 0.6, 0.8, 1.0):
        strong = cells(sweep_results, p_bias=pb, lam=LAM_MAX)
        online = mean(r.report_final.precision_at[100] for r in strong)
        warm = mean(r.report_warm.precision_at[100] for r in strong)
        ok = ok and abs(online - warm) <= 0.1
        details.append(f"pb={pb:g}: {online - warm:+.3f}")
    record(8, "fairness-precision trade-off", ok, "prec@100 online-warm " + "; ".join(details))


def test_criterion_09_solver_consistency():
    pool = generate_pool(GenConfig(n=200, seed=31))
    feats = feature_matrix(pool)
    design = np.vstack([np.ones(len(feats)), feats.T])
    targets = score_all(UserConfig(0.0).weights, feats) >= 0.0
    targets = targets.astype(float)
    reg = fit_auxiliary(pool).with_strength(5.0)
    exact = solve_exact(design, targets, reg)

    d = np.concatenate(([0.0], reg.w_reg))
    A = design @ design.T + 5.0 * np.outer(d, d)
    b = design @ targets
    residual = float(np.linalg.norm(A @ exact.weights - b) / np.linalg.norm(b))

    # plain gradient descent on the same quadratic objective
    step = 1.0 / (2.0 * float(np.linalg.eigvalsh(A).max()))
    w = np.zeros_like(b)
    for _ in range(200000):
        w = w - step * 2.0 * (A @ w - b)
        if np.linalg.norm(w - exact.weights) <= 1e-4 * np.linalg.norm(exact.weights):
            break
    relative = float(np.linalg.norm(w - exact.weights) / np.linalg.norm(exact.weights))
    ok = residual <= 1e-8 and relative <= 1e-3
    record(
        9,
        "solver consistency",
        ok,
        f"normal-equation residual {residual:.2e}, descent gap {relative:.2e}",
    )


def test_criterion_10_orthogonality(sweep_results, online_pools):
    worst_cos = 0.0
    worst_corr = 0.0
    directions = {res.seed: res.regularizer.w_reg for res in sweep_results}
    for r in cells(sweep_results, lam=LAM_MAX):
        w = r.final_model.weights[1:]
        direction = directions[r.seed]
        cos = abs(float(w @ direction)) / (np.linalg.norm(w) * np.linalg.norm(direction))
        feats, attrs = online_pools[r.seed]
        scores = r.final_model.weights[0] + feats @ w
        corr = abs(float(np.corrcoef(scores, attrs)[0, 1]))
        worst_cos = max(worst_cos, cos)
        worst_corr = max(worst_corr, corr)
    ok = worst_cos <= 0.05 and worst_corr <= 0.05
    record(
        10,
        "orthogonality at large lambda",
        ok,
        f"max |cos| {worst_cos:.4f}, max |corr(score, attr)| {worst_corr:.4f}",
    )


def test_criterion_11_auxiliary_model_sanity():
    held_out = generate_pool(GenConfig(n=2000, seed=999))
    held_feats = feature_matrix(held_out)
    held_attrs = protected_values(held_out)
    worst = 1.0
    for seed in CFG.seeds:
        pool = generate_pool(replace(CFG.gen, seed=derive_seed(seed, STREAM_FAIR_POOL)))
        reg = fit_auxiliary(pool, alpha_a=CFG.alpha_a)
        auc = auc_oracle(list(held_feats @ reg.w_a), list(held_attrs))
        worst = min(worst, auc)
    record(11, "auxiliary model sanity", worst >= 0.9, f"min held-out AUC {worst:.4f}")


def _output_files(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def test_criterion_12_determinism_and_runtime(tmp_path):
    cmd = [sys.executable, "-m", "fairsim.cli", "sweep"]
    start = time.monotonic()
    first = subprocess.run(
        cmd + ["--out", str(tmp_path / "a")], capture_output=True, text=True
    )
    elapsed = time.monotonic() - start
    assert first.returncode == 0, first.stderr
    second = subprocess.run(
        cmd + ["--out", str(tmp_path / "b")], capture_output=True, text=True
    )
    assert second.returncode == 0, second.stderr

    files_a = _output_files(tmp_path / "a")
    files_b = _output_files(tmp_path / "b")
    identical = files_a == files_b
    manifest_a = json.loads((tmp_path / "a" / "reg_sweep" / "manifest.json").read_text())
    manifest_b = json.loads((tmp_path / "b" / "reg_sweep" / "manifest.json").read_text())
    manifest_a.pop("generated_at")
    manifest_b.pop("generated_at")
    ok = identical and manifest_a == manifest_b and elapsed < 600.0
    record(
        12,
        "determinism and runtime",
        ok,
        f"{len(files_a)} files byte-identical: {identical}, sweep took {elapsed:.1f}s",
    )
