import json
import re
from functools import partial

import numpy as np
import pytest

from fairsim import (
    ConfigError,
    DimensionMismatch,
    FairRegularizer,
    GenConfig,
    NumericalError,
    Pool,
    SingularSystemError,
    derive_seed,
    feature_matrix,
    fit_auxiliary,
    generate_pool,
    load_regularizer,
    perceptron_update,
    protected_values,
    regularized_update,
    run_online,
    save_regularizer,
    solve_exact,
    zero_model,
)
from fairsim.experiments import STREAM_FAIR_POOL
from fairsim.fairreg import RESIDUAL_TOLERANCE


def _make_reg(w_reg, lam):
    """Regularizer with an arbitrary penalty direction for update tests."""
    m = len(w_reg)
    sigma = np.eye(m)
    return FairRegularizer(
        w_a=np.array(w_reg, dtype=float),
        sigma_x=sigma,
        w_reg=np.array(w_reg, dtype=float),
        lam=lam,
        alpha_a=0.0,
    )


def test_fit_auxiliary_matches_normal_equations(tiny_pool):
    reg = fit_auxiliary(tiny_pool, alpha_a=1e-3)
    feats = feature_matrix(tiny_pool)
    attrs = protected_values(tiny_pool).astype(float)
    n, m = feats.shape
    xc = feats - feats.mean(axis=0)
    ac = attrs - attrs.mean()
    want = np.linalg.solve(xc.T @ xc + 1e-3 * n * np.eye(m), xc.T @ ac)
    np.testing.assert_allclose(reg.w_a, want, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(reg.sigma_x, xc.T @ xc / n, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(reg.w_reg, reg.sigma_x @ reg.w_a, rtol=1e-12, atol=1e-15)


def test_fit_auxiliary_direction_tracks_the_attribute(tiny_pool):
    reg = fit_auxiliary(tiny_pool)
    feats = feature_matrix(tiny_pool)
    attrs = protected_values(tiny_pool).astype(float)
    corr = np.corrcoef(feats @ reg.w_a, attrs)[0, 1]
    assert corr > 0.8


def test_fit_auxiliary_argument_errors(tiny_pool):
    one_row = Pool(tiny_pool.features[:1], tiny_pool.protected[:1])
    ones = np.flatnonzero(tiny_pool.protected == 1)[:2]
    two_ones = Pool(tiny_pool.features[ones], tiny_pool.protected[ones])
    reg = fit_auxiliary(tiny_pool)
    design = np.vstack([np.ones(len(tiny_pool)), tiny_pool.features.T])
    nan_design = design.copy()
    nan_design[1, 3] = np.nan
    targets = np.ones(len(tiny_pool))
    inf_targets = np.concatenate((targets[:-1], [np.inf]))
    fit = partial(fit_auxiliary, tiny_pool)

    def fit_past_the_float_range():  # the Gram matrix overflows to inf
        return fit_auxiliary(Pool(tiny_pool.features * 1e200, tiny_pool.protected))

    for call, error, problem in (
        # One row holds one protected value, so the both-groups check covers it.
        (partial(fit_auxiliary, one_row), ConfigError,
         f"every protected value is {tiny_pool.protected[0]}; the fit needs both groups"),
        (partial(fit_auxiliary, two_ones), ConfigError,
         "every protected value is 1; the fit needs both groups"),
        (partial(fit, alpha_a=-1.0), ConfigError, "alpha_a must be at least 0, got -1.0"),
        (partial(fit, alpha_a=np.nan), ConfigError, "alpha_a must be a finite number, got nan"),
        (partial(fit, alpha_a=np.inf), ConfigError, "alpha_a must be a finite number, got inf"),
        (partial(fit, alpha_a=True), ConfigError, "alpha_a must be a finite number, got True"),
        (fit_past_the_float_range, SingularSystemError,
         "auxiliary fit: the system overflows the float range"),
        # X @ X.T overflows to inf; refused before the solve, which would print to stderr.
        (partial(solve_exact, design * 1e200, targets, reg), SingularSystemError,
         "exact solve: the system overflows the float range"),
        (partial(regularized_update, np.zeros(3), [0.5, 0.1], 1, 0.1, reg), DimensionMismatch,
         "regularizer direction does not match model width"),
        # Parsed before the solve, whose error path would take a condition number of NaNs.
        (partial(solve_exact, nan_design, targets, reg), NumericalError,
         "design[1, 3] must be finite, got nan"),
        (partial(solve_exact, design, inf_targets, reg), NumericalError,
         "targets[59] must be finite, got inf"),
        (partial(solve_exact, design > 0.5, targets, reg), ConfigError,
         "design must hold real numbers, got bool entries"),
    ):
        with pytest.raises(error, match=f"^{re.escape(problem)}$"):
            call()


def test_regularizer_consistency_checks():
    with pytest.raises(ConfigError):
        FairRegularizer(
            w_a=np.ones(2),
            sigma_x=np.array([[1.0, 0.5], [0.0, 1.0]]),
            w_reg=np.array([1.5, 1.0]),
            lam=0.0,
            alpha_a=0.0,
        )
    with pytest.raises(ConfigError):
        FairRegularizer(
            w_a=np.ones(2),
            sigma_x=np.eye(2),
            w_reg=np.array([2.0, 1.0]),
            lam=0.0,
            alpha_a=0.0,
        )
    with pytest.raises(ConfigError, match=r"^lam must be at least 0, got -0\.5$"):
        _make_reg([1.0, 0.0], lam=-0.5)
    with pytest.raises(DimensionMismatch):
        FairRegularizer(
            w_a=np.ones(3), sigma_x=np.eye(2), w_reg=np.ones(2), lam=0.0, alpha_a=0.0
        )
    reg = _make_reg([1.0, 0.0], lam=0.0)
    for build, error, problem in (
        (lambda: reg.with_strength(True), ConfigError, "^lam must be a finite number, got True$"),
        (lambda: reg.with_strength("1"), ConfigError, "^lam must be a finite number, got '1'$"),
        (lambda: reg.with_strength(np.nan), ConfigError, "^lam must be a finite number, got nan$"),
        (lambda: _make_reg([np.inf, 0.0], lam=0.0), NumericalError,
         r"^w_a\[0\] must be finite, got inf$"),
        (lambda: FairRegularizer(w_a=[1.0], sigma_x=[["1"]], w_reg=[1.0], lam=0.0, alpha_a=0.0),
         ConfigError, "^sigma_x must hold real numbers, got <U1 entries$"),
        (lambda: FairRegularizer(w_a=[1.0], sigma_x=[[1.0]], w_reg=[1.0], lam=0.0, alpha_a=-1e-3),
         ConfigError, "^alpha_a must be at least 0, got -0.001$"),
    ):
        with pytest.raises(error, match=problem):
            build()


def test_with_strength_keeps_fit(tiny_pool):
    reg = fit_auxiliary(tiny_pool)
    strong = reg.with_strength(10)
    assert strong.lam == 10.0 and type(strong.lam) is float
    assert reg.lam == 0.0
    np.testing.assert_array_equal(strong.w_reg, reg.w_reg)


def test_padded_direction_never_touches_intercept(tiny_pool):
    reg = fit_auxiliary(tiny_pool)
    padded = reg.padded_direction
    assert padded[0] == 0.0
    np.testing.assert_array_equal(padded[1:], reg.w_reg)


def test_solve_exact_unpenalized_is_least_squares(tiny_pool):
    rng = np.random.default_rng(17)
    feats = feature_matrix(tiny_pool)
    design = np.vstack([np.ones(len(feats)), feats.T])
    targets = rng.random(len(feats))
    reg = fit_auxiliary(tiny_pool)
    got = solve_exact(design, targets, reg)
    want, *_ = np.linalg.lstsq(design.T, targets, rcond=None)
    np.testing.assert_allclose(got.weights, want, rtol=1e-9, atol=1e-12)


def test_solve_exact_penalized_matches_direct_formula(tiny_pool):
    rng = np.random.default_rng(18)
    feats = feature_matrix(tiny_pool)
    design = np.vstack([np.ones(len(feats)), feats.T])
    targets = rng.random(len(feats))
    reg = fit_auxiliary(tiny_pool).with_strength(7.5)
    got = solve_exact(design, targets, reg)
    d = np.concatenate(([0.0], reg.w_reg))
    A = design @ design.T + 7.5 * np.outer(d, d)
    want = np.linalg.solve(A, design @ targets)
    np.testing.assert_allclose(got.weights, want, rtol=1e-12, atol=1e-15)
    residual = np.linalg.norm(A @ got.weights - design @ targets)
    assert residual / np.linalg.norm(design @ targets) <= RESIDUAL_TOLERANCE


def test_solve_exact_reports_singular_systems():
    # two perfectly collinear feature rows make the normal matrix singular
    base = np.linspace(0.0, 1.0, 8)
    design = np.vstack([np.ones(8), base, 2.0 * base])
    reg = _make_reg([0.0, 0.0], lam=0.0)
    with pytest.raises(SingularSystemError):
        solve_exact(design, np.ones(8), reg)


def test_solves_refuse_an_inaccurate_solution(tiny_pool, monkeypatch):
    # No finite system reaches this exit on every BLAS kernel set (the 13 x 13 Hilbert
    # system solves cleanly on some), so LAPACK's answer is shifted, or made NaN.
    design = np.vstack([np.ones(len(tiny_pool)), tiny_pool.features.T])
    reg = fit_auxiliary(tiny_pool)
    exact = partial(solve_exact, design, np.ones(len(tiny_pool)), reg)
    solve = np.linalg.solve
    for shift, relative in ((1e-3, r"\d\.\d{3}e[-+]\d\d"), (np.nan, "nan")):
        monkeypatch.setattr(np.linalg, "solve", lambda A, b: solve(A, b) + shift)
        for call, context in ((exact, "exact solve"),
                              (partial(fit_auxiliary, tiny_pool), "auxiliary fit")):
            with pytest.raises(SingularSystemError, match=rf"^{context}: unreliable solve, "
                               rf"relative residual {relative} \(cond=\d\.\d{{3}}e[-+]\d\d\)$"):
                call()


def test_solve_exact_dimension_errors(tiny_pool):
    reg = fit_auxiliary(tiny_pool)
    with pytest.raises(DimensionMismatch):
        solve_exact(np.ones((4, 5)), np.ones(4), reg)
    with pytest.raises(DimensionMismatch):
        solve_exact(np.ones((2, 5)), np.ones(5), reg)


def test_regularized_update_zero_lambda_is_plain_perceptron():
    w = np.array([0.3, -0.2, 0.9])
    reg = _make_reg([0.4, -0.7], lam=0.0)
    for x, y in (([0.5, 0.1], 0), ([0.2, 0.9], 1), ([-1.0, 0.3], 1)):
        a = regularized_update(w, x, y, eta=0.05, reg=reg)
        b = perceptron_update(w, x, y, eta=0.05)
        np.testing.assert_array_equal(a, b)
        w = a


def test_regularized_update_applies_penalty_without_mistake():
    w = np.array([0.0, 1.0, 0.0])
    reg = _make_reg([1.0, 0.0], lam=0.1)
    # score of x is 1.0 >= 0 and the label agrees: no perceptron term
    updated = regularized_update(w, [1.0, 0.0], 1, eta=0.5, reg=reg)
    np.testing.assert_allclose(updated, [0.0, 0.9, 0.0], rtol=0, atol=1e-15)


def test_regularized_update_reads_pre_update_weights_in_both_terms():
    w = np.array([0.0, 1.0, 0.0])
    reg = _make_reg([1.0, 0.0], lam=0.1)
    # score 1.0, label 0: subtract eta * (1, x); penalty still uses the old w
    updated = regularized_update(w, [1.0, 0.0], 0, eta=0.5, reg=reg)
    np.testing.assert_allclose(updated, [-0.5, 0.4, 0.0], rtol=0, atol=1e-15)


def test_regularized_update_noop_returns_same_object():
    w = np.array([0.0, 0.0, 1.0])
    reg = _make_reg([1.0, 0.0], lam=0.5)
    # no mistake and w orthogonal to the direction: nothing changes
    assert regularized_update(w, [0.0, 1.0], 1, eta=0.5, reg=reg) is w


def test_penalty_contracts_the_aligned_component_geometrically():
    reg = _make_reg([0.8, 0.6], lam=0.4)
    padded = reg.padded_direction
    factor = 1.0 - 0.4 * float(padded @ padded)
    w = np.array([0.2, 1.0, -0.3])
    # x scores negative and the label agrees, so only the penalty acts
    x = [-10.0, 0.0]
    for _ in range(5):
        before = float(w @ padded)
        w = regularized_update(w, x, 0, eta=0.1, reg=reg)
        after = float(w @ padded)
        assert after == pytest.approx(factor * before, rel=1e-12)


def test_run_online_rejects_lambda_past_the_stability_limit(tiny_labeled):
    # Seed 3's fair pool gives |w_reg|^2 = 0.01106, so the online limit is about 180.8.
    fair_pool = generate_pool(GenConfig(seed=derive_seed(3, STREAM_FAIR_POOL)))
    reg = fit_auxiliary(fair_pool, alpha_a=1e-3)
    model = zero_model(3)
    run_online(model, tiny_labeled, 10, eta=0.01, regularizer=reg.with_strength(180.0))
    with pytest.raises(ConfigError, match=r"2 / \|w_reg\|\^2 = 180\.83"):
        run_online(model, tiny_labeled, 10, eta=0.01, regularizer=reg.with_strength(190.0))
    # The batch solve has no such limit.
    design = np.vstack([np.ones(len(tiny_labeled)), feature_matrix(tiny_labeled).T])
    exact = solve_exact(design, tiny_labeled.labels.astype(float), reg.with_strength(190.0))
    assert np.all(np.isfinite(exact.weights))


def test_regularizer_roundtrip(tmp_path, tiny_pool):
    reg = fit_auxiliary(tiny_pool, alpha_a=1e-3).with_strength(2.5)
    path = tmp_path / "reg.json"
    save_regularizer(reg, path)
    loaded = load_regularizer(path)
    np.testing.assert_array_equal(loaded.w_a, reg.w_a)
    np.testing.assert_array_equal(loaded.sigma_x, reg.sigma_x)
    np.testing.assert_array_equal(loaded.w_reg, reg.w_reg)
    assert loaded.lam == 2.5
    assert loaded.alpha_a == 1e-3


def test_load_regularizer_rejects_tampered_file(tmp_path, tiny_pool):
    path = tmp_path / "reg.json"
    save_regularizer(fit_auxiliary(tiny_pool), path)
    saved = json.loads(path.read_text())
    assert saved["lambda"] == 0.0
    shifted = dict(saved, w_reg=[saved["w_reg"][0] + 1.0] + saved["w_reg"][1:])
    keys = "['alpha_a', 'lambda', 'sigma_x', 'w_a', 'w_reg']"
    for payload, problem in (
        (shifted, "w_reg must equal sigma_x @ w_a"),
        # A misspelt key must not load as the saved strength 0.
        (dict(saved, lam=10.0), f"unknown keys ['lam']; expected {keys}"),
    ):
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {problem}')}$"):
            load_regularizer(path)
