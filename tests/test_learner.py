import numpy as np
import pytest

from fairsim import (
    ConfigError,
    DimensionMismatch,
    LinearModel,
    NumericalError,
    default_config,
    default_user,
    feature_matrix,
    generate_pool,
    label_pool,
    load_model,
    perceptron_update,
    predict,
    rank_by_model,
    run_online,
    save_model,
    save_trace,
    score,
    score_all,
    warm_start,
    zero_model,
)


def test_model_validation():
    with pytest.raises(DimensionMismatch):
        LinearModel(np.array([1.0]))
    with pytest.raises(NumericalError):
        LinearModel(np.array([0.0, np.nan]))
    model = LinearModel(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        model.weights[0] = 5.0


def test_score_and_predict():
    model = LinearModel(np.array([0.5, 1.0, -2.0]))
    assert score(model, [1.0, 1.0]) == pytest.approx(-0.5)
    assert predict(model, [1.0, 1.0]) == 0
    assert predict(model, [2.0, 1.0]) == 1
    # the step function fires on exact zero
    assert predict(zero_model(2), [3.0, 4.0]) == 1


def test_score_all_matches_score():
    model = LinearModel(np.array([0.1, -0.3, 0.7]))
    feats = np.array([[0.0, 1.0], [2.0, -1.0], [0.5, 0.5]])
    want = [score(model, row) for row in feats]
    np.testing.assert_allclose(score_all(model, feats), want, rtol=0, atol=1e-15)
    for bad in (feats[:, :1], feats[0], np.float64(1.0)):
        with pytest.raises(DimensionMismatch):
            score_all(model, bad)


def test_perceptron_update_hand_case():
    model = LinearModel(np.array([0.0, 1.0, -1.0]))
    # score = 0.5 - 1.0 < 0, prediction 0, label 1: add eta * (1, x)
    updated = perceptron_update(model, [0.5, 1.0], 1, eta=0.1)
    np.testing.assert_array_equal(updated.weights, [0.1, 1.05, -0.9])
    # score >= 0, prediction 1, label 0: subtract
    down = perceptron_update(model, [2.0, 0.5], 0, eta=0.1)
    np.testing.assert_array_equal(down.weights, [-0.1, 0.8, -1.05])


def test_perceptron_noop_returns_same_object():
    model = LinearModel(np.array([0.0, 1.0, -1.0]))
    assert perceptron_update(model, [2.0, 0.5], 1, eta=0.1) is model


def test_rank_by_model_orders_and_breaks_ties_low_first():
    model = LinearModel(np.array([0.0, 1.0]))
    feats = np.array([[0.2], [0.9], [0.2], [0.5]])
    np.testing.assert_array_equal(rank_by_model(model, feats), [1, 3, 0, 2])


def test_warm_start_matches_independent_replay(tiny_labeled):
    got = warm_start(tiny_labeled, sample_size=10, rounds=20, eta=0.5, seed=9)
    # replay the documented stream contract from scratch
    rng = np.random.default_rng(9)
    subsample = rng.permutation(len(tiny_labeled))[:10]
    picks = rng.integers(0, 10, size=20)
    feats = feature_matrix(tiny_labeled.pool)
    w = np.zeros(feats.shape[1] + 1)
    for i in picks:
        j = int(subsample[i])
        x = np.concatenate(([1.0], feats[j]))
        yhat = 1.0 if w @ x >= 0.0 else 0.0
        w = w + 0.5 * (float(tiny_labeled.labels[j]) - yhat) * x
    np.testing.assert_array_equal(got.weights, w)


def test_warm_start_is_deterministic(tiny_labeled):
    a = warm_start(tiny_labeled, sample_size=20, rounds=50, seed=4)
    b = warm_start(tiny_labeled, sample_size=20, rounds=50, seed=4)
    c = warm_start(tiny_labeled, sample_size=20, rounds=50, seed=5)
    np.testing.assert_array_equal(a.weights, b.weights)
    assert not np.array_equal(a.weights, c.weights)


def test_warm_start_scale_invariance(tiny_labeled):
    # from zero weights the trajectory only scales with eta
    a = warm_start(tiny_labeled, sample_size=20, rounds=50, eta=0.3, seed=4)
    b = warm_start(tiny_labeled, sample_size=20, rounds=50, eta=0.6, seed=4)
    np.testing.assert_allclose(b.weights, 2.0 * a.weights, rtol=1e-12, atol=1e-15)


def test_warm_start_learns_the_fair_rule():
    # pinned full-scale case: high accuracy on the training subsample
    pool = generate_pool(default_config(seed=10))
    labeled = label_pool(pool, default_user(0.0, seed=110))
    model = warm_start(labeled, sample_size=1000, rounds=1000, seed=1)
    rng = np.random.default_rng(1)
    subsample = rng.permutation(len(labeled))[:1000]
    feats = feature_matrix(labeled.pool)
    pred = (score_all(model, feats[subsample]) >= 0.0).astype(int)
    assert (pred == labeled.labels[subsample]).mean() >= 0.95
    pred_full = (score_all(model, feats) >= 0.0).astype(int)
    assert (pred_full == labeled.labels).mean() >= 0.9


def test_warm_start_argument_errors(tiny_labeled):
    with pytest.raises(ConfigError):
        warm_start(tiny_labeled, sample_size=0)
    with pytest.raises(ConfigError):
        warm_start(tiny_labeled, sample_size=len(tiny_labeled) + 1)
    with pytest.raises(ConfigError):
        warm_start(tiny_labeled, sample_size=10, rounds=-1)


def test_run_online_shows_each_point_once(tiny_labeled):
    model = zero_model(3)
    _, trace = run_online(model, tiny_labeled, len(tiny_labeled), eta=0.05)
    assert sorted(trace.shown_order) == list(range(len(tiny_labeled)))


def test_run_online_zero_eta_keeps_model_and_greedy_order(tiny_labeled):
    start = LinearModel(np.array([0.02, 0.4, 0.3, -0.1]))
    final, trace = run_online(start, tiny_labeled, 30, eta=0.0)
    np.testing.assert_array_equal(final.weights, start.weights)
    want = rank_by_model(start, feature_matrix(tiny_labeled.pool))[:30]
    np.testing.assert_array_equal(trace.shown_order, want)


def test_run_online_without_mistakes_returns_same_object(tiny_pool, fair_user):
    labeled = label_pool(tiny_pool, fair_user)
    # a model proportional to the labeling rule never errs
    model = LinearModel(np.array(fair_user.weights))
    final, _ = run_online(model, labeled, 30, eta=0.1)
    assert final is model


def test_run_online_snapshots(tiny_labeled):
    model = zero_model(3)
    final, trace = run_online(model, tiny_labeled, 17, eta=0.05, snapshot_interval=5)
    assert [r for r, _ in trace.snapshots] == [5, 10, 15]
    for _, snap in trace.snapshots:
        assert isinstance(snap, LinearModel)
    # a full-interval run ends exactly on its last snapshot
    final2, trace2 = run_online(model, tiny_labeled, 20, eta=0.05, snapshot_interval=5)
    np.testing.assert_array_equal(trace2.snapshots[-1][1].weights, final2.weights)


def test_run_online_is_pure(tiny_labeled):
    model = zero_model(3)
    a, ta = run_online(model, tiny_labeled, 40, eta=0.05)
    b, tb = run_online(model, tiny_labeled, 40, eta=0.05)
    np.testing.assert_array_equal(a.weights, b.weights)
    assert ta.shown_order == tb.shown_order


def test_run_online_argument_errors(tiny_labeled):
    model = zero_model(3)
    with pytest.raises(ConfigError):
        run_online(model, tiny_labeled, len(tiny_labeled) + 1, eta=0.1)
    with pytest.raises(ConfigError):
        run_online(model, tiny_labeled, 10, eta=0.1, snapshot_interval=-1)
    with pytest.raises(DimensionMismatch):
        run_online(zero_model(2), tiny_labeled, 10, eta=0.1)


def test_model_roundtrip(tmp_path):
    model = LinearModel(np.array([0.125, -3.0, 0.1 + 0.2]))
    path = tmp_path / "model.json"
    save_model(model, path, 42)
    loaded, round_index = load_model(path)
    np.testing.assert_array_equal(loaded.weights, model.weights)
    assert round_index == 42


def test_save_trace_layout(tmp_path, tiny_labeled):
    _, trace = run_online(zero_model(3), tiny_labeled, 5, eta=0.05)
    path = tmp_path / "trace.csv"
    save_trace(trace, tiny_labeled, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "round,pool_index,label,protected"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "1"
    assert int(first[1]) == trace.shown_order[0]
