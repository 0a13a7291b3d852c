import json
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest

from fairsim import (
    DEFAULT_USER_WEIGHTS,
    ConfigError,
    DimensionMismatch,
    ExperimentConfig,
    FairRegularizer,
    GenConfig,
    LabeledPool,
    LinearModel,
    NumericalError,
    Pool,
    UserConfig,
    build_seed_context,
    feature_matrix,
    fit_auxiliary,
    generate_pool,
    label_pool,
    load_model,
    load_pool,
    perceptron_update,
    rank_by_model,
    regularized_update,
    run_final_eval,
    run_online,
    save_model,
    save_pool,
    save_trace,
    score_all,
    warm_start,
    zero_model,
)
from fairsim import learner
from fairsim.experiments import _ranked_report

from _oracles import greedy_online_oracle


def test_model_validation(tmp_path, tiny_labeled):
    # A model parses its weights by the type rule, like every other record.
    for weights, error, problem in (
        (np.array([1.0]), DimensionMismatch,
         "weights must be a vector with an intercept and coefficients"),
        (np.ones((2, 2)), DimensionMismatch,
         "weights must be a vector with an intercept and coefficients"),
        (np.array([0.0, np.nan]), NumericalError, "weights[1] must be finite, got nan"),
        (["a", "b"], ConfigError, "weights must hold real numbers, got <U1 entries"),
        (["1", "2"], ConfigError, "weights must hold real numbers, got <U1 entries"),
        ([True, False, True], ConfigError, "weights must hold real numbers, got bool entries"),
    ):
        with pytest.raises(error, match=f"^{re.escape(problem)}$"):
            LinearModel(weights)
    path = tmp_path / "model.json"
    for payload, error, problem in (
        ({"weights": ["a", "b"], "round": 0}, ConfigError,
         "weights must hold real numbers, got <U1 entries"),
        ({"weights": [0.5, None], "round": 0}, ConfigError,
         "weights must hold real numbers, got object entries"),
        ({"weights": [0.5, 1e999], "round": 0}, NumericalError,
         r"weights\[1\] must be finite, got inf"),
        ({"weights": [0.5, 1.0], "round": 2.5}, ConfigError, "round must be an integer, got 2.5"),
        ({"weights": [0.5, 1.0], "round": -1}, ConfigError, "round must be at least 0, got -1"),
        ({"weights": [0.5, 1.0], "round": 0, "rounds": 900}, ConfigError,
         r"unknown keys \['rounds'\]; expected \['round', 'weights'\]"),
    ):
        path.write_text(json.dumps(payload))
        with pytest.raises(error, match=rf"^{re.escape(str(path))}: {problem}$"):
            load_model(path)
    # eta = 0 stays legal: it freezes the model.
    warm = partial(warm_start, tiny_labeled, 10, 5)
    online = partial(run_online, zero_model(3), tiny_labeled, 5)
    for build in (warm, online):
        for eta, problem in (
            (-1.0, "eta must be at least 0, got -1.0"),
            (-0.5, "eta must be at least 0, got -0.5"),
            (np.nan, "eta must be a finite number, got nan"),
            (np.inf, "eta must be a finite number, got inf"),
            (True, "eta must be a finite number, got True"),
        ):
            with pytest.raises(ConfigError, match=f"^{problem}$"):
                build(eta=eta)
        build(eta=0.0)
    seed_bound = "seed must lie in [0, 18446744073709551615]"
    saved = tmp_path / "saved.json"
    for call, problem in (
        (partial(warm, seed=-1), f"{seed_bound}, got -1"),
        (partial(warm, seed=2**64), f"{seed_bound}, got 18446744073709551616"),
        (partial(warm, seed=1.5), "seed must be an integer, got 1.5"),
        (partial(warm, seed=True), "seed must be an integer, got True"),
        (partial(warm_start, tiny_labeled, 5.5), "sample_size must be an integer, got 5.5"),
        (partial(warm_start, tiny_labeled, 61), "sample_size must be at most 60, got 61"),
        (partial(run_online, zero_model(3), tiny_labeled, 61, 0.1),
         "rounds must be at most 60, got 61"),
        (partial(online, eta=0.1, snapshot_interval=2.5),
         "snapshot_interval must be an integer, got 2.5"),
        (partial(run_online, zero_model(3), tiny_labeled, 2.5, 0.1),
         "rounds must be an integer, got 2.5"),
        (partial(zero_model, 2.5), "m must be an integer, got 2.5"),
        (partial(zero_model, 0), "m must be at least 1, got 0"),
        (partial(save_model, zero_model(3), saved, 2.5), "round_index must be an integer, got 2.5"),
        (partial(save_model, zero_model(3), saved, -1), "round_index must be at least 0, got -1"),
    ):
        with pytest.raises(ConfigError, match=f"^{re.escape(problem)}$"):
            call()
    assert not saved.exists()
    warm_start(tiny_labeled, 10, 5, seed=np.uint64(2**64 - 1))
    model = LinearModel(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        model.weights[0] = 5.0
    # A step takes one 1-D feature vector, never a batch or a scalar.
    reg = fit_auxiliary(generate_pool(GenConfig(n=20, seed=1))).with_strength(1.0)
    for x in (np.zeros((1, 3)), np.zeros(()), np.zeros(2)):
        with pytest.raises(DimensionMismatch):
            perceptron_update(np.zeros(4), x, 1, 0.1)
        with pytest.raises(DimensionMismatch):
            regularized_update(np.zeros(4), x, 1, 0.1, reg)


def test_score_and_predict():
    w = np.array([0.5, 1.0, -2.0])
    assert score_all(w, np.array([[1.0, 1.0]]))[0] == pytest.approx(-0.5)
    # A step leaves the weights themselves in place exactly when it predicts the label.
    assert perceptron_update(w, [1.0, 1.0], 0, 0.1) is w
    assert perceptron_update(w, [2.0, 1.0], 1, 0.1) is w
    # the step function fires on exact zero
    zero = np.zeros(3)
    assert perceptron_update(zero, [3.0, 4.0], 1, 0.1) is zero


def test_score_all_matches_score():
    w = np.array([0.1, -0.3, 0.7])
    feats = np.array([[0.0, 1.0], [2.0, -1.0], [0.5, 0.5]])
    want = [score_all(w, np.array([row]))[0] for row in feats]
    np.testing.assert_allclose(score_all(w, feats), want, rtol=0, atol=1e-15)
    for bad in (feats[:, :1], feats[0], np.float64(1.0)):
        with pytest.raises(DimensionMismatch):
            score_all(w, bad)


def test_perceptron_update_hand_case():
    w = np.array([0.0, 1.0, -1.0])
    # score = 0.5 - 1.0 < 0, prediction 0, label 1: add eta * (1, x)
    updated = perceptron_update(w, [0.5, 1.0], 1, eta=0.1)
    np.testing.assert_array_equal(updated, [0.1, 1.05, -0.9])
    # score >= 0, prediction 1, label 0: subtract
    down = perceptron_update(w, [2.0, 0.5], 0, eta=0.1)
    np.testing.assert_array_equal(down, [-0.1, 0.8, -1.05])


def test_perceptron_noop_returns_same_object():
    w = np.array([0.0, 1.0, -1.0])
    assert perceptron_update(w, [2.0, 0.5], 1, eta=0.1) is w


def test_rank_by_model_orders_and_breaks_ties_low_first():
    model = LinearModel(np.array([0.0, 1.0]))
    feats = np.array([[0.2], [0.9], [0.2], [0.5]])
    np.testing.assert_array_equal(rank_by_model(model, feats), [1, 3, 0, 2])
    np.testing.assert_array_equal(rank_by_model(model, feats, top=2)[:2], [1, 3])
    np.testing.assert_array_equal(rank_by_model(model, feats, top=10), [1, 3, 0, 2])
    with pytest.raises(ConfigError, match="^top must be at least 1"):
        rank_by_model(model, feats, top=0)
    # No rows rank to an empty order, whatever the cutoff.
    for top in (None, 1):
        empty = rank_by_model(model, np.empty((0, 1)), top=top)
        assert empty.shape == (0,) and empty.dtype == np.intp


def test_identical_rows_of_a_loaded_pool_rank_by_index(tmp_path):
    # Identical rows must score identically; ROADMAP's ruled-out column-major storage broke this.
    rng = np.random.default_rng(17)
    distinct = generate_pool(GenConfig(n=40, seed=5))
    source = rng.integers(0, 40, size=4003)
    path = tmp_path / "pool.csv"
    save_pool(Pool(distinct.features[source], distinct.protected[source]), path)
    features = load_pool(path).features
    for _ in range(20):
        order = rank_by_model(LinearModel(rng.standard_normal(4)), features)
        for row in range(40):
            copies = order[source[order] == row]
            assert np.all(copies[:-1] < copies[1:])


def test_warm_start_matches_independent_replay(tiny_labeled):
    got = warm_start(tiny_labeled, sample_size=10, rounds=20, eta=0.5, seed=9)
    # replay the documented stream contract from scratch
    rng = np.random.default_rng(9)
    subsample = rng.permutation(len(tiny_labeled))[:10]
    picks = rng.integers(0, 10, size=20)
    feats = feature_matrix(tiny_labeled)
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
    pool = generate_pool(GenConfig(seed=10))
    labeled = label_pool(pool, UserConfig(0.0, seed=110))
    model = warm_start(labeled, sample_size=1000, rounds=1000, seed=1)
    rng = np.random.default_rng(1)
    subsample = rng.permutation(len(labeled))[:1000]
    feats = feature_matrix(labeled)
    pred = (score_all(model.weights, feats[subsample]) >= 0.0).astype(int)
    assert (pred == labeled.labels[subsample]).mean() >= 0.95
    pred_full = (score_all(model.weights, feats) >= 0.0).astype(int)
    assert (pred_full == labeled.labels).mean() >= 0.9


def test_warm_start_argument_errors(tiny_labeled):
    with pytest.raises(ConfigError):
        warm_start(tiny_labeled, sample_size=0)
    with pytest.raises(ConfigError, match="^sample_size must be at most 60, got 61$"):
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
    want = rank_by_model(start, feature_matrix(tiny_labeled))[:30]
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


def test_models_are_built_only_where_they_leave_the_loop(monkeypatch, fair_user):
    # The loop steps the raw weight vector; a model is built only for each
    # snapshot and for the returned model, never once per changed round.
    labeled = label_pool(generate_pool(GenConfig(n=100, seed=5)), fair_user)
    start = LinearModel(-np.array(fair_user.weights))  # the labelling rule reversed
    builds = []

    class CountedModel(LinearModel):
        def __post_init__(self):
            builds.append(self)
            super().__post_init__()

    monkeypatch.setattr("fairsim.learner.LinearModel", CountedModel)
    final, trace = run_online(start, labeled, 100, eta=0.001, snapshot_interval=25)
    assert [r for r, _ in trace.snapshots] == [25, 50, 75, 100]
    assert builds == [snap for _, snap in trace.snapshots] + [final]
    # Mistake-heavy: every stretch between snapshots changed the weights.
    weights = [start.weights] + [snap.weights for _, snap in trace.snapshots]
    assert all(not np.array_equal(a, b) for a, b in zip(weights, weights[1:]))
    builds.clear()
    warm = warm_start(labeled, sample_size=50, rounds=200, seed=2)
    assert builds == [warm]


def test_run_online_is_pure(tiny_labeled):
    model = zero_model(3)
    a, ta = run_online(model, tiny_labeled, 40, eta=0.05)
    b, tb = run_online(model, tiny_labeled, 40, eta=0.05)
    np.testing.assert_array_equal(a.weights, b.weights)
    assert ta.shown_order.tolist() == tb.shown_order.tolist()


@pytest.mark.parametrize("lam", [None, 0.0, 5.0])
@pytest.mark.parametrize("start", ["zero", "warm"])
def test_run_online_matches_boolean_mask_loop(monkeypatch, tiny_labeled, lam, start):
    # Every row appears twice (rows 60..119 repeat 0..59), so scores tie all along.
    twice = LabeledPool(
        features=np.concatenate([tiny_labeled.features] * 2),
        protected=np.concatenate([tiny_labeled.protected] * 2),
        labels=np.concatenate([tiny_labeled.labels] * 2),
        bias_coin=np.concatenate([tiny_labeled.bias_coin] * 2),
    )
    model = zero_model(3) if start == "zero" else warm_start(tiny_labeled, 40, 200, 0.3, seed=1)
    eta = 0.05
    if lam is None:
        reg, step = None, partial(perceptron_update, eta=eta)
    else:
        reg = fit_auxiliary(twice).with_strength(lam)
        step = partial(regularized_update, eta=eta, reg=reg)
    want_w, want_shown, _ = greedy_online_oracle(
        model.weights, twice.features, twice.labels, len(twice), score_all, step
    )
    # The second run keeps a 5-row shortlist, forced on below its real cutoff.
    for forced in (False, True):
        if forced:
            monkeypatch.setattr(learner, "SHORTLIST", 5)
            monkeypatch.setattr(learner, "SHORTLIST_MIN_ROWS", 0)
        final, trace = run_online(model, twice, len(twice), eta, regularizer=reg)
        assert trace.shown_order.tolist() == want_shown
        assert trace.shown_order.dtype == np.intp and not trace.shown_order.flags.writeable
        assert final.weights.tobytes() == want_w.tobytes()


def _online_cell(n, lam, eta=0.01, rounds=500):
    """A sweep-like cell on an ``n``-row default pool: the warm model, a user biased
    at 0.8, the penalty at strength ``lam`` and at most ``rounds`` rounds; returns
    run_online's inputs."""
    pool = generate_pool(GenConfig(n=n, seed=3))
    fair = label_pool(pool, UserConfig(0.0, seed=11))
    warm = warm_start(fair, sample_size=min(n, 1000), rounds=1000, eta=0.3, seed=4)
    reg = fit_auxiliary(fair).with_strength(lam)
    return warm, label_pool(pool, UserConfig(0.8, seed=13)), min(rounds, n), eta, reg


@pytest.mark.parametrize("lam", [0.0, 10.0])
def test_run_online_rescores_a_shortlist_above_the_cutoff(monkeypatch, lam):
    # At the real constants: above the cutoff the picks and weights are the full
    # scan's, bit for bit, while far fewer rows are scored; below it, every round
    # scores the whole pool.
    for n in (6000, 300):
        warm, labeled, rounds, eta, reg = _online_cell(n, lam)
        rows = []

        def counted(weights, features):
            rows.append(len(features))
            return score_all(weights, features)

        monkeypatch.setattr(learner, "score_all", counted)
        final, trace = run_online(warm, labeled, rounds, eta, regularizer=reg)
        monkeypatch.undo()
        want_w, want_shown, _ = greedy_online_oracle(
            warm.weights, labeled.features, labeled.labels, rounds, score_all,
            partial(regularized_update, eta=eta, reg=reg),
        )
        assert trace.shown_order.tolist() == want_shown
        assert final.weights.tobytes() == want_w.tobytes()
        if n >= learner.SHORTLIST_MIN_ROWS:
            assert sum(rows) < rounds * n / 4
        else:
            assert rows == [n] * rounds


def test_run_online_shortlist_rescans_when_a_score_could_overflow(monkeypatch):
    # Past _HUGE = 2^1000 for sum_k |w_k| * M_k the rounding bound is not to be trusted,
    # so every round scans the whole pool; just below it the shortlist serves the rounds.
    # At eta 1e301 the first mistake, in round 3, carries the weights past it mid-run.
    pool = generate_pool(GenConfig(n=5000, seed=3))
    labeled = label_pool(pool, UserConfig(0.8, seed=13))
    rounds = 60
    for scale, eta, full_scans in ((3e301, 0.01, rounds), (1e305, 0.01, rounds),
                                   (1e300, 0.01, 1), (1e300, 1e301, rounds - 2)):
        model = LinearModel(np.array(DEFAULT_USER_WEIGHTS) * scale)
        rows = []

        def counted(weights, features):
            rows.append(len(features))
            return score_all(weights, features)

        monkeypatch.setattr(learner, "score_all", counted)
        final, trace = run_online(model, labeled, rounds, eta)
        monkeypatch.undo()
        want_w, want_shown, _ = greedy_online_oracle(
            model.weights, labeled.features, labeled.labels, rounds, score_all,
            partial(perceptron_update, eta=eta),
        )
        assert trace.shown_order.tolist() == want_shown
        assert final.weights.tobytes() == want_w.tobytes()
        assert rows.count(len(labeled)) == full_scans


def test_run_online_holds_at_most_two_score_arrays():
    # A full scan holds its scores and the partition's index array; the shortlist
    # adds only arrays of its own size, and the shown order has one entry a round.
    n = 20000
    warm, labeled, rounds, eta, reg = _online_cell(n, 10.0, eta=0.1)
    tracemalloc.start()
    try:
        run_online(warm, labeled, rounds, eta, regularizer=reg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m = labeled.features.shape[1]
    assert n >= learner.SHORTLIST_MIN_ROWS
    assert peak <= 2 * 8 * n + 8 * rounds + 64 * learner.SHORTLIST * (m + 1)


def test_a_lockstep_seed_holds_at_most_one_label_column_per_p_bias_more(traced):
    # One seed shaped like the big-pool study (one eta, 25 rounds) at 20 000 rows. The
    # lock-step grid keeps each p_bias's label column, not its labelled pool, for the
    # reports after the loop; so it may peak above the grid that labelled, ran and
    # reported one p_bias at a time by one label column (n bytes) per p_bias, no more.
    n = 20000
    cfg = ExperimentConfig(gen=GenConfig(n=n), seeds=(3,), eta_grid=(0.01,), online_rounds=25)
    assert n >= learner.SHORTLIST_MIN_ROWS

    def one_labelled_pool_at_a_time():
        res, pool, labeled = build_seed_context(cfg, 3)
        for _, labeled_pool in labeled:
            columns = pool.features, pool.protected, labeled_pool.labels
            reports = [_ranked_report(res.warm_model, *columns, res.baseline, cfg)]
            for eta in cfg.eta_grid:
                final, trace = run_online(res.warm_model, labeled_pool, cfg.online_rounds, eta)
                reports.append(_ranked_report(final, *columns, res.baseline, cfg))
                res.cells.append((final, trace, reports))
            del labeled_pool, columns
        return res

    _, _, before = traced(one_labelled_pool_at_a_time)
    _, _, peak = traced(lambda: run_final_eval(cfg))
    assert peak <= before + len(cfg.p_bias_grid) * n


def test_lockstep_rescans_only_the_cell_whose_weights_pass_huge(monkeypatch):
    # Weights near 1e300 stay below _HUGE = 2^1000 for sum_k |w_k| * M_k, so two cells
    # at eta 0.01 keep the shortlists of their first scans. The middle cell's eta of
    # 1e301 carries its weights past _HUGE at its first mistake, and from the next
    # round on it scans the whole pool every round; the others go on as before.
    pool = generate_pool(GenConfig(n=6000, seed=3))
    biased, fair = (label_pool(pool, UserConfig(p, seed=13)) for p in (0.8, 0.0))
    model = LinearModel(np.array(DEFAULT_USER_WEIGHTS) * 1e300)
    labels = np.stack([biased.labels, fair.labels])
    cells = [(0, 0.01, None), (0, 1e301, None), (1, 0.01, None)]
    rounds = 60
    mag = np.concatenate(([1.0], np.abs(pool.features).max(axis=0)))

    def huge(weights):
        return float(np.abs(weights) @ mag) >= learner._HUGE

    scanned = []

    def counted(weights, features):
        scanned.append(huge(weights))
        return score_all(weights, features)

    monkeypatch.setattr(learner, "score_all", counted)
    runs = learner.run_lockstep(model, pool, labels, cells, rounds, snapshot_interval=1)
    monkeypatch.undo()
    # The weights after round r are the ones round r + 1 starts from.
    passed = sum(huge(snapshot.weights) for _, snapshot in runs[1][1].snapshots[:-1])
    assert 0 < passed < rounds - 1
    assert scanned.count(True) == passed
    assert scanned.count(False) == len(cells)  # round 1's scans: none of the others rescans
    for (row, eta, _), (final, trace) in zip(cells, runs):
        want_w, want_shown, _ = greedy_online_oracle(
            model.weights, pool.features, labels[row], rounds, score_all,
            partial(perceptron_update, eta=eta),
        )
        assert trace.shown_order.tolist() == want_shown
        assert final.weights.tobytes() == want_w.tobytes()


def test_run_online_argument_errors(tiny_labeled):
    model = zero_model(3)
    with pytest.raises(ConfigError, match="^rounds must be at most 60, got 61$"):
        run_online(model, tiny_labeled, len(tiny_labeled) + 1, eta=0.1)
    with pytest.raises(ConfigError):
        run_online(model, tiny_labeled, 10, eta=0.1, snapshot_interval=-1)
    with pytest.raises(DimensionMismatch):
        run_online(zero_model(2), tiny_labeled, 10, eta=0.1)


def test_run_lockstep_argument_errors(tiny_labeled):
    pool, model = tiny_labeled, zero_model(3)
    labels = np.stack([pool.labels, 1 - pool.labels])
    narrow = FairRegularizer(w_a=[1.0], sigma_x=[[1.0]], w_reg=[1.0], lam=0.0, alpha_a=0.0)
    steep = fit_auxiliary(pool).with_strength(1e6)
    limit = 2.0 / float(steep.w_reg @ steep.w_reg)
    for args, error, problem in (
        ((zero_model(2), pool, labels, [(0, 0.1, None)]), DimensionMismatch,
         "pool features do not match the model"),
        ((model, pool, pool.labels, [(0, 0.1, None)]), DimensionMismatch,
         "labels must be a matrix with one column per candidate"),
        ((model, pool, labels[:, 1:], [(0, 0.1, None)]), DimensionMismatch,
         "labels must be a matrix with one column per candidate"),
        ((model, pool, labels, [(0, 0.1, None), (2, 0.1, None)]), ConfigError,
         "row must be at most 1, got 2"),
        ((model, pool, labels, [(-1, 0.1, None)]), ConfigError, "row must be at least 0, got -1"),
        ((model, pool, labels, [(0, 0.1, narrow)]), DimensionMismatch,
         "regularizer direction does not match model width"),
        ((model, pool, labels, [(1, 0.1, steep)]), ConfigError,
         f"lambda=1000000.0 exceeds the online stability limit 2 / |w_reg|^2 = {limit:.6g}"),
    ):
        with pytest.raises(error, match=f"^{re.escape(problem)}$"):
            learner.run_lockstep(*args, rounds=10)


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
