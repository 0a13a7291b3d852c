import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from fairsim import (
    DEFAULT_USER_WEIGHTS,
    ConfigError,
    DimensionMismatch,
    GenConfig,
    LabeledPool,
    NumericalError,
    Pool,
    UserConfig,
    compute_baseline,
    feature_matrix,
    fit_auxiliary,
    generate_pool,
    label_pool,
    load_labeled,
    load_pool,
    protected_values,
    save_labeled,
    save_pool,
    score_all,
)

from _oracles import fair_scores_oracle


def test_default_weights_value():
    assert DEFAULT_USER_WEIGHTS == (-0.48, 0.35, 0.28, 0.28)
    assert UserConfig(0.3) == UserConfig(0.3, DEFAULT_USER_WEIGHTS, seed=0)


def test_score_all_matches_scalar_arithmetic(tiny_pool):
    feats = feature_matrix(tiny_pool)
    got = score_all(DEFAULT_USER_WEIGHTS, feats)
    want = fair_scores_oracle(tiny_pool, DEFAULT_USER_WEIGHTS)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_score_all_dimension_mismatch(tiny_pool):
    feats = feature_matrix(tiny_pool)
    with pytest.raises(DimensionMismatch):
        score_all((0.0, 1.0), feats)


def test_zero_bias_labels_follow_fair_rule(tiny_pool, fair_user):
    labeled = label_pool(tiny_pool, fair_user)
    want = [1 if s >= 0.0 else 0 for s in fair_scores_oracle(tiny_pool, fair_user.weights)]
    assert list(labeled.labels) == want
    assert not labeled.bias_coin.any()
    # No coin falls at p_bias 0, so the fair user needs no seed: any two give the same bytes.
    other = label_pool(tiny_pool, UserConfig(0.0, fair_user.weights, seed=fair_user.seed + 1))
    for a, b in ((labeled.labels, other.labels), (labeled.bias_coin, other.bias_coin)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert not other.bias_coin.any()


def test_full_bias_labels_copy_protected(tiny_pool):
    labeled = label_pool(tiny_pool, UserConfig(1.0, seed=3))
    np.testing.assert_array_equal(labeled.labels, protected_values(tiny_pool))
    assert labeled.bias_coin.all()


def test_mixed_labels_split_by_coin(tiny_pool):
    user = UserConfig(0.5, seed=11)
    labeled = label_pool(tiny_pool, user)
    fair = np.array(
        [1 if s >= 0.0 else 0 for s in fair_scores_oracle(tiny_pool, user.weights)]
    )
    attrs = protected_values(tiny_pool)
    coin = labeled.bias_coin.astype(bool)
    np.testing.assert_array_equal(labeled.labels[coin], attrs[coin])
    np.testing.assert_array_equal(labeled.labels[~coin], fair[~coin])
    assert coin.any() and not coin.all()


def test_same_user_seed_reproduces_labels(tiny_pool):
    a = label_pool(tiny_pool, UserConfig(0.5, seed=21))
    b = label_pool(tiny_pool, UserConfig(0.5, seed=21))
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.bias_coin, b.bias_coin)


def test_bias_coins_nest_as_p_bias_grows(tiny_pool):
    # same seed, higher p_bias: every point biased at 0.3 stays biased at 0.7
    low = label_pool(tiny_pool, UserConfig(0.3, seed=4)).bias_coin.astype(bool)
    high = label_pool(tiny_pool, UserConfig(0.7, seed=4)).bias_coin.astype(bool)
    assert (high[low]).all()
    assert high.sum() > low.sum()


def test_user_config_validation():
    with pytest.raises(ConfigError):
        UserConfig(-0.1)
    with pytest.raises(ConfigError):
        UserConfig(1.1)
    with pytest.raises(ConfigError):
        UserConfig(p_bias=0.5, weights=(), seed=0)
    for overrides, problem in (
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"weights": (0.1, float("nan"))}, r"weights\[1\] must be a finite number"),
        ({"p_bias": "0.5"}, "p_bias must be a finite number"),
    ):
        with pytest.raises(ConfigError, match=problem):
            UserConfig(**{"p_bias": 0.5, "weights": (0.1, 0.2), "seed": 0, **overrides})
    user = UserConfig(p_bias=0.5, weights=[0.1, 0.2], seed=np.uint64(3))
    assert user == UserConfig(p_bias=0.5, weights=(0.1, 0.2), seed=3)


def test_labels_and_coins_take_one_byte_per_candidate(traced):
    n = 100_000
    pool = generate_pool(GenConfig(n=n, seed=5))
    _, kept, _ = traced(lambda: label_pool(pool, UserConfig(0.4, seed=2)))
    assert kept < 2.05 * n


def test_load_labeled_holds_no_object_per_cell(tmp_path, traced):
    # Six cells a row, three floats and three int8 flags: one owned feature array, which
    # the record keeps, and an int8 flag buffer peak at about 37 bytes a row here. A
    # feature buffer the record had to copy peaked at about 57, flags buffered as int64
    # at about 78, and a Python list per row with a float object per cell at about 7 MB.
    n = 20_000
    path = tmp_path / "labeled.csv"
    save_labeled(label_pool(generate_pool(GenConfig(n=n, seed=5)), UserConfig(0.5, seed=2)), path)
    _, _, peak = traced(lambda: load_labeled(path))
    assert peak < 48 * n


def test_labeled_pool_length_mismatch(tiny_pool):
    with pytest.raises(DimensionMismatch):
        LabeledPool(
            tiny_pool.features,
            tiny_pool.protected,
            labels=np.zeros(3, dtype=np.int64),
            bias_coin=np.zeros(3, dtype=np.int64),
        )
    two = Pool(features=[[0.1], [0.2]], protected=[0, 1])
    for labels, bias_coin, problem in (
        ([0.5, 2.7], [3, -1], "^labels must hold bools or integers, got float64 entries$"),
        ([0, 1], [3, -1], r"^bias_coin\[0\] must be 0 or 1, got 3$"),
        ([1, -1], [0, 0], r"^labels\[1\] must be 0 or 1, got -1$"),
        ([0, 1], ["0", "1"], "^bias_coin must hold bools or integers, got <U1 entries$"),
    ):
        with pytest.raises(ConfigError, match=problem):
            LabeledPool(two.features, two.protected, labels, bias_coin)
    labeled = LabeledPool(two.features, two.protected, [True, False], np.array([0, 1], np.uint8))
    assert labeled.labels.dtype == labeled.bias_coin.dtype == np.int8
    with pytest.raises(ValueError):
        labeled.labels[0] = 0
    with pytest.raises(FrozenInstanceError):
        labeled.labels = np.zeros(2, dtype=np.int64)


def test_labeled_roundtrip_is_bitwise(tmp_path, tiny_labeled):
    path = tmp_path / "labeled.csv"
    save_labeled(tiny_labeled, path)
    loaded = load_labeled(path)
    np.testing.assert_array_equal(feature_matrix(loaded), feature_matrix(tiny_labeled))
    np.testing.assert_array_equal(loaded.labels, tiny_labeled.labels)
    np.testing.assert_array_equal(loaded.bias_coin, tiny_labeled.bias_coin)


def test_a_labeled_pool_reads_as_its_pool(tmp_path, tiny_pool, tiny_labeled):
    # label_pool keeps the pool's own read-only columns rather than copies.
    assert np.shares_memory(tiny_labeled.features, tiny_pool.features)
    assert np.shares_memory(tiny_labeled.protected, tiny_pool.protected)
    plain = Pool(tiny_labeled.features, tiny_labeled.protected)
    got, want = fit_auxiliary(tiny_labeled), fit_auxiliary(plain)
    for name in ("w_a", "sigma_x", "w_reg"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    fair = UserConfig(0.0)
    assert compute_baseline(tiny_labeled, fair) == compute_baseline(plain, fair)
    save_pool(tiny_labeled, tmp_path / "labeled.csv")
    save_pool(plain, tmp_path / "plain.csv")
    assert (tmp_path / "labeled.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    loaded = load_pool(tmp_path / "labeled.csv")
    assert type(loaded) is Pool
    np.testing.assert_array_equal(loaded.features, plain.features)
    np.testing.assert_array_equal(loaded.protected, plain.protected)


@pytest.mark.parametrize(
    "column, value, error, problem",
    [
        pytest.param(0, "nan", NumericalError, "features[4, 0] must be finite, got nan",
                     id="0-nan-x1 = nan is not finite"),
        pytest.param(-3, "7", ConfigError, "protected[4] must be 0 or 1, got 7",
                     id="-3-7-protected = 7 is not 0 or 1"),
        pytest.param(-2, "3", ConfigError, "labels[4] must be 0 or 1, got 3",
                     id="-2-3-label = 3 is not 0 or 1"),
        pytest.param(-1, "9", ConfigError, "bias_coin[4] must be 0 or 1, got 9",
                     id="-1-9-bias_coin = 9 is not 0 or 1"),
    ],
)
def test_load_labeled_rejects_bad_values(tmp_path, tiny_labeled, rewrite_cell, column, value,
                                         error, problem):
    path = tmp_path / "labeled.csv"
    save_labeled(tiny_labeled, path)
    rewrite_cell(path, 5, column, value)
    with pytest.raises(error, match=rf"labeled\.csv: {re.escape(problem)}$"):
        load_labeled(path)


def test_load_labeled_rejects_pool_csv(tmp_path, tiny_pool):
    from fairsim import save_pool

    path = tmp_path / "pool.csv"
    save_pool(tiny_pool, path)
    with pytest.raises(ConfigError):
        load_labeled(path)
