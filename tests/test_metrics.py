import json
import math
import re

import numpy as np
import pytest

from fairsim import (
    Baseline,
    ConfigError,
    EmptyQualifiedPool,
    UserConfig,
    compute_baseline,
    evaluate_ranking,
    load_baseline,
    ndcs,
    precision_at_k,
    save_baseline,
    skew_at_k,
)
from fairsim.metrics import EPSILON_FLOOR

from _oracles import baseline_oracle, ndcs_oracle, precision_oracle, skew_oracle


def _ranking(flags):
    return np.array(flags, dtype=np.int64)


def test_skew_hand_value():
    ranking = _ranking([1] * 20 + [0] * 5)
    baseline = Baseline(p_qualified={0: 0.5, 1: 0.5}, qualified_count=100)
    assert skew_at_k(ranking, 25, baseline) == pytest.approx(math.log(1.6), abs=1e-12)


def test_skew_and_ndcs_match_oracle_on_random_rankings():
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = int(rng.integers(3, 60))
        flags = (rng.random(n) < rng.random()).astype(int)
        p_base = float(rng.random())
        ranking = _ranking(flags)
        baseline = Baseline(p_qualified={0: 1.0 - p_base, 1: p_base}, qualified_count=n)
        for k in (1, max(1, n // 2), n):
            got = skew_at_k(ranking, k, baseline)
            assert got == pytest.approx(skew_oracle(list(flags), k, p_base), abs=1e-12)
        got = ndcs(ranking, n, baseline)
        assert got == pytest.approx(ndcs_oracle(list(flags), n, p_base), abs=1e-12)


def test_skew_floor_behaviour():
    ranking = _ranking([0, 0, 0, 0])
    baseline = Baseline(p_qualified={0: 0.5, 1: 0.5}, qualified_count=10)
    assert skew_at_k(ranking, 4, baseline) == pytest.approx(
        math.log(EPSILON_FLOOR / 0.5), abs=1e-12
    )
    empty_base = Baseline(p_qualified={0: 1.0, 1: 0.0}, qualified_count=10)
    full = _ranking([1, 1])
    assert skew_at_k(full, 2, empty_base) == pytest.approx(
        math.log(1.0 / EPSILON_FLOOR), abs=1e-12
    )


def test_skew_for_group_zero():
    ranking = _ranking([0, 0, 0, 1])
    baseline = Baseline(p_qualified={0: 0.25, 1: 0.75}, qualified_count=8)
    assert skew_at_k(ranking, 4, baseline, group=0) == pytest.approx(
        math.log(0.75 / 0.25), abs=1e-12
    )


def test_k_range_errors():
    ranking = _ranking([1, 0])
    baseline = Baseline(p_qualified={0: 0.5, 1: 0.5}, qualified_count=2)
    # A group is a protected value: an integer 0 or 1, never a bool, float or string.
    for group, problem in (
        (True, "group must be an integer, got True"),
        (1.0, "group must be an integer, got 1.0"),
        ("1", "group must be an integer, got '1'"),
        (-1, "group must lie in [0, 1], got -1"),
        (2, "group must lie in [0, 1], got 2"),
    ):
        for call in (
            lambda: skew_at_k(ranking, 1, baseline, group=group),
            lambda: ndcs(ranking, 1, baseline, group=group),
        ):
            with pytest.raises(ConfigError, match=f"^{re.escape(problem)}$"):
                call()
    # Cutoffs parse as integers of at least 1; a bool or a float is neither.
    for call, problem in (
        (lambda: skew_at_k(ranking, True, baseline), "k must be an integer, got True"),
        (lambda: skew_at_k(ranking, 1.5, baseline), "k must be an integer, got 1.5"),
        (lambda: skew_at_k(ranking, 0, baseline), "k must be at least 1, got 0"),
        (lambda: precision_at_k([1, 0], True), "k must be an integer, got True"),
        (lambda: ndcs(ranking, 2.5, baseline), "k_max must be an integer, got 2.5"),
        (lambda: ndcs(ranking, 0, baseline), "k_max must be at least 1, got 0"),
        (lambda: precision_at_k([1, 0], 0), "k must be at least 1, got 0"),
        # A cutoff is also at most the ranking's length.
        (lambda: skew_at_k(ranking, 3, baseline), "k must be at most 2, got 3"),
        (lambda: ndcs(ranking, 3, baseline), "k_max must be at most 2, got 3"),
        (lambda: precision_at_k([1, 0], 3), "k must be at most 2, got 3"),
        (lambda: evaluate_ranking(ranking, [1, 0], baseline, k_list=[2.5], ndcs_k_max=2),
         "k must be an integer, got 2.5"),
    ):
        with pytest.raises(ConfigError, match=f"^{re.escape(problem)}$"):
            call()


def test_precision_hand_values():
    labels = [1, 0, 1, 1, 0]
    assert precision_at_k(labels, 1) == 1.0
    assert precision_at_k(labels, 4) == 0.75
    assert precision_at_k(labels, 5) == pytest.approx(precision_oracle(labels, 5))


def test_compute_baseline_matches_oracle(tiny_pool, fair_user):
    got = compute_baseline(tiny_pool, fair_user)
    want_p, want_count = baseline_oracle(tiny_pool, fair_user.weights)
    assert got.qualified_count == want_count
    assert got.p_qualified[0] == pytest.approx(want_p[0], abs=1e-15)
    assert got.p_qualified[1] == pytest.approx(want_p[1], abs=1e-15)
    assert got.p_qualified[0] + got.p_qualified[1] == pytest.approx(1.0, abs=1e-15)


def test_compute_baseline_ignores_bias_setting(tiny_pool):
    biased = UserConfig(p_bias=0.9, weights=(-0.48, 0.35, 0.28, 0.28), seed=1)
    fair = UserConfig(p_bias=0.0, weights=(-0.48, 0.35, 0.28, 0.28), seed=2)
    assert compute_baseline(tiny_pool, biased) == compute_baseline(tiny_pool, fair)


def test_compute_baseline_empty_qualified(tiny_pool):
    hopeless = UserConfig(p_bias=0.0, weights=(-100.0, 0.0, 0.0, 0.0), seed=0)
    with pytest.raises(EmptyQualifiedPool):
        compute_baseline(tiny_pool, hopeless)


def test_evaluate_ranking_is_consistent():
    flags = [1, 1, 0, 1, 0, 0, 1, 0]
    labels = [1, 0, 1, 1, 1, 0, 0, 0]
    ranking = _ranking(flags)
    baseline = Baseline(p_qualified={0: 0.6, 1: 0.4}, qualified_count=40)
    report = evaluate_ranking(ranking, labels, baseline, k_list=(2, 5), ndcs_k_max=8)
    assert set(report.skew_at) == {2, 5}
    for k in (2, 5):
        assert report.skew_at[k] == pytest.approx(skew_oracle(flags, k, 0.4), abs=1e-12)
        assert report.precision_at[k] == pytest.approx(precision_oracle(labels, k))
        assert report.counts_at[k] == sum(flags[:k])
    assert report.ndcs == pytest.approx(ndcs_oracle(flags, 8, 0.4), abs=1e-12)


def test_int8_columns_count_past_127():
    # Binary columns are stored as int8; their counts and sums must not wrap at 127.
    ones, wide = np.ones(300, dtype=np.int8), np.ones(300, dtype=np.int64)
    baseline = Baseline(p_qualified={0: 0.6, 1: 0.4}, qualified_count=500)
    ks = (1, 127, 128, 255, 256, 300)
    report = evaluate_ranking(ones, ones, baseline, ks, ndcs_k_max=300)
    assert report.counts_at == {k: k for k in ks}
    assert report.precision_at == {k: 1.0 for k in ks}
    assert precision_at_k(ones, 300) == 1.0
    wide_report = evaluate_ranking(wide, wide, baseline, ks, ndcs_k_max=300)
    for k in ks:
        assert report.skew_at[k].hex() == wide_report.skew_at[k].hex()
    assert report.ndcs.hex() == wide_report.ndcs.hex() == ndcs(ones, 300, baseline).hex()


def test_evaluate_ranking_length_mismatch():
    ranking = _ranking([1, 0])
    baseline = Baseline(p_qualified={0: 0.5, 1: 0.5}, qualified_count=2)
    with pytest.raises(ConfigError):
        evaluate_ranking(ranking, [1], baseline, k_list=(1,), ndcs_k_max=1)


def test_baseline_roundtrip(tmp_path, tiny_pool, fair_user):
    baseline = compute_baseline(tiny_pool, fair_user)
    path = tmp_path / "baseline.json"
    save_baseline(baseline, path)
    loaded = load_baseline(path)
    assert loaded == baseline
    assert set(loaded.p_qualified) == {0, 1}
    assert Baseline(p_qualified={0: 0.7, 1: 0.3}, qualified_count=np.int64(3)).qualified_count == 3
    for shares, count, problem in (
        ({0: 0.5, 1: 7.0}, 10, r"p_qualified\[1\] must lie in \[0, 1\], got 7\.0$"),
        ({0: 0.5, 1: 0.5}, -3, "qualified_count must be at least 1, got -3$"),
        ({0: 0.5, 1: 0.5}, 0, "qualified_count must be at least 1, got 0$"),
        ({0: 1.0}, 10, "baseline groups"),
        ({0: 0.5, 1: 0.5, 2: 0.0}, 10, "baseline groups"),
        ({0: 0.2, 1: 0.2}, 5, "sum to 1"),
        ({0: 0.5, 1: 0.5}, 2.5, "qualified_count"),
        ({0: 0.5, 1: 0.5}, True, "qualified_count"),
        ({0: 0.5, 1: 0.5}, np.float64(3.0), "qualified_count"),
        ({0: "0.5", 1: 0.5}, 10, r"p_qualified\[0\] must be a finite number"),
        ({0: 0.5, 1: float("nan")}, 10, r"p_qualified\[1\] must be a finite number"),
    ):
        with pytest.raises(ConfigError, match=problem):
            Baseline(p_qualified=shares, qualified_count=count)
        payload = {"p_qualified": {str(v): p for v, p in shares.items()}, "qualified_count": count}
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match=f"baseline.json: .*{problem}"):
            load_baseline(path)
    # Inputs only a file can hold: keys that are not decimal, shares that are not
    # an object, and text that is not JSON.
    for text, problem in (
        ('{"p_qualified": {"a": 0.5, "1": 0.5}, "qualified_count": 3}',
         "p_qualified key must be an integer, got 'a'"),
        ('{"p_qualified": {"-1": 0.5, "1": 0.5}, "qualified_count": 3}',
         "p_qualified key must be an integer, got '-1'"),
        ('{"p_qualified": [0.5, 0.5], "qualified_count": 3}',
         r"p_qualified must be a dict, got \[0.5, 0.5\]"),
        ('{"p_qualified": {"0": 0.5, "1": 0.5}, "qualified_count": 2.5}',
         "qualified_count must be an integer, got 2.5"),
        ('{"p_qualified": {"0": 0.5, ', r"Expecting property name .*\(char 27\)"),
        ("[1, 2]", "must hold a JSON object"),
    ):
        path.write_text(text)
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:? {problem}$"):
            load_baseline(path)
