import re

import numpy as np
import pytest

from fairsim import (
    ConfigError,
    DimensionMismatch,
    GenConfig,
    Normal,
    NumericalError,
    Pool,
    ProxyDist,
    Uniform,
    feature_matrix,
    generate_pool,
    load_pool,
    protected_values,
    save_pool,
)
from fairsim.datagen import config_to_dict, gen_config_from_dict

# Frozen draw for seed 2024, n=6: pins the generator stream order for good.
GOLDEN_PROTECTED = [0, 1, 1, 0, 0, 1]
GOLDEN_FEATURES = [
    [0.078725533761998978, 0.21707395578472788, 0.49506900399824072],
    [0.18082381369685463, 0.82812867028204429, 0.25691855789074503],
    [0.35964689168935093, 0.65586948836834413, 0.45836756932923545],
    [0.16961924970704834, 0.44738241403778689, 0.47233024099755772],
    [0.58875931553973015, 0.18482925920305174, 0.58590886043425017],
    [0.61680751382377808, 0.59763551169910167, 0.36965462866411769],
]


def test_golden_draw_is_stable():
    pool = generate_pool(GenConfig(n=6, seed=2024))
    assert list(protected_values(pool)) == GOLDEN_PROTECTED
    np.testing.assert_array_equal(feature_matrix(pool), np.array(GOLDEN_FEATURES))


def test_same_seed_same_pool():
    a = generate_pool(GenConfig(n=50, seed=9))
    b = generate_pool(GenConfig(n=50, seed=9))
    np.testing.assert_array_equal(feature_matrix(a), feature_matrix(b))
    np.testing.assert_array_equal(protected_values(a), protected_values(b))


def test_different_seeds_differ():
    a = generate_pool(GenConfig(n=50, seed=9))
    b = generate_pool(GenConfig(n=50, seed=10))
    assert not np.array_equal(feature_matrix(a), feature_matrix(b))


def test_default_pool_statistics():
    pool = generate_pool(GenConfig(seed=0))
    feats = feature_matrix(pool)
    attrs = protected_values(pool)
    assert len(pool) == 12000
    assert feats.shape == (12000, 3)
    assert abs(attrs.mean() - 0.5) < 0.02
    assert feats[:, 0].min() >= 0.0 and feats[:, 0].max() <= 1.0
    # the two proxies pull in opposite directions across the groups
    for col, hi_group in ((1, 1), (2, 0)):
        hi = feats[attrs == hi_group, col]
        lo = feats[attrs != hi_group, col]
        assert abs(hi.mean() - 0.65) < 0.01
        assert abs(lo.mean() - 0.35) < 0.01
        assert abs(hi.std() - 0.12) < 0.01
        assert abs(lo.std() - 0.12) < 0.01


def test_proxies_are_not_clipped():
    feats = feature_matrix(generate_pool(GenConfig(seed=0)))
    assert feats[:, 1].min() < 0.0
    assert feats[:, 2].min() < 0.0


def test_pool_columns_are_read_only():
    pool = generate_pool(GenConfig(n=3, seed=1))
    with pytest.raises(ValueError):
        pool.features[0, 0] = 99.0
    with pytest.raises(ValueError):
        pool.protected[0] = 1


def test_pool_keeps_owned_read_only_arrays_and_copies_views():
    features = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    protected = np.array([0, 1, 1], dtype=np.int8)
    features.setflags(write=False)
    protected.setflags(write=False)
    pool = Pool(features=features, protected=protected)
    assert np.shares_memory(pool.features, features) and pool.protected is protected
    # A read-only view of a writeable base could still change through the base.
    base = features.copy()
    view = base[:]
    view.setflags(write=False)
    pool = Pool(features=view, protected=protected)
    assert not np.shares_memory(pool.features, base) and not pool.features.flags.writeable
    # The generator's arrays are already owned and read-only, so the pool holds them.
    drawn = generate_pool(GenConfig(n=5, seed=1))
    assert drawn.features.base is None and drawn.protected.base is None


def test_pool_draw_holds_one_gather_beside_each_proxy_draw(traced):
    # Beyond the (n, m) features and one byte per protected value, drawing a proxy
    # column holds its standard normals and one per-group gather: two float columns.
    n = 100_000
    pool, kept, peak = traced(lambda: generate_pool(GenConfig(n=n, seed=5)))
    assert peak - kept <= 2.25 * 8 * n
    assert kept < pool.features.nbytes + n + 4096


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        GenConfig(p_group=1.5)
    with pytest.raises(ConfigError):
        GenConfig(n=0)
    with pytest.raises(ConfigError):
        Uniform(1.0, 0.0)
    for lo, hi in ((-np.inf, 0.0), (0.0, np.nan), (np.inf, np.inf)):
        with pytest.raises(ConfigError):
            Uniform(lo, hi)
    with pytest.raises(ConfigError):
        Normal(0.5, -0.1)
    for build, problem in (
        (lambda: GenConfig(n=12.5), "n must be an integer, got 12.5"),
        (lambda: GenConfig(seed=True), "seed must be an integer"),
        (lambda: ProxyDist(group0=Uniform(), group1=Normal(0.5, 0.1)), "group0 must be a Normal"),
        (lambda: GenConfig(proxy_dists=(Normal(0, 1),)), r"proxy_dists\[0\] must be a ProxyDist"),
        (lambda: GenConfig(harmless_dists=5), "harmless_dists must be a list"),
        (lambda: Normal(True, 1.0), "mean must be a finite number, got True"),
        (lambda: Uniform("0", 1.0), "lo must be a finite number"),
        (lambda: Pool(features=[[0.1], [0.2], [0.3]], protected=[0.7, 1.2, 7]),
         "protected must hold bools or integers, got float64 entries"),
        (lambda: Pool(features=[[0.1], [0.2], [0.3]], protected=[0, 1, 7]),
         r"protected\[2\] must be 0 or 1, got 7"),
        (lambda: Pool(features=[[0.1], [0.2]], protected=np.array([1, 2**63], dtype=np.uint64)),
         r"protected\[1\] must be 0 or 1, got 9223372036854775808"),
        (lambda: Pool(features=[["a"], ["b"]], protected=[0, 1]),
         "features must hold real numbers, got <U1 entries"),
        (lambda: Pool(features=[[True], [False]], protected=[0, 1]),
         "features must hold real numbers, got bool entries"),
        (lambda: Pool(features=[[0.1], [0.2, 0.3]], protected=[0, 1]),
         "features is not an array"),
    ):
        with pytest.raises(ConfigError, match=problem):
            build()
    with pytest.raises(ConfigError):
        GenConfig(p_group=0.5, harmless_dists=(), proxy_dists=(), n=10, seed=0)
    with pytest.raises(ConfigError, match="'N'"):
        gen_config_from_dict({"N": 10})
    with pytest.raises(ConfigError, match="JSON object"):
        gen_config_from_dict([1, 2])
    uniform = {"kind": "uniform", "lo": 0.0, "hi": 1.0, "mean": 0.5}
    with pytest.raises(ConfigError, match="'mean'"):
        gen_config_from_dict({"harmless_dists": [uniform]})
    normal = {"kind": "normal", "mean": 0.5, "std": 0.1}
    with pytest.raises(ConfigError, match="'group2'"):
        gen_config_from_dict({"proxy_dists": [{"group0": normal, "group2": normal}]})
    no_std = {"kind": "normal", "mean": 0.5}
    with pytest.raises(ConfigError, match=r"proxy_dists\[0\]\.group1\.std is missing"):
        gen_config_from_dict({"proxy_dists": [{"group0": normal, "group1": no_std}]})
    uniform = {"kind": "uniform", "lo": 0.0, "hi": 1.0}
    with pytest.raises(ConfigError, match=r"proxy_dists\[0\]\.group0: distribution kind 'uniform'"):
        gen_config_from_dict({"proxy_dists": [{"group0": uniform, "group1": normal}]})
    backwards = {"kind": "uniform", "lo": 1.0, "hi": 0.0}
    with pytest.raises(ConfigError, match=r"pool config\.harmless_dists\[0\]: uniform bounds"):
        gen_config_from_dict({"harmless_dists": [backwards]})
    with pytest.raises(ConfigError, match=r"pool config\.n must be an integer"):
        gen_config_from_dict({"n": 12.5})


def test_categorical_config_is_rejected():
    categorical = {"kind": "categorical", "probs": [0.5, 0.5]}
    with pytest.raises(ConfigError, match="categorical"):
        gen_config_from_dict({"harmless_dists": [categorical]})


def test_pool_roundtrip_is_bitwise(tmp_path, tiny_pool):
    path = tmp_path / "pool.csv"
    save_pool(tiny_pool, path)
    loaded = load_pool(path)
    np.testing.assert_array_equal(feature_matrix(loaded), feature_matrix(tiny_pool))
    np.testing.assert_array_equal(protected_values(loaded), protected_values(tiny_pool))


def test_load_pool_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError):
        load_pool(path)


def test_config_dict_roundtrip():
    cfg = GenConfig(p_group=0.25, n=77, seed=5)
    again = gen_config_from_dict(config_to_dict(cfg))
    assert again == cfg


def test_empty_pool_helpers_raise(tmp_path):
    with pytest.raises(ConfigError):
        Pool(features=np.empty((0, 3)), protected=np.empty(0, dtype=np.int64))
    header_only = tmp_path / "empty.csv"
    header_only.write_text("x1,x2,x3,protected\n")
    with pytest.raises(ConfigError, match=r"empty\.csv: pool is empty$"):
        load_pool(header_only)


def test_pool_rejects_columns_of_other_lengths():
    problem = "features (3, 2) and protected (2,) are not (n, m) and (n,)"
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(problem)}$"):
        Pool(features=np.ones((3, 2)), protected=[0, 1])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_pool_rejects_non_finite_features(value):
    with pytest.raises(NumericalError, match=rf"^features\[1, 0\] must be finite, got {value}$"):
        Pool(features=[[0.5], [value]], protected=[0, 1])


def test_generated_overflow_is_rejected():
    # Every bound is finite, but mean + std * z overflows to inf for z > 0.1.
    huge = Normal(1.7e308, 1e308)
    cfg = GenConfig(harmless_dists=(huge,), n=10, seed=1)
    with pytest.raises(NumericalError, match=r"^features\[1, 0\] must be finite, got inf$"):
        generate_pool(cfg)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_pool_rejects_non_finite_feature(tmp_path, tiny_pool, rewrite_cell, value):
    path = tmp_path / "pool.csv"
    save_pool(tiny_pool, path)
    rewrite_cell(path, 4, 1, value)
    with pytest.raises(NumericalError,
                       match=rf"pool\.csv: features\[3, 1\] must be finite, got {value}$"):
        load_pool(path)


@pytest.mark.parametrize("column, value", [(0, "abc"), (-1, "1.0")])
def test_load_pool_rejects_unparsable_cell(tmp_path, tiny_pool, rewrite_cell, column, value):
    path = tmp_path / "pool.csv"
    save_pool(tiny_pool, path)
    rewrite_cell(path, 3, column, value)
    with pytest.raises(ConfigError, match=rf"pool\.csv: data row 3: .*'{value}'"):
        load_pool(path)


def test_load_pool_rejects_an_int_cell_past_64_bits(tmp_path, tiny_pool, rewrite_cell):
    path = tmp_path / "pool.csv"
    save_pool(tiny_pool, path)
    rewrite_cell(path, 6, -1, "99999999999999999999")
    with pytest.raises(ConfigError, match=r"pool\.csv: data row 6: "):
        load_pool(path)


def test_load_pool_rejects_an_int_cell_outside_int8(tmp_path, tiny_pool, rewrite_cell):
    # Integer cells are buffered as int8, the records' own dtype, so 300 fails to parse.
    path = tmp_path / "pool.csv"
    save_pool(tiny_pool, path)
    rewrite_cell(path, 6, -1, "300")
    with pytest.raises(ConfigError, match=r"pool\.csv: data row 6: "):
        load_pool(path)


def test_load_pool_rejects_a_row_missing_a_cell(tmp_path, tiny_pool):
    path = tmp_path / "pool.csv"
    save_pool(tiny_pool, path)
    lines = path.read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=r"pool\.csv: data row 5 has 3 fields, expected 4$"):
        load_pool(path)


def test_load_pool_rejects_protected_outside_zero_one(tmp_path, tiny_pool, rewrite_cell):
    path = tmp_path / "pool.csv"
    save_pool(tiny_pool, path)
    rewrite_cell(path, 7, -1, "7")
    with pytest.raises(ConfigError, match=r"pool\.csv: protected\[6\] must be 0 or 1, got 7$"):
        load_pool(path)


def test_uniform_rejects_a_span_that_overflows():
    # Both bounds are finite, but hi - lo is not, and numpy's draw needs it.
    with pytest.raises(ConfigError, match=r"finite span hi - lo, got \[-1e\+308, 1e\+308\]"):
        Uniform(-1e308, 1e308)
    with pytest.raises(ConfigError, match="finite span"):
        gen_config_from_dict({"harmless_dists": [{"kind": "uniform", "lo": -1e308, "hi": 1e308}]})
    widest = GenConfig(harmless_dists=(Uniform(-1e308, 7e307),), proxy_dists=(), n=5)
    assert np.isfinite(generate_pool(widest).features).all()
