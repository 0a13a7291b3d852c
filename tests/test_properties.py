"""Property tests: CSV and config round trips, the zero-copy column accessors,
and the algebraic invariants of the online steps and of Skew@k."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fairsim import (
    Baseline,
    FairRegularizer,
    GenConfig,
    LabeledPool,
    LinearModel,
    Normal,
    Pool,
    ProxyDist,
    Uniform,
    feature_matrix,
    load_labeled,
    load_pool,
    perceptron_update,
    protected_values,
    regularized_update,
    save_labeled,
    save_pool,
    skew_at_k,
)
from fairsim.datagen import gen_config_from_dict, gen_config_to_dict

FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def pools(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 4))
    features = draw(arrays(np.float64, (n, m), elements=FINITE))
    protected = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    return Pool(features=features, protected=protected)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(deadline=None, max_examples=60)
@given(pool=pools())
def test_pool_csv_roundtrip_is_bit_exact(tmp_path_factory, pool):
    path = tmp_path_factory.mktemp("pool") / "pool.csv"
    save_pool(pool, path)
    loaded = load_pool(path)
    assert _same_bits(loaded.features, pool.features)
    assert _same_bits(loaded.protected, pool.protected)


@settings(deadline=None, max_examples=60)
@given(pool=pools(), data=st.data())
def test_labeled_csv_roundtrip_is_bit_exact(tmp_path_factory, pool, data):
    flags = arrays(np.int64, len(pool), elements=st.integers(0, 1))
    labeled = LabeledPool(pool=pool, labels=data.draw(flags), bias_coin=data.draw(flags))
    path = tmp_path_factory.mktemp("labeled") / "labeled.csv"
    save_labeled(labeled, path)
    loaded = load_labeled(path)
    assert _same_bits(loaded.pool.features, pool.features)
    assert _same_bits(loaded.pool.protected, pool.protected)
    assert _same_bits(loaded.labels, labeled.labels)
    assert _same_bits(loaded.bias_coin, labeled.bias_coin)


@settings(deadline=None, max_examples=30)
@given(pool=pools())
def test_column_accessors_share_memory_and_are_read_only(pool):
    features, protected = feature_matrix(pool), protected_values(pool)
    assert np.shares_memory(features, pool.features)
    assert np.shares_memory(protected, pool.protected)
    assert not features.flags.writeable and not protected.flags.writeable


@st.composite
def gen_configs(draw):
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    std = st.floats(1e-6, 1e3, allow_nan=False)
    uniform = st.tuples(finite, finite).map(lambda b: Uniform(min(b), max(b)))
    normal = st.builds(Normal, finite, std)
    proxy = st.builds(ProxyDist, normal, normal)
    harmless = draw(st.lists(st.one_of(uniform, normal), max_size=3))
    proxies = draw(st.lists(proxy, min_size=0 if harmless else 1, max_size=3))
    return GenConfig(
        p_group=draw(st.floats(0.0, 1.0)),
        harmless_dists=tuple(harmless),
        proxy_dists=tuple(proxies),
        n=draw(st.integers(1, 10**6)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


@settings(deadline=None, max_examples=60)
@given(cfg=gen_configs())
def test_gen_config_dict_roundtrip(cfg):
    assert gen_config_from_dict(gen_config_to_dict(cfg)) == cfg


def _regularizer(w_a: np.ndarray, lam: float) -> FairRegularizer:
    m = w_a.size
    return FairRegularizer(w_a=w_a, sigma_x=np.eye(m), w_reg=w_a, lam=lam, alpha_a=0.0)


@st.composite
def update_inputs(draw, bound=1e100):
    m = draw(st.integers(1, 4))
    values = st.floats(-bound, bound, allow_nan=False)
    w = draw(arrays(np.float64, m + 1, elements=values))
    x = draw(arrays(np.float64, m, elements=values))
    w_a = draw(arrays(np.float64, m, elements=st.floats(-10.0, 10.0)))
    return LinearModel(w), x, w_a


@settings(deadline=None, max_examples=100)
@given(inputs=update_inputs(), y=st.integers(0, 1), eta=st.floats(0.0, 1e100))
def test_zero_lambda_step_is_the_perceptron_step(inputs, y, eta):
    model, x, w_a = inputs
    plain = perceptron_update(model, x, y, eta)
    penalized = regularized_update(model, x, y, eta, _regularizer(w_a, 0.0))
    assert _same_bits(penalized.weights, plain.weights)
    assert (penalized is model) == (plain is model)


@settings(deadline=None, max_examples=100)
@given(
    inputs=update_inputs(bound=1e3),
    strength=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
    eta=st.floats(0.0, 1.0),
)
def test_penalty_step_without_mistake_shrinks_alignment(inputs, strength, eta):
    model, x, w_a = inputs
    norm2 = float(w_a @ w_a)
    assume(norm2 > 1e-6)
    reg = _regularizer(w_a, strength / norm2)
    w, padded = model.weights, reg.padded_direction()
    y = 1 if float(w @ np.concatenate(([1.0], x))) >= 0.0 else 0
    after = regularized_update(model, x, y, eta, reg).weights
    rounding = 1e-12 * float(np.linalg.norm(w) * np.linalg.norm(padded))
    assert abs(float(after @ padded)) <= abs(float(w @ padded)) + rounding


@settings(deadline=None, max_examples=100)
@given(k=st.integers(1, 50), data=st.data())
def test_skew_is_zero_when_the_top_k_mirrors_the_qualified_share(k, data):
    ones = data.draw(st.integers(0, k))
    top = data.draw(st.permutations([1] * ones + [0] * (k - ones)))
    tail = data.draw(st.lists(st.integers(0, 1), max_size=20))
    share = ones / k
    baseline = Baseline(p_qualified={0: 1.0 - share, 1: share}, qualified_count=k)
    assert skew_at_k(np.array(top + tail), k, baseline) == 0.0
