"""Property tests: CSV and config round trips, the zero-copy column accessors,
the exact ranking order, the online step's expressions pinned bit for bit, and
the algebraic invariants of the online steps and of Skew@k."""

import json
from unittest import mock

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
    rank_by_model,
    regularized_update,
    save_labeled,
    save_pool,
    score_all,
    skew_at_k,
)
from fairsim.datagen import config_to_dict, gen_config_from_dict
from fairsim.learner import _perceptron_step
from fairsim.usermodel import linear_scores

from _oracles import (
    perceptron_step_expression,
    rank_expression,
    regularized_step_expression,
    scores_expression,
)

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
    # Records take numpy integers and lists too, and store them as int and tuple.
    sequence = st.sampled_from([tuple, list])
    n = draw(st.integers(1, 10**6))
    seed = draw(st.integers(0, 2**64 - 1))
    return GenConfig(
        p_group=draw(st.floats(0.0, 1.0)),
        harmless_dists=draw(sequence)(harmless),
        proxy_dists=draw(sequence)(proxies),
        n=draw(st.sampled_from([int, np.int64]))(n),
        seed=draw(st.sampled_from([int, np.uint64]))(seed),
    )


@settings(deadline=None, max_examples=60)
@given(cfg=gen_configs())
def test_gen_config_dict_roundtrip(cfg):
    assert gen_config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


@st.composite
def ranking_inputs(draw):
    """A model and features whose scores often tie: repeated rows, coarse values,
    the zero model. Above 1 000 rows the rows are random normals, so a pool
    without repeats has distinct scores and takes the unstable-sort path."""
    n = draw(st.one_of(st.integers(1, 30), st.integers(1001, 3000)))
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = draw(st.integers(1, n))
    rows = rng.normal(size=(distinct, m))
    if draw(st.booleans()):
        rows = rows.round(1)
    features = rows if distinct == n else rows[rng.integers(0, distinct, n)]
    weights = draw(st.one_of(
        st.just(np.zeros(m + 1)),
        arrays(np.float64, m + 1, elements=st.floats(-2.0, 2.0)),
        arrays(np.float64, m + 1, elements=st.floats(-1e300, 1e300)),
    ))
    return LinearModel(weights), features


@settings(deadline=None, max_examples=80)
@given(inputs=ranking_inputs())
def test_rank_by_model_is_the_stable_order(inputs):
    model, features = inputs
    want = np.argsort(-score_all(model, features), kind="stable")
    assert _same_bits(rank_by_model(model, features), want)


@settings(deadline=None, max_examples=80)
@given(
    values=st.lists(st.sampled_from([0.0, -0.0, 1.0, np.nan, np.inf, -np.inf]) | FINITE,
                    min_size=1, max_size=8),
    n=st.integers(1, 2000),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_by_model_orders_signed_zeros_and_nan_stably(values, n, seed):
    # Scores are drawn directly: whether a matrix product can return -0.0
    # depends on the BLAS, so score_all cannot be relied on to produce it.
    scores = np.array(values)[np.random.default_rng(seed).integers(0, len(values), n)]
    with mock.patch("fairsim.learner.score_all", lambda model, features: scores.copy()):
        got = rank_by_model(LinearModel(np.zeros(2)), np.zeros((n, 1)))
    assert _same_bits(got, np.argsort(-scores, kind="stable"))


# Bounded so that no product or sum overflows; signed zeros are drawn often.
SIGNED_ZERO = st.sampled_from([0.0, -0.0])
BOUNDED = st.floats(-1e100, 1e100, allow_nan=False) | SIGNED_ZERO


@st.composite
def step_inputs(draw):
    """Weights (m + 1,), features (n, m) with some rows all ±0.0, and a 0/1 label per row.

    Half the draws are standard normals: on values of one scale, a product
    summed in another order rounds differently, which drawn extremes rarely show.
    """
    n = draw(st.integers(1, 64))
    m = draw(st.integers(1, 4))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        w, features = rng.normal(size=m + 1), rng.normal(size=(n, m))
    else:
        w = draw(arrays(np.float64, m + 1, elements=BOUNDED))
        features = draw(arrays(np.float64, (n, m), elements=BOUNDED))
    zero_rows = draw(arrays(np.bool_, n))
    features[zero_rows] = draw(arrays(np.float64, (int(zero_rows.sum()), m), elements=SIGNED_ZERO))
    labels = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    return w, features, labels


@settings(deadline=None, max_examples=150)
@given(inputs=step_inputs())
def test_scores_are_the_intercept_sum_expression_bit_for_bit(inputs):
    w, features, _ = inputs
    want = scores_expression(features, w)
    assert _same_bits(linear_scores(features, w), want)
    assert _same_bits(score_all(LinearModel(w), features), want)


@settings(deadline=None, max_examples=150)
@given(inputs=step_inputs(), eta=st.floats(0.0, 1e100) | SIGNED_ZERO)
def test_perceptron_step_is_the_concatenate_expression_bit_for_bit(inputs, eta):
    w, features, labels = inputs
    w.setflags(write=False)
    for x, y in zip(features, labels.tolist()):
        want = perceptron_step_expression(w, x, y, eta)
        got = _perceptron_step(w, x, y, eta)
        assert (got is w) == (want is w)
        assert _same_bits(got, want)


@settings(deadline=None, max_examples=150)
@given(
    inputs=step_inputs(),
    eta=st.floats(0.0, 1e100) | SIGNED_ZERO,
    lam=st.floats(0.0, 10.0) | SIGNED_ZERO | st.integers(0, 2**32 - 1).map(
        lambda seed: float(np.random.default_rng(seed).uniform(0.0, 10.0))),
    data=st.data(),
)
def test_regularized_update_is_the_fresh_padding_expression_bit_for_bit(inputs, eta, lam, data):
    w, features, labels = inputs
    m = w.size - 1
    w_a = data.draw(arrays(np.float64, m, elements=st.floats(-10.0, 10.0) | SIGNED_ZERO)
                    | st.integers(0, 2**32 - 1).map(
                        lambda seed: np.random.default_rng(seed).uniform(-10.0, 10.0, m)))
    reg = _regularizer(w_a, lam)
    padded = reg.padded_direction()
    assert not padded.flags.writeable
    assert _same_bits(padded, np.concatenate(([0.0], reg.w_reg)))
    assert reg.padded_direction() is padded
    model = LinearModel(w)
    for x, y in zip(features, labels.tolist()):
        want = regularized_step_expression(model.weights, x, y, eta, reg.w_reg, lam)
        got = regularized_update(model, x, y, eta, reg)
        assert (got is model) == (want is model.weights)
        assert _same_bits(got.weights, want)


@settings(deadline=None, max_examples=150)
@given(inputs=step_inputs())
def test_rank_by_model_is_the_negated_scores_expression_bit_for_bit(inputs):
    w, features, _ = inputs
    model = LinearModel(w)
    assert _same_bits(rank_by_model(model, features), rank_expression(score_all(model, features)))


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
