"""Property tests: CSV and config round trips, the zero-copy column accessors,
the array type rules, the bounded scalar annotations, the exact ranking order,
the pool build's and online step's expressions pinned bit for bit, the lock-step
update pinned row by row to the one-cell steps, the algebraic invariants of the
online steps, of Skew@k and NDCS, of the regularizer's fit and of the warm
start's scale, the online loop (with and without a forced shortlist) and
re-ranked reports against naive references on tie-heavy pools, each study's
metrics.csv rows against a reference built from those oracles (cell by cell and
in lock-step), and each study's refusal of a seed whose warm model or penalty
direction stays zero."""

import json
import re
import sys
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from fairsim import (
    Baseline,
    ConfigError,
    EmptyQualifiedPool,
    ExperimentConfig,
    FairsimError,
    FairRegularizer,
    GenConfig,
    LabeledPool,
    LinearModel,
    Normal,
    NumericalError,
    Pool,
    ProxyDist,
    Uniform,
    UserConfig,
    compute_baseline,
    derive_seed,
    feature_matrix,
    fit_auxiliary,
    generate_pool,
    label_pool,
    load_labeled,
    load_pool,
    ndcs,
    perceptron_update,
    protected_values,
    rank_by_model,
    regularized_update,
    run_evolution,
    run_final_eval,
    run_online,
    run_reg_sweep,
    save_labeled,
    save_pool,
    score_all,
    skew_at_k,
    warm_start,
)
from fairsim import learner
from fairsim.datagen import (
    BOUNDS, BinaryArray, Count, FloatArray, Group, Rate, Seed, Share, Size, _parse, config_to_dict,
    gen_config_from_dict,
)
from fairsim.experiments import (
    CSV_FIELDS,
    STREAM_FAIR_POOL,
    STREAM_ONLINE_POOL,
    STREAM_ONLINE_USER,
    STREAM_WARM,
    _ranked_report,
    results_to_rows,
)

from _oracles import (
    generate_pool_expression,
    greedy_online_oracle,
    ndcs_oracle,
    perceptron_step_expression,
    precision_oracle,
    rank_expression,
    regularized_step_expression,
    scores_expression,
    skew_oracle,
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
    labeled = LabeledPool(pool.features, pool.protected, data.draw(flags), data.draw(flags))
    path = tmp_path_factory.mktemp("labeled") / "labeled.csv"
    save_labeled(labeled, path)
    loaded = load_labeled(path)
    assert _same_bits(loaded.features, pool.features)
    assert _same_bits(loaded.protected, pool.protected)
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
def raw_arrays(draw):
    """Arrays of every dtype the array rules meet, 0-d to 2-d, empty ones included.
    Integer arrays often hold only 0 and 1, or values next to them; float arrays
    often hold NaN or inf."""
    dtype = np.dtype(draw(st.sampled_from(
        [np.float64, np.float32, np.int64, np.uint64, np.int8, np.bool_])))
    shape = draw(array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5))
    near = [st.integers(0, 1), st.integers(-(dtype.kind == "i"), 2)] if dtype.kind in "iu" else []
    return draw(arrays(dtype, shape, elements=draw(st.sampled_from([None, *near]))))


@settings(deadline=None, max_examples=300)
@given(raw=raw_arrays(), binary=st.booleans())
def test_array_rules_keep_read_only_copies_and_reject_bad_entries(raw, binary):
    before = raw.copy()
    parse = partial(_parse, BinaryArray if binary else FloatArray, raw, "column")
    if binary and (raw.dtype.kind == "f" or not np.isin(raw, (0, 1)).all()):
        with pytest.raises(ConfigError, match="^column"):
            parse()
    elif not binary and raw.dtype.kind == "b":
        with pytest.raises(ConfigError, match="^column must hold real numbers"):
            parse()
    elif not binary and not np.isfinite(raw.astype(np.float64)).all():
        with pytest.raises(NumericalError, match="^column.* must be finite"):
            parse()
    else:
        got = parse()
        assert got.dtype == (np.int8 if binary else np.float64) and got.shape == raw.shape
        np.testing.assert_array_equal(got, raw)
        assert not got.flags.writeable and not np.shares_memory(got, raw)
    assert raw.flags.writeable and _same_bits(raw, before)


# Per bounded annotation: base type, inclusive endpoints (None: unbounded) and how the bound reads.
BOUND_RULES = {
    Seed: (int, 0, 2**64 - 1, "lie in [0, 18446744073709551615]"),
    Count: (int, 0, None, "be at least 0"),
    Size: (int, 1, None, "be at least 1"),
    Share: (float, 0.0, 1.0, "lie in [0, 1]"),
    Rate: (float, 0.0, None, "be at least 0"),
    Group: (int, 0, 1, "lie in [0, 1]"),
}


@settings(deadline=None, max_examples=200)
@given(annotation=st.sampled_from(list(BOUND_RULES)), path=st.sampled_from(["n", "gen.seeds[2]"]),
       data=st.data())
def test_bounded_annotations_parse_their_range_and_name_the_path(annotation, path, data):
    assert set(BOUND_RULES) == set(BOUNDS)
    base, low, high, bound = BOUND_RULES[annotation]
    top = high if high is not None else 2**64 - 1 if base is int else sys.float_info.max
    numbers = st.integers(low, top) if base is int else st.floats(low, top)
    value = data.draw(st.sampled_from([low, top]) | numbers)
    scalar = data.draw(st.sampled_from([int, np.uint64] if base is int else [float, np.float64]))
    got = _parse(annotation, scalar(value), path)
    assert type(got) is base and got == value
    below = low - 1 if base is int else np.nextafter(low, -np.inf)
    above = [] if high is None else [high + 1 if base is int else np.nextafter(high, np.inf)]
    for bad in [below, *above]:
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{path} must {bound}, got {bad}')}$"):
            _parse(annotation, bad, path)
    # A float for an integer kind, bools and non-finite values fail on the base type.
    wrong = [True, False, np.nan, np.inf, -np.inf] + ([float(value)] if base is int else [])
    base_error = f"^{re.escape(path)} must be (an integer|a finite number), got "
    for bad in wrong:
        with pytest.raises(ConfigError, match=base_error):
            _parse(annotation, bad, path)


@st.composite
def gen_configs(draw, sizes=st.integers(1, 10**6), shares=st.floats(0.0, 1.0)):
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    std = st.floats(1e-6, 1e3, allow_nan=False)
    uniform = st.tuples(finite, finite).map(lambda b: Uniform(min(b), max(b)))
    normal = st.builds(Normal, finite, std)
    proxy = st.builds(ProxyDist, normal, normal)
    harmless = draw(st.lists(st.one_of(uniform, normal), max_size=3))
    proxies = draw(st.lists(proxy, min_size=0 if harmless else 1, max_size=3))
    # Records take numpy integers and lists too, and store them as int and tuple.
    sequence = st.sampled_from([tuple, list])
    n = draw(sizes)
    seed = draw(st.integers(0, 2**64 - 1))
    return GenConfig(
        p_group=draw(shares),
        harmless_dists=draw(sequence)(harmless),
        proxy_dists=draw(sequence)(proxies),
        n=draw(st.sampled_from([int, np.int64]))(n),
        seed=draw(st.sampled_from([int, np.uint64]))(seed),
    )


@settings(deadline=None, max_examples=60)
@given(cfg=gen_configs())
def test_gen_config_dict_roundtrip(cfg):
    assert gen_config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


@settings(deadline=None, max_examples=100)
@given(cfg=gen_configs(st.integers(1, 300), st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)))
def test_generate_pool_is_the_column_stack_expression_bit_for_bit(cfg):
    features, protected = generate_pool_expression(cfg)
    pool = generate_pool(cfg)
    assert _same_bits(pool.features, features)
    assert _same_bits(pool.protected, protected)


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
    want = np.argsort(-score_all(model.weights, features), kind="stable")
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
    with mock.patch("fairsim.learner.score_all", lambda weights, features: scores.copy()):
        got = rank_by_model(LinearModel(np.zeros(2)), np.zeros((n, 1)))
    assert _same_bits(got, np.argsort(-scores, kind="stable"))


@settings(deadline=None, max_examples=80)
@given(
    values=st.lists(st.sampled_from([0.0, -0.0, 1.0, np.nan, np.inf, -np.inf]) | FINITE,
                    min_size=1, max_size=8),
    n=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
    distinct=st.booleans(),
)
def test_rank_by_model_top_is_the_stable_prefix_of_a_permutation(values, n, seed, distinct):
    # Tie-heavy scores drawn from a few values, or distinct normals for the unstable head sort.
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=n) if distinct else np.array(values)[rng.integers(0, len(values), n)]
    want = np.argsort(-scores, kind="stable")
    with mock.patch("fairsim.learner.score_all", lambda weights, features: scores.copy()):
        for top in range(1, n + 2):
            got = rank_by_model(LinearModel(np.zeros(2)), np.zeros((n, 1)), top=top)
            assert _same_bits(got[:top], want[:top])
            assert _same_bits(np.sort(got), np.arange(n))


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
    assert _same_bits(score_all(w, features), want)
    assert _same_bits(score_all(tuple(w), features), want)


@settings(deadline=None, max_examples=150)
@given(inputs=step_inputs(), eta=st.floats(0.0, 1e100) | SIGNED_ZERO)
def test_perceptron_step_is_the_concatenate_expression_bit_for_bit(inputs, eta):
    w, features, labels = inputs
    w.setflags(write=False)
    for x, y in zip(features, labels.tolist()):
        want = perceptron_step_expression(w, x, y, eta)
        got = perceptron_update(w, x, y, eta)
        # The step returns w itself exactly when the oracle does.
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
    padded = reg.padded_direction
    assert not padded.flags.writeable
    assert _same_bits(padded, np.concatenate(([0.0], reg.w_reg)))
    assert reg.padded_direction is padded
    w.setflags(write=False)
    for x, y in zip(features, labels.tolist()):
        want = regularized_step_expression(w, x, y, eta, reg.w_reg, lam)
        got = regularized_update(w, x, y, eta, reg)
        # The step returns w itself exactly when the oracle does.
        assert (got is w) == (want is w)
        assert _same_bits(got, want)


@st.composite
def lockstep_updates(draw):
    """Weights (cells, m + 1) with some entries ±0.0, one row (1, x) and label per cell,
    a step size and a regularizer (or None) per cell with lambda from 0 up to the
    stability bound 2 / |w_reg|^2, and some cells whose prediction is already right."""
    cells, m = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        w, x = rng.normal(size=(cells, m + 1)), rng.normal(size=(cells, m))
    else:
        w = draw(arrays(np.float64, (cells, m + 1), elements=BOUNDED))
        x = draw(arrays(np.float64, (cells, m), elements=BOUNDED))
    zeros = draw(arrays(np.bool_, w.shape))
    w[zeros] = draw(arrays(np.float64, int(zeros.sum()), elements=SIGNED_ZERO))
    y = draw(arrays(np.int64, cells, elements=st.integers(0, 1)))
    right = draw(arrays(np.bool_, cells))  # these rows get the label the weights predict
    predicted = np.array([wc.dot(np.concatenate(([1.0], xc))) >= 0.0 for wc, xc in zip(w, x)])
    y[right] = predicted[right]
    etas = draw(arrays(np.float64, cells, elements=st.floats(0.0, 1e100) | SIGNED_ZERO))
    regs = []
    for _ in range(cells):
        if draw(st.booleans()):
            regs.append(None)
            continue
        w_a = draw(arrays(np.float64, m, elements=st.floats(-10.0, 10.0) | SIGNED_ZERO))
        norm2 = float(w_a @ w_a)
        lam = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)) * (
            2.0 / norm2 if norm2 else 1.0)
        while lam * norm2 > 2.0:
            lam = float(np.nextafter(lam, 0.0))
        regs.append(_regularizer(w_a, lam))
    return w, x, y, etas, regs


@settings(deadline=None, max_examples=150)
@given(inputs=lockstep_updates())
def test_lockstep_step_moves_each_row_as_its_one_cell_step_bit_for_bit(inputs):
    w, x, y, etas, regs = inputs
    m = x.shape[1]
    lams = np.array([0.0 if reg is None else reg.lam for reg in regs])
    padded = np.array([np.zeros(m + 1) if reg is None else reg.padded_direction for reg in regs])
    batched = w.copy()
    changed = learner._lockstep_step(batched, etas, lams, padded)(x, y.astype(float))
    for c, reg in enumerate(regs):
        row = w[c].copy()
        row.setflags(write=False)
        want = (perceptron_update(row, x[c], int(y[c]), etas[c]) if reg is None
                else regularized_update(row, x[c], int(y[c]), etas[c], reg))
        assert _same_bits(batched[c], want)
        # A row changes exactly when the one-cell step returns a new array.
        assert bool(changed[c]) == (want is not row)


@settings(deadline=None, max_examples=150)
@given(inputs=step_inputs())
def test_rank_by_model_is_the_negated_scores_expression_bit_for_bit(inputs):
    w, features, _ = inputs
    want = rank_expression(score_all(w, features))
    assert _same_bits(rank_by_model(LinearModel(w), features), want)


def _regularizer(w_a: np.ndarray, lam: float) -> FairRegularizer:
    m = w_a.size
    return FairRegularizer(w_a=w_a, sigma_x=np.eye(m), w_reg=w_a, lam=lam, alpha_a=0.0)


def _norm(v: np.ndarray) -> float:
    """``|v|`` scaled by its largest entry first, so that it does not underflow to 0
    when the squares of tiny (say 1e-163) entries do, as ``np.linalg.norm``'s do."""
    top = float(np.abs(v).max())
    return top * float(np.linalg.norm(v / top)) if top else 0.0


@st.composite
def update_inputs(draw, bound=1e100):
    m = draw(st.integers(1, 4))
    values = st.floats(-bound, bound, allow_nan=False)
    w = draw(arrays(np.float64, m + 1, elements=values))
    x = draw(arrays(np.float64, m, elements=values))
    w_a = draw(arrays(np.float64, m, elements=st.floats(-10.0, 10.0)))
    return w, x, w_a


@settings(deadline=None, max_examples=100)
@given(inputs=update_inputs(), y=st.integers(0, 1), eta=st.floats(0.0, 1e100))
def test_zero_lambda_step_is_the_perceptron_step(inputs, y, eta):
    w, x, w_a = inputs
    plain = perceptron_update(w, x, y, eta)
    penalized = regularized_update(w, x, y, eta, _regularizer(w_a, 0.0))
    assert _same_bits(penalized, plain)
    assert (penalized is w) == (plain is w)


@settings(deadline=None, max_examples=100)
@given(
    inputs=update_inputs(bound=1e3),
    strength=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
    eta=st.floats(0.0, 1.0),
)
def test_penalty_step_without_mistake_shrinks_alignment(inputs, strength, eta):
    w, x, w_a = inputs
    norm2 = float(w_a @ w_a)
    assume(norm2 > 1e-6)
    reg = _regularizer(w_a, strength / norm2)
    padded = reg.padded_direction
    y = 1 if float(w @ np.concatenate(([1.0], x))) >= 0.0 else 0
    after = regularized_update(w, x, y, eta, reg)
    rounding = 1e-12 * _norm(w) * _norm(padded)
    assert abs(float(after @ padded)) <= abs(float(w @ padded)) + rounding


@settings(deadline=None, max_examples=100)
@given(inputs=update_inputs(bound=1e3), strength=st.floats(0.0, 2.0), eta=st.floats(0.0, 1.0))
def test_penalty_step_without_mistake_scales_only_the_aligned_part(inputs, strength, eta):
    # The paper's w_reg~ is w_reg with a 0 for the intercept, built here apart from the package.
    w, x, w_a = inputs
    norm2 = float(w_a @ w_a)
    assume(norm2 > 1e-6)
    lam = strength / norm2
    unit = np.concatenate(([0.0], w_a)) / np.sqrt(norm2)
    y = 1 if float(w @ np.concatenate(([1.0], x))) >= 0.0 else 0
    assert perceptron_update(w, x, y, eta) is w  # no mistake
    after = regularized_update(w, x, y, eta, _regularizer(w_a, lam))
    # A few roundings of eps * |w| each, far below 1e-12 |w|; the floor covers subnormal w.
    rounding = 1e-12 * _norm(w) + 1e-300
    aligned = float(w @ unit)
    assert abs(float(after @ unit) - (1.0 - lam * norm2) * aligned) <= rounding
    assert np.abs((after - (after @ unit) * unit) - (w - aligned * unit)).max() <= rounding


@settings(deadline=None, max_examples=100)
@given(k=st.integers(1, 50), data=st.data())
def test_skew_is_zero_when_the_top_k_mirrors_the_qualified_share(k, data):
    ones = data.draw(st.integers(0, k))
    top = data.draw(st.permutations([1] * ones + [0] * (k - ones)))
    tail = data.draw(st.lists(st.integers(0, 1), max_size=20))
    share = ones / k
    baseline = Baseline(p_qualified={0: 1.0 - share, 1: share}, qualified_count=k)
    assert skew_at_k(np.array(top + tail), k, baseline) == 0.0


@st.composite
def rankings(draw):
    """A 0/1 ranking, stored as int8 like a pool's column, and a baseline whose
    group-1 share is often 0 or 1, where the floor applies."""
    flags = draw(arrays(np.int8, st.integers(2, 40), elements=st.integers(0, 1)))
    share = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return flags, Baseline(p_qualified={0: 1.0 - share, 1: share}, qualified_count=len(flags))


@settings(deadline=None, max_examples=150)
@given(inputs=rankings(), data=st.data())
def test_moving_group_1_above_group_0_never_lowers_its_skew_or_ndcs(inputs, data):
    flags, baseline = inputs
    i = data.draw(st.integers(0, len(flags) - 2))
    before, after = flags.copy(), flags.copy()
    before[i:i + 2], after[i:i + 2] = (0, 1), (1, 0)
    for k in range(1, len(flags) + 1):
        assert skew_at_k(after, k, baseline) >= skew_at_k(before, k, baseline)
        assert ndcs(after, k, baseline) >= ndcs(before, k, baseline)


@settings(deadline=None, max_examples=150)
@given(inputs=rankings(), data=st.data())
def test_ndcs_lies_between_its_least_and_greatest_prefix_skew(inputs, data):
    flags, baseline = inputs
    k_max = data.draw(st.integers(1, len(flags)))
    skews = [skew_at_k(flags, k, baseline) for k in range(1, k_max + 1)]
    rounding = 1e-12 * max(1.0, *map(abs, skews))
    assert min(skews) - rounding <= ndcs(flags, k_max, baseline) <= max(skews) + rounding


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 2**32 - 1), alpha_a=st.sampled_from([0.0, 1e-3, 1.0]))
def test_scores_covary_with_the_auxiliary_prediction_as_w_dot_w_reg(seed, alpha_a):
    # The regularizer's premise: on the pool it was fitted on, the population
    # covariance of any model's scores w0 + X w with the auxiliary prediction X w_a
    # is w . w_reg, so driving w . w_reg to 0 decorrelates the two.
    pool = generate_pool(GenConfig(n=500, seed=seed))
    reg = fit_auxiliary(pool, alpha_a=alpha_a)
    w = np.random.default_rng(seed).normal(size=len(reg.w_reg) + 1)
    scores, predicted = w[0] + pool.features @ w[1:], pool.features @ reg.w_a
    covariance = np.mean((scores - scores.mean()) * (predicted - predicted.mean()))
    scale = np.linalg.norm(w[1:]) * np.linalg.norm(reg.w_reg)
    assert abs(covariance - w[1:] @ reg.w_reg) <= 1e-12 * scale


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), p_bias=st.floats(0.0, 1.0),
       exponent=st.floats(-14.0, 0.0), k=st.sampled_from([-6, 1, 5]))
def test_warm_start_eta_fixes_only_the_norm(seed, p_bias, exponent, k):
    # From zero weights a power-of-two factor on eta scales every product and sum
    # of the trajectory exactly, so each prediction, and each step, is unchanged.
    labeled = label_pool(generate_pool(GenConfig(n=200, seed=seed)), UserConfig(p_bias, seed=seed))
    eta = 10.0**exponent
    base = warm_start(labeled, sample_size=100, rounds=200, eta=eta, seed=seed).weights
    scaled = warm_start(labeled, sample_size=100, rounds=200, eta=eta * 2.0**k, seed=seed)
    assert _same_bits(scaled.weights, base * 2.0**k)



@st.composite
def tie_heavy_pools(draw, max_features=4):
    """Weights and a labeled pool whose scores tie often: features and weights
    in steps of 0.1, rows repeated from a few distinct ones, the zero model, and
    sometimes one row a single ulp away from another in one feature."""
    n = draw(st.integers(1, 300))
    m = draw(st.integers(1, max_features))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = draw(st.integers(1, n))
    features = (rng.integers(-10, 11, size=(distinct, m)) / 10)[rng.integers(0, distinct, n)]
    if n > 1 and draw(st.booleans()):
        i, j = rng.choice(n, size=2, replace=False)
        c = rng.integers(m)
        features[j] = features[i]
        features[j, c] = np.nextafter(features[i, c], draw(st.sampled_from([-np.inf, np.inf])))
    w = np.zeros(m + 1) if draw(st.booleans()) else rng.integers(-10, 11, m + 1) / 10
    pool = LabeledPool(
        features=features,
        protected=rng.integers(0, 2, n),
        labels=rng.integers(0, 2, n),
        bias_coin=np.zeros(n, dtype=np.int64),
    )
    return w, pool


@settings(deadline=None, max_examples=100)
@given(inputs=tie_heavy_pools(max_features=6),
       eta=st.sampled_from([0.0, 0.1]) | st.floats(0.0, 10.0), data=st.data())
def test_run_online_matches_the_mask_oracle_on_tie_heavy_pools(inputs, eta, data):
    # Up to 6 features: a gathered copy may score a row to other bits than the whole
    # pool does (rows of 4 or more features under some BLAS kernels, one-row copies
    # under any), so a shortlist may not trust its copy's bits. Each case runs as it
    # is and again with a shortlist of 1-8 rows forced on at every pool size.
    w, pool = inputs
    n, m = pool.features.shape
    rounds = data.draw(st.integers(0, n))
    snapshot_interval = data.draw(st.integers(0, rounds))
    reg = None
    if data.draw(st.booleans()):
        w_a = data.draw(arrays(np.float64, m, elements=st.integers(-10, 10).map(lambda v: v / 10)))
        norm2 = float(w_a @ w_a)
        # lambda from 0 up to the stability bound 2 / |w_reg|^2, both ends included.
        lam = data.draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)) * (
            2.0 / norm2 if norm2 else 1.0)
        while lam * norm2 > 2.0:
            lam = float(np.nextafter(lam, 0.0))
        reg = _regularizer(w_a, lam)
        step = partial(regularized_step_expression, eta=eta, w_reg=reg.w_reg, lam=lam)
    else:
        step = partial(perceptron_step_expression, eta=eta)
    want_w, want_shown, want_snapshots = greedy_online_oracle(
        w, pool.features, pool.labels, rounds, lambda v, f: scores_expression(f, v), step,
        snapshot_interval,
    )
    shortlist = data.draw(st.integers(1, 8), label="SHORTLIST")
    for forced in (False, True):
        with mock.patch.object(learner, "SHORTLIST", shortlist), \
                mock.patch.object(learner, "SHORTLIST_MIN_ROWS", 0 if forced else n + 1):
            final, trace = run_online(LinearModel(w), pool, rounds, eta, regularizer=reg,
                                      snapshot_interval=snapshot_interval)
        assert trace.shown_order.tolist() == want_shown
        assert _same_bits(final.weights, want_w)
        assert [r for r, _ in trace.snapshots] == [r for r, _ in want_snapshots]
        for (_, got), (_, want) in zip(trace.snapshots, want_snapshots):
            assert _same_bits(got.weights, want)


@settings(deadline=None, max_examples=100)
@given(inputs=tie_heavy_pools(), share=st.sampled_from([0.0, 1e-7, 0.5, 1.0]) | st.floats(0, 1),
       data=st.data())
def test_ranked_report_matches_a_stable_argsort_and_direct_counts(inputs, share, data):
    w, pool = inputs
    n = len(pool)
    cfg = ExperimentConfig(
        k_list=tuple(data.draw(st.lists(st.integers(1, n + 2), min_size=1, max_size=5,
                                            unique=True))),
        online_rounds=data.draw(st.integers(1, n + 2)),
    )
    # Snapshot reports re-rank the rows shown so far; final reports re-rank them all.
    rows = data.draw(st.just(slice(None)) | st.integers(1, n).flatmap(
        lambda r: st.permutations(range(n)).map(lambda p: p[:r])))
    baseline = Baseline(p_qualified={0: 1.0 - share, 1: share}, qualified_count=n)
    columns = (c[rows] for c in (pool.features, pool.protected, pool.labels))
    report = _ranked_report(LinearModel(w), *columns, baseline, cfg)
    index = np.arange(n)[rows]
    order = index[np.argsort(-scores_expression(pool.features[index], w), kind="stable")]
    flags, labels = pool.protected[order].tolist(), pool.labels[order].tolist()
    ks = {k for k in cfg.k_list if k <= len(order)}
    assert set(report.skew_at) == set(report.precision_at) == set(report.counts_at) == ks
    for k in ks:
        assert report.skew_at[k] == skew_oracle(flags, k, share)
        assert report.precision_at[k] == precision_oracle(labels, k)
        assert report.counts_at[k] == sum(flags[:k])
    want_ndcs = ndcs_oracle(flags, min(cfg.online_rounds, len(order)), share)
    assert report.ndcs == pytest.approx(want_ndcs, rel=1e-12, abs=1e-12)


@st.composite
def tiny_studies(draw):
    """Experiment config fields over default pools of at most 60 candidates that every
    study accepts: one or two seeds, one to three values per grid, positive steps,
    min(k_list) <= rounds <= n and a snapshot interval in [min(k_list), rounds]. Warm
    samples and rounds start at 10, so the warm model is rarely zero. The refusals are
    checked by explicit rows in test_experiments."""
    n = draw(st.integers(20, 60))
    k_list = draw(st.lists(st.integers(1, n), min_size=1, max_size=3, unique=True))
    rounds = draw(st.integers(min(k_list), n))

    def grid(values):
        return draw(st.lists(st.sampled_from(values), min_size=1, max_size=3, unique=True))

    return dict(
        gen=GenConfig(n=n),
        p_bias_grid=grid([0.0, 0.3, 0.5, 0.8, 1.0]),
        eta_grid=grid([0.001, 0.01, 0.1, 0.5]),
        lambda_grid=grid([0.0, 0.1, 1.0, 10.0]),
        warm_sample_size=draw(st.integers(10, n)),
        warm_rounds=draw(st.integers(10, 60)),
        online_rounds=rounds,
        snapshot_interval=draw(st.integers(min(k_list), rounds)),
        seeds=draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=2, unique=True)),
        k_list=k_list,
        sweep_eta=draw(st.sampled_from([0.01, 0.1])),
    )


def _study_reference(cfg: ExperimentConfig, experiment: str) -> dict:
    """Each metrics.csv row's ``(skew, precision, ndcs, count_group1)``, keyed by its
    ``(config_id, seed, p_bias, eta, lambda, k)``. Pools, labels and the warm model
    come from the documented seed streams; each cell runs the greedy mask oracle,
    and each report re-ranks its rows by a stable argsort and counts directly.
    The error the study must raise instead, for the first seed whose warm model stays
    zero or whose online pool gives a group no candidate the fair rule accepts."""
    want = {}
    for seed in cfg.seeds:
        fair_pool, online_pool = (generate_pool(replace(cfg.gen, seed=derive_seed(seed, stream)))
                                  for stream in (STREAM_FAIR_POOL, STREAM_ONLINE_POOL))
        fair_user = UserConfig(0.0, cfg.user_weights)
        warm = warm_start(label_pool(fair_pool, fair_user), cfg.warm_sample_size,
                          cfg.warm_rounds, cfg.warm_eta, derive_seed(seed, STREAM_WARM)).weights
        if not warm.any():  # e.g. every warm pick accepted
            return ConfigError(f"seed {seed}: the warm model stays zero, so every warm score ties")
        fair_scores = scores_expression(online_pool.features, np.asarray(cfg.user_weights))
        qualified = set(online_pool.protected[fair_scores >= 0.0].tolist())
        if not qualified:
            return EmptyQualifiedPool("no candidate passes the fair acceptance rule")
        if qualified != {0, 1}:
            (group,) = {0, 1} - qualified
            return EmptyQualifiedPool(f"seed {seed}: group {group} has no qualified online "
                                      "candidate")
        share = compute_baseline(online_pool, fair_user).p_qualified[1]
        w_reg = fit_auxiliary(fair_pool, alpha_a=cfg.alpha_a).w_reg
        for p_bias in cfg.p_bias_grid:
            user = UserConfig(p_bias, cfg.user_weights, derive_seed(seed, STREAM_ONLINE_USER))
            labeled = label_pool(online_pool, user)
            features = labeled.features
            if experiment == "reg_sweep":
                cells = [(cfg.sweep_eta, lam) for lam in cfg.lambda_grid]
            else:
                cells = [(eta, 0.0) for eta in cfg.eta_grid]
            for eta, lam in cells:
                if experiment == "reg_sweep":
                    step = partial(regularized_step_expression, eta=eta, w_reg=w_reg, lam=lam)
                else:
                    step = partial(perceptron_step_expression, eta=eta)
                final, shown, snapshots = greedy_online_oracle(
                    warm, features, labeled.labels, cfg.online_rounds,
                    lambda v, f: scores_expression(f, v), step,
                    cfg.snapshot_interval if experiment == "evolution" else 0,
                )
                everyone = np.arange(len(features))
                reports = [("online", final, everyone)]
                if experiment != "evolution":
                    reports.append(("warm", warm, everyone))
                reports += [(f"online:round={r:04d}", w, np.array(shown[:r])) for r, w in snapshots]
                for tag, w, rows in reports:
                    order = rows[np.argsort(-scores_expression(features[rows], w), kind="stable")]
                    flags = labeled.protected[order].tolist()
                    labels = labeled.labels[order].tolist()
                    ndcs_value = ndcs_oracle(flags, min(cfg.online_rounds, len(order)), share)
                    for k in cfg.k_list:
                        if k <= len(order):
                            key = (f"{experiment}:{tag}", seed, p_bias, eta, lam, k)
                            want[key] = (skew_oracle(flags, k, share), precision_oracle(labels, k),
                                         ndcs_value, sum(flags[:k]))
    return want


def _check_study_against_its_reference(runner, experiment, fields):
    cfg = ExperimentConfig(**fields)
    want = _study_reference(cfg, experiment)
    if isinstance(want, FairsimError):  # a degenerate tiny pool; the study refuses it
        with pytest.raises(type(want), match=f"^{re.escape(str(want))}$"):
            runner(cfg)
        return
    rows = results_to_rows(runner(cfg), experiment)
    got = {tuple(row[name] for name in CSV_FIELDS[:6]): tuple(row[name] for name in CSV_FIELDS[6:])
           for row in rows}
    assert len(got) == len(rows) and got.keys() == want.keys()
    for key, (skew, precision, ndcs_value, count) in want.items():
        got_skew, got_precision, got_ndcs, got_count = got[key]
        assert (got_skew, got_precision, got_count) == (skew, precision, count), key
        assert got_ndcs == pytest.approx(ndcs_value, rel=1e-12, abs=1e-12), key


STUDIES = [
    (run_final_eval, "final_eval"), (run_evolution, "evolution"), (run_reg_sweep, "reg_sweep"),
]


@pytest.mark.parametrize("runner, experiment", STUDIES)
@settings(deadline=None, max_examples=30)
@given(fields=tiny_studies())
def test_each_study_matches_a_reference_built_from_the_oracles(runner, experiment, fields):
    _check_study_against_its_reference(runner, experiment, fields)


@pytest.mark.parametrize("runner, experiment", STUDIES)
@settings(deadline=None, max_examples=30)
@given(fields=tiny_studies(), shortlist=st.integers(1, 8))
def test_each_study_matches_its_reference_in_lockstep(runner, experiment, fields, shortlist):
    # The same check with the cutoff at 0 and a shortlist of 1-8 rows, so the tiny
    # studies run every cell of a seed in one lock-step loop.
    with mock.patch.object(learner, "SHORTLIST_MIN_ROWS", 0), \
            mock.patch.object(learner, "SHORTLIST", shortlist):
        _check_study_against_its_reference(runner, experiment, fields)


@st.composite
def degenerate_studies(draw):
    """One-seed configs over pools of at most 40 candidates. Half keep the default
    pool and user; the other half draw a recipe that may be degenerate: a constant
    attribute (or only constant ones), one group only, or a fair rule that accepts
    everyone or no one. Any warm sample may be a single row."""
    n = draw(st.integers(2, 40))
    gen, user = GenConfig(n=n), {}
    if draw(st.booleans()):
        harmless = draw(st.lists(st.sampled_from([Uniform(0.0, 1.0), Uniform(0.5, 0.5),
                                                  Uniform(0.0, 0.0)]), max_size=2))
        proxies = draw(st.lists(st.just(gen.proxy_dists[0]), min_size=0 if harmless else 1,
                                max_size=2))
        coefs = draw(st.lists(st.sampled_from([0.3, 1.0, 0.0]), min_size=len(harmless + proxies),
                              max_size=len(harmless + proxies)))
        # Every attribute's mean is near 0.5, so -sum(coefs) / 2 splits the pool about evenly.
        intercept = draw(st.sampled_from([-sum(coefs) / 2, 10.0, -10.0]))
        gen = GenConfig(p_group=draw(st.sampled_from([0.5, 0.0, 1.0])),
                        harmless_dists=tuple(harmless), proxy_dists=tuple(proxies), n=n)
        user = {"user_weights": (intercept, *coefs)}
    k = draw(st.integers(1, n))
    rounds = draw(st.integers(k, n))
    return ExperimentConfig(
        gen=gen, **user, p_bias_grid=(0.5,), eta_grid=(0.1,), lambda_grid=(0.0, 1.0),
        warm_sample_size=draw(st.integers(1, n)), warm_rounds=draw(st.integers(1, 20)),
        online_rounds=rounds, snapshot_interval=draw(st.integers(k, rounds)),
        seeds=(draw(st.integers(0, 2**32 - 1)),), k_list=(k,), sweep_eta=0.1,
    )


@pytest.mark.parametrize("runner", [run_final_eval, run_evolution, run_reg_sweep])
@settings(deadline=None, max_examples=60)
@given(cfg=degenerate_studies())
def test_each_study_refuses_a_seed_whose_warm_model_or_penalty_stays_zero(runner, cfg):
    try:
        results = runner(cfg)
    except FairsimError:
        return
    for res in results:
        assert res.warm_model.weights.any()
        assert runner is not run_reg_sweep or res.regularizer.w_reg.any()
