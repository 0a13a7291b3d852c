"""Property tests: CSV round trips and the zero-copy column accessors."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fairsim import (
    LabeledPool,
    Pool,
    feature_matrix,
    load_labeled,
    load_pool,
    protected_values,
    save_labeled,
    save_pool,
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
