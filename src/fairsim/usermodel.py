"""Simulated user feedback with a tunable amount of group bias.

The user accepts or rejects each candidate. With probability ``p_bias`` the
verdict is a pure reflection of the protected attribute (accept group 1,
reject group 0); otherwise it follows a fixed linear acceptance rule on the
features. Labels are materialized once per pool, so every learner sweep sees
the same feedback.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datagen import (
    BinaryArray, Pool, Seed, Share, check_fields, feature_matrix, protected_values, read_columns,
    write_columns,
)
from .errors import ConfigError, DimensionMismatch, NumericalError

DEFAULT_USER_WEIGHTS = (-0.48, 0.35, 0.28, 0.28)


@dataclass(frozen=True)
class UserConfig:
    """Feedback recipe: bias level, acceptance weights, and coin seed.

    ``weights`` has length m + 1 with the intercept first; the fair acceptance
    rule is ``w0 + w . x >= 0``. The coin stream drawn from ``seed`` is
    independent of pool generation. ``UserConfig(p)`` is the default user.
    """

    p_bias: Share
    weights: tuple[float, ...] = DEFAULT_USER_WEIGHTS
    seed: Seed = 0

    def __post_init__(self):
        check_fields(self)
        if len(self.weights) < 2:
            raise ConfigError("weights must hold an intercept plus at least one coefficient")


def score_all(weights, features: np.ndarray) -> np.ndarray:
    """Evaluate ``w0 + w . x`` for each row of an (n, m) ``features`` (intercept first);
    a score past the float range raises NumericalError rather than ranking as inf or NaN."""
    w = np.asarray(weights, dtype=float)
    f = np.asarray(features, dtype=float)
    if f.ndim != 2 or f.shape[1] != w.size - 1:
        raise DimensionMismatch(
            f"features of width {f.shape[-1] if f.ndim == 2 else '?'} do not match "
            f"{w.size - 1} coefficients"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        s = f @ w[1:]
        s += w[0]
    if not np.isfinite(s).all():
        raise NumericalError("scores overflow the float range: the weights are too large")
    return s


@dataclass(frozen=True, eq=False)
class LabeledPool(Pool):
    """A pool with two more columns: each candidate's materialized 0/1 user label and
    the bias coin behind it. Every function that reads a pool also takes one."""

    labels: BinaryArray
    bias_coin: BinaryArray

    def __post_init__(self):
        super().__post_init__()
        n = len(self)
        if self.labels.shape != (n,) or self.bias_coin.shape != (n,):
            raise DimensionMismatch("labels and bias_coin must have one entry per candidate")


def label_pool(pool: Pool, user: UserConfig) -> LabeledPool:
    """Materialize one label per candidate.

    One Bernoulli(p_bias) coin is drawn per point, in pool order, from a
    ``default_rng(user.seed)`` stream. Coin 1 copies the protected attribute
    into the label; coin 0 applies the acceptance rule ``w0 + w . x >= 0``
    (non-strict, so a score of exactly zero is accepted).
    """
    features = feature_matrix(pool)
    fair = score_all(user.weights, features) >= 0.0
    rng = np.random.default_rng(user.seed)
    coin = rng.random(len(pool)) < user.p_bias
    protected = protected_values(pool)
    labels = np.where(coin, protected == 1, fair)
    return LabeledPool(features, protected, labels, coin)  # the pool's columns, not copies


LABELED_COLUMNS = ["protected", "label", "bias_coin"]


def save_labeled(labeled: LabeledPool, path: str | Path) -> None:
    """Write a labeled pool as CSV: ``x1,...,xm,protected,label,bias_coin``."""
    columns = (labeled.protected, labeled.labels, labeled.bias_coin)
    write_columns(path, labeled.features, dict(zip(LABELED_COLUMNS, columns)))


def load_labeled(path: str | Path) -> LabeledPool:
    """Read a labeled pool written by :func:`save_labeled`."""
    return read_columns(path, LABELED_COLUMNS, LabeledPool)
