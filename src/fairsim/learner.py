"""Perceptron ranking model with warm-start and greedy online personalization.

The model is linear with an explicit intercept: a candidate's score is
``w0 + w . x`` and the predicted label is the step function ``1[score >= 0]``.
A mistake moves the weights by ``eta * (y - yhat) * (1, x)``; a correct
prediction leaves them untouched.

Online personalization is greedy: each round the model shows the single
highest-scoring candidate not shown before (ties resolve to the lowest pool
index), receives that candidate's stored label, and updates.
"""

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .datagen import feature_matrix, float_array, read_json_keys, write_json
from .errors import ConfigError, DimensionMismatch, NumericalError
from .usermodel import LabeledPool, linear_scores

if TYPE_CHECKING:  # import cycle: fairreg builds on LinearModel
    from .fairreg import FairRegularizer


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Linear scorer; ``weights[0]`` is the intercept."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 2:
            raise DimensionMismatch("weights must be a vector with an intercept and coefficients")
        if not np.all(np.isfinite(w)):
            raise NumericalError("model weights must be finite")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def zero_model(m: int) -> LinearModel:
    """All-zero model for ``m`` features."""
    if m < 1:
        raise ConfigError(f"need at least one feature, got m={m}")
    return LinearModel(np.zeros(m + 1))


def augment(x) -> np.ndarray:
    """Prepend the intercept coordinate: x -> (1, x)."""
    return np.concatenate(([1.0], np.asarray(x, dtype=float)))


def score(model: LinearModel, x) -> float:
    """Score one candidate: ``w0 + w . x``."""
    xv = np.asarray(x, dtype=float)
    if xv.ndim != 1 or xv.size != model.weights.size - 1:
        raise DimensionMismatch(f"feature vector of size {xv.size} does not match model")
    return float(model.weights[0] + model.weights[1:] @ xv)


def score_all(model: LinearModel, features: np.ndarray) -> np.ndarray:
    """Score every row of an (n, m) feature matrix."""
    return linear_scores(features, model.weights)


def predict(model: LinearModel, x) -> int:
    """Step-function prediction: 1 if the score is non-negative, else 0."""
    return 1 if score(model, x) >= 0.0 else 0


def rank_by_model(model: LinearModel, features: np.ndarray) -> np.ndarray:
    """Indices of all rows sorted by decreasing score; ties keep the lower index first."""
    scores = score_all(model, features)
    return np.argsort(-scores, kind="stable")


def _perceptron_step(w: np.ndarray, x, y: int, eta: float) -> np.ndarray:
    """Raw weights after one perceptron step; ``w`` itself when the prediction is right."""
    xa = augment(x)
    if xa.size != w.size:
        raise DimensionMismatch(f"feature vector of size {xa.size - 1} does not match model")
    err = float(y) - (1.0 if float(w @ xa) >= 0.0 else 0.0)
    return w if err == 0.0 else w + (eta * err) * xa


def perceptron_update(model: LinearModel, x, y: int, eta: float) -> LinearModel:
    """One perceptron step: ``w + eta * (y - yhat) * (1, x)``.

    Returns the input model unchanged (same object) when the prediction is
    already correct.
    """
    new = _perceptron_step(model.weights, x, y, eta)
    return model if new is model.weights else LinearModel(new)


def warm_start(
    pool: LabeledPool,
    sample_size: int = 1000,
    rounds: int = 1000,
    eta: float = 0.3,
    seed: int = 0,
) -> LinearModel:
    """Train a fresh perceptron on a random subsample of a labeled pool.

    From zero weights the perceptron trajectory is scale-invariant in eta,
    so eta fixes only the norm of the returned weights. That norm matters
    later: it sets how fast subsequent online updates at a given learning
    rate can move the model relative to its starting point.

    Stream contract, on a single ``default_rng(seed)``: first
    ``rng.permutation(len(pool))[:sample_size]`` selects the subsample without
    replacement, then ``rng.integers(0, sample_size, size=rounds)`` picks the
    update sequence with replacement. Weights start at zero; each pick applies
    one perceptron step.
    """
    n = len(pool)
    if sample_size < 1 or sample_size > n:
        raise ConfigError(f"sample_size {sample_size} not in [1, {n}]")
    if rounds < 0:
        raise ConfigError(f"rounds must be non-negative, got {rounds}")
    rng = np.random.default_rng(seed)
    subsample = rng.permutation(n)[:sample_size]
    picks = rng.integers(0, sample_size, size=rounds)
    features = feature_matrix(pool.pool)
    model = zero_model(features.shape[1])
    for i in picks:
        j = int(subsample[i])
        model = perceptron_update(model, features[j], int(pool.labels[j]), eta)
    return model


@dataclass(eq=False)
class OnlineTrace:
    """What an online run showed and how the model looked along the way.

    ``shown_order`` lists pool indices in presentation order, without
    duplicates. ``snapshots`` holds (round, model) pairs captured every
    ``snapshot_interval`` rounds; rounds are 1-based.
    """

    shown_order: list[int]
    snapshots: list[tuple[int, LinearModel]]


def run_online(
    model: LinearModel,
    pool: LabeledPool,
    rounds: int,
    eta: float,
    regularizer: "FairRegularizer | None" = None,
    snapshot_interval: int = 0,
) -> tuple[LinearModel, OnlineTrace]:
    """Personalize a model by showing the greedy top candidate each round.

    Each round: score the full pool, pick the highest-scoring candidate never
    shown before (ties to the lowest index), apply one update with that
    candidate's stored label, and record the pick. With a regularizer, the
    update also applies the fairness penalty every round, mistakes or not.

    Each penalty step scales the weight component along ``w_reg`` by
    ``1 - lambda * |w_reg|^2``, so the run diverges once that factor leaves
    [-1, 1]. Raises ConfigError when ``lambda * |w_reg|^2 > 2``, that is when
    lambda exceeds ``2 / |w_reg|^2``.
    """
    n = len(pool)
    if rounds < 0 or rounds > n:
        raise ConfigError(f"rounds {rounds} not in [0, {n}]")
    if snapshot_interval < 0:
        raise ConfigError(f"snapshot_interval must be non-negative, got {snapshot_interval}")
    features = feature_matrix(pool.pool)
    if features.shape[1] != model.weights.size - 1:
        raise DimensionMismatch("pool features do not match the model")
    if regularizer is not None:
        from .fairreg import regularized_update

        norm2 = float(regularizer.w_reg @ regularizer.w_reg)
        if regularizer.lam * norm2 > 2.0:
            raise ConfigError(
                f"lambda={regularizer.lam!r} exceeds the online stability limit "
                f"2 / |w_reg|^2 = {2.0 / norm2:.6g}"
            )
    available = np.ones(n, dtype=bool)
    shown: list[int] = []
    snapshots: list[tuple[int, LinearModel]] = []
    for r in range(1, rounds + 1):
        scores = score_all(model, features)
        scores[~available] = -np.inf
        i = int(np.argmax(scores))
        shown.append(i)
        available[i] = False
        if regularizer is None:
            model = perceptron_update(model, features[i], int(pool.labels[i]), eta)
        else:
            model = regularized_update(model, features[i], int(pool.labels[i]), eta, regularizer)
        if snapshot_interval and r % snapshot_interval == 0:
            snapshots.append((r, model))
    return model, OnlineTrace(shown_order=shown, snapshots=snapshots)


def save_model(model: LinearModel, path: str | Path, round_index: int = 0) -> None:
    """Write a model as JSON: ``{"weights": [...], "round": n}``."""
    write_json(path, {"weights": [float(w) for w in model.weights], "round": int(round_index)})


def load_model(path: str | Path) -> tuple[LinearModel, int]:
    """Read a model written by :func:`save_model`; returns (model, round)."""
    return read_json_keys(
        path, {"weights": float_array, "round": int}, lambda w, r: (LinearModel(w), r)
    )


def save_trace(trace: OnlineTrace, pool: LabeledPool, path: str | Path) -> None:
    """Write a trace as CSV: ``round,pool_index,label,protected`` (1-based rounds)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["round", "pool_index", "label", "protected"])
        for r, i in enumerate(trace.shown_order, start=1):
            writer.writerow([r, i, int(pool.labels[i]), int(pool.pool.protected[i])])
