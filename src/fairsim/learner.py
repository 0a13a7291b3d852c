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

from .datagen import (
    Count, FloatArray, Rate, Seed, Size, _parse, check_fields, feature_matrix, read_json_keys,
    write_json,
)
from .errors import ConfigError, DimensionMismatch
from .usermodel import LabeledPool, score_all

if TYPE_CHECKING:  # import cycle: fairreg builds on LinearModel
    from .fairreg import FairRegularizer


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Linear scorer; ``weights[0]`` is the intercept. The per-round steps work on
    the raw weight vector; a model is built where the weights leave the loop."""

    weights: FloatArray

    def __post_init__(self):
        check_fields(self)
        if self.weights.ndim != 1 or self.weights.size < 2:
            raise DimensionMismatch("weights must be a vector with an intercept and coefficients")


def zero_model(m: int) -> LinearModel:
    """All-zero model for ``m`` features."""
    return LinearModel(np.zeros(_parse(Size, m, "m") + 1))


def rank_by_model(model: LinearModel, features: np.ndarray, top: int | None = None) -> np.ndarray:
    """Indices of all rows sorted by decreasing score; ties keep the lower index first.

    With ``top`` below the row count, only the first ``top`` entries are in that
    order; the other rows follow in an unspecified but deterministic order, as in
    C++ ``std::partial_sort``. The head comes from a partition and numpy's default
    (unstable, SIMD-dispatched) sort. It is exact when its scores are distinct and
    no row outside it ties the ``top``-th score; a tie, signed zero or NaN falls
    back to the stable sort of every row.
    """
    keys = score_all(model.weights, features)
    np.negative(keys, out=keys)
    top = keys.size if top is None else min(_parse(Size, top, "top"), keys.size)
    if top:
        order = np.argpartition(keys, top - 1)
        head = order[:top]  # a view: the head is sorted in place
        head_keys = keys[head]
        head_order = np.argsort(head_keys)
        ranked = head_keys[head_order]
        if np.all(ranked[:-1] < ranked[1:]) and np.count_nonzero(keys <= ranked[-1]) == top:
            head[:] = head[head_order]
            return order
    return np.argsort(keys, kind="stable")


def perceptron_update(w: np.ndarray, x, y: int, eta: float) -> np.ndarray:
    """One perceptron step on raw weights (intercept first): ``w + eta * (y - yhat) * (1, x)``.

    Returns ``w`` itself (same object) when the prediction is already correct.
    """
    xv = np.asarray(x, dtype=float)
    if xv.ndim != 1:
        raise DimensionMismatch(f"feature vector must be 1-D, got shape {xv.shape}")
    if xv.size + 1 != w.size:
        raise DimensionMismatch(f"feature vector of size {xv.size} does not match model")
    xa = np.empty(w.size)  # (1, x)
    xa[0] = 1.0
    xa[1:] = xv
    err = float(y) - (1.0 if w.dot(xa) >= 0.0 else 0.0)
    return w if err == 0.0 else w + (eta * err) * xa


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
    sample_size, rounds = _parse(Size, sample_size, "sample_size"), _parse(Count, rounds, "rounds")
    eta, seed = _parse(Rate, eta, "eta"), _parse(Seed, seed, "seed")
    if sample_size > n:
        raise ConfigError(f"sample_size {sample_size} not in [1, {n}]")
    rng = np.random.default_rng(seed)
    subsample = rng.permutation(n)[:sample_size]
    picks = rng.integers(0, sample_size, size=rounds)
    features = feature_matrix(pool)
    w = np.zeros(features.shape[1] + 1)
    for i in picks:
        j = int(subsample[i])
        w = perceptron_update(w, features[j], int(pool.labels[j]), eta)
    return LinearModel(w)


@dataclass(eq=False)
class OnlineTrace:
    """What an online run showed and how the model looked along the way.

    ``shown_order`` is a read-only ``intp`` array of pool indices in presentation
    order, without duplicates. ``snapshots`` holds (round, model) pairs captured every
    ``snapshot_interval`` rounds; rounds are 1-based.
    """

    shown_order: np.ndarray
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
    rounds, eta = _parse(Count, rounds, "rounds"), _parse(Rate, eta, "eta")
    snapshot_interval = _parse(Count, snapshot_interval, "snapshot_interval")
    if rounds > n:
        raise ConfigError(f"rounds {rounds} not in [0, {n}]")
    features = feature_matrix(pool)
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
    shown = np.empty(rounds, dtype=np.intp)
    snapshots: list[tuple[int, LinearModel]] = []
    w = start = model.weights
    for r in range(1, rounds + 1):
        scores = score_all(w, features)
        scores[shown[: r - 1]] = -np.inf
        i = int(scores.argmax())
        shown[r - 1] = i
        if regularizer is None:
            w = perceptron_update(w, features[i], int(pool.labels[i]), eta)
        else:
            w = regularized_update(w, features[i], int(pool.labels[i]), eta, regularizer)
        if snapshot_interval and r % snapshot_interval == 0:
            snapshots.append((r, model if w is start else LinearModel(w)))
    final = model if w is start else LinearModel(w)
    shown.setflags(write=False)
    return final, OnlineTrace(shown_order=shown, snapshots=snapshots)


def save_model(model: LinearModel, path: str | Path, round_index: int = 0) -> None:
    """Write a model as JSON: ``{"weights": [...], "round": n}``."""
    round_index = _parse(Count, round_index, "round_index")
    write_json(path, {"weights": [float(w) for w in model.weights], "round": round_index})


def load_model(path: str | Path) -> tuple[LinearModel, int]:
    """Read a model written by :func:`save_model`; returns (model, round)."""
    return read_json_keys(path, ["weights", "round"],
                          lambda w, r: (LinearModel(w), _parse(Count, r, "round")))


def save_trace(trace: OnlineTrace, pool: LabeledPool, path: str | Path) -> None:
    """Write a trace as CSV: ``round,pool_index,label,protected`` (1-based rounds)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["round", "pool_index", "label", "protected"])
        for r, i in enumerate(trace.shown_order, start=1):
            writer.writerow([r, i, int(pool.labels[i]), int(pool.protected[i])])
