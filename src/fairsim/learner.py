"""Perceptron ranking model with warm-start and greedy online personalization.

The model is linear with an explicit intercept: a candidate's score is
``w0 + w . x`` and the predicted label is the step function ``1[score >= 0]``.
A mistake moves the weights by ``eta * (y - yhat) * (1, x)``; a correct
prediction leaves them untouched.

Online personalization is greedy: each round the model shows the single
highest-scoring candidate not shown before (ties resolve to the lowest pool
index), receives that candidate's stored label, and updates. On pools of at
least ``SHORTLIST_MIN_ROWS`` rows the loop rescores only a shortlist of the
best unshown rows between full scans (lazy greedy evaluation, as in Minoux's
accelerated greedy algorithm), and takes a pick from it only when a bound
proves that a full scan would pick the same row.
"""

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .datagen import (
    Count, FloatArray, Rate, Seed, Size, _parse, check_fields, feature_matrix, read_json_keys,
    write_columns, write_json,
)
from .errors import DimensionMismatch
from .usermodel import LabeledPool, score_all

if TYPE_CHECKING:  # import cycle: fairreg builds on LinearModel
    from .fairreg import FairRegularizer

# The online loop's shortlist: how many rows it rescores between full scans, and the
# pool size from which that beats rescoring every row (both measured; see CHANGES.md).
SHORTLIST = 256
SHORTLIST_MIN_ROWS = 4096


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
    if top < keys.size:
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
    sample_size = _parse(Size, sample_size, "sample_size", at_most=n)
    rounds, eta = _parse(Count, rounds, "rounds"), _parse(Rate, eta, "eta")
    seed = _parse(Seed, seed, "seed")
    rng = np.random.default_rng(seed)
    subsample = rng.permutation(n)[:sample_size]
    picks = rng.integers(0, sample_size, size=rounds)
    features = feature_matrix(pool)
    w = np.zeros(features.shape[1] + 1)
    for j in subsample[picks].tolist():
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


_U = 2.0**-53  # unit roundoff of float64
_TINY = 2.0**-1022  # smallest normal float: more than one product loses to underflow
_HUGE = 2.0**1000  # past this weight size a score could overflow; such rounds rescan


class _Shortlist:
    """The best unshown rows at the last full scan, and a bound on every other row.

    A full scan at weights ``w_s`` keeps the ``SHORTLIST`` best unshown rows (pool
    indices ascending, with a C-order copy of their rows) and ``tau``, the best score
    left outside them. At later weights ``w`` with ``dw = w - w_s``, no outside row
    scores above ``tau + dw0 + sum_k max(dw_k * lo_k, dw_k * hi_k)``, where ``lo_k``
    and ``hi_k`` are the pool's column extremes. A computed score is within
    ``e = gamma_(m+1) * (|w0| + sum_k |w_k| * mag_k)`` of the exact one, ``mag_k``
    being the column's largest magnitude (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 3.1). So a copied row may score up to ``2e`` away from
    its full-scan score, whatever kernel scores each, and the copy's best row is
    the full scan's pick when it clears the bound by ``2e`` and the runner-up by
    ``4e``. The bound carries ``e`` at both ``w`` and ``w_s``.
    """

    def __init__(self, features, keys, k, w, columns):
        """Keep the ``k`` best rows by ``keys``, a full scan at ``w`` negated, with
        every shown row at ``+inf``; ``columns`` holds ``lo``, ``hi`` and ``mag`` with
        the intercept's 1.0 in front. Nothing is kept when a score could overflow."""
        self.lo, self.hi, self.mag = columns
        m1 = len(self.mag)  # the dot product's length: the features and the intercept
        # gamma_(m+1), and gamma_(m+4) for the bound's own sum, both doubled to cover
        # the roundings of the checks' arithmetic; what each product can lose to
        # underflow comes on top.
        self.gamma = 2.0 * m1 * _U / (1.0 - m1 * _U)
        self.gamma_sum = 2.0 * (m1 + 3) * _U / (1.0 - (m1 + 3) * _U)
        self.tiny = m1 * _TINY
        self.ws = w.tolist()
        size = sum(abs(wk) * mk for wk, mk in zip(self.ws, self.mag))
        self.e_s = self.gamma * size + self.tiny
        self.live = k if size < _HUGE else 0
        if not self.live:
            return
        order = np.argpartition(keys, k)
        self.tau = -keys.item(order[k])  # -inf when no unshown row is left outside
        self.tau_mag = abs(self.tau) if self.tau > -np.inf else 0.0
        self.index = np.sort(order[:k])
        self.rows = features[self.index]
        self.shown = np.zeros(k)  # added to the shortlist's scores: -inf once shown

    def pick(self, w) -> int:
        """The row a full scan at ``w`` would pick, or -1 when the bound cannot tell."""
        if not self.live:
            return -1
        size = reach = spread = 0.0
        for wk, sk, lo, hi, mk in zip(w.tolist(), self.ws, self.lo, self.hi, self.mag):
            size += abs(wk) * mk
            d = wk - sk
            reach += d * hi if d > 0.0 else d * lo
            spread += abs(d) * mk
        if not size < _HUGE:
            return -1
        e = self.gamma * size + self.tiny
        bound = self.tau + reach + e + self.e_s + self.gamma_sum * (self.tau_mag + spread)
        scores = score_all(w, self.rows)
        scores += self.shown
        b = int(scores.argmax())
        best = scores.item(b)
        scores[b] = -np.inf
        if best - 2.0 * e > bound and best - scores.item(scores.argmax()) > 4.0 * e:
            self.shown[b] = -np.inf
            self.live -= 1
            return self.index.item(b)
        return -1


def run_online(
    model: LinearModel,
    pool: LabeledPool,
    rounds: int,
    eta: float,
    regularizer: "FairRegularizer | None" = None,
    snapshot_interval: int = 0,
) -> tuple[LinearModel, OnlineTrace]:
    """Personalize a model by showing the greedy top candidate each round.

    Each round: pick the highest-scoring candidate never shown before (ties to
    the lowest index), apply one update with that candidate's stored label, and
    record the pick. With a regularizer, the update also applies the fairness
    penalty every round, mistakes or not.

    Below ``SHORTLIST_MIN_ROWS`` rows every round scores the full pool. From there
    on, a full scan also keeps the ``SHORTLIST`` best unshown rows, and the rounds
    after it rescore only those. A round takes the shortlist's best row only when
    the rounding-safe bound of ``_Shortlist`` proves that a full scan would pick it;
    it rescans, and rebuilds the shortlist, when the weights have moved too far for
    that, when the best row is within rounding of a rival, or once the shortlist
    is used up. So every pick, and every result, is the full scan's.

    Each penalty step scales the weight component along ``w_reg`` by
    ``1 - lambda * |w_reg|^2``, so the run diverges once that factor leaves
    [-1, 1]. Raises ConfigError when ``lambda * |w_reg|^2 > 2``, that is when
    lambda exceeds ``2 / |w_reg|^2``.
    """
    rounds, eta = _parse(Count, rounds, "rounds", at_most=len(pool)), _parse(Rate, eta, "eta")
    snapshot_interval = _parse(Count, snapshot_interval, "snapshot_interval")
    features = feature_matrix(pool)
    if features.shape[1] != model.weights.size - 1:
        raise DimensionMismatch("pool features do not match the model")
    step = perceptron_update if regularizer is None else regularizer.online_step()
    n = len(features)
    columns = shortlist = None
    if n >= SHORTLIST_MIN_ROWS and rounds > 1:
        lo = [1.0] + [float(c.min()) for c in features.T]
        hi = [1.0] + [float(c.max()) for c in features.T]
        columns = lo, hi, [max(-a, b) for a, b in zip(lo, hi)]
    shown = np.empty(rounds, dtype=np.intp)
    snapshots: list[tuple[int, LinearModel]] = []
    w = start = model.weights
    for r in range(1, rounds + 1):
        i = -1 if shortlist is None else shortlist.pick(w)
        if i < 0:
            scores = score_all(w, features)
            scores[shown[: r - 1]] = -np.inf
            i = int(scores.argmax())
            if columns is not None and r < rounds:
                scores[i] = -np.inf
                np.negative(scores, out=scores)
                shortlist = _Shortlist(features, scores, min(SHORTLIST, n - r), w, columns)
            del scores  # so the next scan and its partition are the only pool-length arrays
        shown[r - 1] = i
        w = step(w, features[i], int(pool.labels[i]), eta)
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
    shown = trace.shown_order
    write_columns(path, np.empty((shown.size, 0)), {
        "round": range(1, shown.size + 1), "pool_index": shown,
        "label": pool.labels[shown], "protected": pool.protected[shown],
    })
