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
proves that a full scan would pick the same row. That loop, ``run_lockstep``,
moves any number of cells over one pool a round at a time, each with its own
labels, step size and penalty: a study's grid runs every cell of a seed in one
call, and ``run_online`` is its one-cell call.
"""

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .datagen import (
    Count, FloatArray, Pool, Rate, Seed, Size, _parse, check_fields, feature_matrix,
    read_json_keys, write_columns, write_json,
)
from .errors import DimensionMismatch
from .usermodel import LabeledPool, score_all

if TYPE_CHECKING:  # import cycle: fairreg builds on LinearModel
    from .fairreg import FairRegularizer

# The online loop's shortlist: how many rows it rescores between full scans. From
# SHORTLIST_MIN_ROWS rows on, run_online is a one-cell run_lockstep call instead of a full
# scan every round, and a study runs each seed's cells in one run_lockstep call instead of
# one run_online call per cell. One lambda = 10 cell of 1 000 rounds (1 BLAS thread,
# median of 7) took 22 / 40 / 45 / 53 / 106 ms by full scan and 46 / 56 / 45 / 51 / 81 ms
# by run_lockstep at 8k / 16k / 24k / 32k / 48k rows; see README, The online loop.
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
    on, the run is a one-cell :func:`run_lockstep`, whose rounds rescore a shortlist
    and take its best row only when a full scan provably would. So every pick, and
    every result, is the full scan's.

    Each penalty step scales the weight component along ``w_reg`` by
    ``1 - lambda * |w_reg|^2``, so the run diverges once that factor leaves
    [-1, 1]. Raises ConfigError when ``lambda * |w_reg|^2 > 2``, that is when
    lambda exceeds ``2 / |w_reg|^2``.
    """
    if len(pool) >= SHORTLIST_MIN_ROWS:  # run_lockstep parses the arguments itself
        (run,) = run_lockstep(model, pool, pool.labels[None], [(0, eta, regularizer)], rounds,
                              snapshot_interval)
        return run
    rounds, eta = _parse(Count, rounds, "rounds", at_most=len(pool)), _parse(Rate, eta, "eta")
    snapshot_interval = _parse(Count, snapshot_interval, "snapshot_interval")
    features = feature_matrix(pool)
    if features.shape[1] != model.weights.size - 1:
        raise DimensionMismatch("pool features do not match the model")
    step = perceptron_update if regularizer is None else regularizer.online_step()
    shown = np.empty(rounds, dtype=np.intp)
    snapshots: list[tuple[int, LinearModel]] = []
    w = start = model.weights
    for r in range(1, rounds + 1):
        scores = score_all(w, features)
        scores[shown[: r - 1]] = -np.inf
        i = shown[r - 1] = int(scores.argmax())
        w = step(w, features[i], int(pool.labels[i]), eta)
        if snapshot_interval and r % snapshot_interval == 0:
            snapshots.append((r, model if w is start else LinearModel(w)))
    final = model if w is start else LinearModel(w)
    shown.setflags(write=False)
    return final, OnlineTrace(shown_order=shown, snapshots=snapshots)


def _lockstep_step(w: np.ndarray, xa: np.ndarray, y: np.ndarray, etas: np.ndarray,
                   lams: np.ndarray, padded: np.ndarray) -> np.ndarray:
    """The online update of every cell at once, on the ``(cells, m + 1)`` weights ``w`` in
    place: row c moves as ``regularized_update(w[c], x, y[c], etas[c], reg)`` would, for
    ``xa[c] = (1, x)`` and a penalty of strength ``lams[c]`` along ``padded[c]``
    (``perceptron_update`` where that is 0), bit for bit. Returns which rows changed.
    Each row's two dots, the sign test ``w . (1, x)`` and ``w . w_reg~``, are taken by
    ``np.vecdot``, whose float64 loop calls the dot routine of ``ndarray.dot`` row by
    row, as the one-cell steps take them; the rest is elementwise."""
    signs, aligned = np.vecdot(w, xa), np.vecdot(w, padded)  # before w moves
    err = np.subtract(y, signs >= 0.0, dtype=float)  # float(y) - yhat, as one cell takes it
    changed = err != 0.0
    # Masked rather than a step of 0 * (1, x), so a row that keeps its weights keeps
    # their bits, signed zeros included.
    np.add(w, (etas * err)[:, None] * xa, out=w, where=changed[:, None])
    moved = (lams != 0.0) & (aligned != 0.0)  # inf * 0 is NaN: lambda = 0 never moves
    np.subtract(w, (lams * aligned)[:, None] * padded, out=w, where=moved[:, None])
    return changed | moved


def run_lockstep(
    model: LinearModel,
    pool: Pool,
    labels: np.ndarray,
    cells: list[tuple[int, float, "FairRegularizer | None"]],
    rounds: int,
    snapshot_interval: int = 0,
) -> list[tuple[LinearModel, OnlineTrace]]:
    """Run several online cells over one pool together, one round of every cell per pass.

    ``labels`` is an ``(L, n)`` matrix: L label rows, each with one 0/1 label per pool
    row. Each cell is ``(row, eta, regularizer)``: the index of its label row and the
    arguments :func:`run_online` takes; cells may share a row. Every cell starts from
    ``model``, and its result is what ``run_online`` returns for it on the pool labelled
    by that row, bit for bit: the weights are one ``(cells, m + 1)`` array,
    ``_lockstep_step`` updates every row of it per round, and each round gathers every
    cell's label from ``labels`` at once.

    The picks are lazy greedy (Minoux's accelerated greedy algorithm). A full scan at
    weights ``w_s`` keeps the cell's ``SHORTLIST`` best unshown rows (a copy) and
    ``tau``, the best score left outside them. At later weights ``w`` with
    ``dw = w - w_s``, no outside row scores above ``tau + dw0 + sum_k max(dw_k * lo_k,
    dw_k * hi_k)``, where ``lo_k`` and ``hi_k`` are the pool's column extremes. A
    computed score is within ``e = gamma_(m+1) * (|w0| + sum_k |w_k| * mag_k)`` of the
    exact one, ``mag_k`` being the column's largest magnitude (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 3.1). So a copied row may score up to ``2e``
    away from its full-scan score, whatever kernel scores each, and the copy's best
    row is the full scan's pick when it clears the bound by ``2e`` and the runner-up
    by ``4e``; the bound carries ``e`` at both ``w`` and ``w_s``. Each round scores
    every shortlist with one batched ``matmul`` and checks every cell with numpy; a
    cell that fails the check, has used up its shortlist, or whose weights pass
    ``2^1000`` (a score could overflow) rescans the pool alone and rebuilds its
    shortlist. ``SHORTLIST`` is read when the call starts.
    """
    rounds = _parse(Count, rounds, "rounds", at_most=len(pool))
    snapshot_interval = _parse(Count, snapshot_interval, "snapshot_interval")
    features = feature_matrix(pool)
    n, m = features.shape
    if m != model.weights.size - 1:
        raise DimensionMismatch("pool features do not match the model")
    if labels.ndim != 2 or labels.shape[1] != n:
        raise DimensionMismatch("labels must be a matrix with one column per candidate")
    count, label_rows, etas, lams = len(cells), [], [], []
    padded = np.zeros((count, m + 1))
    for c, (row, eta, reg) in enumerate(cells):
        label_rows.append(_parse(Count, row, "row", at_most=len(labels) - 1))
        etas.append(_parse(Rate, eta, "eta"))
        lams.append(0.0 if reg is None else reg.lam)
        if reg is not None:
            reg.online_step()  # refuses a lambda past the stability limit
            if reg.w_a.size != m:
                raise DimensionMismatch("regularizer direction does not match model width")
            if reg.lam != 0.0:  # a zero row: w . 0 cannot overflow where w . w_reg~ might
                padded[c] = reg.padded_direction

    # Column by column: a reduction over axis 0 of C-order rows is ten times slower.
    lo = np.array([1.0] + [c.min() for c in features.T])
    hi = np.array([1.0] + [c.max() for c in features.T])
    mag = np.maximum(-lo, hi)
    # gamma_(m+1), and gamma_(m+4) for the bound's own sum, both doubled to cover the
    # roundings of the checks' arithmetic; what each product can lose to underflow
    # comes on top.
    m1 = m + 1
    gamma = 2.0 * m1 * _U / (1.0 - m1 * _U)
    gamma_sum = 2.0 * (m1 + 3) * _U / (1.0 - (m1 + 3) * _U)
    tiny = m1 * _TINY

    cell, k = np.arange(count), max(1, min(SHORTLIST, n))
    w = np.tile(model.weights, (count, 1))
    xa = np.ones((count, m + 1))  # each cell's (1, x)
    label_rows, etas, lams = np.array(label_rows, dtype=np.intp), np.array(etas), np.array(lams)
    changed = np.zeros(count, dtype=bool)
    shown = np.empty((count, rounds), dtype=np.intp)
    snapshots: list[list[tuple[int, LinearModel]]] = [[] for _ in range(count)]
    # Each cell's shortlist: its rows (transposed, for one batched matmul), their pool
    # indices, a flag on each row shown or not kept (every row, until the cell's first
    # scan), the weights at its scan, and the part of the bound fixed there: tau, the
    # scan's error term and the rounding slack on tau.
    rows, index = np.zeros((count, m, k)), np.zeros((count, k), dtype=np.intp)
    hidden, w_s, fixed = np.ones((count, k), dtype=bool), w.copy(), np.zeros(count)
    for r in range(1, rounds + 1):
        with np.errstate(over="ignore", invalid="ignore"):  # such cells rescan below
            size = np.abs(w) @ mag
            dw = w - w_s
            e = gamma * size + tiny
            bound = fixed + np.maximum(dw * hi, dw * lo).sum(axis=1) + e \
                + gamma_sum * (np.abs(dw) @ mag)
            # The intercept goes onto the two best dots only: rounding is monotone, so
            # they give the two best scores, and a tie between those fails the margin.
            # A cell with every row hidden gets -inf, which fails the bound.
            dots = np.matmul(w[:, None, 1:], rows)[:, 0]
            np.copyto(dots, -np.inf, where=hidden)
            best = dots.argmax(axis=1)
            top = dots[cell, best] + w[:, 0]
            dots[cell, best] = -np.inf
            runner = dots[cell, dots.argmax(axis=1)] + w[:, 0]
            ok = (size < _HUGE) & (top - 2.0 * e > bound) & (top - runner > 4.0 * e)
        del dots
        picks = index[cell, best]
        hidden[ok, best[ok]] = True
        for c in (~ok).nonzero()[0].tolist():
            full = score_all(w[c], features)
            full[shown[c, : r - 1]] = -np.inf
            picks[c] = i = int(full.argmax())
            hidden[c] = True
            if r < rounds and size[c] < _HUGE:
                full[i] = -np.inf
                np.negative(full, out=full)
                kept = min(k, n - r)
                order = np.argpartition(full, kept)
                tau = -full.item(order[kept])  # -inf when no unshown row is left outside
                w_s[c] = w[c]
                fixed[c] = tau + e[c] + gamma_sum * (abs(tau) if tau > -np.inf else 0.0)
                index[c, :kept] = np.sort(order[:kept])
                rows[c, :, :kept] = features[index[c, :kept]].T
                hidden[c, :kept] = False
                del order
            del full  # so the next scan and its partition are the only pool-length arrays
        shown[:, r - 1] = picks
        xa[:, 1:] = features[picks]
        changed |= _lockstep_step(w, xa, labels[label_rows, picks], etas, lams, padded)
        if snapshot_interval and r % snapshot_interval == 0:
            for c in range(count):
                snapshots[c].append((r, LinearModel(w[c]) if changed[c] else model))
    shown.setflags(write=False)
    return [(LinearModel(w[c]) if changed[c] else model,
             OnlineTrace(shown_order=shown[c], snapshots=snapshots[c])) for c in range(count)]


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
