"""Independent re-implementations used to cross-check the package.

Everything here favors clarity over speed: explicit loops and scalar math,
sharing no code with the package so that a bug cannot hide in both places.
The ``*_expression`` oracles keep the plain numpy forms of the pool build and
the online step that the package computes with fewer temporaries; tests pin
the two to the same bits.
"""

import math

import numpy as np

FLOOR = 1e-6


def skew_oracle(flags, k, p_base):
    """Skew@k from a list of 0/1 group flags in rank order, by direct count."""
    count = 0
    for v in flags[:k]:
        if v == 1:
            count += 1
    p_top = count / k
    return math.log(max(p_top, FLOOR) / max(p_base, FLOOR))


def ndcs_oracle(flags, k_max, p_base):
    """Discounted skew average over prefixes 1..k_max, by direct summation."""
    total = 0.0
    norm = 0.0
    for j in range(1, k_max + 1):
        discount = 1.0 / math.log2(j + 1)
        total += skew_oracle(flags, j, p_base) * discount
        norm += discount
    return total / norm


def precision_oracle(labels, k):
    hits = 0
    for v in labels[:k]:
        hits += int(v)
    return hits / k


def fair_scores_oracle(pool, weights):
    """Per-candidate linear score computed with scalar arithmetic."""
    scores = []
    for features in pool.features:
        s = weights[0]
        for w, x in zip(weights[1:], features):
            s += w * float(x)
        scores.append(s)
    return scores


def baseline_oracle(pool, weights):
    """Qualified-share baseline by direct counting under the fair rule."""
    scores = fair_scores_oracle(pool, weights)
    qualified = [int(a) for a, s in zip(pool.protected, scores) if s >= 0.0]
    total = len(qualified)
    ones = sum(1 for a in qualified if a == 1)
    return {0: (total - ones) / total, 1: ones / total}, total


def auc_oracle(scores, flags):
    """Rank-free Mann-Whitney AUC over every (positive, negative) pair."""
    pos = [s for s, a in zip(scores, flags) if a == 1]
    neg = [s for s, a in zip(scores, flags) if a == 0]
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def greedy_online_oracle(w, features, labels, rounds, score, step, snapshot_interval=0):
    """The greedy online loop with a boolean mask of shown rows, rebuilt every round.

    ``score(w, features)`` and ``step(w, x, y)`` come from the caller, so this
    pins only the selection: which row each round shows. Returns the final
    weights, the shown row indices in order, and the (round, weights) pairs
    after every ``snapshot_interval``-th round (none when it is 0).
    """
    available = np.ones(len(labels), dtype=bool)
    shown = []
    snapshots = []
    for r in range(1, rounds + 1):
        scores = score(w, features)
        scores[~available] = -np.inf
        i = int(np.argmax(scores))
        shown.append(i)
        available[i] = False
        w = step(w, features[i], int(labels[i]))
        if snapshot_interval > 0 and r % snapshot_interval == 0:
            snapshots.append((r, w))
    return w, shown, snapshots


def generate_pool_expression(cfg):
    """A pool's ``(features, protected)``, drawn in the pinned order into a list of
    columns that ``np.column_stack`` joins."""
    rng = np.random.default_rng(cfg.seed)
    protected = (rng.random(cfg.n) < cfg.p_group).astype(np.int8)
    columns = []
    for dist in cfg.harmless_dists:
        if hasattr(dist, "lo"):
            columns.append(rng.uniform(dist.lo, dist.hi, cfg.n))
        else:
            columns.append(rng.normal(dist.mean, dist.std, cfg.n))
    for proxy in cfg.proxy_dists:
        z = rng.standard_normal(cfg.n)
        mean = np.where(protected == 1, proxy.group1.mean, proxy.group0.mean)
        std = np.where(protected == 1, proxy.group1.std, proxy.group0.std)
        columns.append(mean + std * z)
    return np.column_stack(columns), protected


def scores_expression(features, weights):
    """``w0 + f @ w[1:]``, building the intercept sum as a second array."""
    return weights[0] + features @ weights[1:]


def perceptron_step_expression(w, x, y, eta):
    """Perceptron step on ``(1, x)`` built by concatenation, predicting with ``w @ xa``.

    Returns ``w`` itself when the prediction is right.
    """
    xa = np.concatenate(([1.0], np.asarray(x, dtype=float)))
    err = float(y) - (1.0 if float(w @ xa) >= 0.0 else 0.0)
    return w if err == 0.0 else w + (eta * err) * xa


def regularized_step_expression(w, x, y, eta, w_reg, lam):
    """Penalised step with the padded direction ``(0, w_reg)`` rebuilt on every call."""
    new = perceptron_step_expression(w, x, y, eta)
    if lam != 0.0:
        padded = np.concatenate(([0.0], w_reg))
        aligned = float(w @ padded)
        if aligned != 0.0:
            new = new - (lam * aligned) * padded
    return new


def rank_expression(scores):
    """Order of ``-scores``: the fast sort if its keys strictly increase, else the stable sort."""
    keys = -scores
    order = np.argsort(keys)
    ranked = keys[order]
    if not np.all(ranked[:-1] < ranked[1:]):
        order = np.argsort(keys, kind="stable")
    return order
