"""Independent re-implementations used to cross-check the package.

Everything here favors clarity over speed: explicit loops and scalar math,
sharing no code with the package so that a bug cannot hide in both places.
"""

import math

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
