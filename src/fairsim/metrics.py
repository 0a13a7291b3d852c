"""Fairness and relevance metrics for ranked candidate lists.

Skew@k compares the share of a group in the top k of a ranking against that
group's share among all qualified candidates:

    Skew_v@k = ln( p_{v@k} / p_{v,qualified} )

where "qualified" means passing the fair acceptance rule ``w0 + w . x >= 0``.
Both proportions are floored at ``EPSILON_FLOOR`` so empty groups stay finite.
Zero means the top k mirrors the qualified population; positive values mean
over-representation.

NDCS aggregates skew across prefix sizes with a logarithmic position discount:

    NDCS = (1 / Z) * sum_{j=1..k_max} Skew_v@j / log2(j + 1),
    Z    = sum_{j=1..k_max} 1 / log2(j + 1).

Precision@k is the fraction of the top k the user would accept, judged by the
materialized labels. Every metric reads arrays in rank order: the protected
values of the ranked candidates and, for precision, their labels.
"""

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .datagen import (
    Group, Pool, Share, Size, _parse, check_fields, feature_matrix, protected_values,
    read_json_keys, write_json,
)
from .errors import ConfigError, EmptyQualifiedPool
from .usermodel import UserConfig, score_all

EPSILON_FLOOR = 1e-6


@dataclass(frozen=True)
class Baseline:
    """Qualified-population composition a ranking is judged against.

    ``p_qualified[v]`` is the share, in [0, 1], of protected value ``v`` (0 or
    1, both required) among candidates that pass the fair acceptance rule, so
    the two shares sum to 1 (within 1e-9); ``qualified_count``, an integer of
    at least 1, is how many do.
    """

    p_qualified: dict[int, Share]
    qualified_count: Size

    def __post_init__(self):
        check_fields(self)
        if set(self.p_qualified) != {0, 1}:
            raise ConfigError(f"baseline groups must be [0, 1], got {sorted(self.p_qualified)}")
        total = sum(self.p_qualified.values())
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"baseline shares must sum to 1, got {total}")


@dataclass(frozen=True)
class MetricsReport:
    """Metric values of one ranking at the requested cutoffs.

    ``counts_at[k]`` is the raw number of group members in the top k backing
    ``skew_at[k]``; ``ndcs`` aggregates skew over every prefix up to its own
    summation limit.
    """

    skew_at: dict[int, float]
    ndcs: float
    precision_at: dict[int, float]
    counts_at: dict[int, int]


def compute_baseline(pool: Pool, fair_user: UserConfig) -> Baseline:
    """Measure the qualified population of a pool under the fair rule.

    Only the user's weights matter here; any bias setting on the config is
    ignored because qualification is defined by the unbiased rule.
    """
    features = feature_matrix(pool)
    attrs = protected_values(pool)
    qualified = score_all(fair_user.weights, features) >= 0.0
    total = int(qualified.sum())
    if total == 0:
        raise EmptyQualifiedPool("no candidate passes the fair acceptance rule")
    ones = int((attrs[qualified] == 1).sum())
    return Baseline(
        p_qualified={0: (total - ones) / total, 1: ones / total},
        qualified_count=total,
    )


def _qualified_share(baseline: Baseline, group: int) -> float:
    """The baseline share of ``group``, floored at ``EPSILON_FLOOR``."""
    return max(baseline.p_qualified[group], EPSILON_FLOOR)


def skew_at_k(protected: np.ndarray, k: int, baseline: Baseline, group: int = 1) -> float:
    """Log-ratio of a group's share in the top k to its qualified share."""
    k, group = _parse(Size, k, "k", at_most=len(protected)), _parse(Group, group, "group")
    p_top = int(np.count_nonzero(np.equal(protected[:k], group))) / k
    return math.log(max(p_top, EPSILON_FLOOR) / _qualified_share(baseline, group))


def ndcs(protected: np.ndarray, k_max: int, baseline: Baseline, group: int = 1) -> float:
    """Discount-weighted average of Skew@j over prefixes j = 1..k_max."""
    k_max = _parse(Size, k_max, "k_max", at_most=len(protected))
    group = _parse(Group, group, "group")
    prefix = np.arange(1, k_max + 1, dtype=float)
    p_top = np.cumsum(np.equal(protected[:k_max], group)) / prefix
    skews = np.log(np.maximum(p_top, EPSILON_FLOOR) / _qualified_share(baseline, group))
    discounts = 1.0 / np.log2(prefix + 1.0)
    return float((skews @ discounts) / discounts.sum())


def precision_at_k(labels: np.ndarray, k: int) -> float:
    """Fraction of the top k the user accepts; ``labels`` follow ranking order."""
    k = _parse(Size, k, "k", at_most=len(labels))
    return int(np.sum(labels[:k])) / k


def evaluate_ranking(
    protected: np.ndarray,
    labels: np.ndarray,
    baseline: Baseline,
    k_list: Sequence[int],
    ndcs_k_max: int,
) -> MetricsReport:
    """Build a group-1 report for one ranking; ``protected`` and ``labels`` follow rank order."""
    if len(protected) != len(labels):
        raise ConfigError("protected values and labels must have equal length")
    return MetricsReport(
        skew_at={k: skew_at_k(protected, k, baseline) for k in k_list},
        ndcs=ndcs(protected, ndcs_k_max, baseline),
        precision_at={k: precision_at_k(labels, k) for k in k_list},
        counts_at={k: int(np.count_nonzero(np.equal(protected[:k], 1))) for k in k_list},
    )


def save_baseline(baseline: Baseline, path: str | Path) -> None:
    """Write a baseline as JSON: ``{"p_qualified": {...}, "qualified_count": n}``."""
    write_json(path, {
        "p_qualified": {str(v): p for v, p in sorted(baseline.p_qualified.items())},
        "qualified_count": baseline.qualified_count,
    })


def load_baseline(path: str | Path) -> Baseline:
    """Read a baseline written by :func:`save_baseline`."""
    def build(shares, count):
        if isinstance(shares, dict):  # JSON keys are strings; Baseline checks the rest
            shares = {int(v) if v.isdecimal() else v: p for v, p in shares.items()}
        return Baseline(p_qualified=shares, qualified_count=count)

    return read_json_keys(path, ["p_qualified", "qualified_count"], build)
