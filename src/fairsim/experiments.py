"""Experiment harness: grid runs, per-seed plumbing, and result persistence.

Every experiment follows the same per-seed recipe. A fair pool (bias 0) trains
the shared warm-start model; a second, independently drawn pool is labeled by
the biased user and drives the online rounds; the baseline for skew is the
fair-qualified composition of that online pool. All randomness is derived from
the experiment seed through fixed, documented streams, so reruns are
bit-identical and the warm model is shared across every cell of a seed.
"""

import csv
import json
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .datagen import (
    GenConfig,
    Pool,
    check_fields,
    config_from_dict,
    config_to_dict,
    feature_matrix,
    generate_pool,
)
from .errors import ConfigError
from .fairreg import FairRegularizer, fit_auxiliary, save_regularizer
from .learner import LinearModel, OnlineTrace, rank_by_model, run_online, save_model, warm_start
from .metrics import (
    CSV_FIELDS,
    Baseline,
    MetricsReport,
    compute_baseline,
    evaluate_ranking,
    report_rows,
    save_baseline,
)
from .usermodel import DEFAULT_USER_WEIGHTS, LabeledPool, UserConfig, label_pool

# Sub-stream tags for deriving independent seeds from one experiment seed.
STREAM_FAIR_POOL = 0
STREAM_ONLINE_POOL = 1
STREAM_FAIR_USER = 2
STREAM_ONLINE_USER = 3
STREAM_WARM = 4


def derive_seed(root: int, stream: int) -> int:
    """Deterministic 64-bit sub-seed for one stream of an experiment seed."""
    return int(np.random.SeedSequence((int(root), int(stream))).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class ExperimentConfig:
    """Grids, defaults, and shared settings for every experiment."""

    gen: GenConfig = GenConfig()
    user_weights: tuple[float, ...] = DEFAULT_USER_WEIGHTS
    p_bias_grid: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    eta_grid: tuple[float, ...] = (1e-4, 1e-3, 0.01, 0.05, 0.1)
    lambda_grid: tuple[float, ...] = (0.0, 0.1, 1.0, 10.0, 100.0)
    warm_sample_size: int = 1000
    warm_rounds: int = 1000
    warm_eta: float = 0.3
    online_rounds: int = 1000
    snapshot_interval: int = 25
    seeds: tuple[int, ...] = (3, 5, 7, 9, 11)
    k_list: tuple[int, ...] = (25, 100, 500, 1000)
    sweep_eta: float = 0.01
    alpha_a: float = 1e-3

    def __post_init__(self):
        check_fields(self)
        if len(self.user_weights) != self.gen.m + 1:
            raise ConfigError(
                f"user_weights of length {len(self.user_weights)} do not fit {self.gen.m} attributes"
            )
        for name in ("p_bias_grid", "eta_grid", "lambda_grid", "seeds", "k_list"):
            if len(getattr(self, name)) == 0:
                raise ConfigError(f"{name} must not be empty")
        for p in self.p_bias_grid:
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"p_bias value {p} not in [0, 1]")
        for name in ("eta_grid", "lambda_grid", "warm_eta", "sweep_eta", "alpha_a"):
            value = getattr(self, name)
            if min(value if isinstance(value, tuple) else (value,)) < 0.0:
                raise ConfigError(f"{name} must be non-negative, got {value}")
        for seed in self.seeds:
            if not 0 <= seed < 2**64:
                raise ConfigError(f"seed {seed} is not a 64-bit unsigned integer")
        if not 1 <= self.warm_sample_size <= self.gen.n:
            raise ConfigError("warm_sample_size must lie in [1, pool size]")
        if self.warm_rounds < 0 or self.online_rounds < 0:
            raise ConfigError("round counts must be non-negative")
        if self.online_rounds > self.gen.n:
            raise ConfigError("online_rounds cannot exceed the pool size")
        if self.snapshot_interval < 0:
            raise ConfigError("snapshot_interval must be non-negative")
        for k in self.k_list:
            if not 1 <= k <= self.gen.n:
                raise ConfigError(f"k={k} out of range for pools of {self.gen.n}")


def experiment_config_from_dict(obj) -> ExperimentConfig:
    """Config from a JSON object; see :func:`fairsim.datagen.config_from_dict`."""
    return config_from_dict(ExperimentConfig, obj, "experiment config")


@dataclass(eq=False)
class RunResult:
    """One grid cell: coordinates, trained model, trace, and metric reports."""

    p_bias: float
    eta: float
    lam: float
    seed: int
    final_model: LinearModel
    warm_model: LinearModel
    trace: OnlineTrace
    report_final: MetricsReport
    report_warm: MetricsReport | None
    reports_evolution: list[tuple[int, MetricsReport]]
    baseline: Baseline
    regularizer: FairRegularizer | None = None


@dataclass(eq=False)
class SeedContext:
    """Everything one experiment seed shares across its grid cells."""

    seed: int
    warm: LinearModel
    baseline: Baseline
    online_pool: Pool
    online_features: np.ndarray
    labeled: dict[float, LabeledPool]
    regularizer: FairRegularizer | None


def build_seed_context(
    cfg: ExperimentConfig,
    seed: int,
    p_bias_values: tuple[float, ...],
    with_regularizer: bool = False,
) -> SeedContext:
    """Generate pools, warm model, baseline, and labels for one seed.

    Stream assignments: the fair pool, online pool, fair user, biased user,
    and warm-start subsampling each get an independent sub-seed derived from
    the experiment seed. Labels are materialized once per (seed, p_bias), so
    every eta and lambda cell of a seed sees identical feedback.
    """
    fair_pool = generate_pool(replace(cfg.gen, seed=derive_seed(seed, STREAM_FAIR_POOL)))
    online_pool = generate_pool(replace(cfg.gen, seed=derive_seed(seed, STREAM_ONLINE_POOL)))
    fair_user = UserConfig(
        p_bias=0.0, weights=cfg.user_weights, seed=derive_seed(seed, STREAM_FAIR_USER)
    )
    fair_labeled = label_pool(fair_pool, fair_user)
    warm = warm_start(
        fair_labeled,
        sample_size=cfg.warm_sample_size,
        rounds=cfg.warm_rounds,
        eta=cfg.warm_eta,
        seed=derive_seed(seed, STREAM_WARM),
    )
    baseline = compute_baseline(online_pool, fair_user)
    user_seed = derive_seed(seed, STREAM_ONLINE_USER)
    labeled = {
        p_bias: label_pool(
            online_pool,
            UserConfig(p_bias=p_bias, weights=cfg.user_weights, seed=user_seed),
        )
        for p_bias in p_bias_values
    }
    regularizer = fit_auxiliary(fair_pool, alpha_a=cfg.alpha_a) if with_regularizer else None
    return SeedContext(
        seed=seed,
        warm=warm,
        baseline=baseline,
        online_pool=online_pool,
        online_features=feature_matrix(online_pool),
        labeled=labeled,
        regularizer=regularizer,
    )


def _ranked_report(
    model: LinearModel,
    ctx: SeedContext,
    labels: np.ndarray,
    cfg: ExperimentConfig,
    rows=slice(None),
) -> MetricsReport:
    """Re-rank the online pool's ``rows`` (default: all) by ``model`` and report metrics.

    NDCS covers the top ``online_rounds`` positions, or every row if fewer are ranked.
    """
    order = rank_by_model(model, ctx.online_features[rows])
    ks = [k for k in cfg.k_list if k <= len(order)]
    k_max = min(cfg.online_rounds, len(order))
    protected, ranked_labels = ctx.online_pool.protected[rows][order], labels[rows][order]
    return evaluate_ranking(protected, ranked_labels, ctx.baseline, ks, ndcs_k_max=k_max)


def _run_grid(
    cfg: ExperimentConfig, experiment: str, cells: list[tuple[float, float]], *,
    warm_reports: bool, snapshot_interval: int = 0, with_regularizer: bool = False,
    verbose: bool = False,
) -> list[RunResult]:
    """The cell loop of every study: per seed, p_bias and ``(eta, lam)`` cell, run
    the shared warm model online (penalized at ``lam`` if ``with_regularizer``,
    ``lam = 0`` included), then report the re-ranked pool for the final model and
    each snapshot. ``warm_reports`` adds one warm-model report per (seed, p_bias).
    """
    results = []
    for seed in cfg.seeds:
        ctx = build_seed_context(cfg, seed, cfg.p_bias_grid, with_regularizer=with_regularizer)
        for p_bias in cfg.p_bias_grid:
            pool = ctx.labeled[p_bias]
            warm_report = _ranked_report(ctx.warm, ctx, pool.labels, cfg) if warm_reports else None
            for eta, lam in cells:
                reg = ctx.regularizer.with_strength(lam) if with_regularizer else None
                final, trace = run_online(
                    ctx.warm, pool, cfg.online_rounds, eta,
                    regularizer=reg, snapshot_interval=snapshot_interval,
                )
                evolution = [
                    (r, _ranked_report(snapshot, ctx, pool.labels, cfg, trace.shown_order[:r]))
                    for r, snapshot in trace.snapshots
                ]
                results.append(RunResult(
                    p_bias=p_bias, eta=eta, lam=lam, seed=seed,
                    final_model=final, warm_model=ctx.warm, trace=trace,
                    report_final=_ranked_report(final, ctx, pool.labels, cfg),
                    report_warm=warm_report, reports_evolution=evolution,
                    baseline=ctx.baseline, regularizer=reg,
                ))
            if verbose:
                print(f"[{experiment}] seed={seed} p_bias={p_bias:g} done")
    return results


def run_final_eval(cfg: ExperimentConfig, verbose: bool = False) -> list[RunResult]:
    """Grid over (p_bias, eta, seed): online-personalize the shared warm model,
    then re-rank the full online pool with the final model and report metrics.
    The untouched warm model is evaluated on the same pool as a comparison
    series."""
    cells = [(eta, 0.0) for eta in cfg.eta_grid]
    return _run_grid(cfg, "final_eval", cells, warm_reports=True, verbose=verbose)


def run_evolution(cfg: ExperimentConfig, verbose: bool = False) -> list[RunResult]:
    """Grid over (p_bias, eta, seed) with periodic interruption: every
    ``snapshot_interval`` rounds, re-rank the candidates shown so far with the
    current model snapshot and report metrics against the shared baseline.
    NDCS at a snapshot sums over every prefix of the shown list."""
    if cfg.snapshot_interval < 1:
        raise ConfigError("evolution needs snapshot_interval >= 1")
    cells = [(eta, 0.0) for eta in cfg.eta_grid]
    return _run_grid(
        cfg, "evolution", cells,
        warm_reports=False, snapshot_interval=cfg.snapshot_interval, verbose=verbose,
    )


def run_reg_sweep(cfg: ExperimentConfig, verbose: bool = False) -> list[RunResult]:
    """Grid over (p_bias, lambda, seed) at the fixed ``sweep_eta``: the
    regularizer is fitted once per seed on the fair pool, its strength swept,
    and each cell evaluated like a final-eval cell. The lambda = 0 column
    reproduces the unregularized runs bit for bit."""
    cells = [(cfg.sweep_eta, lam) for lam in cfg.lambda_grid]
    return _run_grid(
        cfg, "reg_sweep", cells, warm_reports=True, with_regularizer=True, verbose=verbose
    )


def results_to_rows(results: list[RunResult], experiment: str) -> list[dict]:
    """Flatten results into metric rows with a deterministic global order."""
    rows = []
    for res in results:
        common = dict(seed=res.seed, p_bias=res.p_bias, eta=res.eta, lam=res.lam)
        rows.extend(report_rows(res.report_final, config_id=f"{experiment}:online", **common))
        if res.report_warm is not None:
            rows.extend(report_rows(res.report_warm, config_id=f"{experiment}:warm", **common))
        for round_index, report in res.reports_evolution:
            rows.extend(
                report_rows(
                    report, config_id=f"{experiment}:online:round={round_index:04d}", **common
                )
            )
    rows.sort(key=lambda r: (r["p_bias"], r["eta"], r["lambda"], r["seed"], r["k"], r["config_id"]))
    return rows


def _cell_stem(res: RunResult) -> str:
    return f"pbias{res.p_bias:g}_eta{res.eta:g}_lam{res.lam:g}_seed{res.seed}"


def write_results(
    results: list[RunResult], out_dir: str | Path, experiment: str, cfg: ExperimentConfig
) -> Path:
    """Persist one experiment: metrics CSV, model JSONs, and a manifest.

    The CSV is sorted by (p_bias, eta, lambda, seed, k), so file bytes do not
    depend on execution order. The manifest carries the resolved config and
    the only timestamp in the output tree.
    """
    exp_dir = Path(out_dir) / experiment
    models_dir = exp_dir / "models"
    models_dir.mkdir(parents=True, exist_ok=True)

    rows = results_to_rows(results, experiment)
    with open(exp_dir / "metrics.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        for row in rows:
            writer.writerow([row[name] for name in CSV_FIELDS])

    seen_seeds = set()
    for res in results:
        save_model(res.final_model, models_dir / f"{_cell_stem(res)}.json", cfg.online_rounds)
        if res.seed not in seen_seeds:
            seen_seeds.add(res.seed)
            save_model(res.warm_model, models_dir / f"warm_seed{res.seed}.json", 0)
            save_baseline(res.baseline, exp_dir / f"baseline_seed{res.seed}.json")
            if res.regularizer is not None:
                save_regularizer(
                    res.regularizer.with_strength(0.0),
                    exp_dir / f"regularizer_seed{res.seed}.json",
                )

    manifest = {
        "experiment": experiment,
        "config": config_to_dict(cfg),
        "version": __version__,
        "rng": "numpy default_rng (PCG64)",
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    with open(exp_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return exp_dir
