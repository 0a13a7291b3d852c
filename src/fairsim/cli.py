"""Command-line front end.

Subcommands cover the single pipeline stages (generate, label, warm, online,
metrics) and the batch experiments (eval, evolve, sweep). Batch output goes to
--out, falling back to the FAIRSIM_OUT_DIR environment variable. Nothing is
ever seeded from the clock; every seed is a config value or flag.
"""

import argparse
import csv
import os
import sys
from dataclasses import replace
from functools import partial

from .datagen import (
    GenConfig, Size, _parse, gen_config_from_dict, generate_pool, load_pool, read_json, save_pool,
)
from .errors import ConfigError, FairsimError
from .experiments import (
    ExperimentConfig,
    experiment_config_from_dict,
    run_evolution,
    run_final_eval,
    run_reg_sweep,
    write_results,
)
from .fairreg import fit_auxiliary, load_regularizer
from .learner import load_model, run_online, save_model, save_trace, warm_start
from .metrics import load_baseline, ndcs, precision_at_k, skew_at_k
from .usermodel import (
    DEFAULT_USER_WEIGHTS,
    LABELED_COLUMNS,
    UserConfig,
    label_pool,
    load_labeled,
    save_labeled,
)

_EXPERIMENTS = {
    "eval": ("final_eval", run_final_eval),
    "evolve": ("evolution", run_evolution),
    "sweep": ("reg_sweep", run_reg_sweep),
}


def _parse_weights(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse weights {text!r}: expected comma-separated floats") from exc


def _given(args, *names) -> dict:
    """The flags among ``names`` that ``args`` holds and are not None, keyed by name."""
    return {name: value for name in names if (value := getattr(args, name, None)) is not None}


def _cmd_generate(args) -> list[str]:
    cfg = gen_config_from_dict(read_json(args.config)) if args.config else GenConfig()
    cfg = replace(cfg, **_given(args, "n", "p_group", "seed"))
    save_pool(generate_pool(cfg), args.out)
    return [args.out]


def _cmd_label(args) -> list[str]:
    pool = load_pool(args.pool)
    user = UserConfig(p_bias=args.p_bias, weights=_parse_weights(args.weights), seed=args.seed)
    save_labeled(label_pool(pool, user), args.out)
    return [args.out]


def _cmd_warm(args) -> list[str]:
    pool = load_labeled(args.pool)
    model = warm_start(pool, **_given(args, "sample_size", "rounds", "eta", "seed"))
    save_model(model, args.out, 0)
    return [args.out]


def _cmd_online(args) -> list[str]:
    model, _ = load_model(args.model)
    pool = load_labeled(args.pool)
    regularizer = load_regularizer(args.regularizer) if args.regularizer else None
    if args.lam is not None:
        regularizer = (regularizer or fit_auxiliary(pool)).with_strength(args.lam)
    final, trace = run_online(model, pool, args.rounds, args.eta, regularizer=regularizer)
    save_model(final, args.out, args.rounds)
    if args.trace:
        save_trace(trace, pool, args.trace)
    return [path for path in (args.out, args.trace) if path]


def _cmd_metrics(args) -> list[str]:
    if not args.k and args.ndcs_k is None:
        raise ConfigError("metrics needs --k or --ndcs-k")
    with open(args.ranking, newline="") as fh:
        header = next(csv.reader(fh), [])
    if header[-len(LABELED_COLUMNS):] == LABELED_COLUMNS:
        ranking = load_labeled(args.ranking)
        protected, labels = ranking.protected, ranking.labels
    else:
        protected, labels = load_pool(args.ranking).protected, None
    baseline, group = load_baseline(args.baseline), _given(args, "group")
    for k in args.k or []:
        value = skew_at_k(protected, k, baseline, **group)
        print(f"skew@{k} = {value!r}")
        if labels is not None:
            print(f"precision@{k} = {precision_at_k(labels, k)!r}")
    if args.ndcs_k is not None:
        print(f"ndcs@{args.ndcs_k} = {ndcs(protected, args.ndcs_k, baseline, **group)!r}")
    return []


def _load_experiment_config(args) -> ExperimentConfig:
    cfg = experiment_config_from_dict(read_json(args.config)) if args.config else ExperimentConfig()
    return replace(cfg, **_given(args, "seeds", "p_bias_grid", "eta_grid", "lambda_grid"))


def _run_one_seed(kind: str, cfg: ExperimentConfig, seed: int, verbose: bool):
    _, runner = _EXPERIMENTS[kind]
    return runner(replace(cfg, seeds=(seed,)), verbose=verbose)


def _cmd_experiment(args) -> list[str]:
    kind = args.command
    experiment, runner = _EXPERIMENTS[kind]
    cfg = _load_experiment_config(args)
    out_dir = args.out or os.environ.get("FAIRSIM_OUT_DIR")
    if not out_dir:
        raise ConfigError("no output directory: pass --out or set FAIRSIM_OUT_DIR")
    _parse(Size, args.jobs, "--jobs")
    if args.jobs > 1 and len(cfg.seeds) > 1:
        # Imported here: the process pool costs about 50 ms of start-up.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(args.jobs, len(cfg.seeds))) as pool:
            run = partial(_run_one_seed, kind, cfg, verbose=args.verbose)
            results = [res for part in pool.map(run, cfg.seeds) for res in part]
    else:
        results = runner(cfg, verbose=args.verbose)
    return [write_results(results, out_dir, experiment, cfg)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="draw a synthetic pool and write it as CSV")
    p.add_argument("--config", help="pool config JSON")
    p.add_argument("--n", type=int)
    p.add_argument("--p-group", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("label", help="materialize user labels for a pool")
    p.add_argument("--pool", required=True)
    p.add_argument("--p-bias", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weights", default=",".join(str(w) for w in DEFAULT_USER_WEIGHTS))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("warm", help="train a warm-start model on a labeled pool")
    p.add_argument("--pool", required=True)
    p.add_argument("--sample-size", type=int)
    p.add_argument("--rounds", type=int)
    p.add_argument("--eta", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_warm)

    p = sub.add_parser("online", help="run greedy online personalization rounds")
    p.add_argument("--model", required=True)
    p.add_argument("--pool", required=True)
    p.add_argument("--rounds", type=int, default=ExperimentConfig.online_rounds)
    p.add_argument("--eta", type=float, default=ExperimentConfig.sweep_eta)
    p.add_argument("--regularizer", help="fitted regularizer JSON")
    p.add_argument("--lambda", type=float, dest="lam",
                   help="penalty strength; fits on the pool when no --regularizer is given")
    p.add_argument("--out", required=True)
    p.add_argument("--trace")
    p.set_defaults(func=_cmd_online)

    p = sub.add_parser("metrics", help="score a stored ranking against a baseline")
    p.add_argument("--ranking", required=True, help="pool or labeled-pool CSV in rank order")
    p.add_argument("--baseline", required=True, help="baseline JSON")
    p.add_argument("--k", type=int, action="append")
    p.add_argument("--ndcs-k", type=int)
    p.add_argument("--group", type=int)
    p.set_defaults(func=_cmd_metrics)

    for kind, (experiment, _) in _EXPERIMENTS.items():
        p = sub.add_parser(kind, help=f"run the {experiment} experiment grid")
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--out", help="output directory (default: FAIRSIM_OUT_DIR)")
        p.add_argument("--seed", type=int, action="append", dest="seeds", metavar="SEED",
                       help="replace the seed list (repeatable)")
        p.add_argument("--p-bias", type=float, action="append", dest="p_bias_grid",
                       metavar="P_BIAS", help="replace the p_bias grid (repeatable)")
        # The sweep runs every cell at sweep_eta; the other studies leave lambda at 0.
        grid = "lambda" if kind == "sweep" else "eta"
        p.add_argument(f"--{grid}", type=float, action="append", dest=f"{grid}_grid",
                       metavar=grid.upper(), help=f"replace the {grid} grid (repeatable)")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel seed workers (at most one per seed)")
        p.add_argument("--verbose", action="store_true")
        p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        written = args.func(args)
    except (FairsimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
