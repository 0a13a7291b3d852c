import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fairsim
from fairsim import (
    ExperimentConfig,
    compute_baseline,
    default_user,
    feature_matrix,
    fit_auxiliary,
    label_pool,
    load_labeled,
    load_model,
    load_pool,
    ndcs,
    rank_by_model,
    save_baseline,
    save_labeled,
    save_regularizer,
    skew_at_k,
    warm_start,
)
from fairsim.cli import _load_experiment_config, build_parser, main

TINY_EXPERIMENT = {
    "gen": None,  # filled per test with a small pool spec
    "p_bias_grid": [0.0, 1.0],
    "eta_grid": [0.05],
    "lambda_grid": [0.0, 1.0],
    "warm_sample_size": 20,
    "warm_rounds": 30,
    "online_rounds": 15,
    "snapshot_interval": 5,
    "seeds": [1, 2],
    "k_list": [5, 10],
    "sweep_eta": 0.05,
}


def write_experiment_config(tmp_path):
    cfg = dict(TINY_EXPERIMENT)
    cfg["gen"] = {
        "p_group": 0.5,
        "harmless_dists": [{"kind": "uniform", "lo": 0.0, "hi": 1.0}],
        "proxy_dists": [
            {
                "group0": {"kind": "normal", "mean": 0.35, "std": 0.12},
                "group1": {"kind": "normal", "mean": 0.65, "std": 0.12},
            },
            {
                "group0": {"kind": "normal", "mean": 0.65, "std": 0.12},
                "group1": {"kind": "normal", "mean": 0.35, "std": 0.12},
            },
        ],
        "n": 60,
        "seed": 0,
    }
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(cfg))
    return path


def test_pipeline_generate_label_warm_online_metrics(tmp_path, capsys):
    pool_csv = tmp_path / "pool.csv"
    labeled_csv = tmp_path / "labeled.csv"
    warm_json = tmp_path / "warm.json"
    final_json = tmp_path / "final.json"
    trace_csv = tmp_path / "trace.csv"

    assert main(["generate", "--n", "80", "--seed", "3", "--out", str(pool_csv)]) == 0
    assert main(
        ["label", "--pool", str(pool_csv), "--p-bias", "0.5", "--seed", "2", "--out", str(labeled_csv)]
    ) == 0
    assert main(
        [
            "warm", "--pool", str(labeled_csv), "--sample-size", "30", "--rounds", "40",
            "--seed", "5", "--out", str(warm_json),
        ]
    ) == 0
    assert main(
        [
            "online", "--model", str(warm_json), "--pool", str(labeled_csv), "--rounds", "25",
            "--eta", "0.05", "--out", str(final_json), "--trace", str(trace_csv),
        ]
    ) == 0
    assert trace_csv.read_text().splitlines()[0] == "round,pool_index,label,protected"

    baseline_json = tmp_path / "baseline.json"
    pool = load_pool(pool_csv)
    save_baseline(compute_baseline(pool, default_user(0.0)), baseline_json)

    # rank the labeled pool by the final model and ask the CLI to score it
    labeled = load_labeled(labeled_csv)
    model, _ = load_model(final_json)
    order = rank_by_model(model, feature_matrix(labeled))
    ranked = type(labeled)(
        labeled.features[order], labeled.protected[order], labeled.labels[order],
        labeled.bias_coin[order],
    )
    ranked_csv = tmp_path / "ranked.csv"
    save_labeled(ranked, ranked_csv)
    capsys.readouterr()
    assert main(
        [
            "metrics", "--ranking", str(ranked_csv), "--baseline", str(baseline_json),
            "--k", "10", "--ndcs-k", "25",
        ]
    ) == 0
    out = capsys.readouterr().out.splitlines()
    baseline = compute_baseline(pool, default_user(0.0))
    want_skew = skew_at_k(ranked.protected, 10, baseline)
    want_prec = float(ranked.labels[:10].mean())
    want_ndcs = ndcs(ranked.protected, 25, baseline)
    assert out[0] == f"skew@10 = {want_skew!r}"
    assert out[1] == f"precision@10 = {want_prec!r}"
    assert out[2] == f"ndcs@25 = {want_ndcs!r}"


def test_metrics_on_plain_pool_prints_no_precision(tmp_path, capsys):
    pool_csv = tmp_path / "pool.csv"
    baseline_json = tmp_path / "baseline.json"
    assert main(["generate", "--n", "40", "--seed", "8", "--out", str(pool_csv)]) == 0
    pool = load_pool(pool_csv)
    save_baseline(compute_baseline(pool, default_user(0.0)), baseline_json)
    capsys.readouterr()
    assert main(
        ["metrics", "--ranking", str(pool_csv), "--baseline", str(baseline_json), "--k", "5"]
    ) == 0
    out = capsys.readouterr().out
    assert "skew@5" in out
    assert "precision" not in out


def test_online_fits_regularizer_when_only_lambda_given(tmp_path):
    pool_csv = tmp_path / "pool.csv"
    labeled_csv = tmp_path / "labeled.csv"
    warm_json = tmp_path / "warm.json"
    main(["generate", "--n", "60", "--seed", "4", "--out", str(pool_csv)])
    main(["label", "--pool", str(pool_csv), "--p-bias", "1.0", "--out", str(labeled_csv)])
    main(
        ["warm", "--pool", str(labeled_csv), "--sample-size", "20", "--rounds", "30",
         "--out", str(warm_json)]
    )
    fitted = tmp_path / "fitted.json"
    assert main(
        ["online", "--model", str(warm_json), "--pool", str(labeled_csv), "--rounds", "10",
         "--lambda", "0.5", "--out", str(fitted)]
    ) == 0

    # the same run with an explicit regularizer file gives the same weights
    reg_json = tmp_path / "reg.json"
    save_regularizer(fit_auxiliary(load_labeled(labeled_csv)), reg_json)
    explicit = tmp_path / "explicit.json"
    assert main(
        ["online", "--model", str(warm_json), "--pool", str(labeled_csv), "--rounds", "10",
         "--regularizer", str(reg_json), "--lambda", "0.5", "--out", str(explicit)]
    ) == 0
    a, _ = load_model(fitted)
    b, _ = load_model(explicit)
    np.testing.assert_array_equal(a.weights, b.weights)


def test_online_lambda_past_the_float_range_prints_one_error_line(tmp_path, capfd):
    # capfd, not capsys: LAPACK would print its own complaints straight to fd 2.
    pool_csv = tmp_path / "pool.csv"
    assert main(["generate", "--n", "200", "--seed", "4", "--out", str(pool_csv)]) == 0
    labeled = label_pool(load_pool(pool_csv), default_user(0.5, 1))
    huge_csv = tmp_path / "huge.csv"
    save_labeled(replace(labeled, features=labeled.features * 1e200), huge_csv)
    zero_json = tmp_path / "zero.json"
    zero_json.write_text(json.dumps({"weights": [0.0] * (labeled.features.shape[1] + 1),
                                     "round": 0}))
    capfd.readouterr()
    assert main(["online", "--model", str(zero_json), "--pool", str(huge_csv), "--lambda", "1",
                 "--out", str(tmp_path / "m.json")]) == 1
    out, err = capfd.readouterr()
    assert (out, err) == ("", "error: auxiliary fit: the system overflows the float range\n")


def test_eval_experiment_writes_outputs(tmp_path):
    cfg_path = write_experiment_config(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["eval", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    exp = out_dir / "final_eval"
    assert (exp / "metrics.csv").exists()
    assert (exp / "manifest.json").exists()
    manifest = json.loads((exp / "manifest.json").read_text())
    assert manifest["experiment"] == "final_eval"
    assert manifest["config"]["seeds"] == [1, 2]


def test_experiment_grid_overrides(tmp_path):
    cfg_path = write_experiment_config(tmp_path)
    out_dir = tmp_path / "out"
    assert main(
        ["eval", "--config", str(cfg_path), "--out", str(out_dir), "--seed", "7",
         "--p-bias", "0.0", "--eta", "0.01"]
    ) == 0
    manifest = json.loads((out_dir / "final_eval" / "manifest.json").read_text())
    assert manifest["config"]["seeds"] == [7]
    assert manifest["config"]["p_bias_grid"] == [0.0]
    assert manifest["config"]["eta_grid"] == [0.01]


def test_each_study_takes_only_the_grid_flag_it_reads(capsys):
    # eval and evolve run every cell at lambda 0, and the sweep every cell at sweep_eta.
    for kind, unused, used, grid in (
        ("eval", "--lambda", "--eta", "eta_grid"),
        ("evolve", "--lambda", "--eta", "eta_grid"),
        ("sweep", "--eta", "--lambda", "lambda_grid"),
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([kind, unused, "1", "--out", "out"])
        assert exit_info.value.code == 2
        assert f"error: unrecognized arguments: {unused} 1\n" in capsys.readouterr().err
        args = build_parser().parse_args(
            [kind, used, "0.5", used, "2", "--seed", "4", "--p-bias", "0.2"])
        cfg = _load_experiment_config(args)
        assert (getattr(cfg, grid), cfg.seeds, cfg.p_bias_grid) == ((0.5, 2.0), (4,), (0.2,))
        default = ExperimentConfig()
        assert replace(cfg, **{name: getattr(default, name)
                               for name in (grid, "seeds", "p_bias_grid")}) == default


def test_warm_leaves_unset_flags_to_warm_start(tmp_path):
    pool_csv, labeled_csv, warm_json = (tmp_path / name for name in ("p.csv", "l.csv", "w.json"))
    assert main(["generate", "--n", "1000", "--seed", "2", "--out", str(pool_csv)]) == 0
    assert main(["label", "--pool", str(pool_csv), "--p-bias", "0.5",
                 "--out", str(labeled_csv)]) == 0
    assert main(["warm", "--pool", str(labeled_csv), "--out", str(warm_json)]) == 0
    want = warm_start(load_labeled(labeled_csv))
    np.testing.assert_array_equal(load_model(warm_json)[0].weights, want.weights)


def test_out_dir_falls_back_to_environment(tmp_path, monkeypatch):
    cfg_path = write_experiment_config(tmp_path)
    monkeypatch.setenv("FAIRSIM_OUT_DIR", str(tmp_path / "env_out"))
    assert main(["evolve", "--config", str(cfg_path), "--seed", "1", "--p-bias", "1.0"]) == 0
    assert (tmp_path / "env_out" / "evolution" / "metrics.csv").exists()


def test_experiment_without_out_dir_fails(tmp_path, monkeypatch, capsys):
    cfg_path = write_experiment_config(tmp_path)
    monkeypatch.delenv("FAIRSIM_OUT_DIR", raising=False)
    assert main(["eval", "--config", str(cfg_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_reruns_are_byte_identical(tmp_path):
    cfg_path = write_experiment_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    csv_a = (out_a / "reg_sweep" / "metrics.csv").read_bytes()
    csv_b = (out_b / "reg_sweep" / "metrics.csv").read_bytes()
    assert csv_a == csv_b
    ma = json.loads((out_a / "reg_sweep" / "manifest.json").read_text())
    mb = json.loads((out_b / "reg_sweep" / "manifest.json").read_text())
    ma.pop("generated_at")
    mb.pop("generated_at")
    assert ma == mb


@pytest.mark.parametrize("kind", ["eval", "evolve", "sweep"])
def test_parallel_jobs_match_serial_output(tmp_path, kind):
    cfg_path = write_experiment_config(tmp_path)
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert main([kind, "--config", str(cfg_path), "--out", str(serial)]) == 0
    assert main([kind, "--config", str(cfg_path), "--out", str(parallel), "--jobs", "2"]) == 0
    files = sorted(p.relative_to(serial) for p in serial.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(parallel) for p in parallel.rglob("*") if p.is_file())
    for rel in files:
        if rel.name != "manifest.json":
            assert (serial / rel).read_bytes() == (parallel / rel).read_bytes(), rel


def test_jobs_are_capped_at_the_seed_count(tmp_path, monkeypatch, capsys):
    workers = []

    class InlineExecutor:
        """Records max_workers and runs each mapped job at once, in this process."""

        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return [fn(item) for item in iterable]

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlineExecutor)
    cfg_path = write_experiment_config(tmp_path)
    out = tmp_path / "out"
    assert main(
        ["eval", "--config", str(cfg_path), "--out", str(out), "--jobs", "64", "--verbose"]
    ) == 0
    assert workers == [len(TINY_EXPERIMENT["seeds"])]
    progress = [line for line in capsys.readouterr().out.splitlines() if line.endswith(" done")]
    assert progress == [
        f"[final_eval] seed={seed} p_bias={p_bias:g} done"
        for seed in TINY_EXPERIMENT["seeds"] for p_bias in TINY_EXPERIMENT["p_bias_grid"]
    ]
    for jobs in ("0", "-3"):
        assert main(["eval", "--config", str(cfg_path), "--out", str(out), "--jobs", jobs]) == 1
        assert "--jobs" in capsys.readouterr().err
    assert workers == [len(TINY_EXPERIMENT["seeds"])]


def test_cli_import_leaves_the_process_pool_unloaded():
    # --jobs imports the pool when it runs; a plain start-up should not pay for it.
    src = str(Path(fairsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys, fairsim.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "[]"


def test_cli_error_exits(tmp_path, capsys, rewrite_cell):
    assert main(["generate", "--n", "0", "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == "error: n must be at least 1, got 0\n"
    assert main(
        ["label", "--pool", str(tmp_path / "missing.csv"), "--p-bias", "0.0",
         "--out", str(tmp_path / "y.csv")]
    ) == 1
    capsys.readouterr()
    pool_csv = tmp_path / "pool.csv"
    main(["generate", "--n", "10", "--seed", "1", "--out", str(pool_csv)])
    assert main(
        ["label", "--pool", str(pool_csv), "--p-bias", "0.5", "--weights", "a,b",
         "--out", str(tmp_path / "z.csv")]
    ) == 1
    capsys.readouterr()
    baseline_json = tmp_path / "baseline.json"
    save_baseline(compute_baseline(load_pool(pool_csv), default_user(0.0)), baseline_json)
    assert main(
        ["metrics", "--ranking", str(pool_csv), "--baseline", str(baseline_json), "--k", "99"]
    ) == 1
    assert capsys.readouterr().err == "error: k must be at most 10, got 99\n"
    no_count = tmp_path / "no_count.json"
    no_count.write_text(json.dumps({"p_qualified": {"0": 0.5, "1": 0.5}}))
    model_json = tmp_path / "model.json"
    model_json.write_text(json.dumps({"round": 0}))
    sweep_json = tmp_path / "sweep.json"
    sweep_json.write_text(json.dumps({"seeds": 5}))
    nan_model = tmp_path / "nan_model.json"
    nan_model.write_text(json.dumps({"weights": [1.0, float("nan"), 0, 0], "round": 0}))
    nan_pool = tmp_path / "nan_pool.csv"
    nan_pool.write_bytes(pool_csv.read_bytes())
    rewrite_cell(nan_pool, 4, 1, "nan")
    good_model = tmp_path / "good_model.json"
    good_model.write_text(json.dumps({"weights": [0.0, 0.1, 0.2, 0.3], "round": 0}))
    labeled_csv = tmp_path / "labeled.csv"
    main(["label", "--pool", str(pool_csv), "--p-bias", "0.0", "--out", str(labeled_csv)])
    bad_shares = tmp_path / "bad_shares.json"
    bad_shares.write_text(json.dumps({"p_qualified": {"0": 0.5, "1": 7.0}, "qualified_count": -3}))
    short_shares = tmp_path / "short_shares.json"
    short_shares.write_text(json.dumps({"p_qualified": {"0": 0.2, "1": 0.2}, "qualified_count": 5}))
    half_count = tmp_path / "half_count.json"
    half_count.write_text(json.dumps({"p_qualified": {"0": 0.5, "1": 0.5}, "qualified_count": 2.5}))
    # A finite recipe whose draws overflow to inf for this seed.
    overflow_json = tmp_path / "overflow.json"
    overflow_json.write_text(json.dumps(
        {"harmless_dists": [{"kind": "normal", "mean": 1.7e308, "std": 1e308}]}
    ))
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"weights": [')
    truncated_error = f"error: {truncated}: Expecting value: line 1 column 14 (char 13)\n"
    bad_eta = "error: eta must be at least 0, got "
    # Finite bounds whose span hi - lo overflows, which numpy's draw cannot take.
    wide_json = tmp_path / "wide.json"
    wide_json.write_text(json.dumps(
        {"harmless_dists": [{"kind": "uniform", "lo": -1e308, "hi": 1e308}]}
    ))
    # Degenerate studies: one group only, and a group none of whose candidates qualifies.
    one_group = tmp_path / "one_group.json"
    one_group.write_text(json.dumps(TINY_EXPERIMENT | {"gen": {"n": 400, "p_group": 0.0}}))
    unqualified = tmp_path / "unqualified.json"
    proxy = {"group0": {"kind": "normal", "mean": 1.0, "std": 0.01},
             "group1": {"kind": "normal", "mean": -1.0, "std": 0.01}}
    unqualified.write_text(json.dumps(TINY_EXPERIMENT | {
        "gen": {"n": 400, "proxy_dists": [proxy]}, "user_weights": [-0.5, 0.0, 1.0],
    }))
    # Degenerate studies: a zero step or no warm rounds leaves a model where it starts.
    zero_steps = {}
    for name, value in (("warm_eta", 0), ("warm_rounds", 0), ("sweep_eta", 0.0)):
        zero_steps[name] = tmp_path / f"zero_{name}.json"
        zero_steps[name].write_text(json.dumps({name: value}))
    for argv, named in (
        (["metrics", "--ranking", str(pool_csv), "--baseline", str(no_count), "--k", "5"],
         "no_count.json: key 'qualified_count' is missing"),
        (["online", "--model", str(model_json), "--pool", str(pool_csv),
          "--out", str(tmp_path / "m.json")], "model.json: key 'weights' is missing"),
        (["sweep", "--config", str(sweep_json), "--out", str(tmp_path / "out")], "seeds"),
        (["online", "--model", str(nan_model), "--pool", str(pool_csv),
          "--out", str(tmp_path / "m.json")],
         "nan_model.json: weights[1] must be finite, got nan\n"),
        (["label", "--pool", str(nan_pool), "--p-bias", "0.0", "--out", str(tmp_path / "l.csv")],
         "nan_pool.csv: features[3, 1] must be finite, got nan\n"),
        (["online", "--model", str(good_model), "--pool", str(labeled_csv), "--lambda", "nan",
          "--out", str(tmp_path / "m.json")], "error: lam must be a finite number, got nan\n"),
        (["metrics", "--ranking", str(pool_csv), "--baseline", str(bad_shares), "--k", "5"],
         "bad_shares.json: p_qualified[1] must lie in [0, 1], got 7.0\n"),
        (["metrics", "--ranking", str(pool_csv), "--baseline", str(short_shares), "--k", "5"],
         "short_shares.json: baseline shares must sum to 1"),
        (["metrics", "--ranking", str(pool_csv), "--baseline", str(half_count), "--k", "5"],
         "half_count.json: qualified_count must be an integer, got 2.5\n"),
        (["generate", "--config", str(overflow_json), "--n", "10", "--seed", "1",
          "--out", str(tmp_path / "inf.csv")], "error: features[1, 0] must be finite, got inf\n"),
        (["generate", "--config", str(wide_json), "--n", "10", "--seed", "1",
          "--out", str(tmp_path / "wide.csv")], "finite span hi - lo, got [-1e+308, 1e+308]"),
        (["metrics", "--ranking", str(pool_csv), "--baseline", str(baseline_json), "--k", "5",
          "--group", "5"], "error: group must lie in [0, 1], got 5\n"),
        (["warm", "--pool", str(labeled_csv), "--sample-size", "5", "--eta", "-1",
          "--out", str(tmp_path / "w.json")], f"{bad_eta}-1.0\n"),
        (["warm", "--pool", str(labeled_csv), "--sample-size", "5", "--seed", "-1",
          "--out", str(tmp_path / "w.json")],
         "error: seed must lie in [0, 18446744073709551615], got -1\n"),
        (["online", "--model", str(good_model), "--pool", str(labeled_csv), "--rounds", "5",
          "--eta", "-0.5", "--out", str(tmp_path / "m.json")], f"{bad_eta}-0.5\n"),
        (["online", "--model", str(good_model), "--pool", str(labeled_csv), "--rounds", "5",
          "--eta", "nan", "--out", str(tmp_path / "m.json")],
         "error: eta must be a finite number, got nan\n"),
        (["online", "--model", str(good_model), "--pool", str(labeled_csv), "--rounds", "-1",
          "--out", str(tmp_path / "m.json")], "error: rounds must be at least 0, got -1\n"),
        (["generate", "--p-group", "1.5", "--out", str(tmp_path / "g.csv")],
         "error: p_group must lie in [0, 1], got 1.5\n"),
        (["label", "--pool", str(pool_csv), "--p-bias", "2", "--out", str(tmp_path / "l.csv")],
         "error: p_bias must lie in [0, 1], got 2.0\n"),
        (["metrics", "--ranking", str(pool_csv), "--baseline", str(baseline_json), "--k", "0"],
         "error: k must be at least 1, got 0\n"),
        (["metrics", "--ranking", str(pool_csv), "--baseline", str(baseline_json),
          "--ndcs-k", "0"], "error: k_max must be at least 1, got 0\n"),
        (["metrics", "--ranking", str(pool_csv), "--baseline", str(baseline_json)],
         "error: metrics needs --k or --ndcs-k\n"),
        (["eval", "--eta", "-1", "--out", str(tmp_path / "out")],
         "error: eta_grid[0] must be at least 0, got -1.0\n"),
        (["eval", "--eta", "0", "--out", str(tmp_path / "out")],
         "error: eta_grid[0] must be positive, got 0.0\n"),
        (["eval", "--config", str(zero_steps["warm_eta"]), "--out", str(tmp_path / "out")],
         "error: experiment config.warm_eta must be positive, got 0.0\n"),
        (["eval", "--config", str(zero_steps["warm_rounds"]), "--out", str(tmp_path / "out")],
         "error: experiment config.warm_rounds must be at least 1, got 0\n"),
        (["sweep", "--config", str(zero_steps["sweep_eta"]), "--out", str(tmp_path / "out")],
         "error: experiment config.sweep_eta must be positive, got 0.0\n"),
        (["eval", "--seed", "3", "--seed", "3", "--out", str(tmp_path / "out")],
         "error: seeds must not repeat a value, got (3, 3)\n"),
        (["sweep", "--config", str(truncated), "--out", str(tmp_path / "out")], truncated_error),
        (["generate", "--config", str(truncated), "--out", str(tmp_path / "t.csv")],
         truncated_error),
        (["online", "--model", str(truncated), "--pool", str(labeled_csv),
          "--out", str(tmp_path / "m.json")], truncated_error),
        (["online", "--model", str(good_model), "--pool", str(labeled_csv),
          "--regularizer", str(truncated), "--out", str(tmp_path / "m.json")], truncated_error),
        (["metrics", "--ranking", str(pool_csv), "--baseline", str(truncated), "--k", "5"],
         truncated_error),
        (["sweep", "--config", str(one_group), "--out", str(tmp_path / "out")],
         "error: every protected value is 0; the fit needs both groups\n"),
        (["eval", "--config", str(unqualified), "--out", str(tmp_path / "out")],
         "error: seed 1: group 1 has no qualified online candidate\n"),
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err and "Traceback" not in err
        assert len(err.splitlines()) == 1, err


def test_online_has_no_snapshot_flag(tmp_path, capsys):
    # Snapshots feed only the evolve experiment; the online command never wrote them.
    argv = ["online", "--model", "m.json", "--pool", "p.csv", "--out", str(tmp_path / "o.json"),
            "--snapshot-interval", "5"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "error: unrecognized arguments: --snapshot-interval 5\n" in capsys.readouterr().err
