import json
import re
import weakref
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from fairsim import (
    ConfigError,
    EmptyQualifiedPool,
    ExperimentConfig,
    GenConfig,
    Normal,
    ProxyDist,
    build_seed_context,
    derive_seed,
    evaluate_ranking,
    experiment_config_from_dict,
    load_baseline,
    load_model,
    load_regularizer,
    rank_by_model,
    run_evolution,
    run_final_eval,
    run_reg_sweep,
    write_results,
)
from fairsim import experiments
from fairsim.datagen import config_to_dict
from fairsim.experiments import (
    CSV_FIELDS,
    STREAM_FAIR_POOL,
    STREAM_ONLINE_POOL,
    STREAM_ONLINE_USER,
    STREAM_WARM,
    results_to_rows,
)


def tiny_config(**overrides):
    base = dict(
        gen=GenConfig(n=60),
        p_bias_grid=(0.0, 1.0),
        eta_grid=(0.01, 0.05),
        lambda_grid=(0.0, 1.0),
        warm_sample_size=20,
        warm_rounds=30,
        online_rounds=20,
        snapshot_interval=5,
        seeds=(1, 2),
        k_list=(5, 10),
        sweep_eta=0.05,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_derive_seed_matches_seed_sequence_and_separates_streams():
    want = int(np.random.SeedSequence((8, STREAM_WARM)).generate_state(1, np.uint64)[0])
    assert derive_seed(8, STREAM_WARM) == want
    streams = [
        STREAM_FAIR_POOL,
        STREAM_ONLINE_POOL,
        STREAM_ONLINE_USER,
        STREAM_WARM,
    ]
    derived = [derive_seed(8, s) for s in streams]
    assert len(set(derived)) == len(streams)
    assert derive_seed(9, STREAM_WARM) != derive_seed(8, STREAM_WARM)
    assert derive_seed(np.uint64(8), np.int8(STREAM_WARM)) == want
    for root, stream, problem in (
        (3.9, 0, "root must be an integer, got 3.9"),
        (-1, 0, "root must lie in [0, 18446744073709551615], got -1"),
        (3, True, "stream must be an integer, got True"),
        (3, -1, "stream must be at least 0, got -1"),
    ):
        with pytest.raises(ConfigError, match=f"^{re.escape(problem)}$"):
            derive_seed(root, stream)


def cells(results):
    return [cell for res in results for cell in res.cells]


def test_build_seed_context_contents():
    cfg = tiny_config()
    res, pairs = build_seed_context(cfg, 1, with_regularizer=True)
    assert res.seed == 1 and res.cells == []
    labeled = dict(pairs)
    assert set(labeled) == {0.0, 1.0}
    assert labeled[0.0].features.shape == (60, 3)
    assert len(labeled[0.0]) == 60
    assert res.regularizer is not None and res.regularizer.lam == 0.0
    bare, _ = build_seed_context(replace(cfg, p_bias_grid=(0.0,)), 1)
    assert bare.regularizer is None
    np.testing.assert_array_equal(bare.warm_model.weights, res.warm_model.weights)


def test_final_eval_grid_shape_and_shared_warm():
    cfg = tiny_config()
    seed_results = run_final_eval(cfg)
    assert [res.seed for res in seed_results] == list(cfg.seeds)
    results = cells(seed_results)
    assert len(results) == len(cfg.seeds) * len(cfg.p_bias_grid) * len(cfg.eta_grid)
    coords = {(r.seed, r.p_bias, r.eta) for r in results}
    assert len(coords) == len(results)
    assert all(r.lam == 0.0 for r in results)
    by_cell = {(r.seed, r.p_bias): [] for r in results}
    for r in results:
        by_cell[(r.seed, r.p_bias)].append(r)
    for cell in by_cell.values():
        first = cell[0]
        for other in cell[1:]:
            assert other.report_warm is first.report_warm
    for res in seed_results:
        assert all(r.seed == res.seed for r in res.cells)


def test_final_eval_refuses_a_zero_eta():
    # A zero step would make every online model the warm model.
    with pytest.raises(ConfigError, match=r"^eta_grid\[0\] must be positive, got 0\.0$"):
        tiny_config(eta_grid=(0.0,))


# Group 1's proxy sits near -1, where the fair rule rejects every candidate.
UNQUALIFIED_GROUP = dict(gen=GenConfig(n=60, proxy_dists=(ProxyDist(Normal(1.0, 0.01),
                                                                     Normal(-1.0, 0.01)),)),
                         user_weights=(-0.5, 0.0, 1.0))


@pytest.mark.parametrize("runner", [run_final_eval, run_evolution, run_reg_sweep])
@pytest.mark.parametrize("overrides, error, problem", [
    ({"warm_rounds": 0}, ConfigError, "warm_rounds must be at least 1, got 0"),
    ({"eta_grid": (0.05, 0.0)}, ConfigError, "eta_grid[1] must be positive, got 0.0"),
    (UNQUALIFIED_GROUP, EmptyQualifiedPool, "seed 1: group 1 has no qualified online candidate"),
    # Every candidate qualifies, so every warm pick is labelled 1 and none is a mistake.
    ({"user_weights": (1.0, 0.0, 0.0, 0.0)}, ConfigError,
     "seed 1: the warm model stays zero, so every warm score ties"),
])
def test_each_study_refuses_a_degenerate_config(runner, overrides, error, problem):
    with pytest.raises(error, match=f"^{re.escape(problem)}$"):
        runner(tiny_config(**overrides))


def test_sweep_zero_lambda_reproduces_plain_online_runs():
    cfg = tiny_config()
    sweep = cells(run_reg_sweep(cfg))
    assert len(sweep) == len(cfg.seeds) * len(cfg.p_bias_grid) * len(cfg.lambda_grid)
    plain = {
        (r.seed, r.p_bias): r
        for r in cells(run_final_eval(replace(cfg, eta_grid=(cfg.sweep_eta,))))
    }
    for r in sweep:
        if r.lam == 0.0:
            twin = plain[(r.seed, r.p_bias)]
            np.testing.assert_array_equal(r.final_model.weights, twin.final_model.weights)
            assert r.trace.shown_order.tolist() == twin.trace.shown_order.tolist()
            assert r.report_final.skew_at == twin.report_final.skew_at


def test_sweep_carries_the_regularizer():
    cfg = tiny_config(lambda_grid=(0.0, 2.0))
    sweep = run_reg_sweep(cfg)
    for res in sweep:
        assert res.regularizer is not None
        assert res.regularizer.lam == 0.0
    assert {r.lam for r in cells(sweep)} == {0.0, 2.0}
    for r in cells(sweep):
        assert r.eta == cfg.sweep_eta
    for runner in (run_final_eval, run_evolution):
        assert all(res.regularizer is None for res in runner(cfg))


def test_evolution_snapshots_and_reports():
    cfg = tiny_config(p_bias_grid=(1.0,), eta_grid=(0.05,), seeds=(1,))
    ((result,),) = [res.cells for res in run_evolution(cfg)]
    rounds = [r for r, _ in result.reports_evolution]
    assert rounds == [5, 10, 15, 20]
    for round_index, report in result.reports_evolution:
        assert set(report.skew_at) == {k for k in cfg.k_list if k <= round_index}
    # one snapshot replayed by hand: re-rank what was shown, then evaluate
    res, pairs = build_seed_context(cfg, 1)
    labeled = dict(pairs)
    round_index, snapshot = result.trace.snapshots[1]
    shown = result.trace.shown_order[:round_index]
    order = rank_by_model(snapshot, labeled[1.0].features[shown])
    protected = labeled[1.0].protected[shown][order]
    labels = labeled[1.0].labels[shown][order]
    want = evaluate_ranking(
        protected, labels, res.baseline, k_list=(5, 10), ndcs_k_max=round_index
    )
    got = result.reports_evolution[1][1]
    assert got.skew_at == want.skew_at
    assert got.ndcs == want.ndcs
    assert got.precision_at == want.precision_at


def test_a_seed_holds_one_pool_and_one_labeled_copy_at_a_time(monkeypatch):
    # Weak references to every pool and labeled pool handed out; at each new
    # draw or labeling, none of the earlier ones may still be alive.
    pools, labeled = [], []

    def tracked(fn, made):
        def wrapper(*args):
            assert all(ref() is None for ref in made), fn.__name__
            result = fn(*args)
            made.append(weakref.ref(result))
            return result
        return wrapper

    monkeypatch.setattr(experiments, "generate_pool", tracked(experiments.generate_pool, pools))
    monkeypatch.setattr(experiments, "label_pool", tracked(experiments.label_pool, labeled))
    cfg = tiny_config(p_bias_grid=(0.0, 0.5, 1.0))
    run_final_eval(cfg)
    assert len(pools) == 2 * len(cfg.seeds)
    assert len(labeled) == (1 + len(cfg.p_bias_grid)) * len(cfg.seeds)


def test_cells_do_not_depend_on_the_p_bias_order():
    cfg = tiny_config(p_bias_grid=(0.2, 0.5, 0.8))
    forward = cells(run_final_eval(cfg))
    backward = cells(run_final_eval(replace(cfg, p_bias_grid=cfg.p_bias_grid[::-1])))
    assert len(forward) == len(backward)
    by_coords = {(r.seed, r.p_bias, r.eta): r for r in backward}
    for r in forward:
        twin = by_coords[(r.seed, r.p_bias, r.eta)]
        np.testing.assert_array_equal(r.final_model.weights, twin.final_model.weights)
        assert r.report_final == twin.report_final
        assert r.report_warm == twin.report_warm


def test_evolution_requires_snapshot_interval():
    for interval, problem in ((0, "snapshot_interval must be at least 1, got 0"),
                              (21, "snapshot_interval must be at most 20, got 21"),
                              # A snapshot at round 4 ranks 4 rows, fewer than any k.
                              (4, "snapshot_interval must be at least min(k_list) = 5, got 4")):
        with pytest.raises(ConfigError, match=f"^{re.escape(problem)}$"):
            run_evolution(tiny_config(snapshot_interval=interval))
    cfg = tiny_config(snapshot_interval=20, seeds=(1,), p_bias_grid=(1.0,), eta_grid=(0.05,))
    ((result,),) = [res.cells for res in run_evolution(cfg)]
    assert [r for r, _ in result.reports_evolution] == [20]


def test_results_to_rows_sorted_and_labeled():
    cfg = tiny_config()
    rows = results_to_rows(run_reg_sweep(cfg), "reg_sweep")
    keys = [(r["p_bias"], r["eta"], r["lambda"], r["seed"], r["k"], r["config_id"]) for r in rows]
    assert keys == sorted(keys)
    ids = {r["config_id"] for r in rows}
    assert ids == {"reg_sweep:online", "reg_sweep:warm"}
    cells = len(cfg.seeds) * len(cfg.p_bias_grid) * len(cfg.lambda_grid)
    assert len(rows) == cells * len(cfg.k_list) * 2


def test_results_to_rows_carry_each_reports_values():
    # k_list out of order: each report's rows must still run through sorted k.
    cfg = tiny_config(k_list=(10, 5))
    snapshot_tags = {f"evolution:online:round={r:04d}" for r in (5, 10, 15, 20)}
    for runner, experiment, tags in (
        (run_final_eval, "final_eval", {"final_eval:online", "final_eval:warm"}),
        (run_evolution, "evolution", {"evolution:online"} | snapshot_tags),
        (run_reg_sweep, "reg_sweep", {"reg_sweep:online", "reg_sweep:warm"}),
    ):
        results = runner(cfg)
        reports = {}
        for cell in cells(results):
            coords = (cell.seed, cell.p_bias, cell.eta, cell.lam)
            reports[(f"{experiment}:online", *coords)] = cell.report_final
            if cell.report_warm is not None:
                reports[(f"{experiment}:warm", *coords)] = cell.report_warm
            for r, report in cell.reports_evolution:
                reports[(f"{experiment}:online:round={r:04d}", *coords)] = report
        rows_of = {}
        for row in results_to_rows(results, experiment):
            assert list(row) == list(CSV_FIELDS)
            rows_of.setdefault(tuple(row[name] for name in CSV_FIELDS[:5]), []).append(row)
        assert rows_of.keys() == reports.keys()
        assert {config_id for config_id, *_ in rows_of} == tags
        for key, rows in rows_of.items():
            match = re.fullmatch(r"evolution:online:round=(\d{4})", key[0])
            shown = int(match.group(1)) if match else cfg.online_rounds
            assert [row["k"] for row in rows] == [k for k in sorted(cfg.k_list) if k <= shown]
            report = reports[key]
            for row in rows:
                k = row["k"]
                assert row["skew"] == report.skew_at[k]
                assert row["precision"] == report.precision_at[k]
                assert row["ndcs"] == report.ndcs
                assert row["count_group1"] == report.counts_at[k]
        if experiment == "reg_sweep":
            assert {key[4] for key in rows_of} == set(cfg.lambda_grid)


def test_write_results_layout_and_stability(tmp_path):
    cfg = tiny_config(seeds=(1,))
    results = run_reg_sweep(cfg)
    (res,) = results
    out = write_results(results, tmp_path, "reg_sweep", cfg)
    assert out == tmp_path / "reg_sweep"
    csv_path = out / "metrics.csv"
    header = csv_path.read_text().splitlines()[0]
    assert header == ",".join(CSV_FIELDS)
    assert (out / "manifest.json").exists()
    assert (out / "baseline_seed1.json").exists()
    assert (out / "regularizer_seed1.json").exists()
    assert (out / "models" / "warm_seed1.json").exists()
    warm, round_index = load_model(out / "models" / "warm_seed1.json")
    np.testing.assert_array_equal(warm.weights, res.warm_model.weights)
    assert round_index == 0
    assert load_baseline(out / "baseline_seed1.json") == res.baseline
    reg = load_regularizer(out / "regularizer_seed1.json")
    assert reg.lam == 0.0
    np.testing.assert_array_equal(reg.w_reg, res.regularizer.w_reg)
    named = list((out / "models").glob("pbias*_eta*_lam*_seed1.json"))
    assert len(named) == len(res.cells)
    evaluated = write_results(run_final_eval(cfg), tmp_path, "final_eval", cfg)
    assert list(evaluated.glob("regularizer_seed*.json")) == []
    first_bytes = csv_path.read_bytes()
    write_results(results, tmp_path, "reg_sweep", cfg)
    assert csv_path.read_bytes() == first_bytes
    manifest = json.loads((out / "manifest.json").read_text())
    again = experiment_config_from_dict(manifest["config"])
    assert config_to_dict(again) == config_to_dict(cfg)


def test_a_rerun_into_the_same_directory_leaves_only_its_own_files(tmp_path):
    def files(root):
        return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())

    big = tiny_config()
    small = tiny_config(seeds=(1,), p_bias_grid=(0.0,), eta_grid=(0.05,), lambda_grid=(1.0,))
    for runner, experiment in ((run_final_eval, "final_eval"), (run_reg_sweep, "reg_sweep")):
        write_results(runner(big), tmp_path / "rerun", experiment, big)
        (tmp_path / "rerun" / experiment / "notes.txt").write_text("kept")
        rerun = write_results(runner(small), tmp_path / "rerun", experiment, small)
        fresh = write_results(runner(small), tmp_path / "fresh", experiment, small)
        assert files(rerun) == sorted(files(fresh) + ["notes.txt"])
        for name in files(fresh):
            if name != "manifest.json":
                assert (rerun / name).read_bytes() == (fresh / name).read_bytes(), name


def test_numpy_seeds_write_the_same_manifest(tmp_path):
    manifests = []
    for name, seeds in (("plain", (1,)), ("numpy", (np.int64(1),))):
        cfg = tiny_config(seeds=seeds, p_bias_grid=(0.0,), eta_grid=(0.05,))
        out = write_results(run_final_eval(cfg), tmp_path / name, "final_eval", cfg)
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest["generated_at"]
        manifests.append(manifest)
    assert manifests[0] == manifests[1]


def test_config_dict_defaults_and_validation():
    cfg = experiment_config_from_dict({})
    assert cfg.seeds == ExperimentConfig().seeds
    cfg = experiment_config_from_dict({"seeds": [4], "eta_grid": [0.5]})
    assert cfg.seeds == (4,)
    assert cfg.eta_grid == (0.5,)
    with pytest.raises(ConfigError):
        experiment_config_from_dict({"p_bias_grid": [2.0]})
    with pytest.raises(ConfigError, match="eta_gird"):
        experiment_config_from_dict({"eta_gird": [0.5]})
    with pytest.raises(ConfigError, match="JSON object"):
        experiment_config_from_dict([1, 2])
    with pytest.raises(ConfigError, match="'N'"):
        experiment_config_from_dict({"gen": {"N": 10}})
    for bad, name in (
        ({"seeds": 5}, r"\.seeds must be a list"),
        ({"online_rounds": "abc"}, r"\.online_rounds must be an integer"),
        ({"gen": {"n": 1.5}}, r"\.gen\.n must be an integer"),
        ({"eta_grid": [True]}, r"\.eta_grid\[0\] must be a finite number"),
        ({"warm_eta": "0.3"}, r"\.warm_eta must be a finite number"),
        ({"sweep_eta": 10**400}, r"\.sweep_eta must be a finite number"),
        ({"seeds": [1.7]}, r"\.seeds\[0\] must be an integer"),
        ({"k_list": [25.0]}, r"\.k_list\[0\] must be an integer"),
        ({"online_rounds": True}, r"\.online_rounds must be an integer"),
        ({"gen": {"n": 12.5}}, r"\.gen\.n must be an integer"),
        ({"gen": {"n": 0}}, r"^experiment config\.gen\.n must be at least 1, got 0$"),
        ({"gen": {"seed": 42}}, r"^experiment config: gen\.seed must be 0, got 42: every study "
         r"derives its pool seeds from seeds, so set seeds instead$"),
        ({"gen": {"p_group": 1.5}},
         r"^experiment config\.gen\.p_group must lie in \[0, 1\], got 1\.5$"),
        ({"p_bias_grid": [0.5, 2.0]},
         r"^experiment config\.p_bias_grid\[1\] must lie in \[0, 1\], got 2\.0$"),
        ({"eta_grid": [-0.5]}, r"^experiment config\.eta_grid\[0\] must be at least 0, got -0\.5$"),
        ({"alpha_a": -1}, r"^experiment config\.alpha_a must be at least 0, got -1\.0$"),
        ({"online_rounds": -1}, r"^experiment config\.online_rounds must be at least 1, got -1$"),
        ({"online_rounds": 0}, r"^experiment config\.online_rounds must be at least 1, got 0$"),
        ({"snapshot_interval": -1},
         r"^experiment config\.snapshot_interval must be at least 0, got -1$"),
        ({"warm_sample_size": 0},
         r"^experiment config\.warm_sample_size must be at least 1, got 0$"),
        ({"k_list": [0]}, r"^experiment config\.k_list\[0\] must be at least 1, got 0$"),
        # Sizes tied to the pool are at most gen.n (12000 by default).
        ({"warm_sample_size": 12001},
         r"^experiment config\.warm_sample_size must be at most 12000, got 12001$"),
        ({"online_rounds": 12001},
         r"^experiment config\.online_rounds must be at most 12000, got 12001$"),
        ({"gen": {"n": 1000}, "k_list": [1001]},
         r"^experiment config\.k_list\[0\] must be at most 1000, got 1001$"),
        ({"seeds": [-1]},
         r"^experiment config\.seeds\[0\] must lie in \[0, 18446744073709551615\], got -1$"),
        ({"seeds": [1, 1]}, r"^experiment config\.seeds must not repeat a value, got \(1, 1\)$"),
        ({"eta_grid": [0.05, 0.05]},
         r"^experiment config\.eta_grid must not repeat a value, got \(0\.05, 0\.05\)$"),
        ({"gen": {"harmless_dists": [{"kind": "uniform", "lo": 1.0, "hi": 0.0}]}},
         r"experiment config\.gen\.harmless_dists\[0\]: uniform bounds"),
    ):
        with pytest.raises(ConfigError, match=name):
            experiment_config_from_dict(bad)


def test_config_validate_errors():
    with pytest.raises(FrozenInstanceError):
        tiny_config().seeds = (1,)
    with pytest.raises(ConfigError):
        tiny_config(seeds=())
    with pytest.raises(ConfigError, match=r"^k_list\[0\] must be at most 60, got 70$"):
        tiny_config(k_list=(70,))
    with pytest.raises(ConfigError, match="^online_rounds must be at most 60, got 61$"):
        tiny_config(online_rounds=61)
    with pytest.raises(ConfigError):
        tiny_config(warm_sample_size=0)
    with pytest.raises(ConfigError):
        tiny_config(user_weights=(0.1, 0.2))
    with pytest.raises(ConfigError):
        tiny_config(lambda_grid=(-1.0,))
    for name, values, shown in (
        ("seeds", (1, 1), "(1, 1)"),
        ("seeds", (1, np.int64(1)), "(1, 1)"),
        ("p_bias_grid", (0.0, 1.0, 0.0), "(0.0, 1.0, 0.0)"),
        ("eta_grid", (0.05, 0.05), "(0.05, 0.05)"),
        ("lambda_grid", (0.0, -0.0), "(0.0, -0.0)"),
        ("k_list", (5, 10, 5), "(5, 10, 5)"),
    ):
        problem = f"{name} must not repeat a value, got {shown}"
        with pytest.raises(ConfigError, match=f"^{re.escape(problem)}$"):
            tiny_config(**{name: values})
    assert tiny_config(seeds=[1, np.int64(2)]).seeds == (1, 2)
    # Model file names show each grid value with %g, so two values must not read alike there.
    for name, values, shown in (
        ("p_bias_grid", (0.1234561, 0.1234562), "0.1234561 and 0.1234562 both read '0.123456'"),
        ("eta_grid", (0.05, 1e-9, 1.0000001e-9), "1e-09 and 1.0000001e-09 both read '1e-09'"),
        ("lambda_grid", (1e6, 1000000.4), "1000000.0 and 1000000.4 both read '1e+06'"),
    ):
        problem = f"{name} values {shown} in model file names"
        with pytest.raises(ConfigError, match=f"^{re.escape(problem)}$"):
            tiny_config(**{name: values})
    nan = float("nan")
    for name, value in (
        ("eta_grid", (0.01, nan)),
        ("lambda_grid", (nan,)),
        ("lambda_grid", (float("inf"),)),
        ("sweep_eta", nan),
        ("warm_eta", nan),
        ("alpha_a", nan),
        ("seeds", (1.7,)),
        ("seeds", (np.float64(2.0),)),
        ("k_list", (25.0,)),
        ("online_rounds", True),
        ("user_weights", (-0.48, 0.35, nan, 0.28)),
        ("gen", {"n": 60}),
    ):
        with pytest.raises(ConfigError, match=name):
            tiny_config(**{name: value})
