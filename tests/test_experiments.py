import json
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from fairsim import (
    ConfigError,
    ExperimentConfig,
    build_seed_context,
    default_config,
    derive_seed,
    evaluate_ranking,
    experiment_config_from_dict,
    rank_by_model,
    run_evolution,
    run_final_eval,
    run_reg_sweep,
    write_results,
)
from fairsim.datagen import config_to_dict
from fairsim.experiments import (
    STREAM_FAIR_POOL,
    STREAM_FAIR_USER,
    STREAM_ONLINE_POOL,
    STREAM_ONLINE_USER,
    STREAM_WARM,
    results_to_rows,
)
from fairsim.metrics import CSV_FIELDS


def tiny_config(**overrides):
    base = dict(
        gen=default_config(n=60),
        p_bias_grid=(0.0, 1.0),
        eta_grid=(0.0, 0.05),
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
        STREAM_FAIR_USER,
        STREAM_ONLINE_USER,
        STREAM_WARM,
    ]
    derived = [derive_seed(8, s) for s in streams]
    assert len(set(derived)) == len(streams)
    assert derive_seed(9, STREAM_WARM) != derive_seed(8, STREAM_WARM)


def test_build_seed_context_contents():
    cfg = tiny_config()
    ctx = build_seed_context(cfg, 1, cfg.p_bias_grid, with_regularizer=True)
    assert set(ctx.labeled) == {0.0, 1.0}
    assert ctx.online_features.shape == (60, 3)
    assert len(ctx.labeled[0.0]) == 60
    assert ctx.regularizer is not None and ctx.regularizer.lam == 0.0
    bare = build_seed_context(cfg, 1, (0.0,))
    assert bare.regularizer is None
    np.testing.assert_array_equal(bare.warm.weights, ctx.warm.weights)


def test_final_eval_grid_shape_and_shared_warm():
    cfg = tiny_config()
    results = run_final_eval(cfg)
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
            np.testing.assert_array_equal(other.warm_model.weights, first.warm_model.weights)


def test_final_eval_zero_eta_is_a_fixed_point():
    results = run_final_eval(tiny_config(eta_grid=(0.0,)))
    for r in results:
        np.testing.assert_array_equal(r.final_model.weights, r.warm_model.weights)
        assert r.report_final.skew_at == r.report_warm.skew_at


def test_sweep_zero_lambda_reproduces_plain_online_runs():
    cfg = tiny_config()
    sweep = run_reg_sweep(cfg)
    assert len(sweep) == len(cfg.seeds) * len(cfg.p_bias_grid) * len(cfg.lambda_grid)
    plain = {
        (r.seed, r.p_bias): r
        for r in run_final_eval(replace(cfg, eta_grid=(cfg.sweep_eta,)))
    }
    for r in sweep:
        if r.lam == 0.0:
            twin = plain[(r.seed, r.p_bias)]
            np.testing.assert_array_equal(r.final_model.weights, twin.final_model.weights)
            assert r.trace.shown_order == twin.trace.shown_order
            assert r.report_final.skew_at == twin.report_final.skew_at


def test_sweep_carries_the_regularizer():
    cfg = tiny_config(lambda_grid=(0.0, 2.0))
    for r in run_reg_sweep(cfg):
        assert r.regularizer is not None
        assert r.regularizer.lam == r.lam
        assert r.eta == cfg.sweep_eta


def test_evolution_snapshots_and_reports():
    cfg = tiny_config(p_bias_grid=(1.0,), eta_grid=(0.05,), seeds=(1,))
    (result,) = run_evolution(cfg)
    rounds = [r for r, _ in result.reports_evolution]
    assert rounds == [5, 10, 15, 20]
    for round_index, report in result.reports_evolution:
        assert set(report.skew_at) == {k for k in cfg.k_list if k <= round_index}
    # one snapshot replayed by hand: re-rank what was shown, then evaluate
    ctx = build_seed_context(cfg, 1, (1.0,))
    round_index, snapshot = result.trace.snapshots[1]
    shown = result.trace.shown_order[:round_index]
    order = rank_by_model(snapshot, ctx.online_features[shown])
    protected = ctx.online_pool.protected[shown][order]
    labels = ctx.labeled[1.0].labels[np.array(shown)][order]
    want = evaluate_ranking(
        protected, labels, ctx.baseline, k_list=(5, 10), ndcs_k_max=round_index
    )
    got = result.reports_evolution[1][1]
    assert got.skew_at == want.skew_at
    assert got.ndcs == want.ndcs
    assert got.precision_at == want.precision_at


def test_evolution_requires_snapshot_interval():
    with pytest.raises(ConfigError):
        run_evolution(tiny_config(snapshot_interval=0))


def test_results_to_rows_sorted_and_labeled():
    cfg = tiny_config()
    rows = results_to_rows(run_reg_sweep(cfg), "reg_sweep")
    keys = [(r["p_bias"], r["eta"], r["lambda"], r["seed"], r["k"], r["config_id"]) for r in rows]
    assert keys == sorted(keys)
    ids = {r["config_id"] for r in rows}
    assert ids == {"reg_sweep:online", "reg_sweep:warm"}
    cells = len(cfg.seeds) * len(cfg.p_bias_grid) * len(cfg.lambda_grid)
    assert len(rows) == cells * len(cfg.k_list) * 2


def test_write_results_layout_and_stability(tmp_path):
    cfg = tiny_config(seeds=(1,))
    results = run_reg_sweep(cfg)
    out = write_results(results, tmp_path, "reg_sweep", cfg)
    assert out == tmp_path / "reg_sweep"
    csv_path = out / "metrics.csv"
    header = csv_path.read_text().splitlines()[0]
    assert header == ",".join(CSV_FIELDS)
    assert (out / "manifest.json").exists()
    assert (out / "baseline_seed1.json").exists()
    assert (out / "regularizer_seed1.json").exists()
    assert (out / "models" / "warm_seed1.json").exists()
    named = list((out / "models").glob("pbias*_eta*_lam*_seed1.json"))
    assert len(named) == len(results)
    first_bytes = csv_path.read_bytes()
    write_results(results, tmp_path, "reg_sweep", cfg)
    assert csv_path.read_bytes() == first_bytes
    manifest = json.loads((out / "manifest.json").read_text())
    again = experiment_config_from_dict(manifest["config"])
    assert config_to_dict(again) == config_to_dict(cfg)


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
        ({"gen": {"n": 0}}, r"experiment config\.gen: pool size must be positive"),
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
    with pytest.raises(ConfigError):
        tiny_config(k_list=(70,))
    with pytest.raises(ConfigError):
        tiny_config(online_rounds=61)
    with pytest.raises(ConfigError):
        tiny_config(warm_sample_size=0)
    with pytest.raises(ConfigError):
        tiny_config(user_weights=(0.1, 0.2))
    with pytest.raises(ConfigError):
        tiny_config(lambda_grid=(-1.0,))
    assert tiny_config(seeds=[1, np.int64(2)]).seeds == (1, 2)
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
