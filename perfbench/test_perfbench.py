"""Self-tests of the benchmark on a tiny grid.

    PYTHONPATH=src python3 -m pytest perfbench -q -p no:cacheprovider

They check that the tracer restores every function it wraps and refuses a
binding the program lacks, that traced and untraced runs write hash-equal
result trees, that self time never exceeds total time, that the counts
are exact, and that per-seed traces add up to the whole grid's.
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import tracer  # noqa: E402
from run import WORK, child_env, merge_summaries, tree_hash  # noqa: E402

TINY = {
    "gen": {"n": 300},
    "p_bias_grid": [0.0, 0.8],
    "eta_grid": [0.01, 0.1],
    "lambda_grid": [0.0, 10.0],
    "warm_sample_size": 50,
    "warm_rounds": 40,
    "online_rounds": 20,
    "snapshot_interval": 5,
    "seeds": [3, 4],
    "k_list": [5, 10],
}
CELLS = 2 * 2 * 2  # p_bias x (eta or lambda) x seeds
EXPERIMENTS = {"eval": "final_eval", "evolve": "evolution", "sweep": "reg_sweep"}


@pytest.fixture(scope="module")
def scratch():
    path = WORK / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    (path / "tiny.json").write_text(json.dumps(TINY))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _bound_objects():
    objects = {}
    for module_name, attr, _, _ in tracer.BINDINGS:
        objects[(module_name, attr)] = getattr(importlib.import_module(module_name), attr)
    cli = importlib.import_module("fairsim.cli")
    for kind, entry in cli._EXPERIMENTS.items():
        objects[("fairsim.cli._EXPERIMENTS", kind)] = entry[1]
    return objects


def _traced_in_process(command: str, scratch: Path, *extra: str) -> dict:
    import fairsim.cli

    t = tracer.Tracer()
    undo = tracer.install(t)
    try:
        code = fairsim.cli.main([command, "--config", str(scratch / "tiny.json"),
                                 "--out", str(scratch / f"in-{command}{''.join(extra)}"),
                                 *extra])
    finally:
        tracer.restore(undo)
    assert code == 0
    return tracer.summarize(t.spans) | {"raw": t.spans}


def test_wrappers_restore_the_original_functions():
    before = _bound_objects()
    t = tracer.Tracer()
    undo = tracer.install(t)
    try:
        during = _bound_objects()
        for key, original in before.items():
            assert during[key] is not original, key
            assert during[key].__wrapped__ is original, key
    finally:
        tracer.restore(undo)
    after = _bound_objects()
    for key, original in before.items():
        assert after[key] is original, key


def test_a_missing_binding_fails_the_trace_and_wraps_nothing(monkeypatch):
    before = _bound_objects()
    missing = ("fairsim.learner", "no_such_function", "learner.no_such_function", None)
    monkeypatch.setattr(tracer, "BINDINGS", tracer.BINDINGS + (missing,))
    with pytest.raises(LookupError, match="fairsim.learner.no_such_function"):
        tracer.install(tracer.Tracer())
    monkeypatch.undo()
    after = _bound_objects()
    for key, original in before.items():
        assert after[key] is original, key


@pytest.mark.parametrize("command", sorted(EXPERIMENTS))
def test_traced_and_untraced_trees_are_hash_equal(command, scratch):
    config = str(scratch / "tiny.json")
    plain, traced = scratch / f"{command}-plain", scratch / f"{command}-traced"
    subprocess.run([sys.executable, "-m", "fairsim.cli", command, "--config", config,
                    "--out", str(plain)], env=child_env(), check=True, capture_output=True)
    subprocess.run([sys.executable, str(BENCH_DIR / "tracer.py"),
                    "--summary", str(scratch / f"{command}.json"), "--",
                    command, "--config", config, "--out", str(traced)],
                   env=child_env(), check=True, capture_output=True)
    experiment = EXPERIMENTS[command]
    assert tree_hash(plain / experiment) == tree_hash(traced / experiment)
    summary = json.loads((scratch / f"{command}.json").read_text())
    assert summary["exit_code"] == 0
    assert summary["by_name"]["learner.run_online"]["calls"] == CELLS


@pytest.mark.parametrize("command", sorted(EXPERIMENTS))
def test_self_time_never_exceeds_total_time(command, scratch):
    summary = _traced_in_process(command, scratch)
    spans = summary["raw"]
    children = [0] * len(spans)
    for name, parent, start, end, _ in spans:
        assert end >= start
        if parent >= 0:
            pname, _, pstart, pend, _ = spans[parent]
            assert pstart <= start and end <= pend, (name, pname)
            children[parent] += end - start
    for index, (_, _, start, end, _) in enumerate(spans):
        assert 0 <= end - start - children[index] <= end - start
    # The run is serial, so top-level spans never overlap: a span inside another
    # one must have recorded it as its parent.
    roots = sorted((start, end) for _, parent, start, end, _ in spans if parent < 0)
    assert all(prev_end <= start for (_, prev_end), (start, _) in zip(roots, roots[1:]))
    for name, entry in summary["by_name"].items():
        assert 0.0 <= entry["self_s"] <= entry["s"] + 1e-9, name


def test_counts_are_exact_on_the_sweep(scratch):
    summary = _traced_in_process("sweep", scratch)
    by_name = summary["by_name"]
    n, rounds, seeds = TINY["gen"]["n"], TINY["online_rounds"], len(TINY["seeds"])
    assert by_name["experiments.grid"]["calls"] == 1
    assert by_name["learner.run_online"]["calls"] == CELLS
    assert by_name["learner.run_online"]["amount"] == CELLS * rounds
    # Every round scores the whole pool; shown candidates are masked after scoring.
    assert summary["online_score_calls"] == CELLS * rounds
    assert summary["online_rows_scored"] == CELLS * rounds * n
    # The sweep's online loop uses the penalised step; plain steps are warm-start only.
    assert by_name["fairreg.regularized_update"]["calls"] == CELLS * rounds
    assert by_name["learner.perceptron_update"]["calls"] == seeds * TINY["warm_rounds"]
    assert by_name["learner.warm_start"]["calls"] == seeds
    assert by_name["datagen.generate_pool"]["calls"] == 2 * seeds
    assert by_name["datagen.generate_pool"]["amount"] == 2 * seeds * n
    # One final report per cell plus one warm report per (seed, p_bias).
    warm_reports = seeds * len(TINY["p_bias_grid"])
    assert by_name["learner.rank_by_model"]["calls"] == CELLS + warm_reports
    assert by_name["metrics.evaluate_ranking"]["calls"] == CELLS + warm_reports
    assert by_name["metrics.evaluate_ranking"]["amount"] == (CELLS + warm_reports) * n
    assert by_name["metrics.skew_at_k"]["calls"] == (CELLS + warm_reports) * len(TINY["k_list"])
    assert by_name["learner.score_all"]["calls"] == CELLS * rounds + CELLS + warm_reports
    written = sum(p.stat().st_size for p in (scratch / "in-sweep").rglob("*") if p.is_file())
    assert by_name["experiments.write_results"]["amount"] == written
    assert summary["spans"] == sum(entry["calls"] for entry in by_name.values())


def test_per_seed_summaries_add_up_to_the_whole_grid(scratch):
    # A traced benchmark run traces one invocation per seed and merges them.
    whole = _traced_in_process("sweep", scratch)
    merged = merge_summaries([_traced_in_process("sweep", scratch, "--seed", str(seed))
                              for seed in TINY["seeds"]])
    per_invocation = {"experiments.grid", "experiments.write_results"}
    for name, entry in whole["by_name"].items():
        if name not in per_invocation:
            assert merged["by_name"][name]["calls"] == entry["calls"], name
            assert merged["by_name"][name]["amount"] == entry["amount"], name
    assert merged["by_name"]["experiments.grid"]["calls"] == len(TINY["seeds"])
    assert merged["online_rows_scored"] == whole["online_rows_scored"]
    extra_invocations = len(TINY["seeds"]) - 1
    assert merged["spans"] == whole["spans"] + len(per_invocation) * extra_invocations
    for name, entry in merged["by_name"].items():
        assert 0.0 <= entry["self_s"] <= entry["s"] + 1e-9, name


def test_benchmark_refuses_to_run_without_sources():
    bare = WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    for name in ("run.py", "tracer.py"):
        shutil.copy(BENCH_DIR / name, bare / "perfbench" / name)
    try:
        done = subprocess.run(
            [sys.executable, str(bare / "perfbench" / "run.py"), "--workload", "sweep-default",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=60, env=child_env(),
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
