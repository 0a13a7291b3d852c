"""Layered benchmark of the fairsim CLI on fixed workloads.

    python3 perfbench/run.py --workload sweep-default --seed 0 --seconds 60 --trace 0

A run covers five experiment seeds: the paper's for ``--seed 0``, five
derived ones otherwise. Each CLI invocation runs one of them in a fresh child
process, taking the seeds in turn, so a run holds a score of short
invocations and their median is steady.

Untraced (``--trace 0``) runs time the invocations and report the end-to-end
metrics. Traced runs (``--trace 1``) first run one invocation per seed under
``perfbench/tracer.py`` and report per-layer metrics summed over them, then
untraced invocations to measure the tracing overhead. Every invocation's
result tree is hashed and checked: against the hash pinned per seed in
``perfbench/pinned.json`` for the paper's seeds (``--seed 0``), and by rerun
equality and traced/untraced equality for any other seed.

Human-readable lines go to stderr; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
PINNED = BENCH_DIR / "pinned.json"

PAPER_SEEDS = (3, 5, 7, 9, 11)

# BLAS is pinned to one thread: the machine has 2 shared cores, and a second
# BLAS thread would make the numbers measure the scheduler, not the program.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# The machine's speed wanders by 10-30 % over seconds to minutes, because its
# cores are shared with other tenants; the program's own CPU time moves with
# it. So every timed step is followed by a calibration: a fixed mix of the
# work fairsim does (small numpy products and sorts, Python object lists),
# run in this process while no child runs. Each invocation and set-up probe
# is scaled by (CALIBRATION_REF_S / c) ** CALIBRATION_ELASTICITY, where c is
# the mean of the calibrations on either side of it, which estimates its time
# on the machine at the reference speed. The calibration code is the
# benchmark's own, so no change to fairsim can move it. CALIBRATION_REF_S is
# about the median calibration time on the machine of the first baseline.
# fairsim's time moves less than in proportion to the calibration's: on both
# workloads, medians over blocks of 10-20 invocations were steadiest with an
# exponent of 0.7-0.9 (see README.md).
CALIBRATION_REF_S = 0.12
CALIBRATION_ELASTICITY = 0.8


class _Point:
    __slots__ = ("score", "group")

    def __init__(self, score: float, group: int):
        self.score = score
        self.group = group


def _calibration_pass(features, weights) -> float:
    start = time.perf_counter()
    for _ in range(40):
        scores = features @ weights
        numpy.argsort(-scores)
        points = [_Point(float(x), i & 1) for i, x in enumerate(scores[:3000])]
        points.sort(key=lambda p: p.score)
        {i: p for i, p in enumerate(points)}
    return time.perf_counter() - start


def calibrate() -> float:
    """Median time of three passes of the fixed calibration work."""
    features = numpy.random.default_rng(1).random((12000, 3))
    weights = numpy.array([0.1, 0.2, 0.3])
    return statistics.median(_calibration_pass(features, weights) for _ in range(3))


@dataclass(frozen=True)
class Workload:
    command: str
    experiment: str
    config: dict | None
    cells: int  # grid cells per experiment seed
    csv_rows: int  # metrics.csv rows per experiment seed


# BENCHMARK.json lists sweep-default and eval-bigpool. evolve-default stays
# runnable (report.py --workloads evolve-default) for its layer split; a third
# workload does not fit the time the benchmark's runs are allowed.
WORKLOADS = {
    "sweep-default": Workload("sweep", "reg_sweep", None, 30, 240),
    "evolve-default": Workload("evolve", "evolution", None, 30, 3090),
    "eval-bigpool": Workload(
        "eval", "final_eval", {"gen": {"n": 100000}, "online_rounds": 25, "eta_grid": [0.01]},
        6, 48),
}

# Runs in a fresh interpreter to time set-up: import the CLI, then parse the
# workload's arguments and load and validate its config with the CLI's own code.
SETUP_PROBE = """
import sys
import fairsim.cli
fairsim.cli._load_experiment_config(fairsim.cli.build_parser().parse_args(sys.argv[1:]))
print(fairsim.cli.__file__)
"""


def workload_seeds(seed: int) -> tuple[int, ...]:
    """The paper's seeds for 0; otherwise five seeds derived from ``seed``."""
    if seed == 0:
        return PAPER_SEEDS
    return tuple(
        int.from_bytes(hashlib.sha256(f"perfbench:{seed}:{i}".encode()).digest()[:4], "little")
        for i in range(5)
    )


def tree_hash(exp_dir: Path) -> str:
    """sha256 over every file of a result tree, by relative path.

    ``manifest.json`` is hashed with ``generated_at`` removed, the one field
    that differs between identical runs.
    """
    digest = hashlib.sha256()
    for path in sorted(p for p in exp_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("generated_at", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        rel = path.relative_to(exp_dir).as_posix()
        digest.update(f"{rel}\0{hashlib.sha256(data).hexdigest()}\n".encode())
    return digest.hexdigest()


def check_tree(exp_dir: Path, workload: Workload, seeds: tuple[int, ...]) -> str | None:
    """Structural checks on one result tree; returns a problem or None."""
    if not exp_dir.is_dir():
        return f"{exp_dir} missing"
    with open(exp_dir / "metrics.csv") as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != workload.csv_rows * len(seeds):
        return f"metrics.csv has {rows} rows, expected {workload.csv_rows * len(seeds)}"
    cells = [p for p in (exp_dir / "models").iterdir() if not p.name.startswith("warm_")]
    if len(cells) != workload.cells * len(seeds):
        return f"{len(cells)} cell models, expected {workload.cells * len(seeds)}"
    manifest = json.loads((exp_dir / "manifest.json").read_text())
    if tuple(manifest["config"]["seeds"]) != seeds:
        return f"manifest seeds {manifest['config']['seeds']} differ from {list(seeds)}"
    return None


def environment() -> dict:
    """Machine and library record stored beside every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "cpu0_caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "child_thread_env": THREAD_ENV,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_args(workload: Workload, seeds: tuple[int, ...], out_dir: Path) -> list[str]:
    args = [workload.command, "--out", str(out_dir)]
    if workload.config is not None:
        args += ["--config", str(WORK / "config.json")]
    for seed in seeds:
        args += ["--seed", str(seed)]
    return args


@dataclass
class Invocation:
    seeds: tuple[int, ...]
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    tree: str | None
    problem: str | None
    summary: dict | None = None
    scale: float = 1.0  # from the calibrations around the invocation; see CALIBRATION_REF_S

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s * self.scale


def invoke(workload: Workload, seeds, out_dir: Path, traced: bool = False) -> Invocation:
    """Run one CLI invocation in a fresh child and check its result tree."""
    shutil.rmtree(out_dir, ignore_errors=True)
    summary_path = WORK / "trace_summary.json"
    if traced:
        prefix = [str(BENCH_DIR / "tracer.py"), "--summary", str(summary_path),
                  "--spans", str(WORK / f"spans-{'-'.join(map(str, seeds))}.csv"), "--"]
    else:
        prefix = ["-m", "fairsim.cli"]
    command = [sys.executable, *prefix, *cli_args(workload, seeds, out_dir)]
    with open(WORK / "child.log", "wb") as log:
        start = time.perf_counter()
        child = subprocess.Popen(command, env=child_env(), stdout=log, stderr=log, cwd=ROOT)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    summary = None
    if traced and summary_path.exists():
        summary = json.loads(summary_path.read_text())
        summary_path.unlink()
        wall -= summary["post_run_s"]
    exp_dir = out_dir / workload.experiment
    tree = problem = None
    if child.returncode != 0:
        tail = (WORK / "child.log").read_text(errors="replace")[-2000:]
        problem = f"exit code {child.returncode}: {tail}"
    else:
        problem = check_tree(exp_dir, workload, seeds)
        if problem is None:
            tree = tree_hash(exp_dir)
    return Invocation(tuple(seeds), wall, usage.ru_maxrss / 1024.0, child.returncode, tree,
                      problem, summary)


class SetupProbe:
    """Times fresh interpreters that import the CLI and load the workload config."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.times: list[float] = []
        self.probe(PAPER_SEEDS[0], keep=False)  # the first start compiles bytecode
        self.scales: list[float] = []

    def probe(self, seed: int, keep: bool = True) -> None:
        command = [sys.executable, "-c", SETUP_PROBE,
                   *cli_args(self.workload, (seed,), WORK / "unused")]
        start = time.perf_counter()
        done = subprocess.run(command, env=child_env(), capture_output=True, text=True, cwd=ROOT)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{done.stderr}")
        loaded = Path(done.stdout.strip()).resolve()
        if SRC.resolve() not in loaded.parents:
            raise SystemExit(f"set-up probe imported fairsim from {loaded}, not from {SRC}")
        if keep:
            self.times.append(elapsed)


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return f"n/a (needs 11 samples, have {n})"
    beyond = 10
    pct = 100.0 * (n - beyond) / n
    return f"p{pct:.0f} = {sorted(values)[n - beyond - 1]:.4f} over {n} samples"


def merge_summaries(summaries: list[dict]) -> dict:
    """Sum the tracer summaries of several invocations into one."""
    by_name: dict[str, dict] = {}
    layer_self: dict[str, float] = {}
    for summary in summaries:
        for name, entry in summary["by_name"].items():
            total = by_name.setdefault(name, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                total[key] += value
        for layer, value in summary["layer_self_s"].items():
            layer_self[layer] = layer_self.get(layer, 0.0) + value
    merged = {"by_name": by_name, "layer_self_s": layer_self}
    for key in ("online_rows_scored", "online_score_calls", "spans"):
        merged[key] = sum(summary[key] for summary in summaries)
    return merged


def layer_metrics(summary: dict, overhead_s: float) -> dict:
    by_name = summary["by_name"]

    def get(name, key):
        return by_name.get(name, {}).get(key, 0)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    grid_s = get("experiments.grid", "s")
    rounds = get("learner.run_online", "amount")
    rows = summary["online_rows_scored"]
    m = 3  # features per candidate in every workload's pool
    perceptron_calls = get("learner.perceptron_update", "calls")
    reg_calls = get("fairreg.regularized_update", "calls")
    layer_self = summary["layer_self_s"]
    metrics_s = layer_self.get("metrics", 0.0)
    values = {
        "experiments.grid.s": (grid_s, "s"),
        "experiments.self_s": (get("experiments.grid", "self_s"), "s"),
        "experiments.build_seed_context.self_s": (
            get("experiments.build_seed_context", "self_s"), "s"),
        "experiments.write_results.s": (get("experiments.write_results", "s"), "s"),
        "experiments.write_results.bytes": (get("experiments.write_results", "amount"), "bytes"),
        "datagen.generate_pool.s": (get("datagen.generate_pool", "s"), "s"),
        "datagen.generate_pool.calls": (get("datagen.generate_pool", "calls"), "count"),
        "datagen.feature_matrix.s": (get("datagen.feature_matrix", "s"), "s"),
        "datagen.feature_matrix.calls": (get("datagen.feature_matrix", "calls"), "count"),
        "datagen.feature_matrix.rows": (get("datagen.feature_matrix", "amount"), "count"),
        "datagen.protected_values.s": (get("datagen.protected_values", "s"), "s"),
        "datagen.self_s": (layer_self.get("datagen", 0.0), "s"),
        "usermodel.label_pool.s": (get("usermodel.label_pool", "s"), "s"),
        "usermodel.label_pool.calls": (get("usermodel.label_pool", "calls"), "count"),
        "usermodel.self_s": (layer_self.get("usermodel", 0.0), "s"),
        "learner.warm_start.s": (get("learner.warm_start", "s"), "s"),
        "learner.run_online.s": (get("learner.run_online", "s"), "s"),
        "learner.run_online.self_s": (get("learner.run_online", "self_s"), "s"),
        "learner.run_online.calls": (get("learner.run_online", "calls"), "count"),
        "learner.run_online.share_of_grid": (
            ratio(get("learner.run_online", "s"), grid_s), "ratio"),
        "learner.rounds": (rounds, "count"),
        "learner.score_all.s": (get("learner.score_all", "s"), "s"),
        "learner.score_all.calls": (get("learner.score_all", "calls"), "count"),
        "learner.rows_scored": (rows, "count"),
        "learner.rows_scored_per_round": (ratio(rows, rounds), "count"),
        "learner.score_bytes_computed": (rows * m * 8, "bytes"),
        "learner.perceptron_update.s": (get("learner.perceptron_update", "s"), "s"),
        "learner.perceptron_update.calls": (perceptron_calls, "count"),
        "learner.update_ratio": (
            ratio(get("learner.perceptron_update", "amount"), perceptron_calls), "ratio"),
        "learner.rank_by_model.s": (get("learner.rank_by_model", "s"), "s"),
        "fairreg.fit_auxiliary.s": (get("fairreg.fit_auxiliary", "s"), "s"),
        "fairreg.regularized_update.s": (get("fairreg.regularized_update", "s"), "s"),
        "fairreg.regularized_update.calls": (reg_calls, "count"),
        "fairreg.update_ratio": (ratio(get("fairreg.regularized_update", "amount"), reg_calls),
                                 "ratio"),
        "metrics.compute_baseline.s": (get("metrics.compute_baseline", "s"), "s"),
        "metrics.evaluate_ranking.self_s": (get("metrics.evaluate_ranking", "self_s"), "s"),
        "metrics.evaluate_ranking.calls": (get("metrics.evaluate_ranking", "calls"), "count"),
        "metrics.points_evaluated": (get("metrics.evaluate_ranking", "amount"), "count"),
        "metrics.skew_at_k.s": (get("metrics.skew_at_k", "s"), "s"),
        "metrics.ndcs.s": (get("metrics.ndcs", "s"), "s"),
        "metrics.precision_at_k.s": (get("metrics.precision_at_k", "s"), "s"),
        "metrics.self_s": (metrics_s, "s"),
        "metrics.share_of_grid": (ratio(metrics_s, grid_s), "ratio"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.spans": (summary["spans"], "count"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def pinned_hashes(workload_name: str, env: dict) -> dict[int, str]:
    """The pinned tree hash of each paper seed, applied on any machine.

    The pins were taken on one CPU and software stack. Elsewhere they still
    apply; a differing stack is named on stderr as a possible cause of a
    mismatch, but the mismatch counts as a failure all the same.
    """
    entry = json.loads(PINNED.read_text())[workload_name]
    differing = [key for key in ("cpu", "python", "numpy", "blas")
                 if entry["environment"].get(key) != env[key]]
    if differing:
        log(f"note: pin taken with another {', '.join(differing)}: "
            f"{ {key: entry['environment'].get(key) for key in differing} }")
    return {int(seed): digest for seed, digest in entry["sha256"].items()}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="0 runs the paper's seeds (3, 5, 7, 9, 11); others derive five")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement length; BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fairsim" / "cli.py").is_file():
        log(f"error: no fairsim sources under {SRC}; run from a full checkout")
        return 2
    workload = WORKLOADS[args.workload]
    seeds = workload_seeds(args.seed)
    WORK.mkdir(exist_ok=True)
    if workload.config is not None:
        (WORK / "config.json").write_text(json.dumps(workload.config))
    env = environment()
    (WORK / "environment.json").write_text(json.dumps(env, indent=2) + "\n")
    log(f"workload {args.workload}: fairsim {workload.command}, one invocation per seed, "
        f"seeds {list(seeds)} in turn")
    log(f"environment: {json.dumps(env)}")
    pins = pinned_hashes(args.workload, env) if args.seed == 0 else None

    start = time.perf_counter()
    setup = None if args.trace else SetupProbe(workload)
    calibrations = [calibrate()]

    def calibrated(run: Invocation) -> None:
        calibrations.append(calibrate())
        speed = CALIBRATION_REF_S / statistics.fmean(calibrations[-2:])
        run.scale = speed ** CALIBRATION_ELASTICITY

    traced = []
    for seed in seeds if args.trace else ():
        run = invoke(workload, (seed,), WORK / "out", traced=True)
        calibrated(run)
        traced.append(run)
        log(f"traced invocation, seed {seed}: {run.wall_s:.3f} s (scaled {run.ref_wall_s:.3f} s), "
            f"exit {run.exit_code}, tree {run.tree}")
    # Invocations take the seeds in turn, each followed by one set-up probe
    # and one calibration, so probes and invocations sample the same stretch
    # of time and each is scaled by the calibrations around it. Every seed
    # runs at least once; then the run stops before the next step would pass
    # --seconds.
    runs: list[Invocation] = []
    steps: list[float] = []
    while True:
        step_start = time.perf_counter()
        seed = seeds[len(runs) % len(seeds)]
        run = invoke(workload, (seed,), WORK / "out")
        if setup:
            setup.probe(seed)
        calibrated(run)
        if setup:
            setup.scales.append(run.scale)
        runs.append(run)
        log(f"invocation {len(runs)}, seed {seed}: {run.wall_s:.3f} s (scaled "
            f"{run.ref_wall_s:.3f} s), {run.peak_rss_mb:.1f} MB, exit {run.exit_code}, "
            f"tree {run.tree}{', ' + run.problem if run.problem else ''}")
        steps.append(time.perf_counter() - step_start)
        elapsed = time.perf_counter() - start
        if len(runs) >= len(seeds) and elapsed + statistics.median(steps) > args.seconds:
            break
    log(f"calibration: median {statistics.median(calibrations):.4f} s over "
        f"{len(calibrations)}, reference {CALIBRATION_REF_S} s")

    # Correctness: the paper's seeds must match their pins; other seeds, whose
    # results were never pinned, must match the run's first tree of that seed.
    if pins is not None:
        references = {(seed,): digest for seed, digest in pins.items()}
        log("hash check: pinned hash per paper seed")
    else:
        references = {}
        for run in runs:
            if run.tree:
                references.setdefault(run.seeds, run.tree)
        log("hash check: rerun equality per seed (no pin for derived seeds)")
    checked = runs + traced
    failed = 0
    for run in checked:
        reference = references.get(run.seeds)
        if run.problem is None and run.tree != reference:
            run.problem = f"result tree {run.tree} of seed {run.seeds[0]} differs from {reference}"
        if run.problem is not None:
            failed += 1
            log(f"failed: {run.problem}")
    log(f"failed_frac = {failed / len(checked):.4f} ({failed} of {len(checked)} invocations)")

    ok = [r for r in runs if r.problem is None]
    metrics = {}
    if args.trace:
        untraced = {run.seeds: statistics.median(r.ref_wall_s for r in ok if r.seeds == run.seeds)
                    for run in traced if any(r.seeds == run.seeds for r in ok)}
        if failed == 0 and len(untraced) == len(traced) and all(r.summary for r in traced):
            overhead = sum(run.ref_wall_s - untraced[run.seeds] for run in traced)
            metrics = layer_metrics(merge_summaries([run.summary for run in traced]), overhead)
    elif ok:
        walls = [r.wall_s for r in ok]
        ref_walls = [r.ref_wall_s for r in ok]
        log(f"unscaled: wall_s median {statistics.median(walls):.4f} s, tail "
            f"{tail_percentile(walls)}; setup_s median {statistics.median(setup.times):.4f} s")
        log(f"wall_ref_s tail: {tail_percentile(ref_walls)}")
        metrics = {
            "setup_s": {"value": statistics.median(
                t * scale for t, scale in zip(setup.times, setup.scales)), "unit": "s"},
            "wall_ref_s": {"value": statistics.median(ref_walls), "unit": "s"},
            "cells_per_ref_s": {"value": statistics.median(workload.cells / w for w in ref_walls),
                                "unit": "1/s"},
            "peak_rss_mb": {"value": statistics.median(r.peak_rss_mb for r in ok), "unit": "MB"},
        }
    for name, metric in metrics.items():
        log(f"{name} = {metric['value']!r} {metric['unit']}")
    result = {"correct": failed == 0 and bool(metrics), "attempted": len(checked),
              "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload,
        "seeds": list(seeds),
        "environment": env,
        "setup_s": setup.times if setup else [],
        "calibration_s": calibrations,
        "invocations": [
            {"traced": index >= len(runs), "seed": run.seeds[0], "wall_s": run.wall_s,
             "scale": run.scale, "peak_rss_mb": run.peak_rss_mb, "exit_code": run.exit_code,
             "tree": run.tree, "problem": run.problem}
            for index, run in enumerate(checked)
        ],
        "result": result,
    }
    (WORK / "last_run.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
