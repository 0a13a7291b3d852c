"""Run the benchmark over workloads and seeds and print every metric by name.

    python3 perfbench/report.py                        # BENCHMARK.json's workloads, paper seeds
    python3 perfbench/report.py --seeds 1-10 --workloads sweep-default
    python3 perfbench/report.py --trace                # per-layer metrics instead
    python3 perfbench/report.py --trace --workloads evolve-default

For each workload and metric it prints the median over runs, the quartiles,
the spread (Q3 - Q1) / median and, for end-to-end metrics, the bound from
``BENCHMARK.json``; a spread above a third of its bound is flagged. Every run
lasts ``run_seconds`` from ``BENCHMARK.json``. It also prints ``failed_frac``
over every CLI invocation and the tail percentile of the pooled
per-invocation wall times, scaled to the reference speed as ``wall_ref_s``
is. With ``--json PATH`` the table is also written as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from run import WORK, WORKLOADS, tail_percentile  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def one_run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((WORK / "last_run.json").read_text())
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]),
                        help=f"comma list of {', '.join(WORKLOADS)}; default BENCHMARK.json's")
    parser.add_argument("--seeds", default="0", help="comma list or ranges, e.g. 1-10")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--json", help="also write the table to this JSON file")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units = {}
        walls = []
        attempted = failed = 0
        for seed in parse_seeds(args.seeds):
            result, record = one_run(workload, seed, seconds, args.trace)
            attempted += result["attempted"]
            failed += result["failed"]
            walls += [i["wall_s"] * i["scale"] for i in record["invocations"] if not i["traced"]]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        rows = {}
        print(f"\n== {workload}: {len(walls)} untraced invocations, failed_frac = "
              f"{failed / attempted:.4f} ({failed} of {attempted})")
        print(f"   wall_ref_s per invocation, tail: {tail_percentile(walls)}")
        print(f"   {'metric':40s} {'unit':6s} {'median':>14s} {'Q1':>14s} {'Q3':>14s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  spread above bound/3"
            print(f"   {name:40s} {units[name]:6s} {median:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6}{flag}")
            rows[name] = {"unit": units[name], "median": median, "q1": q1, "q3": q3,
                          "spread": spread, "runs": len(series)}
        print()
        table[workload] = {"failed_frac": failed / attempted, "invocation_walls": walls,
                           "metrics": rows}
    if args.json:
        Path(args.json).write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
