"""Check the ROADMAP's item-1 figures for the default sweep against this machine.

    python3 perfbench/crosscheck.py

Runs the default sweep once untraced and once traced, times the two costs the
trace cannot separate (``LinearModel`` construction and the ``DataPoint``
re-list in ``_ranked_report``) with ``timeit`` on the same data sizes, and
prints each figure beside the measured value and whether it agrees.
"""

import json
import sys
import timeit
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from run import PAPER_SEEDS, SRC, WORK, WORKLOADS, invoke  # noqa: E402

sys.path.insert(0, str(SRC))


def per_call_seconds(statement: str, setup: dict, number: int) -> float:
    timer = timeit.Timer(statement, globals=setup)
    return min(timer.repeat(repeat=5, number=number)) / number


def main() -> int:
    import numpy as np

    from fairsim import default_config, generate_pool
    from fairsim.learner import LinearModel

    workload = WORKLOADS["sweep-default"]
    WORK.mkdir(exist_ok=True)
    plain = invoke(workload, PAPER_SEEDS, WORK / "out")
    traced = invoke(workload, PAPER_SEEDS, WORK / "out", traced=True)
    if plain.problem or traced.problem or plain.tree != traced.tree:
        raise SystemExit(f"sweep failed: {plain.problem or traced.problem}")
    by_name = traced.summary["by_name"]
    grid = by_name["experiments.grid"]
    online = by_name["learner.run_online"]
    reg = by_name["fairreg.regularized_update"]
    perceptron = by_name["learner.perceptron_update"]
    reports = by_name["learner.rank_by_model"]["calls"]

    weights = np.array([0.1, 0.2, 0.3, 0.4])
    construct_s = per_call_seconds("LinearModel(weights)", {"LinearModel": LinearModel,
                                                            "weights": weights}, 20000)
    constructions = reg["amount"] + perceptron["amount"]
    points = generate_pool(default_config(n=12000, seed=1))
    order = np.random.default_rng(0).permutation(len(points))
    relist_s = per_call_seconds("[points[i] for i in order]",
                                {"points": points, "order": order}, 20)

    rows = [
        ("sweep wall time", "8-14 s", plain.wall_s, 8.0 <= plain.wall_s <= 14.0),
        ("run_online share of the grid", "about 86 %", online["s"] / grid["s"],
         abs(online["s"] / grid["s"] - 0.86) <= 0.05),
        ("one 1000-round cell (run_online.s / calls)", "55-75 ms", online["s"] / online["calls"],
         0.055 <= online["s"] / online["calls"] <= 0.075),
        ("LinearModel construction per update", "15-20 us", construct_s,
         15e-6 <= construct_s <= 20e-6),
        ("whole regularized_update call, traced", "15-20 us", reg["s"] / reg["calls"],
         15e-6 <= reg["s"] / reg["calls"] <= 20e-6),
        ("LinearModel constructions x cost per sweep", "about 1.6 s", construct_s * constructions,
         abs(construct_s * constructions - 1.6) <= 0.4),
        ("_ranked_report re-list per sweep", "about 0.66 s", relist_s * reports,
         abs(relist_s * reports - 0.66) <= 0.2),
        ("experiments.self_s (holds the re-list)", ">= the re-list", grid["self_s"],
         grid["self_s"] >= relist_s * reports),
    ]
    for name, figure, measured, agrees in rows:
        print(f"{name:45s} {figure:>14s} {measured:12.6g} {'agrees' if agrees else 'DIFFERS'}")
    print(json.dumps({"constructions": constructions, "reports": reports,
                      "construct_s": construct_s, "relist_s": relist_s,
                      "wall_s": plain.wall_s, "traced_wall_s": traced.wall_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
