"""Span tracer that wraps fairsim's public functions from outside the package.

Each wrapped function is replaced at the place its caller binds it (for
example ``fairsim.experiments.run_online``, which the grid runners call, or
``fairsim.learner.score_all``, which ``run_online`` calls), so nothing under
``src/`` changes. A span is ``(name, parent, start_ns, end_ns, amount)``:
``parent`` is the index of the enclosing span (-1 at the top) and ``amount``
is a count taken from the call's arguments or return value, such as the rows
passed to ``score_all``. Spans stay in memory and are written when the run
ends; self time is derived from them afterwards.

Run as a script, it executes one ``fairsim`` CLI command under the tracer:

    PYTHONPATH=src python3 perfbench/tracer.py --summary S.json --spans S.csv -- sweep --out OUT
"""

import argparse
import importlib
import json
import os
import sys
import time
from collections import defaultdict


def _rows(obj) -> int:
    shape = getattr(obj, "shape", None)
    return int(shape[0]) if shape else len(obj)


def _first_arg_rows(args, kwargs, result) -> int:
    return _rows(args[0] if args else next(iter(kwargs.values())))


def _result_rows(args, kwargs, result) -> int:
    return _rows(result)


def _weights_changed(args, kwargs, result) -> int:
    # Both update functions return their input model object when the weights
    # do not change.
    model = args[0] if args else kwargs.get("model")
    return 0 if result is model else 1


def _rounds(args, kwargs, result) -> int:
    if "rounds" in kwargs:
        return int(kwargs["rounds"])
    return int(args[2])


def _tree_bytes(args, kwargs, result) -> int:
    total = 0
    for dirpath, _, files in os.walk(result):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


# (module, attribute, span name, amount). Every module that calls a function
# through its own import gets its own entry, so each call site is seen once.
BINDINGS = (
    ("fairsim.cli", "write_results", "experiments.write_results", _tree_bytes),
    ("fairsim.experiments", "build_seed_context", "experiments.build_seed_context", None),
    ("fairsim.experiments", "generate_pool", "datagen.generate_pool", _result_rows),
    ("fairsim.experiments", "feature_matrix", "datagen.feature_matrix", _first_arg_rows),
    ("fairsim.learner", "feature_matrix", "datagen.feature_matrix", _first_arg_rows),
    ("fairsim.metrics", "feature_matrix", "datagen.feature_matrix", _first_arg_rows),
    ("fairsim.usermodel", "feature_matrix", "datagen.feature_matrix", _first_arg_rows),
    ("fairsim.fairreg", "feature_matrix", "datagen.feature_matrix", _first_arg_rows),
    ("fairsim.metrics", "protected_values", "datagen.protected_values", _first_arg_rows),
    ("fairsim.usermodel", "protected_values", "datagen.protected_values", _first_arg_rows),
    ("fairsim.fairreg", "protected_values", "datagen.protected_values", _first_arg_rows),
    ("fairsim.experiments", "label_pool", "usermodel.label_pool", _first_arg_rows),
    ("fairsim.experiments", "warm_start", "learner.warm_start", None),
    ("fairsim.experiments", "run_online", "learner.run_online", _rounds),
    ("fairsim.experiments", "rank_by_model", "learner.rank_by_model", _result_rows),
    ("fairsim.learner", "score_all", "learner.score_all", _result_rows),
    ("fairsim.learner", "perceptron_update", "learner.perceptron_update", _weights_changed),
    # run_online imports regularized_update from fairreg at call time.
    ("fairsim.fairreg", "regularized_update", "fairreg.regularized_update", _weights_changed),
    ("fairsim.experiments", "fit_auxiliary", "fairreg.fit_auxiliary", None),
    ("fairsim.experiments", "compute_baseline", "metrics.compute_baseline", None),
    ("fairsim.experiments", "evaluate_ranking", "metrics.evaluate_ranking", _first_arg_rows),
    ("fairsim.metrics", "skew_at_k", "metrics.skew_at_k", None),
    ("fairsim.metrics", "ndcs", "metrics.ndcs", None),
    ("fairsim.metrics", "precision_at_k", "metrics.precision_at_k", None),
)

GRID_SPAN = "experiments.grid"


class Tracer:
    """Collects spans from wrapped functions in one process."""

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]

    def wrap(self, name: str, fn, amount=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end, 0)
            if amount is not None:
                spans[index] = (name, parent, start, end, amount(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced


def install(tracer: Tracer) -> list:
    """Wrap every binding; return the undo list for :func:`restore`.

    A binding the program no longer has raises ``LookupError`` naming it,
    after undoing what was wrapped so far. A renamed or moved function must
    fail the traced run rather than report its layer as taking no time.
    """
    undo = []
    try:
        for module_name, attr, name, amount in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                raise LookupError(f"{module_name}.{attr} not found; span {name} cannot be traced")
            setattr(module, attr, tracer.wrap(name, original, amount))
            undo.append((module, attr, original))
        # The CLI dispatches through a table of (experiment, runner) pairs.
        table = getattr(importlib.import_module("fairsim.cli"), "_EXPERIMENTS", None)
        if not isinstance(table, dict):
            raise LookupError(f"fairsim.cli._EXPERIMENTS not found; span {GRID_SPAN} "
                              "cannot be traced")
        for kind, (experiment, runner) in list(table.items()):
            table[kind] = (experiment, tracer.wrap(GRID_SPAN, runner))
            undo.append((table, kind, (experiment, runner)))
    except BaseException:
        restore(undo)
        raise
    return undo


def restore(undo: list) -> None:
    """Put back every original function recorded by :func:`install`."""
    for target, key, original in reversed(undo):
        if isinstance(target, dict):
            target[key] = original
        else:
            setattr(target, key, original)


def summarize(spans: list) -> dict:
    """Per span name: total and self seconds, call count and summed amount.

    Also returns the counts that need the parent's name, such as the rows
    ``score_all`` scored inside ``run_online`` as opposed to inside
    ``rank_by_model``.
    """
    child_ns = [0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    by_name = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "amount": 0})
    layer_self = defaultdict(float)
    online_rows = online_calls = 0
    for index, (name, parent, start, end, amount) in enumerate(spans):
        entry = by_name[name]
        own = (end - start) / 1e9
        self_time = (end - start - child_ns[index]) / 1e9
        entry["s"] += own
        entry["self_s"] += self_time
        entry["calls"] += 1
        entry["amount"] += amount
        layer_self[name.split(".", 1)[0]] += self_time
        if name == "learner.score_all" and parent >= 0 and spans[parent][0] == "learner.run_online":
            online_rows += amount
            online_calls += 1
    return {
        "by_name": dict(by_name),
        "layer_self_s": dict(layer_self),
        "online_rows_scored": online_rows,
        "online_score_calls": online_calls,
        "spans": len(spans),
    }


def write_spans(spans: list, path: str) -> None:
    """Write spans as CSV: ``index,parent,name,start_ns,end_ns,amount``."""
    with open(path, "w") as fh:
        fh.write("index,parent,name,start_ns,end_ns,amount\n")
        for index, (name, parent, start, end, amount) in enumerate(spans):
            fh.write(f"{index},{parent},{name},{start},{end},{amount}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one fairsim CLI command under the tracer")
    parser.add_argument("--summary", required=True, help="JSON file for the span summary")
    parser.add_argument("--spans", help="CSV file for every span")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import fairsim.cli

    tracer = Tracer()
    undo = install(tracer)
    try:
        code = fairsim.cli.main(cli_args)
    finally:
        restore(undo)
    finished = time.perf_counter()
    summary = summarize(tracer.spans)
    if args.spans:
        write_spans(tracer.spans, args.spans)
    summary["exit_code"] = code
    summary["post_run_s"] = time.perf_counter() - finished
    with open(args.summary, "w") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
