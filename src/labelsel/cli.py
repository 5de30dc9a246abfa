"""Command-line surface: select / synth / report / verify.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Every run that writes a report embeds the fully resolved configuration, so
rerunning with the flags echoed there reproduces output files byte for
byte.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import checks, diagnostics
from .density import knn_utility_scores
from .errors import DataError, LabelselError, NumericalError
from .io import (
    l2_normalize,
    load_embeddings,
    load_labels,
    load_selection,
    save_embeddings,
    save_labels,
    save_selection,
    SelectionFile,
)
from .usl import SelectionResult, UslParams, select_usl
from .uslt import METRICS, OptimizerConfig, UsltParams, select_uslt

REPORT_FORMAT_VERSION = 1


class UsageError(LabelselError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise UsageError(message)


def _json_clean(obj):
    if isinstance(obj, dict):
        return {k: _json_clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _json_clean(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    return obj


def _write_json(path, payload):
    Path(path).write_text(json.dumps(_json_clean(payload), indent=2) + "\n", encoding="utf-8")


# The tuning flags of `select`: argparse dest -> (flag, type, {method:
# field}). The type is argparse's, or a tuple of the allowed values. The
# field names where the method's report ``params`` hold the value:
# "optimizer.<name>" is a field of USL-T's OptimizerConfig, "metric" is
# select_uslt's metric, and any other name a field of UslParams (usl) or
# UsltParams (uslt). A flag set for a method it has no entry for is a usage
# error; the report lists the set flags in this order.
_TUNING_FLAGS = {
    "k": ("--k", int, {"usl": "k", "uslt": "neighbor_k"}),
    "lam": ("--lambda", float, {"usl": "reg_lambda", "uslt": "loss_weight"}),
    "alpha": ("--alpha", float, {"usl": "reg_alpha", "uslt": "adjust_alpha"}),
    "momentum": ("--momentum", float, {"usl": "momentum", "uslt": "momentum"}),
    "iters": ("--iters", int, {"usl": "iterations", "uslt": "optimizer.steps"}),
    "horizon": ("--horizon", int, {"usl": "horizon"}),
    "tau": ("--tau", float, {"uslt": "tau"}),
    "temperature": ("--temperature", float, {"uslt": "temperature"}),
    "learning_rate": ("--learning-rate", float, {"uslt": "optimizer.learning_rate"}),
    "batch_size": ("--batch-size", int, {"uslt": "optimizer.batch_size"}),
    "metric": ("--metric", METRICS, {"uslt": "metric"}),
}


def _worker_count(text: str) -> int:
    """--threads: an integer >= 1, else a usage error naming the flag."""
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return count


def _add_input_flags(parser) -> None:
    """The embedding-input flags that `select` and `report` share."""
    parser.add_argument("--embeddings", required=True)
    parser.add_argument("--format", choices=["fvecs", "csv"], default=None)
    parser.add_argument("--threads", type=_worker_count, default=None)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="labelsel", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    ps = sub.add_parser("select", help="select instances to label")
    ps.add_argument("--method", required=True, choices=["usl", "uslt", "random", "stratified"])
    _add_input_flags(ps)
    ps.add_argument("--budget", type=int, required=True)
    ps.add_argument("--profile", choices=["small", "large"], default="small")
    for dest, (flag, kind, targets) in _TUNING_FLAGS.items():
        typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
        ps.add_argument(flag, dest=dest, default=None, **typed,
                        help="; ".join(f"{method}: {field}" for method, field in targets.items()))
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--labels", default=None, help="label file (stratified only)")
    ps.add_argument("--out", required=True)
    ps.add_argument("--report", default=None)
    ps.set_defaults(func=cmd_select)

    # defaults are SyntheticSpec's: only the flags given reach the spec
    py = sub.add_parser("synth", help="generate a seeded Gaussian-mixture benchmark",
                        argument_default=argparse.SUPPRESS)
    py.add_argument("--modes", type=int, required=True)
    py.add_argument("--per-mode", type=int, required=True)
    py.add_argument("--dim", type=int)
    py.add_argument("--sigma", type=float)
    py.add_argument("--layout", choices=diagnostics.LAYOUTS)
    py.add_argument("--radius", type=float)
    py.add_argument("--seed", type=int)
    py.add_argument("--normalize", action="store_true")
    py.add_argument("--out-embeddings", required=True)
    py.add_argument("--out-labels", required=True)
    py.set_defaults(func=cmd_synth)

    pr = sub.add_parser("report", help="score selections against ground-truth labels")
    _add_input_flags(pr)
    pr.add_argument("--labels", required=True)
    pr.add_argument("--selection", action="append", required=True,
                    metavar="[NAME=]PATH", help="repeat to compare strategies; "
                    "NAME ends at the first '='")
    pr.add_argument("--k", type=int, default=None, help="kNN size for utilities")
    pr.add_argument("--out", default=None, help="JSON output path")
    pr.set_defaults(func=cmd_report)

    pv = sub.add_parser("verify", help="run the identity/gradient/collapse suites")
    pv.add_argument("--seed", type=int, default=0)
    pv.set_defaults(func=cmd_verify)
    return p


def _set_flags(args) -> list[str]:
    return [dest for dest in _TUNING_FLAGS if getattr(args, dest) is not None]


def _select(args, matrix) -> SelectionResult:
    """USL or USL-T under args.profile, with the set flags' fields."""
    given = {_TUNING_FLAGS[dest][2][args.method]: getattr(args, dest) for dest in _set_flags(args)}
    large = args.profile == "large"
    if args.method == "usl":
        base = UslParams.large_scale() if large else UslParams.small_scale(args.budget)
        params = replace(base, seed=args.seed, **given)
        _check_knn_k(params.k, matrix.n)
        return select_usl(matrix, args.budget, params, threads=args.threads)
    opt = {f[len("optimizer."):]: given.pop(f) for f in list(given) if f.startswith("optimizer.")}
    metric = {"metric": given.pop("metric")} if "metric" in given else {}
    params = replace(UsltParams.large_scale() if large else UsltParams.small_scale(), **given)
    optimizer = replace(OptimizerConfig(), seed=args.seed, **opt)
    _check_knn_k(params.neighbor_k, matrix.n)
    return select_uslt(matrix, args.budget, params, optimizer, threads=args.threads, **metric)


def _check_knn_k(k: int, n: int) -> None:
    if k > n - 1:  # a kNN graph on n rows has at most n - 1 neighbors per row
        raise UsageError(f"--k resolves to {k}, but n = {n} rows allow k <= {n - 1}")


def cmd_select(args) -> int:
    if args.budget < 1:
        raise UsageError("--budget must be >= 1")
    if args.method == "stratified" and not args.labels:
        raise UsageError("--labels is required for the stratified oracle baseline")
    for dest in _set_flags(args):
        flag, _, methods = _TUNING_FLAGS[dest]
        if args.method not in methods:
            raise UsageError(f"{flag} does not apply to method {args.method!r}")
    matrix = l2_normalize(load_embeddings(args.embeddings, args.format))
    n = matrix.n
    report: dict = {
        "format_version": REPORT_FORMAT_VERSION,
        "command": "select",
        "config": {
            "method": args.method,
            "embeddings": str(args.embeddings),
            "format": args.format,
            "budget": args.budget,
            "profile": args.profile,
            "seed": args.seed,
            "labels": str(args.labels) if args.labels else None,
            "out": str(args.out),
            "threads": args.threads,
            "l2_normalized": True,
        },
        "overrides": [_TUNING_FLAGS[dest][0][2:] for dest in _set_flags(args)],
    }

    if args.method in ("usl", "uslt"):
        result = _select(args, matrix)
        selection = SelectionFile(indices=result.indices)
        report["params"] = _json_clean(result.params)
        if result.history:
            report["history"] = [
                {"iteration": t, "indices": idx.tolist(), "scores": scores.tolist()}
                for t, (idx, scores) in enumerate(result.history)
            ]
        report["trace"] = _json_clean(result.trace)
    elif args.method == "random":
        selection = diagnostics.random_selection(n, args.budget, args.seed)
        report["params"] = {"seed": args.seed}
    else:  # stratified
        labels = load_labels(args.labels)
        if labels.n != n:
            raise DataError(f"label file covers {labels.n} instances but matrix has {n}")
        selection = diagnostics.stratified_selection(labels, args.budget, args.seed)
        report["params"] = {"seed": args.seed}
        report["oracle_baseline"] = True

    save_selection(selection, args.out)
    report["selection"] = selection.indices.tolist()
    report["summary"] = {"n": n, "d": matrix.d, "budget": args.budget}
    if args.report:
        _write_json(args.report, report)
    print(f"wrote {args.out} ({selection.budget} indices)")
    return 0


def cmd_synth(args) -> int:
    given = vars(args)
    spec = diagnostics.SyntheticSpec(
        **{f.name: given[f.name] for f in fields(diagnostics.SyntheticSpec) if f.name in given}
    )
    matrix, labels = diagnostics.generate_synthetic(spec)
    save_embeddings(matrix, args.out_embeddings)
    save_labels(labels, args.out_labels)
    print(
        f"wrote {args.out_embeddings} ({matrix.n}x{matrix.d}) and "
        f"{args.out_labels} ({labels.n} labels, {labels.num_classes} classes)"
    )
    return 0


def cmd_report(args) -> int:
    matrix = load_embeddings(args.embeddings, args.format)
    labels = load_labels(args.labels)
    if labels.n != matrix.n:
        raise DataError(
            f"label file covers {labels.n} instances but matrix has {matrix.n}"
        )
    k = args.k if args.k is not None else min(400, matrix.n - 1)
    _check_knn_k(k, matrix.n)
    util = knn_utility_scores(matrix, k, threads=args.threads)
    given = []  # (name, path) of each --selection, in order
    for item in args.selection:
        name, _, path = item.partition("=") if "=" in item else ("", "", item)
        path = path or item
        given.append((name or Path(path).stem, path))
    named = [(name, load_selection(path, n=matrix.n)) for name, path in given]
    rows = diagnostics.compare(named, labels, matrix, util)
    print(diagnostics.comparison_table(rows))
    if args.out:
        _write_json(
            args.out,
            {
                "format_version": REPORT_FORMAT_VERSION,
                "command": "report",
                "config": {
                    "embeddings": str(args.embeddings),
                    "format": args.format,
                    "labels": str(args.labels),
                    "k": k,
                    "threads": args.threads,
                    "selections": [
                        {"name": name, "path": path} for name, path in given
                    ],
                },
                "reports": [{"name": name, **rep.to_dict()} for name, rep in rows],
            },
        )
    return 0


def cmd_verify(args) -> int:
    outcomes = checks.run_all(seed=args.seed)
    for outcome in outcomes:
        print(outcome.describe())
    if all(o.passed for o in outcomes):
        print("all checks passed")
        return 0
    return 3


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except LabelselError as e:  # fallback for anything package-specific
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
