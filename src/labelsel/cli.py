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
from dataclasses import asdict
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
from .usl import UslParams, select_usl
from .uslt import OptimizerConfig, UsltParams, select_uslt

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


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="labelsel", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    ps = sub.add_parser("select", help="select instances to label")
    ps.add_argument("--method", required=True, choices=["usl", "uslt", "random", "stratified"])
    ps.add_argument("--embeddings", required=True)
    ps.add_argument("--format", choices=["fvecs", "csv"], default=None)
    ps.add_argument("--budget", type=int, required=True)
    ps.add_argument("--profile", choices=["small", "large"], default="small")
    ps.add_argument("--k", type=int, default=None, help="kNN size (usl) / neighbor size (uslt)")
    ps.add_argument("--lambda", dest="lam", type=float, default=None,
                    help="regularization weight (usl) / local loss weight (uslt)")
    ps.add_argument("--alpha", type=float, default=None,
                    help="distance exponent (usl) / logit adjustment intensity (uslt)")
    ps.add_argument("--momentum", type=float, default=None,
                    help="regularizer EMA momentum (usl) / running-mean momentum (uslt)")
    ps.add_argument("--iters", type=int, default=None,
                    help="regularization rounds (usl) / optimizer steps (uslt)")
    ps.add_argument("--horizon", type=int, default=None, help="usl only")
    ps.add_argument("--tau", type=float, default=None, help="uslt confidence threshold")
    ps.add_argument("--temperature", type=float, default=None, help="uslt sharpening temperature")
    ps.add_argument("--learning-rate", type=float, default=None, help="uslt optimizer")
    ps.add_argument("--batch-size", type=int, default=None, help="uslt optimizer")
    ps.add_argument("--metric", choices=["dot", "neg_sq_euclidean"], default=None, help="uslt only")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--labels", default=None, help="label file (stratified only)")
    ps.add_argument("--out", required=True)
    ps.add_argument("--report", default=None)
    ps.add_argument("--threads", type=int, default=None)
    ps.set_defaults(func=cmd_select)

    py = sub.add_parser("synth", help="generate a seeded Gaussian-mixture benchmark")
    py.add_argument("--modes", type=int, required=True)
    py.add_argument("--per-mode", type=int, required=True)
    py.add_argument("--dim", type=int, default=2)
    py.add_argument("--sigma", type=float, default=0.3)
    py.add_argument("--layout", choices=["ring", "random_centers"], default="ring")
    py.add_argument("--radius", type=float, default=5.0)
    py.add_argument("--seed", type=int, default=0)
    py.add_argument("--normalize", action="store_true")
    py.add_argument("--out-embeddings", required=True)
    py.add_argument("--out-labels", required=True)
    py.set_defaults(func=cmd_synth)

    pr = sub.add_parser("report", help="score selections against ground-truth labels")
    pr.add_argument("--embeddings", required=True)
    pr.add_argument("--format", choices=["fvecs", "csv"], default=None)
    pr.add_argument("--labels", required=True)
    pr.add_argument("--selection", action="append", required=True,
                    metavar="[NAME=]PATH", help="repeat to compare strategies")
    pr.add_argument("--k", type=int, default=None, help="kNN size for utilities")
    pr.add_argument("--out", default=None, help="JSON output path")
    pr.add_argument("--threads", type=int, default=None)
    pr.set_defaults(func=cmd_report)

    pv = sub.add_parser("verify", help="run the identity/gradient/collapse suites")
    pv.add_argument("--seed", type=int, default=0)
    pv.set_defaults(func=cmd_verify)
    return p


# The tuning flags of `select`: argparse dest -> (flag, {method: (target,
# field)}), the target being what the method builds from the flag. A flag
# set for a method it has no entry for is a usage error; the report lists
# the set flags in this order.
_TUNING_FLAGS = {
    "k": ("--k", {"usl": (UslParams, "k"), "uslt": (UsltParams, "neighbor_k")}),
    "lam": ("--lambda", {"usl": (UslParams, "reg_lambda"), "uslt": (UsltParams, "loss_weight")}),
    "alpha": ("--alpha", {"usl": (UslParams, "reg_alpha"), "uslt": (UsltParams, "adjust_alpha")}),
    "momentum": ("--momentum", {"usl": (UslParams, "momentum"), "uslt": (UsltParams, "momentum")}),
    "iters": ("--iters", {"usl": (UslParams, "iterations"), "uslt": (OptimizerConfig, "steps")}),
    "horizon": ("--horizon", {"usl": (UslParams, "horizon")}),
    "tau": ("--tau", {"uslt": (UsltParams, "tau")}),
    "temperature": ("--temperature", {"uslt": (UsltParams, "temperature")}),
    "learning_rate": ("--learning-rate", {"uslt": (OptimizerConfig, "learning_rate")}),
    "batch_size": ("--batch-size", {"uslt": (OptimizerConfig, "batch_size")}),
    "metric": ("--metric", {"uslt": ("metric", "metric")}),
}


def _set_flags(args) -> list[str]:
    return [dest for dest in _TUNING_FLAGS if getattr(args, dest) is not None]


def _overrides(args, target) -> dict:
    """Field values of the set flags that args.method routes to ``target``."""
    out = {}
    for dest in _set_flags(args):
        to, field = _TUNING_FLAGS[dest][1][args.method]
        if to is target:
            out[field] = getattr(args, dest)
    return out


def _resolve_usl_params(args) -> UslParams:
    if args.profile == "large":
        base = UslParams.large_scale()
    else:
        base = UslParams.small_scale(args.budget)
    return UslParams(**{**asdict(base), "seed": args.seed, **_overrides(args, UslParams)})


def _resolve_uslt(args):
    base = UsltParams.large_scale() if args.profile == "large" else UsltParams.small_scale()
    params = UsltParams(**{**asdict(base), **_overrides(args, UsltParams)})
    optimizer = OptimizerConfig(
        **{**asdict(OptimizerConfig()), "seed": args.seed, **_overrides(args, OptimizerConfig)}
    )
    return params, optimizer, args.metric or "dot"


def _check_knn_k(k: int, n: int) -> None:
    if k > n - 1:  # a kNN graph on n rows has at most n - 1 neighbors per row
        raise UsageError(f"--k resolves to {k}, but n = {n} rows allow k <= {n - 1}")


def cmd_select(args) -> int:
    if args.budget < 1:
        raise UsageError("--budget must be >= 1")
    if args.method == "stratified" and not args.labels:
        raise UsageError("--labels is required for the stratified oracle baseline")
    for dest in _set_flags(args):
        flag, methods = _TUNING_FLAGS[dest]
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

    if args.method == "usl":
        params = _resolve_usl_params(args)
        _check_knn_k(params.k, n)
        result = select_usl(matrix, args.budget, params, threads=args.threads)
        selection = SelectionFile(indices=result.indices)
        report["params"] = _json_clean(asdict(params))
        report["history"] = [
            {"iteration": t, "indices": idx.tolist(), "scores": scores.tolist()}
            for t, (idx, scores) in enumerate(result.history)
        ]
        report["trace"] = _json_clean(result.trace)
    elif args.method == "uslt":
        params, optimizer, metric = _resolve_uslt(args)
        _check_knn_k(params.neighbor_k, n)
        result = select_uslt(matrix, args.budget, params, optimizer, metric, threads=args.threads)
        selection = SelectionFile(indices=result.indices)
        report["params"] = _json_clean(result.params)
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
    spec = diagnostics.SyntheticSpec(
        modes=args.modes,
        per_mode=args.per_mode,
        dim=args.dim,
        sigma=args.sigma,
        layout=args.layout,
        radius=args.radius,
        seed=args.seed,
        normalize=args.normalize,
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
    util = knn_utility_scores(matrix, k, threads=args.threads)
    named = []
    for item in args.selection:
        name, _, path = item.rpartition("=")
        path = path or item
        name = name or Path(path).stem
        named.append((name, load_selection(path, n=matrix.n)))
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
                    "labels": str(args.labels),
                    "k": k,
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
