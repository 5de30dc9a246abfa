"""One benchmark child process.

    python3 perfbench/worker.py {setup,pass,trace} RUN_DIR RESULT_JSON THREADS

Every mode first sets up: it imports labelsel, loads the run's inputs from
the files its manifest lists and L2-normalizes them, then records the
CLOCK_MONOTONIC time at which set-up ended. ``setup`` stops there, ``pass``
runs one whole workload (every selector call on every input, then the
report step of labeled inputs) and ``trace`` runs the traced pipeline. The
result is written as JSON to RESULT_JSON. run.py starts these processes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import time
import warnings
from pathlib import Path

from oracle import inexact_rows, selection_problems
from workloads import REPORT_K, usl_params, uslt_params


def setup(run_dir: Path):
    import labelsel as L

    manifest = json.loads((run_dir / "manifest.json").read_text())
    inputs = []
    for item in manifest["items"]:
        raw = L.load_embeddings(run_dir / item["embeddings"]["file"])
        labels = None
        if item["labels"] is not None:
            labels = L.load_labels(
                run_dir / item["labels"]["file"], item["labels"]["num_classes"]
            )
        inputs.append((item, raw, L.l2_normalize(raw), labels))
    return L, manifest, inputs


def select(L, method, manifest, item, matrix, threads):
    budget = manifest["plan"]["budget"]
    if method == "usl":
        return L.select_usl(matrix, budget, usl_params(L, manifest, item), threads=threads)
    params, optimizer = uslt_params(L, manifest, item)
    return L.select_uslt(matrix, budget, params, optimizer, threads=threads)


def run_pass(L, manifest, inputs, threads) -> dict:
    """One closed-loop client: every selector call back to back, each output
    checked; failures are recorded and the pass goes on."""
    budget = manifest["plan"]["budget"]
    attempted, failures, calls = 0, [], []
    quality = {"full_coverage": [], "count_std": [], "utility_pct": [], "utility_lift": []}
    for item, raw, matrix, labels in inputs:
        named = []
        for method in manifest["plan"]["methods"]:
            attempted += 1
            where = f"{item['name']}/{method}"
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                result = select(L, method, manifest, item, matrix, threads)
            except Exception as e:  # a raising call counts as one failed operation
                failures.append(f"{where}: {type(e).__name__}: {e}")
                continue
            seconds, cpu_seconds = time.perf_counter() - t0, time.process_time() - c0
            calls.append({"item": item["name"], "method": method, "seconds": seconds,
                          "cpu_seconds": cpu_seconds, "n": matrix.n,
                          "indices": result.indices.tolist()})
            problems = selection_problems(result, matrix.n, budget)
            if problems:
                failures.append(f"{where}: {'; '.join(problems)}")
                continue
            named.append((method, L.SelectionFile(result.indices)))
            if method == "usl":
                s = result.trace["utility_summary"]
                quality["utility_lift"].append(s["selected_mean"] / s["dataset_mean"])
        if labels is None or not named:
            continue
        attempted += 1
        try:
            util = L.utility_scores(L.build_knn_graph(raw, REPORT_K, threads=threads))
            rows = L.compare(named, labels, raw, util)
        except Exception as e:  # a raising report counts as one failed operation
            failures.append(f"{item['name']}/report: {type(e).__name__}: {e}")
            continue
        for _, rep in rows:
            quality["full_coverage"].append(float(rep.coverage == labels.num_classes))
            quality["count_std"].append(rep.count_std)
            quality["utility_pct"].append(rep.mean_utility_rank_percentile)
    return {"attempted": attempted, "failures": failures, "calls": calls, "quality": quality}


def _same_graph(a, b) -> bool:
    import numpy as np

    return np.array_equal(a.neighbors, b.neighbors) and np.array_equal(a.distances, b.distances)


def run_trace(L, manifest, inputs, threads, run_dir: Path) -> dict:
    """Spans around the public calls of every module, on the first
    ``trace_items`` inputs, and the per-layer metrics derived from them."""
    import numpy as np
    from labelsel import cli
    from labelsel.kmeans import kmeanspp_init
    from spans import Tracer

    tr = Tracer()
    plan = manifest["plan"]
    budget = plan["budget"]
    problems: list[str] = []
    rows_checked = rows_inexact = excluded = iterations = init_passes = 0
    steps = empty_epochs = untraced_select_s = 0
    gram_gflop = pairwise_mb = load_bytes = report_bytes = 0.0
    for item, _, _, labels in inputs[: plan["trace_items"]]:
        name = item["name"]
        tr.run_id = f"{manifest['workload']}/seed-{manifest['seed']}/{name}"
        emb = run_dir / item["embeddings"]["file"]
        with tr.span("io.load_embeddings"):
            raw = L.load_embeddings(emb)
        load_bytes += emb.stat().st_size
        matrix = L.l2_normalize(raw)
        n, d = matrix.n, matrix.d
        params = usl_params(L, manifest, item)

        # select_usl, composed from its public stages
        with tr.span("usl.pipeline"):
            with tr.span("density.build_knn_graph"):
                graph = L.build_knn_graph(matrix, params.k, threads=threads)
            with tr.span("density.utility_scores"):
                util = L.utility_scores(graph)
            with tr.span("kmeans.kmeans_fit"):
                clustering = L.kmeans_fit(matrix, budget, seed=params.seed)
            with tr.span("usl.repick_per_cluster"):
                picks = L.repick_per_cluster(util.utility, clustering)
            state = np.zeros(n)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for _ in range(params.iterations):
                    with tr.span("usl.regularize_utilities"):
                        scores, state = L.regularize_utilities(
                            matrix, util, clustering, picks, state, params
                        )
                    with tr.span("usl.repick_per_cluster"):
                        picks = L.repick_per_cluster(scores, clustering)
        excluded += len(caught)

        t0 = time.perf_counter()
        reference = L.select_usl(matrix, budget, params, threads=threads)
        untraced_select_s += time.perf_counter() - t0
        problems += [f"{name}/usl: {p}" for p in selection_problems(reference, n, budget)]
        if not np.array_equal(picks, reference.indices):
            problems.append(f"{name}: composed pipeline picks differ from select_usl")
        if not np.array_equal(clustering.assignment[picks], np.arange(budget)):
            problems.append(f"{name}: picks are not one per k-means cluster")

        with tr.span("density.build_knn_graph[threads=1]"):
            graph_1t = L.build_knn_graph(matrix, params.k, threads=1)
        if not _same_graph(graph, graph_1t):
            problems.append(f"{name}: kNN graph depends on the thread count")
        gram_gflop += 2.0 * n * n * d / 1e9

        with tr.span("kmeans.kmeanspp_init"):
            kmeanspp_init(matrix.data, budget, np.random.default_rng(params.seed))
        iterations += clustering.iterations_run
        init_passes += budget * (2 + int(math.log2(max(budget, 2))))

        uparams, optimizer = uslt_params(L, manifest, item)
        with tr.span("uslt.build_knn_graph"):
            uslt_graph = L.build_knn_graph(matrix, uparams.neighbor_k, threads=threads)
        with tr.span("uslt.fit_centroids"):
            fit = L.fit_centroids(matrix, budget, uparams, optimizer, threads=threads)
        with tr.span("uslt.select_uslt"):
            uslt_result = L.select_uslt(matrix, budget, uparams, optimizer, threads=threads)
        problems += [f"{name}/uslt: {p}" for p in selection_problems(uslt_result, n, budget)]
        steps += len(fit.loss_history)
        empty_epochs += sum(bool((c == 0).any()) for _, c in fit.occupancy_history)

        if labels is None:
            # Unlabeled inputs: k-means cluster ids stand in for classes so
            # that the report step is timed on the same selections.
            labels = L.LabelVector(clustering.assignment, budget)
        with tr.span("diagnostics.build_knn_graph"):
            report_graph = L.build_knn_graph(raw, REPORT_K, threads=threads)
        with tr.span("diagnostics.compare"):
            L.compare(
                [("usl", L.SelectionFile(reference.indices)),
                 ("uslt", L.SelectionFile(uslt_result.indices))],
                labels, raw, L.utility_scores(report_graph),
            )
        pairwise_mb = max(pairwise_mb, budget * budget * d * 8 / 1e6)

        # normalized rows for the selectors' graphs, raw rows for the report's
        for g, data in ((graph, matrix.data), (uslt_graph, matrix.data), (report_graph, raw.data)):
            checked, bad = inexact_rows(data, g, seed=item["selector_seed"])
            rows_checked += checked
            rows_inexact += bad
            if bad:
                problems.append(f"{name}: {bad} sampled rows of a k={g.k} graph differ from the oracle")

        sel_path, report_path = run_dir / f"trace-{name}.sel", run_dir / f"trace-{name}.json"
        argv = ["select", "--method", "usl", "--embeddings", str(emb),
                "--budget", str(budget), "--profile", plan["profile"],
                "--seed", str(item["selector_seed"]), "--out", str(sel_path),
                "--report", str(report_path), "--threads", str(threads)]
        with contextlib.redirect_stdout(io.StringIO()), tr.span("cli.main"):
            code = cli.main(argv)
        if code != 0 or not np.array_equal(L.load_selection(sel_path).indices, reference.indices):
            problems.append(f"{name}: `labelsel select` exit {code} or picks differ from select_usl")
        report_bytes += report_path.stat().st_size

        save_path = run_dir / f"trace-save{emb.suffix}"
        with tr.span("io.save_embeddings"):
            L.save_embeddings(raw, save_path)
        save_path.unlink()

    tr.write(run_dir / "trace-spans.json")
    t, own = tr.totals(), tr.self_times()
    knn, knn_1t = t["density.build_knn_graph"], t["density.build_knn_graph[threads=1]"]
    fit_s, init_s = t["kmeans.kmeans_fit"], t["kmeans.kmeanspp_init"]
    regularize_s = t.get("usl.regularize_utilities", 0.0)
    rounds = tr.count("usl.regularize_utilities")
    uslt_knn, uslt_fit = t["uslt.build_knn_graph"], t["uslt.fit_centroids"]
    metrics = {
        "io.load_s": t["io.load_embeddings"],
        "io.load_mb_per_s": load_bytes / 1e6 / t["io.load_embeddings"],
        "io.save_s": t["io.save_embeddings"],
        "density.knn_s": knn,
        "density.knn_1t_s": knn_1t,
        "density.thread_speedup": knn_1t / knn,
        "density.gram_gflop": gram_gflop,
        "density.gflop_per_s": gram_gflop / knn,
        "density.utility_s": t["density.utility_scores"],
        "density.rows_checked": rows_checked,
        "density.rows_inexact": rows_inexact,
        "kmeans.fit_s": fit_s,
        "kmeans.init_s": init_s,
        "kmeans.lloyd_s": fit_s - init_s,
        "kmeans.iterations": iterations,
        "kmeans.iter_s": (fit_s - init_s) / max(iterations, 1),
        "kmeans.init_passes": init_passes,
        "usl.regularize_s": regularize_s,
        "usl.rounds": rounds,
        "usl.round_s": regularize_s / max(rounds, 1),
        "usl.repick_s": t["usl.repick_per_cluster"],
        "usl.excluded_warnings": excluded,
        "uslt.knn_s": uslt_knn,
        "uslt.fit_s": uslt_fit,
        "uslt.fit_self_s": uslt_fit - uslt_knn,
        "uslt.steps": steps,
        "uslt.step_s": (uslt_fit - uslt_knn) / max(steps, 1),
        "uslt.pick_s": t["uslt.select_uslt"] - uslt_fit,
        "uslt.empty_cluster_epochs": empty_epochs,
        "diagnostics.knn_s": t["diagnostics.build_knn_graph"],
        "diagnostics.report_s": t["diagnostics.compare"],
        "diagnostics.pairwise_mb": pairwise_mb,
        "cli.select_s": t["cli.main"],
        "cli.overhead_s": t["cli.main"] - untraced_select_s,
        "cli.report_json_kb": report_bytes / 1024,
        "trace.pipeline_s": t["usl.pipeline"],
        "trace.uncovered_s": own["usl.pipeline"],
        "trace.overhead_s": t["usl.pipeline"] - untraced_select_s,
    }
    # every traced call plus the untraced select_usl of each input
    attempted = len(tr.spans) + plan["trace_items"]
    return {"metrics": metrics, "problems": problems, "attempted": attempted}


def main(argv: list[str]) -> int:
    mode, run_dir, out, threads = argv[0], Path(argv[1]), Path(argv[2]), int(argv[3])
    L, manifest, inputs = setup(run_dir)
    result = {"setup_done": time.monotonic()}
    if mode == "pass":
        result.update(run_pass(L, manifest, inputs, threads))
    elif mode == "trace":
        result.update(run_trace(L, manifest, inputs, threads, run_dir))
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
