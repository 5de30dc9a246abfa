"""Seeded benchmark of labelsel's selectors.

    python3 perfbench/run.py --workload {usl-10k,budget-1k,ring-50,all} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``. Inputs are generated from ``--seed`` into ``perfbench/.work/`` with
a manifest of their shapes and SHA-256 digests, outside any timing.

``--trace 0`` times whole workload runs. One client works in a closed loop:
each run of the workload is a fresh process that imports labelsel, loads
the inputs, makes every selector call back to back, checks every output and
exits; the next one starts when it has ended, for as long as ``--seconds``
leaves room. Before the loop, set-up-only processes (import and load) are
timed. CPU time and peak RSS come from ``os.wait4`` on each child; the
gated times are CPU times and wall times are printed beside them.

``--trace 1`` runs the traced pipeline once in its own process: spans
around each public call, the per-layer metrics derived from them, and the
checks against select_usl and a kNN oracle. It is never mixed into timed
runs.

The thread settings are pinned for every child: labelsel gets
``threads = nproc`` and BLAS one thread; both are printed with the
numpy/BLAS versions. Metric names, units and bounds come from
BENCHMARK.json. Every line before the last is for people; the last line is
one JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s
# labelsel's own worker threads already use every core; a BLAS pool on top
# of them oversubscribes the cores and its spin-waits make CPU time noisy.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Printed for people next to the gated metrics of BENCHMARK.json and left
# out of the result line. Wall times are not gated: on a virtual machine
# they carry the time the hypervisor lends the cores to other guests
# (steal), which drifts over minutes; the gated times are CPU times. The
# quality ratios can be 0 or undefined.
PRINTED_ONLY = {
    "wall_s": "s",
    "setup_wall_s": "s",
    "select_s": "s",
    "select_p80_s": "s",
    "rows_per_s": "rows/s",
    "error_rate": "ratio",
    "full_coverage_rate": "ratio",
    "count_std": "picks",
    "utility_pct": "%",
}

sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402  (after the path set-up above)


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    setup_s: float
    rss_mb: float
    result: dict | None
    log: Path


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["LABELSEL_THREADS"] = str(threads)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def run_environment(threads: int) -> dict:
    import importlib.util

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = child_env(threads)
    return {
        "nproc": nproc(),
        "labelsel_threads": threads,
        **{v: env[v] for v in BLAS_THREAD_VARS},
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "torch": "present" if importlib.util.find_spec("torch") else "absent",
        "python": platform.python_version(),
    }


def spawn(mode: str, run_dir: Path, threads: int, deadline: float) -> Child:
    """Start one worker, wait for it with wait4 and collect its result."""
    out, log = run_dir / f"{mode}-result.json", run_dir / f"{mode}.log"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, str(run_dir), str(out), str(threads)]
    with open(log, "wb") as logf:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(threads),
                                stdout=logf, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(1.0, deadline - start), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    result = json.loads(out.read_text()) if code == 0 and out.exists() else None
    setup_s = result["setup_done"] - start if result else math.nan
    cpu = usage.ru_utime + usage.ru_stime
    return Child(code, wall, cpu, setup_s, usage.ru_maxrss * 1024 / 1e6, result, log)


def report_failure(child: Child, what: str) -> None:
    tail = child.log.read_text(errors="replace").splitlines()[-15:]
    print(f"{what} exited with code {child.code}:", *tail, sep="\n  ", file=sys.stderr)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, linear between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_selector(calls: list[dict], key: str, stat) -> float:
    """``stat`` of each selector's calls, summed over the selectors: the
    selector time of one input. Pooling USL and USL-T calls would put the
    median in the gap between their two clusters of times."""
    by_method: dict[str, list[float]] = {}
    for c in calls:
        by_method.setdefault(c["method"], []).append(c[key])
    return sum(stat(v) for v in by_method.values())


def selections_digest(run_dir: Path, calls: list[dict]) -> str:
    """Write each selection as `labelsel select --out` does and hash them all."""
    sel_dir = run_dir / "selections"
    sel_dir.mkdir(exist_ok=True)
    digest = hashlib.sha256()
    for call in calls:
        text = "".join(f"{i}\n" for i in call["indices"])
        (sel_dir / f"{call['item']}-{call['method']}.txt").write_text(text)
        digest.update(f"{call['item']}-{call['method']}\n{text}".encode())
    return digest.hexdigest()


def timed_run(workload, run_dir, seconds, threads, deadline, spec):
    children: list[Child] = []
    spawn("setup", run_dir, threads, deadline)  # fills the page and bytecode caches
    probes = [spawn("setup", run_dir, threads, deadline) for _ in range(SETUP_PROBES)]
    children += probes
    passes: list[Child] = []
    loop_start = time.monotonic()
    while True:
        child = spawn("pass", run_dir, threads, deadline)
        passes.append(child)
        if child.result is None:
            break
        elapsed = time.monotonic() - loop_start
        longest = max(p.wall_s for p in passes)
        if elapsed + longest > seconds or time.monotonic() + longest > deadline:
            break
    children += passes

    attempted = len(children)
    failed = 0
    for child in children:
        if child.result is None:
            failed += 1
            report_failure(child, f"{workload} worker")
    done = [p for p in passes if p.result is not None]
    for p in done:
        attempted += p.result["attempted"]
        failed += len(p.result["failures"])
        for f in p.result["failures"]:
            print(f"failed: {f}", file=sys.stderr)
    calls = [c for p in done for c in p.result["calls"]]
    if not calls:
        return None
    # the same inputs must give the same selections in every pass
    picks = [[(c["item"], c["method"], c["indices"]) for c in p.result["calls"]] for p in done]
    mismatched = sum(x != picks[0] for x in picks[1:])
    if mismatched:
        print(f"failed: selections differ between passes ({mismatched})", file=sys.stderr)
    failed += mismatched

    secs = [c["seconds"] for c in calls]
    quality = done[0].result["quality"]
    setup_samples = [c.setup_s for c in children if c.result is not None]
    probe_cpu = [c.cpu_s for c in probes if c.result is not None]

    def mean_or_none(key):
        vals = quality[key]
        return statistics.fmean(vals) if vals else None

    values = {
        "wall_s": statistics.median(p.wall_s for p in done),
        "cpu_s": statistics.median(p.cpu_s for p in done),
        "setup_s": statistics.median(probe_cpu) if probe_cpu else None,
        "setup_wall_s": statistics.median(setup_samples),
        "select_s": per_selector(calls, "seconds", statistics.median),
        "select_cpu_s": per_selector(calls, "cpu_seconds", statistics.median),
        "select_p80_s": per_selector(calls, "seconds", lambda v: percentile(v, 80)),
        "select_cpu_p80_s": per_selector(calls, "cpu_seconds", lambda v: percentile(v, 80)),
        "rows_per_s": sum(c["n"] for c in calls) / sum(secs),
        "peak_rss_mb": statistics.median(p.rss_mb for p in done),
        "utility_lift": mean_or_none("utility_lift"),
        "error_rate": failed / attempted,
        "full_coverage_rate": mean_or_none("full_coverage"),
        "count_std": mean_or_none("count_std"),
        "utility_pct": mean_or_none("utility_pct"),
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]} | PRINTED_ONLY
    print(f"samples: {len(done)} workload run(s), {len(secs)} selector call(s), "
          f"{len(setup_samples)} set-up(s)")
    for name, unit in units.items():
        v = values.get(name)
        print(f"  {name:<18} {'n/a' if v is None else f'{v:.6g}'} {unit}")
    print(f"selections_sha256: {selections_digest(run_dir, done[0].result['calls'])}")
    gated = [m["name"] for m in spec["end_to_end"]]
    if any(values[name] is None for name in gated):
        return None
    return failed, attempted, {name: values[name] for name in gated}


def traced_run(workload, run_dir, threads, deadline, spec):
    child = spawn("trace", run_dir, threads, deadline)
    if child.result is None:
        report_failure(child, f"{workload} traced worker")
        return None
    r = child.result
    m = r["metrics"]
    for p in r["problems"]:
        print(f"failed: {p}", file=sys.stderr)
    print(f"spans: {(run_dir / 'trace-spans.json').relative_to(ROOT)}")
    for item in spec["per_layer"]:
        print(f"  {item['name']:<28} {m[item['name']]:.6g} {item['unit']}")
    layers = {
        "density": m["density.knn_s"] + m["density.utility_s"],
        "kmeans": m["kmeans.fit_s"],
        "usl": m["usl.regularize_s"] + m["usl.repick_s"],
    }
    print("composed select_usl: " + " + ".join(f"{k} {v:.4f} s" for k, v in layers.items())
          + f" + uncovered {m['trace.uncovered_s']:.4f} s = {m['trace.pipeline_s']:.4f} s")
    names = [item["name"] for item in spec["per_layer"]]
    return len(r["problems"]), r["attempted"], {n: m[n] for n in names}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str, spec: dict):
    start = time.monotonic()
    threads = nproc()
    run_dir = WORK / f"{workload}-{size}" / f"seed-{seed}"
    manifest = workloads.generate(run_dir, workload, seed, size)
    env = run_environment(threads)
    (run_dir / "environment.json").write_text(json.dumps(env, indent=1) + "\n")
    print(f"== {workload} seed {seed} ({size} size, {'traced' if trace else 'timed'})")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"inputs: {(run_dir / 'manifest.json').relative_to(ROOT)} "
          f"({len(manifest['items'])} file set(s), SHA-256 recorded)")
    deadline = start + RUN_LIMIT_S
    if trace:
        outcome = traced_run(workload, run_dir, threads, deadline, spec)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        outcome = timed_run(workload, run_dir, seconds, threads, deadline, spec)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if outcome is None:
        return None
    failed, attempted, values = outcome
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                   help="toy sizes exist for the smoke test")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "labelsel" / "__init__.py").is_file():
        print(f"no labelsel sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # "all" prints one block and one result line per workload
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        out = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size, spec)
        if out is None:
            print(f"{name}: no result", file=sys.stderr)
            return 1
        print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
