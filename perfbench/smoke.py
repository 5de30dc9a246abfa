"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at toy size, timed and traced, through the same
command the benchmark is run with, and checks that each prints every metric
of BENCHMARK.json by name with its unit, that the result line has exactly
the agreed keys and that no operation failed. It also checks that
perfbench/layers.json documents every workload and metric, and that the
benchmark refuses to run, without printing a result, in a directory that
holds only BENCHMARK.json and perfbench/. Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
TIMEOUT_S = 180


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(proc, expected: dict[str, str], printed: dict[str, str], where: str) -> list[str]:
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"{where}: attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"{where}: metrics {sorted(set(metrics) ^ set(expected))} missing or extra")
    for name, m in metrics.items():
        if m.get("unit") != expected.get(name):
            problems.append(f"{where}: {name} unit {m.get('unit')!r}")
        if not (isinstance(m.get("value"), (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{where}: {name} value {m.get('value')!r}")
    for name, unit in printed.items():
        if not any(l.split()[:1] == [name] and l.split()[-1:] == [unit] for l in lines[:-1]):
            problems.append(f"{where}: no printed line for {name} in {unit}")
    return problems


def check_docs(spec: dict, layers: dict, extra: dict) -> list[str]:
    problems = []
    for w in spec["workloads"]:
        if w["name"] not in layers["workloads"]:
            problems.append(f"layers.json: workload {w['name']} undocumented")
    for name in [m["name"] for m in spec["end_to_end"]] + list(extra):
        if name not in layers["end_to_end"]:
            problems.append(f"layers.json: end-to-end metric {name} undocumented")
    documented = {n for layer in layers["layers"].values() for n in layer["metrics"]}
    for m in spec["per_layer"]:
        if m["name"] not in documented:
            problems.append(f"layers.json: per-layer metric {m['name']} undocumented")
    return problems


def check_bare_directory(workload: str) -> list[str]:
    bare = BENCH / ".work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run(["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        return [f"bare directory: exit {proc.returncode}, last line {last[0][:80]!r}"]
    return []


def main() -> int:
    sys.path.insert(0, str(BENCH))
    from run import PRINTED_ONLY

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((BENCH / "layers.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = check_docs(spec, layers, PRINTED_ONLY)
    for w in [w["name"] for w in spec["workloads"]]:
        for trace, expected, printed in ((0, end_to_end, end_to_end | PRINTED_ONLY),
                                         (1, per_layer, per_layer)):
            args = ["--workload", w, "--seed", "0", "--seconds", "1",
                    "--trace", str(trace), "--size", "toy"]
            found = check_result(run(args, ROOT), expected, printed, f"{w} --trace {trace}")
            print(f"{w} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    problems += check_bare_directory(spec["workloads"][0]["name"])
    for p in problems:
        print(p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
