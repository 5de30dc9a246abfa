"""Workload definitions and their seeded inputs.

Each workload is a list of input items (an embedding file, an optional
label file and the selector seed) plus the selector calls made on every
item. Inputs are generated from the benchmark seed into a run directory and
described by a manifest that records the seed, every file's shape and its
SHA-256. Timed runs only read these files; generation is never timed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

WORKLOADS = ("usl-10k", "budget-1k", "ring-50")

# Full sizes keep one whole workload run within the 40 s measuring window of
# BENCHMARK.json on a 2-core machine. "toy" keeps every code path (the kNN
# preselect path needs n > 2048, the regularization horizon branch needs
# budget > 64) and exists for the smoke test.
SIZES = {
    "full": {
        "usl-10k": dict(items=4, n=10_000, d=128, budget=40),
        "budget-1k": dict(modes=100, per_mode=50, d=64, budget=1000),
        "ring-50": dict(items=50, per_mode=100, budget=10),
    },
    "toy": {
        "usl-10k": dict(items=2, n=2_100, d=8, budget=8),
        "budget-1k": dict(modes=20, per_mode=25, d=8, budget=80),
        "ring-50": dict(items=3, per_mode=50, budget=10),
    },
}

# The report step of the labeled workloads builds its utility graph with
# this k on the raw (not normalized) matrix, as `labelsel report --k 20`.
REPORT_K = 20


def plan(workload: str, size: str) -> dict:
    """Selector calls, profiles and sizes of one workload."""
    cfg = dict(SIZES[size][workload])
    if workload == "usl-10k":
        cfg.update(methods=["usl"], profile="small", trace_items=1)
    elif workload == "budget-1k":
        cfg.update(methods=["usl", "uslt"], profile="large", trace_items=1)
    else:
        cfg.update(methods=["usl", "uslt"], profile="small", trace_items=min(10, cfg["items"]))
    return cfg


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _file_entry(path: Path, shape) -> dict:
    return {"file": path.name, "shape": list(shape), "sha256": _sha256(path)}


def manifest_is_current(run_dir: Path, expected: dict) -> bool:
    """True when the manifest describes ``expected`` and every file still
    hashes to the recorded digest."""
    path = run_dir / "manifest.json"
    if not path.exists():
        return False
    manifest = json.loads(path.read_text())
    if {k: manifest.get(k) for k in expected} != expected:
        return False
    for item in manifest["items"]:
        for entry in (item["embeddings"], item["labels"]):
            if entry is None:
                continue
            f = run_dir / entry["file"]
            if not f.exists() or _sha256(f) != entry["sha256"]:
                return False
    return True


def generate(run_dir: Path, workload: str, seed: int, size: str) -> dict:
    """Write the workload's inputs for ``seed`` and their manifest.

    Reuses the files when a current manifest for the same workload, size and
    seed is present.
    """
    import numpy as np
    import labelsel as L

    cfg = plan(workload, size)
    header = {"workload": workload, "size": size, "seed": seed, "plan": cfg}
    if manifest_is_current(run_dir, header):
        return json.loads((run_dir / "manifest.json").read_text())
    run_dir.mkdir(parents=True, exist_ok=True)

    items = []
    if workload == "usl-10k":
        for i in range(cfg["items"]):
            item_seed = 1000 * seed + i
            rng = np.random.default_rng(item_seed)
            matrix = L.EmbeddingMatrix(rng.standard_normal((cfg["n"], cfg["d"])))
            items.append((f"x{i}", item_seed, matrix, None))
    elif workload == "budget-1k":
        spec = L.SyntheticSpec(
            modes=cfg["modes"], per_mode=cfg["per_mode"], dim=cfg["d"], sigma=1.0,
            layout="random_centers", radius=1.0, seed=1000 * seed,
        )
        matrix, labels = L.generate_synthetic(spec)
        items.append(("mix", spec.seed, matrix, labels))
    else:
        for i in range(cfg["items"]):
            spec = L.SyntheticSpec(
                modes=10, per_mode=cfg["per_mode"], dim=2, sigma=0.3,
                seed=1000 * seed + i, normalize=True,
            )
            matrix, labels = L.generate_synthetic(spec)
            items.append((f"ring{i}", spec.seed, matrix, labels))

    # The ring sets are unit vectors in 2-D: rounded to float32 some of them
    # would hold exact duplicates, so they are written as float64 text.
    suffix = "csv" if workload == "ring-50" else "fvecs"
    entries = []
    for name, item_seed, matrix, labels in items:
        emb = run_dir / f"{name}.{suffix}"
        L.save_embeddings(matrix, emb)
        lab = None
        if labels is not None:
            lab_path = run_dir / f"{name}.labels"
            L.save_labels(labels, lab_path)
            lab = _file_entry(lab_path, (labels.n,))
            lab["num_classes"] = labels.num_classes
        entries.append({
            "name": name,
            "selector_seed": item_seed,
            "embeddings": _file_entry(emb, (matrix.n, matrix.d)),
            "labels": lab,
        })
    manifest = {**header, "items": entries}
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest


def usl_params(L, manifest: dict, item: dict):
    budget = manifest["plan"]["budget"]
    seed = item["selector_seed"]
    if manifest["plan"]["profile"] == "large":
        return L.UslParams.large_scale(seed=seed)
    return L.UslParams.small_scale(budget, seed=seed)


def uslt_params(L, manifest: dict, item: dict):
    """USL-T settings as `labelsel select --method uslt --seed S` resolves them."""
    params = (
        L.UsltParams.large_scale()
        if manifest["plan"]["profile"] == "large"
        else L.UsltParams.small_scale()
    )
    return params, L.OptimizerConfig(seed=item["selector_seed"])
