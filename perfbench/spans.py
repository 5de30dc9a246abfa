"""In-memory spans around calls into the library, kept only in traced runs.

A span records its name, start, end, the span open around it and the run
id of the input it belongs to. Spans stay in memory until the traced run
ends and are then written out in one file. A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.run_id = ""

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"]
        return dict(out)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name (children run sequentially, so
        the time they cover is the sum of their durations)."""
        out = self.totals()
        for s in self.spans:
            if s["parent"] is not None:
                out[self.spans[s["parent"]]["name"]] -= s["end"] - s["start"]
        return out

    def count(self, name: str) -> int:
        return sum(s["name"] == name for s in self.spans)

    def write(self, path) -> None:
        payload = {
            "spans": self.spans,
            "totals": self.totals(),
            "self_times": self.self_times(),
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=1)
            f.write("\n")
