"""Compare two result files written by `run.py --results`.

For every workload and metric present in both files this prints each
side's median and quartiles (over the runs, i.e. the seeds) and the ratio
CHANGE/BASE of the medians.  An end-to-end metric is *unresolved* when the
spread of either side (interquartile range over median) exceeds the bound
BENCHMARK.json fixes for it, *worse* when the change's median is worse than
the base's by more than that bound, and *ok* otherwise.  Per-layer metrics
have no bound and get no verdict.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load(path) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> the values of all runs in a JSON-lines file."""
    values: dict[tuple[str, str], list[float]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            rec = json.loads(line)
            for metric, entry in rec["result"]["metrics"].items():
                values.setdefault((rec["workload"], metric), []).append(entry["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base: list[float], change: list[float], spec: dict | None) -> str:
    if spec is None:
        return ""
    bound = spec["bound"]
    if spread(base) > bound or spread(change) > bound:
        return "unresolved"
    b, c = quartiles(base)[1], quartiles(change)[1]
    worse = c > b * (1 + bound) if spec["better"] == "lower" else c < b * (1 - bound)
    return "worse" if worse else "ok"


def compare(base_path, change_path, benchmark_json) -> int:
    """Print the comparison table; returns 1 if any metric is worse, else 0."""
    bench = json.loads(Path(benchmark_json).read_text(encoding="utf-8"))
    specs = {m["name"]: m for m in bench["end_to_end"]}
    base, change = load(base_path), load(change_path)
    print(f"{'workload':<12} {'metric':<26} {'base q1/med/q3':>34} "
          f"{'change q1/med/q3':>34} {'ratio':>8}  verdict")
    status = 0
    for key in sorted(set(base) & set(change)):
        workload, metric = key
        b, c = quartiles(base[key]), quartiles(change[key])
        ratio = c[1] / b[1] if b[1] else float("nan")
        v = verdict(base[key], change[key], specs.get(metric))
        status |= v == "worse"
        fmt = "{:.4g}/{:.4g}/{:.4g}"
        print(f"{workload:<12} {metric:<26} {fmt.format(*b):>34} {fmt.format(*c):>34} "
              f"{ratio:>8.3f}  {v} (n={len(base[key])}/{len(change[key])})")
    return int(status)
