"""Quick self-check of the benchmark: every workload at a tiny size.

Run from the repository root with `python3 -m pytest bench -q` (~30 s).
"""

from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from compare import compare  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Same models and solver paths as the real workloads, a few steps on a
# coarse grid.
TINY = {
    "p3_friction": {"n_nodes": 9, "horizon": 1 / 32},
    "p1_admm": {"n_nodes": 9, "horizon": 1 / 32},
    "p2_power": {"n_nodes": 9, "horizon": 1 / 32},
    "wave_large": {"n_nodes": 33, "horizon": 1 / 16},
}
# Spans every traced solve contains, and those only some solver paths reach.
ALWAYS_TRACED = {
    "setup",
    "cli.parse_config_dict",
    "cli.run_and_emit",
    "cli.build_problem",
    "models.build",
    "stepper.run",
    "cli.validate_assumptions",
    "diagnostics.edi_scan",
    "diagnostics.apriori_monitor",
}
PATH_SPANS = {
    "p3_friction": {"convex.solve_prox_gradient", "SitePotential.prox"},
    "p1_admm": {"convex.solve_pd", "SitePotential.prox", "convex.composite_conjugate"},
    "p2_power": {
        "convex.solve_pd",
        "SitePotential.prox",
        "convex.composite_conjugate",
        "convex.edge_conjugate_pair",
    },
    "wave_large": {"convex.solve_prox_gradient"},
}


def tiny(name):
    work = run.WORKLOADS[name]
    return dataclasses.replace(work, config={**work.config, **TINY[name]})


@pytest.fixture(scope="module")
def pd():
    return run.import_program()


def test_benchmark_json_names_match_the_runner():
    assert set(BENCHMARK["paths"]) == {"bench"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_workload_emits_every_metric_and_span(name, pd):
    seed = 7
    metrics, samples, attempted, failed = run.measure(pd, tiny(name), seed, 0.0, trace=False)
    assert (attempted, failed) == (1, 0)
    assert set(metrics) == set(run.END_TO_END)
    assert all(metrics[k] > 0 for k in run.END_TO_END)
    assert len(samples["setup_s"]) >= run.SETUP_REPS

    metrics, _, attempted, failed = run.measure(pd, tiny(name), seed, 0.0, trace=True)
    assert (attempted, failed) == (2, 0)
    assert set(metrics) == set(run.PER_LAYER)
    with open(run.OUT / f"spans-{name}-seed{seed}.csv", encoding="utf-8") as fh:
        names = {row["name"] for row in csv.DictReader(fh)}
    assert ALWAYS_TRACED | PATH_SPANS[name] <= names
    assert metrics["cert.max_fy_gap"] <= run.FY_FACTOR * 1e-9
    assert metrics["cert.edi_min_margin"] >= 0.0
    assert (metrics["cert.wave_err"] > 0.0) == (name == "wave_large")


def test_main_prints_the_result_last(monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, "p3_friction", tiny("p3_friction"))
    assert run.main(["--workload", "p3_friction", "--seed", "3", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END


def test_gate_counts_a_failing_solve(pd, monkeypatch):
    monkeypatch.setattr(run, "FY_FACTOR", 0.0)  # no step can certify a zero gap
    _, _, attempted, failed = run.measure(pd, tiny("p3_friction"), 1, 0.0, trace=False)
    assert attempted == failed == 1


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "p3_friction", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_marks_spread_beyond_the_bound(tmp_path, capsys):
    def write(path, values):
        with open(path, "w", encoding="utf-8") as fh:
            for v in values:
                rec = {"workload": "p3_friction", "result": {"metrics": {
                    "solve_s": {"value": v, "unit": "s"},
                    "setup_s": {"value": 0.002, "unit": "s"},
                }}}
                fh.write(json.dumps(rec) + "\n")

    write(tmp_path / "base.jsonl", [1.0, 1.01, 0.99, 1.0])
    write(tmp_path / "steady.jsonl", [1.5, 1.51, 1.49, 1.5])
    write(tmp_path / "noisy.jsonl", [0.5, 1.0, 1.5, 2.0])
    bench_json = run.ROOT / "BENCHMARK.json"
    assert compare(tmp_path / "base.jsonl", tmp_path / "steady.jsonl", bench_json) == 1
    out = capsys.readouterr().out
    assert "worse" in out
    assert compare(tmp_path / "base.jsonl", tmp_path / "noisy.jsonl", bench_json) == 0
    assert "unresolved" in capsys.readouterr().out
