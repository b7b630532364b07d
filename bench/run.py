#!/usr/bin/env python3
"""proxdyn benchmark: wall time to a certified trajectory, traced per module.

Run one workload (the last stdout line is the JSON result):

    python3 bench/run.py --workload p3_friction --seed 1 --seconds 28 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
from a traced run (and the tracing overhead).  --results FILE appends the
run, with its seed and machine description, to a JSON-lines file;
--compare BASE CHANGE compares two such files.  See bench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP to one thread before numpy is imported: with default
# threading the dense factorizations of wave_large vary run to run by 2x.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH_DIR))

from tracer import Totals, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# A step certifies when its Fenchel-Young gap is at most this many inner_tol.
FY_FACTOR = 10.0
# Each block of a run repeats setup for at least SETUP_SLICE_S (at least
# once) before its solve; a run holds at least SETUP_REPS setups.
SETUP_SLICE_S = 0.1
SETUP_REPS = 5
# Calibration (see Calibration): before each block for CAL_SHARE of the
# previous block's time and at least CAL_MIN_S, in chunks of CAL_ITERS
# iterations; CAL_REF_S is the chunk time of the reference speed.
CAL_SHARE = 0.15
CAL_MIN_S = 0.1
CAL_ITERS = 300
CAL_REF_S = 0.01

END_TO_END = {
    "solve_s": "s",
    "node_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.parse_s": "s",
    "models.build_s": "s",
    "core.validate_s": "s",
    "convex.prox_calls": "count",
    "convex.prox_s": "s",
    "convex.prox_ns_per_site": "ns",
    "convex.conj_calls": "count",
    "convex.conj_s": "s",
    "convex.edge_conj_per_conj": "count",
    "convex.inner_solves": "count",
    "convex.inner_iters_mean": "count",
    "convex.inner_iters_max": "count",
    "convex.fy_retry_frac": "ratio",
    "convex.prox_per_iter": "ratio",
    "convex.inner_s": "s",
    "convex.inner_ms_p50": "ms",
    "convex.inner_ms_tail": "ms",
    "convex.inner_tail_pct": "%",
    "convex.inner_samples": "count",
    "stepper.run_s": "s",
    "stepper.self_s": "s",
    "stepper.self_ms_per_step": "ms",
    "diagnostics.edi_scan_s": "s",
    "diagnostics.apriori_s": "s",
    "cli.emit_s": "s",
    "cli.bytes_written": "B",
    "cert.max_fy_gap": "energy",
    "cert.max_el_residual": "h-norm",
    "cert.edi_min_margin": "energy",
    "cert.wave_err": "h-norm",
    "trace.overhead_s": "s",
}
INNER_SOLVERS = ("convex.solve_pd", "convex.solve_prox_gradient")


def import_program():
    """Import proxdyn, with the submodules the benchmark uses, from this
    checkout's src/ and nowhere else."""
    if not (SRC / "proxdyn" / "__init__.py").is_file():
        raise SystemExit(f"bench: no proxdyn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import proxdyn

    for sub in ("cli", "convex", "diagnostics", "grid", "models", "stepper"):
        importlib.import_module(f"proxdyn.{sub}")

    if Path(proxdyn.__file__).resolve().parent != SRC / "proxdyn":
        raise SystemExit(f"bench: imported proxdyn from {proxdyn.__file__}, not {SRC}")
    return proxdyn


def environment() -> dict:
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "blas_threads": int(BLAS_THREADS),
        "cpus": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


@dataclass
class Solve:
    """One timed run_and_emit and what its correctness gate found."""

    span: int  # id of its cli.run_and_emit span, the root of its spans
    failure: str | None
    steps: int = 0
    iters_mean: float = 0.0
    iters_max: int = 0
    max_fy_gap: float = float("inf")
    max_el_residual: float = float("inf")
    edi_min_margin: float = float("-inf")
    exact_err: float = 0.0
    bytes_written: int = 0


class Gate:
    """Checks one solve's certificates and outputs; reports the first failure."""

    def __init__(self, cfg, exact, exact_bound, h_norm):
        self.fy_cap = FY_FACTOR * cfg.inner_tol
        self.out = Path(cfg.out_dir)
        self.exact = exact
        self.exact_bound = exact_bound
        self.h_norm = h_norm
        self.digest = None

    def check(self, solve: Solve, rc, last: dict) -> str | None:
        if rc != 0:
            return f"run_and_emit returned {rc}"
        traj = last.get("stepper.run")
        records = last.get("diagnostics.edi_scan")
        if traj is None or records is None:
            return "run_and_emit did not run the stepper and the EDI scan"
        reps = traj.reports
        iters = [r.inner_iters for r in reps]
        solve.steps = len(reps)
        solve.iters_mean = float(np.mean(iters))
        solve.iters_max = int(max(iters))
        solve.max_fy_gap = max(r.fy_gap for r in reps)
        solve.max_el_residual = max(r.el_residual for r in reps)
        solve.edi_min_margin = min(r.tol - r.residual for r in records)
        solve.bytes_written = sum(p.stat().st_size for p in self.out.iterdir())
        if not solve.max_fy_gap <= self.fy_cap:
            return f"FY gap {solve.max_fy_gap:.3e} > {self.fy_cap:.1e}"
        failed = [r.n for r in records if not r.passed]
        if failed:
            return f"EDI failed at steps {failed[:5]}"
        digest = hashlib.sha256((self.out / "trajectory.csv").read_bytes()).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            return "trajectory.csv differs from the first repeat"
        if self.exact is not None:
            h = traj.spec.grid.h
            solve.exact_err = max(
                self.h_norm(u.values - self.exact(t).values, h)
                for u, t in zip(traj.U, traj.times)
            )
            if not solve.exact_err <= self.exact_bound:
                return f"error vs exact solution {solve.exact_err:.3e} > {self.exact_bound}"
        return None


def install(tracer: Tracer, pd, full: bool) -> None:
    """Wrap the public callables at the names their callers look up.

    Untraced runs wrap only stepper.run and diagnostics.edi_scan (one call
    each per solve), to time the stepper and hand the gate its inputs.
    """
    cli, convex, diagnostics, models = pd.cli, pd.convex, pd.diagnostics, pd.models
    tracer.patch(pd.stepper, "run", "stepper.run", keep=True)
    tracer.patch(diagnostics, "edi_scan", "diagnostics.edi_scan", keep=True)
    if not full:
        return
    tracer.patch(cli, "build_problem", "cli.build_problem")
    tracer.patch(cli, "validate_assumptions", "cli.validate_assumptions")
    tracer.patch(diagnostics, "apriori_monitor", "diagnostics.apriori_monitor")
    for attr in ("build_p1", "build_p2", "build_p3", "build_linear_wave"):
        tracer.patch(models, attr, "models.build")
    iterations = lambda args, out: out[2].iterations  # noqa: E731
    tracer.patch(convex, "solve_pd", "convex.solve_pd", count=iterations)
    tracer.patch(convex, "solve_prox_gradient", "convex.solve_prox_gradient", count=iterations)
    tracer.patch(convex, "composite_conjugate", "convex.composite_conjugate")
    tracer.patch(convex, "edge_conjugate_pair", "convex.edge_conjugate_pair")
    sites = lambda args, out: np.size(args[2])  # noqa: E731  (self, sigma, z)
    tracer.patch(convex.SitePotential, "prox", "SitePotential.prox", count=sites)


class Runner:
    """Alternates timed setups (config -> ProblemSpec) with timed solves.

    Interleaving spreads both kinds of sample over the whole run, so a slow
    spell of the machine does not land on one of them only.
    """

    def __init__(self, pd, workload, raw: dict):
        self.pd, self.cli, self.work, self.raw = pd, pd.cli, workload, raw
        self.gate: Gate | None = None
        self.node_count = 0

    def setup(self, tracer: Tracer):
        parse = tracer.wrap("cli.parse_config_dict", self.cli.parse_config_dict)

        def body():
            cfg = parse(self.raw)
            return (cfg, *self.cli.build_problem(cfg))

        span = len(tracer.spans)
        t0 = time.perf_counter()
        cfg, spec, exact = tracer.wrap("setup", body)()
        elapsed = time.perf_counter() - t0
        if self.gate is None:
            self.gate = Gate(cfg, exact, self.work.exact_err_bound, self.pd.grid.h_norm)
            self.node_count = spec.grid.n_interior
        return span, elapsed, cfg

    def solve(self, tracer: Tracer, run_and_emit, cfg) -> Solve:
        """One run_and_emit plus its gate; failures are recorded, never raised."""
        span = len(tracer.spans)
        tracer.last.clear()
        try:
            rc = run_and_emit(cfg)
        except Exception:  # counted as a failed solve, with its traceback
            traceback.print_exc(file=sys.stderr)
            rc = None
        solve = Solve(span=span, failure=None)
        try:
            solve.failure = self.gate.check(solve, rc, tracer.last)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            solve.failure = f"gate raised {exc!r}"
        if solve.failure:
            print(f"bench: solve failed: {solve.failure}", file=sys.stderr)
        return solve

    def phase(self, tracer: Tracer, seconds: float):
        """Blocks of calibration, setups (for >= SETUP_SLICE_S) and one
        solve, for about `seconds`, and a last calibration.

        A block starts only if a typical block still fits; there is at
        least one solve and there are at least SETUP_REPS setups.  Returns
        the solves, {setup span id: wall seconds} and the phase's speed
        factor (see Calibration; 1 for a workload that is not calibrated).
        """
        run_and_emit = tracer.wrap("cli.run_and_emit", self.cli.run_and_emit)
        cal = Calibration() if self.work.calibrated else None
        blocks, solves, setups = [], [], {}
        deadline = time.perf_counter() + seconds
        while not blocks or time.perf_counter() + statistics.median(blocks) <= deadline:
            t0 = time.perf_counter()
            if cal:
                cal.run(CAL_SHARE * blocks[-1] if blocks else 0.0)
            t1 = time.perf_counter()
            while time.perf_counter() - t1 < SETUP_SLICE_S:
                span, elapsed, cfg = self.setup(tracer)
                setups[span] = elapsed
            solves.append(self.solve(tracer, run_and_emit, cfg))
            blocks.append(time.perf_counter() - t0)
        while len(setups) < SETUP_REPS:
            span, elapsed, _ = self.setup(tracer)
            setups[span] = elapsed
        if not cal:
            return solves, setups, 1.0
        cal.run(CAL_SHARE * blocks[-1])
        return solves, setups, cal.speed()


class Calibration:
    """Machine speed, from timing a fixed loop interleaved with the solves.

    The shared machines this runs on change speed for the same code by up
    to 2x over seconds to minutes, so raw wall times of runs made minutes
    apart differ by more than the changes the benchmark must resolve.  The
    loop uses the primitives proxdyn spends its time in (small dense
    products, a small Cholesky solve, elementwise shrinkage) on fixed data
    and never calls proxdyn, so no change to the program moves it.  Times
    are reported at reference speed: wall seconds times the speed factor
    CAL_REF_S / (mean seconds of a CAL_ITERS-iteration chunk).
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.d = rng.standard_normal((64, 63))
        self.factor = scipy.linalg.cho_factor(self.d.T @ self.d + np.eye(63))
        self.x = rng.standard_normal(63)
        self.chunks: list[float] = []

    def run(self, seconds: float) -> None:
        """Time chunks for at least max(seconds, CAL_MIN_S)."""
        end = time.perf_counter() + max(seconds, CAL_MIN_S)
        while time.perf_counter() < end:
            t0 = time.perf_counter()
            u = self.x
            for _ in range(CAL_ITERS):
                y = self.d @ u
                z = np.sign(y) * np.maximum(np.abs(y) - 0.5, 0.0)
                u = scipy.linalg.cho_solve(self.factor, self.d.T @ z + self.x)
            self.chunks.append(time.perf_counter() - t0)

    def speed(self) -> float:
        return CAL_REF_S / statistics.fmean(self.chunks)


def at_reference_speed(metrics: dict, units: dict, speed: float) -> dict:
    """Scale times (s, ms, ns) by the speed factor and rates (1/s) by its inverse."""
    scale = {"s": speed, "ms": speed, "ns": speed, "1/s": 1.0 / speed}
    return {k: v * scale.get(units[k], 1.0) for k, v in metrics.items()}


def _median(values, default=0.0) -> float:
    return float(statistics.median(values)) if values else default


def solve_seconds(tracer: Tracer, solves) -> list[float]:
    """run_and_emit wall seconds of each solve."""
    totals = tracer.totals()
    return [totals[s.span, "cli.run_and_emit"].seconds for s in solves]


def end_to_end(tracer: Tracer, solves, setups: dict, node_count: int) -> dict:
    totals = tracer.totals()
    rates = [
        node_count * s.steps / totals[s.span, "stepper.run"].seconds
        for s in solves
        if s.steps and (s.span, "stepper.run") in totals
    ]
    return {
        "solve_s": _median(solve_seconds(tracer, solves)),
        "node_steps_per_s": _median(rates),
        "setup_s": _median(list(setups.values())),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """Highest of the 50/75/90/99/99.9th percentiles with >= 10 samples beyond it."""
    n = len(samples)
    if n == 0:
        return 50.0, 0.0
    pct = next((p for p in (99.9, 99.0, 90.0, 75.0) if n * (1.0 - p / 100.0) >= 10.0), 50.0)
    return pct, float(np.percentile(samples, pct))


def per_layer(tracer: Tracer, solves, setups: dict) -> dict:
    """Layer figures from the spans: per-solve values are medians over the
    traced solves, per-setup values medians over the traced setups."""
    totals = tracer.totals()
    empty = Totals()

    def get(root, name) -> Totals:
        return totals.get((root, name), empty)

    solve_roots = {s.span for s in solves}
    inner_samples = [
        (end - start) * 1e-9
        for (_, name, start, end), root in zip(tracer.spans, tracer.roots())
        if name in INNER_SOLVERS and root in solve_roots
    ]
    rows = []
    for s in solves:
        r = s.span
        inner = [get(r, name) for name in INNER_SOLVERS]
        n_inner = sum(t.calls for t in inner)
        iterations = sum(t.work for t in inner)
        prox, conj = get(r, "SitePotential.prox"), get(r, "convex.composite_conjugate")
        run = get(r, "stepper.run")
        rows.append({
            "core.validate_s": get(r, "cli.validate_assumptions").seconds,
            "convex.prox_calls": prox.calls,
            "convex.prox_s": prox.seconds,
            "convex.prox_ns_per_site": 1e9 * prox.seconds / prox.work if prox.work else 0.0,
            "convex.conj_calls": conj.calls,
            "convex.conj_s": conj.seconds,
            "convex.edge_conj_per_conj": (
                get(r, "convex.edge_conjugate_pair").calls / conj.calls if conj.calls else 0.0
            ),
            "convex.inner_solves": n_inner,
            "convex.inner_iters_mean": s.iters_mean,
            "convex.inner_iters_max": s.iters_max,
            "convex.fy_retry_frac": (n_inner - s.steps) / n_inner if n_inner else 0.0,
            "convex.prox_per_iter": prox.calls / iterations if iterations else 0.0,
            "convex.inner_s": sum(t.seconds for t in inner),
            "stepper.run_s": run.seconds,
            "stepper.self_s": run.self_seconds,
            "stepper.self_ms_per_step": 1e3 * run.self_seconds / s.steps if s.steps else 0.0,
            "diagnostics.edi_scan_s": get(r, "diagnostics.edi_scan").seconds,
            "diagnostics.apriori_s": get(r, "diagnostics.apriori_monitor").seconds,
            "cli.emit_s": get(r, "cli.run_and_emit").self_seconds,
            "cli.bytes_written": s.bytes_written,
        })
    metrics = {key: _median([row[key] for row in rows]) for key in rows[0]}

    tail_pct, tail_s = tail_percentile(inner_samples)
    metrics.update({
        "cli.parse_s": _median(
            [get(r, "cli.parse_config_dict").seconds for r in setups]
        ),
        "models.build_s": _median(
            [get(r, "models.build").seconds for r in setups]
        ),
        "convex.inner_ms_p50": 1e3 * _median(inner_samples),
        "convex.inner_ms_tail": 1e3 * tail_s,
        "convex.inner_tail_pct": tail_pct,
        "convex.inner_samples": len(inner_samples),
        "cert.max_fy_gap": max(s.max_fy_gap for s in solves),
        "cert.max_el_residual": max(s.max_el_residual for s in solves),
        "cert.edi_min_margin": min(s.edi_min_margin for s in solves),
        "cert.wave_err": max(s.exact_err for s in solves),
    })
    return metrics


def measure(pd, work, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (metrics, samples, attempted, failed).

    Times are at reference speed (see Calibration).  samples holds the raw
    wall seconds of each untraced solve and setup and the speed factor.

    With trace, the first half of the time measures untraced solves (the
    reference for the tracing overhead) and the second half traced ones.
    """
    run_dir = OUT / f"run-{work.name}-{seed}-{os.getpid()}"
    runner = Runner(pd, work, dict(work.config, seed=seed, out_dir=str(run_dir)))
    light, full = Tracer(), Tracer()
    budget = seconds / 2.0 if trace else seconds
    try:
        install(light, pd, full=False)
        solves, setups, speed = runner.phase(light, budget)
        metrics = at_reference_speed(
            end_to_end(light, solves, setups, runner.node_count), END_TO_END, speed
        )
        samples = {
            "solve_s": solve_seconds(light, solves),
            "setup_s": list(setups.values()),
            "speed": speed,
        }
        light.restore()
        if trace:
            install(full, pd, full=True)
            traced, traced_setups, traced_speed = runner.phase(full, budget)
            overhead = _median(solve_seconds(full, traced)) * traced_speed - metrics["solve_s"]
            metrics = at_reference_speed(per_layer(full, traced, traced_setups), PER_LAYER, traced_speed)
            metrics["trace.overhead_s"] = overhead
            OUT.mkdir(exist_ok=True)
            full.write_csv(OUT / f"spans-{work.name}-seed{seed}.csv")
            solves = solves + traced
    finally:
        full.restore()
        light.restore()
        shutil.rmtree(run_dir, ignore_errors=True)
    failed = sum(1 for s in solves if s.failure)
    return metrics, samples, len(solves), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="append this run to a JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    args = parser.parse_args(argv)

    if args.compare:
        from compare import compare

        return compare(*args.compare, ROOT / "BENCHMARK.json")
    if args.workload is None:
        parser.error("--workload is required")

    pd = import_program()
    env = environment()
    print(json.dumps({"workload": args.workload, "seed": args.seed, "env": env}))
    metrics, samples, attempted, failed = measure(
        pd, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    if args.results:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "env": env, "samples": samples, "result": result}
        with open(args.results, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
