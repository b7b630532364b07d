#!/usr/bin/env python3
"""Run the four benchmark workloads through `proxdyn solve` and compare.

Usage:
    python scripts/workload_outputs.py OUT [--against OTHER]

Each config of `bench/workloads.py` (imported read-only) runs through
`cli.run_and_emit` into OUT/<workload>/, which also gets `U.npy` (every
U^n of the run).  Per workload the script prints the inner-iteration
total, the most inner iterations of any one step, the max
Fenchel-Young gap, and for a composite workload (an ADMM run) the first
step's starting penalty (`convex.start_penalty`) and the last step's
final penalty (`StepReport.penalty`), `-` for the others.  With
--against, OTHER is the OUT of an earlier run of this script (say, from
a checkout of another commit); it adds the max |U^n - U^n_other| and, for trajectory.csv and
snapshots.csv, `identical` when the files are byte-identical and the max
relative difference over their numeric cells otherwise (`shape` when the
two differ in rows or columns).  A cell's difference is taken relative to
the largest magnitude in its column; the worst column is named with its
largest absolute difference, since a column of rounding-level values
(the FY gap of a closed-form solve, ~1e-16) shows a large relative
difference for a change of one rounding error.  The summary.json column
reads `identical` when every entry but wall_time_s and config.out_dir
(the two runs' own directories) matches, nested entries compared under
dotted keys; otherwise it names the entry with the largest relative
difference and any entry that only one side has.
The proxdyn imported is the one in this script's own checkout.

The exit status is 0 when every run exits 0 and 1 otherwise, so the
script serves as a drift gate; a run that fails before it steps (a
config error, exit 2) prints its exit code and no figures.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from proxdyn import cli, convex, stepper  # noqa: E402
from proxdyn.errors import ParseError, ValidationError  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_workload(config: dict, out: Path):
    """run_and_emit on one config; returns (exit code, trajectory, first
    starting penalty), the trajectory None when the run failed before it
    stepped and the penalty None when no ADMM solve started cold."""
    runs, starts = [], []
    original, original_start = stepper.run, convex.start_penalty

    def keep(*args, **kwargs):
        runs.append(original(*args, **kwargs))
        return runs[-1]

    def keep_start(*args, **kwargs):
        starts.append(original_start(*args, **kwargs))
        return starts[-1]

    stepper.run, convex.start_penalty = keep, keep_start
    try:
        cfg = cli.parse_config_dict({**config, "seed": 0, "out_dir": str(out)})
        code = cli.run_and_emit(cfg)
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = 2
    finally:
        stepper.run, convex.start_penalty = original, original_start
    return code, runs[0] if runs else None, starts[0] if starts else None


def _penalty(value) -> str:
    return "-" if value is None else f"{value:.4g}"


def csv_drift(path: Path, other: Path) -> str:
    """`identical`, or the max over the numeric cells of two CSV files (one
    header row) of |a - b| relative to the largest |a|, |b| in the cell's
    column, with that column's name and max |a - b|."""
    if path.read_bytes() == other.read_bytes():
        return "identical"
    a, b = (np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2) for p in (path, other))
    if a.shape != b.shape:
        return "shape"
    diff = np.max(np.abs(a - b), axis=0)
    scale = np.maximum(np.max(np.abs(a), axis=0), np.max(np.abs(b), axis=0))
    rel = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)
    col = int(np.argmax(rel))
    name = path.read_text().split("\n", 1)[0].split(",")[col]
    return f"rel {rel[col]:.2e} ({name}, abs {diff[col]:.1e})"


def _leaves(tree: dict, prefix: str = "") -> dict:
    """The non-dict values of nested dicts, under dotted keys."""
    out = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            out.update(_leaves(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def _rel_diff(a, b) -> float:
    """|a - b| relative to the larger magnitude for two numbers (0 for
    equal values, NaN included), inf for unequal non-numbers."""
    if a == b or (isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b)):
        return 0.0
    numeric = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b))
    if not numeric or not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def summary_drift(path: Path, other: Path) -> str:
    """`identical` when two summary.json files agree on every entry but
    wall_time_s and config.out_dir; otherwise the entry with the largest
    relative difference and the entries that only one side has."""
    a, b = (_leaves(json.loads(p.read_text(encoding="utf-8"))) for p in (path, other))
    for side in (a, b):
        for key in ("wall_time_s", "config.out_dir"):
            side.pop(key, None)
    parts = []
    rel = {k: _rel_diff(a[k], b[k]) for k in sorted(a.keys() & b.keys())}
    worst = max(rel, key=rel.get, default=None)
    if worst is not None and rel[worst] > 0.0:
        parts.append(f"{worst} rel {rel[worst]:.2e}")
    for label, keys in (("only here", a.keys() - b.keys()), ("only OTHER", b.keys() - a.keys())):
        if keys:
            parts.append(f"{label}: {', '.join(sorted(keys))}")
    return "; ".join(parts) or "identical"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out", help="output directory")
    ap.add_argument("--against", default=None, help="OUT of an earlier run to compare with")
    args = ap.parse_args()
    out = Path(args.out)
    other = Path(args.against) if args.against else None

    header = (f"{'workload':<12} {'exit':>4} {'inner_iters':>11} {'max/step':>8} {'max_fy_gap':>10}"
              f" {'beta_start':>10} {'beta_end':>10}")
    if other:
        header += f" {'max_dU':>9}  {'trajectory.csv':<38}  {'snapshots.csv':<38}  summary.json"
    print(header)
    failed = False
    for name, work in WORKLOADS.items():
        wdir = out / name
        code, traj, start = run_workload(work.config, wdir)
        failed = failed or code != 0
        if traj is None:
            print(f"{name:<12} {code:>4} {'-':>11} {'-':>8} {'-':>10} {'-':>10} {'-':>10}", flush=True)
            continue
        u = np.array([f.values for f in traj.U])
        np.save(wdir / "U.npy", u)
        iters = [r.inner_iters for r in traj.reports]
        fy = max(r.fy_gap for r in traj.reports)
        line = (f"{name:<12} {code:>4} {sum(iters):>11} {max(iters):>8} {fy:>10.3e}"
                f" {_penalty(start):>10} {_penalty(traj.reports[-1].penalty):>10}")
        if other and not (other / name / "U.npy").exists():
            line += "  (no stepped run in OTHER)"
        elif other:
            u_other = np.load(other / name / "U.npy")
            du = float(np.max(np.abs(u - u_other))) if u.shape == u_other.shape else float("nan")
            drift = [
                csv_drift(wdir / f, other / name / f)
                for f in ("trajectory.csv", "snapshots.csv")
            ]
            drift.append(summary_drift(wdir / "summary.json", other / name / "summary.json"))
            line += f" {du:>9.2e}  {drift[0]:<38}  {drift[1]:<38}  {drift[2]}"
        print(line, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
