#!/usr/bin/env python3
"""Run one shipped model and print its energy-dissipation summary.

Usage:
    python scripts/run_model.py p3 --tau 0.015625 --out runs/p3
    python scripts/run_model.py p1 --frac 8          # tau = tau_max/8
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from proxdyn.cli import (
    COMMON_DEFAULTS,
    MODEL_DEFAULTS,
    RunConfig,
    build_problem,
    parse_config_dict,
    run_and_emit,
)
from proxdyn.core import tau_max
from proxdyn.stepper import admissible_tau


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("model", choices=["p1", "p2", "p3", "linear_wave"])
    ap.add_argument("--tau", type=float, default=None)
    ap.add_argument("--frac", type=float, default=8.0,
                    help="use tau = tau_max/frac when --tau is absent")
    ap.add_argument("--halvings", type=int, default=0)
    ap.add_argument("--n-nodes", type=int, default=65)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    tau = args.tau
    if tau is None:
        # The probe only builds the spec to read tau_max, so it skips the
        # config validation (whose step-bound check its tau would fail).
        probe = RunConfig(
            model=args.model,
            tau=1.0,
            halvings=0,
            out_dir="",
            seed=0,
            inner_tol=COMMON_DEFAULTS["inner_tol"],
            n_nodes=args.n_nodes,
            horizon=COMMON_DEFAULTS["horizon"],
            params=dict(MODEL_DEFAULTS[args.model]),
        )
        spec, _ = build_problem(probe)
        tau = admissible_tau(spec, min(tau_max(spec), spec.horizon) / args.frac)
        print(f"tau_max = {tau_max(spec):.6g}, using tau = {tau:.6g}")

    cfg = parse_config_dict(
        {
            "model": args.model,
            "tau": tau,
            "halvings": args.halvings,
            "n_nodes": args.n_nodes,
            "out_dir": args.out or f"runs/{args.model}",
        }
    )
    code = run_and_emit(cfg)
    summary = Path(cfg.out_dir) / "summary.json"
    print(f"exit {code}; outputs in {cfg.out_dir} (see {summary})")
    if code == 2:  # configuration error: no summary was written
        return code
    s = json.loads(summary.read_text(encoding="utf-8"))
    fields = [f"invariants_passed {s['invariants_passed']}"]
    if "max_fy_gap" in s:  # absent when the run itself failed
        fields += [
            f"max_fy_gap {s['max_fy_gap']:.3e}",
            f"max_edi_residual/tol {s['max_edi_residual']:.3e}/{s['max_edi_tol']:.3e}",
        ]
    print("; ".join(fields))
    return code


if __name__ == "__main__":
    sys.exit(main())
