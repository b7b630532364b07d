#!/usr/bin/env python3
"""Step-refinement study across all shipped models.

Prints per-model tables of interpolant deviations, Cauchy differences on
matched time grids, and observed convergence rates.

Usage:
    python scripts/convergence_report.py --halvings 3
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from proxdyn.core import tau_max
from proxdyn.diagnostics import convergence_study
from proxdyn.models import (
    P1Params,
    P2Params,
    P3Params,
    build_linear_wave,
    build_p1,
    build_p2,
    build_p3,
)
from proxdyn.stepper import admissible_tau, run

BUILDERS = {
    "p1": lambda n: build_p1(P1Params(n_nodes=n)),
    "p2": lambda n: build_p2(P2Params(n_nodes=n)),
    "p3": lambda n: build_p3(P3Params(n_nodes=n)),
    "linear_wave": lambda n: build_linear_wave(1.0, n_nodes=n)[0],
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--halvings", type=int, default=3)
    ap.add_argument("--n-nodes", type=int, default=65)
    ap.add_argument("--frac", type=float, default=16.0,
                    help="starting step tau_max/frac")
    args = ap.parse_args()

    for name, build in BUILDERS.items():
        spec = build(args.n_nodes)
        tau0 = admissible_tau(spec, min(tau_max(spec), spec.horizon) / args.frac)
        table = convergence_study(run(spec, tau0), args.halvings)
        print(f"\n=== {name} (tau0 = {tau0:.6g}) ===")
        print(f"{'tau':>12} {'sup_U_dev':>12} {'sup_V_dev':>12} {'cauchy':>12} {'rate':>8}")
        for k, tau in enumerate(table.taus):
            cau = f"{table.cauchy[k]:12.4e}" if k < len(table.cauchy) else " " * 12
            rate = f"{table.rates[k]:8.3f}" if k < len(table.rates) else " " * 8
            print(
                f"{tau:12.6g} {table.sup_u_devs[k]:12.4e} "
                f"{table.sup_v_devs[k]:12.4e} {cau} {rate}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
