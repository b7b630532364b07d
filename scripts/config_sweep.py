#!/usr/bin/env python3
"""Run random p1/p2/p3 configs through `proxdyn solve` and count exit codes.

Usage:
    python scripts/config_sweep.py OUT [--seed S] [--draws N] [--against OTHER]

Each draw is a p1, p2 or p3 config, with equal odds, from this domain:
  - n_nodes in {5, 9, 17, 33}, horizon T in {1/8, 1/4}, tau = T/k with k
    an integer from 2 to 32, inner_tol in {1e-6, 1e-9, 1e-11};
  - u0_amplitude log-uniform on [0.1, 25];
  - p1: mu log-uniform on [0.05, 0.5], nu on [0.02, 2] and rho on
    [0.5, 6], alpha uniform on [0, 2];
  - p2: q uniform on [1.05, 4], p uniform on [1.05, 2];
  - p3: q uniform on [2, 4], well_scale log-uniform on [0.1, 4] and
    stiffness on [0.5, 2], force_amplitude uniform on [0, 1] and
    force_frequency on [0, 8].
The draws are fixed by the seed.  Each runs through `cli.run_and_emit`
into OUT/draw_<i>/; the script prints one line per draw (exit code,
seconds, the error of a failed run, the config) and the count of draws
per exit code, and writes OUT/sweep.json.

With --against, OTHER is the OUT of an earlier run of this script (say,
from a checkout of another commit) with the same seed, the same number of
draws and, draw by draw, the same configs; the script names every draw
whose exit code differs between the two.  The exit status is 1 when the
two runs drew differently (nothing is compared) or a draw that exits 0 in
OTHER exits non-zero here, and 0 otherwise, so the script serves as a
no-new-failure gate.
The proxdyn imported is the one in this script's own checkout.
"""

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from proxdyn import cli  # noqa: E402
from proxdyn.errors import ParseError, ValidationError  # noqa: E402


def log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def draw_config(rng) -> dict:
    """One config of the sweep's domain (the module docstring)."""
    model = str(rng.choice(["p1", "p2", "p3"]))
    horizon = float(rng.choice([0.125, 0.25]))
    cfg = {
        "model": model,
        "n_nodes": int(rng.choice([5, 9, 17, 33])),
        "horizon": horizon,
        "tau": horizon / int(rng.integers(2, 33)),
        "inner_tol": float(rng.choice([1e-6, 1e-9, 1e-11])),
        "u0_amplitude": log_uniform(rng, 0.1, 25.0),
    }
    if model == "p1":
        cfg.update(
            mu=log_uniform(rng, 0.05, 0.5),
            nu=log_uniform(rng, 0.02, 2.0),
            rho=log_uniform(rng, 0.5, 6.0),
            alpha=float(rng.uniform(0.0, 2.0)),
        )
    elif model == "p2":
        cfg.update(q=float(rng.uniform(1.05, 4.0)), p=float(rng.uniform(1.05, 2.0)))
    else:
        cfg.update(
            q=float(rng.uniform(2.0, 4.0)),
            well_scale=log_uniform(rng, 0.1, 4.0),
            stiffness=log_uniform(rng, 0.5, 2.0),
            force_amplitude=float(rng.uniform(0.0, 1.0)),
            force_frequency=float(rng.uniform(0.0, 8.0)),
        )
    return cfg


def run_draw(config: dict, out: Path):
    """(exit code, error text or None) of run_and_emit on one config."""
    try:
        code = cli.run_and_emit(cli.parse_config_dict({**config, "out_dir": str(out)}))
    except (ParseError, ValidationError) as exc:
        return 2, f"config error: {exc}"
    error = None
    if code == 1:
        summary = json.loads((out / "summary.json").read_text())
        error = summary.get("error") or "; ".join(summary.get("failures", []))
    return code, error


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--draws", type=int, default=60)
    ap.add_argument("--against", type=Path)
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    records = []
    for i in range(args.draws):
        config = draw_config(rng)
        t0 = time.perf_counter()
        code, error = run_draw(config, args.out / f"draw_{i:03d}")
        seconds = time.perf_counter() - t0
        records.append({"draw": i, "exit": code, "seconds": seconds, "error": error, "config": config})
        note = f"  [{error}]" if error else ""
        print(f"draw {i:3d}  exit {code}  {seconds:7.2f} s  {json.dumps(config)}{note}", flush=True)
    counts = Counter(r["exit"] for r in records)
    total = sum(r["seconds"] for r in records)
    print("exit codes: " + ", ".join(f"{c}: {counts[c]}" for c in sorted(counts)) + f"  ({total:.1f} s)")
    (args.out / "sweep.json").write_text(
        json.dumps({"seed": args.seed, "draws": records}, indent=1) + "\n"
    )

    if args.against is None:
        return 0
    other = json.loads((args.against / "sweep.json").read_text())
    if other["seed"] != args.seed or len(other["draws"]) != len(records):
        print(f"--against ran seed {other['seed']} with {len(other['draws'])} draws, "
              f"not seed {args.seed} with {len(records)}: no draw compared")
        return 1
    differ = [r["draw"] for r, o in zip(records, other["draws"]) if r["config"] != o["config"]]
    if differ:
        print(f"--against drew other configs at draw(s) {differ}: no draw compared")
        return 1
    new_failures = 0
    for mine, theirs in zip(records, other["draws"]):
        if mine["exit"] != theirs["exit"]:
            new_failures += theirs["exit"] == 0
            print(f"draw {mine['draw']:3d}: exit {theirs['exit']} in {args.against} -> {mine['exit']} here")
    print(f"{new_failures} draw(s) exit 0 in {args.against} and non-zero here")
    return 1 if new_failures else 0


if __name__ == "__main__":
    sys.exit(main())
