"""Config ingestion, run orchestration, and bit-stable serialization.

Configs are flat JSON: a model tag, a step size, and optional overrides of
the per-model defaults below.  Each value must have its default's JSON
type, with no coercion: integers for the integer keys, finite numbers (not
strings, booleans, NaN or Infinity) for the real-valued keys, tau
included, and strings for out_dir and damping.  tau must divide the
horizon and pass the step rule of `core.check_step`, and seed must be
>= 0.  Every run writes trajectory.csv, snapshots.csv (plot-ready CSV:
comma, header row, UTF-8, LF, 17 significant digits), convergence.csv if
halvings > 0, and a summary.json (strict JSON: a non-finite number, such
as an unbounded tau_max, is null); repeated runs of one config give
byte-identical data files (the wall-time entry of summary.json is the
one volatile field).

A config is built into its ProblemSpec once: `parse_config_dict`
validates the config by building the spec, keeps it as `RunConfig.spec`,
and `run_and_emit` steps that spec.  A RunConfig made by hand or by
`dataclasses.replace` carries no spec; `run_and_emit` validates and builds it.

Exit codes: 0 all asserted invariants held, 1 invariant violation (details
in summary.json), 2 configuration error.
"""

from __future__ import annotations

import argparse
import difflib
import json
import math
import numbers
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import diagnostics, models, stepper
from .core import ProblemSpec, check_step, step_count, tau_max, validate_assumptions
from .errors import ConfigError, ParseError, ProxdynError, ValidationError
from .grid import h_norm

COMMON_DEFAULTS = {
    "halvings": 0,
    "out_dir": "out",
    "seed": 0,
    "inner_tol": 1e-9,
    "n_nodes": 65,
    "horizon": 1.0,
}

MODEL_DEFAULTS = {
    "p1": {"rho": 1.0, "nu": 1.0, "mu": 0.15, "alpha": 0.5, "u0_amplitude": 1.0},
    "p2": {"q": 2.0, "p": 2.0, "u0_amplitude": 0.5},
    "p3": {
        "q": 2.0,
        "well_scale": 1.0,
        "stiffness": 1.0,
        "force_amplitude": 0.2,
        "force_frequency": float(np.pi),
        "u0_amplitude": 0.5,
    },
    "linear_wave": {"nu": 1.0, "damping": "mass"},
}


def _check_type(key: str, value, default) -> None:
    """ParseError unless value has the JSON type of the key's default; a
    real value must also be finite (json reads NaN and Infinity)."""
    if isinstance(default, int):
        kind, ok = "an integer", isinstance(value, numbers.Integral) and not isinstance(value, bool)
    elif isinstance(default, float):
        kind = "a finite number"
        ok = isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    else:
        kind, ok = "a string", isinstance(value, str)
    if not ok:
        raise ParseError(f"key {key!r} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """Validated run description; round-trips losslessly through to_dict.

    spec is the ProblemSpec that parse_config_dict built while validating,
    None for a config made any other way; it takes no part in to_dict,
    equality or repr, and dataclasses.replace does not copy it.
    """

    model: str
    tau: float
    halvings: int
    out_dir: str
    seed: int
    inner_tol: float
    n_nodes: int
    horizon: float
    params: dict = field(default_factory=dict)
    spec: Optional[ProblemSpec] = field(default=None, init=False, compare=False, repr=False)

    def to_dict(self) -> dict:
        out = {
            "model": self.model,
            "tau": self.tau,
            "halvings": self.halvings,
            "out_dir": self.out_dir,
            "seed": self.seed,
            "inner_tol": self.inner_tol,
            "n_nodes": self.n_nodes,
            "horizon": self.horizon,
        }
        out.update({k: self.params[k] for k in sorted(self.params)})
        return out


def build_problem(cfg: RunConfig):
    """Instantiate the ProblemSpec (and exact solution, if any) for a config:
    models.build_<model>, looked up at call time, with the model keys as
    the fields of its P*Params (the keywords of build_linear_wave)."""
    if cfg.model not in MODEL_DEFAULTS:
        raise ConfigError(f"unknown model {cfg.model!r}")
    build = getattr(models, f"build_{cfg.model}")
    kwargs = dict(cfg.params, n_nodes=cfg.n_nodes, horizon=cfg.horizon)
    if cfg.model == "linear_wave":
        return build(**kwargs)
    return build(getattr(models, f"{cfg.model.upper()}Params")(**kwargs)), None


def parse_config_dict(raw: dict) -> RunConfig:
    """Strict parse of a flat config mapping; unknown keys and values of
    the wrong type are errors."""
    if "model" not in raw:
        raise ParseError("missing required key 'model'")
    model = raw["model"]
    if not isinstance(model, str) or model not in MODEL_DEFAULTS:
        raise ParseError(
            f"unknown model {model!r}; choose from {sorted(MODEL_DEFAULTS)}"
        )
    # A key's default gives its type; the required tau is a number.
    legal = {"model": model, "tau": 0.0, **COMMON_DEFAULTS, **MODEL_DEFAULTS[model]}
    for key, value in raw.items():
        if key not in legal:
            hint = difflib.get_close_matches(key, sorted(legal), n=1)
            suffix = f"; did you mean {hint[0]!r}?" if hint else ""
            raise ParseError(f"unknown key {key!r} for model {model!r}{suffix}")
        _check_type(key, value, legal[key])
    if "tau" not in raw:
        raise ParseError("missing required key 'tau'")

    def pick(key):
        return raw.get(key, COMMON_DEFAULTS[key])

    params = {
        k: raw.get(k, default) for k, default in MODEL_DEFAULTS[model].items()
    }
    cfg = RunConfig(
        model=model,
        tau=float(raw["tau"]),
        halvings=int(pick("halvings")),
        out_dir=pick("out_dir"),
        seed=int(pick("seed")),
        inner_tol=float(pick("inner_tol")),
        n_nodes=int(pick("n_nodes")),
        horizon=float(pick("horizon")),
        params=params,
    )
    object.__setattr__(cfg, "spec", _validate(cfg))
    return cfg


def _read_config(path) -> dict:
    """The raw mapping of a JSON config file; ParseError (naming the path
    for a missing file or malformed JSON) if there is none."""
    p = Path(path)
    if not p.exists():
        raise ParseError(f"config file {p} does not exist")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {p}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"config root must be an object, got {type(raw).__name__}")
    return raw


def parse_config(path) -> RunConfig:
    """Parse and validate a JSON config file (see module docstring)."""
    return parse_config_dict(_read_config(path))


def _validate(cfg: RunConfig) -> ProblemSpec:
    """The config's ProblemSpec, built to check the step rule; raises
    ValidationError listing every violation."""
    violations = []
    if not cfg.tau > 0:
        violations.append(f"tau must be positive, got {cfg.tau}")
    if cfg.halvings < 0:
        violations.append(f"halvings must be >= 0, got {cfg.halvings}")
    if not cfg.horizon > 0:
        violations.append(f"horizon must be positive, got {cfg.horizon}")
    if cfg.n_nodes < 3:
        violations.append(f"n_nodes must be >= 3, got {cfg.n_nodes}")
    if not cfg.inner_tol > 0:
        violations.append(f"inner_tol must be positive, got {cfg.inner_tol}")
    if cfg.seed < 0:
        violations.append(f"seed must be >= 0, got {cfg.seed}")
    if cfg.tau > 0 and cfg.horizon > 0:
        try:
            step_count(cfg.horizon, cfg.tau)
        except ConfigError as exc:
            violations.append(str(exc))
    spec = None
    if not violations:
        try:
            spec, _ = build_problem(cfg)
            check_step(spec, cfg.tau)
        except ConfigError as exc:
            violations.append(str(exc))
    if violations:
        raise ValidationError(violations)
    return spec


def _write_csv(path: Path, header: list[str], rows) -> None:
    """rows (numbers, one column per header entry) as CSV, each cell
    written as f"{float(x):.17g}" writes it."""
    fmt = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)]
    lines += [fmt % tuple(row) for row in np.asarray(rows, dtype=float).tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _finite_or_null(obj):
    """obj with every non-finite float, at any depth, replaced by None."""
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_finite_or_null(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_summary(out: Path, summary: dict) -> None:
    """summary.json as strict JSON (RFC 8259): a non-finite number, such
    as the unbounded tau_max of lambda = 0, is written as null."""
    text = json.dumps(_finite_or_null(summary), indent=2, sort_keys=True, allow_nan=False)
    (out / "summary.json").write_text(text + "\n", encoding="utf-8")


def run_and_emit(cfg: RunConfig) -> int:
    """Execute a configured run and serialize everything; returns exit code.

    Steps cfg.spec; a config that has none is validated and built first.
    """
    t_start = time.perf_counter()
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create output directory: {exc}", file=sys.stderr)
        return 2
    spec = cfg.spec
    if spec is None:
        try:
            spec = _validate(cfg)
        except ValidationError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2

    lam = spec.energy.lambda_conv
    summary = {"config": cfg.to_dict(), "lambda_conv": lam, "tau_max": tau_max(spec)}
    failures = []
    try:
        traj = stepper.run(
            spec, cfg.tau, inner_tol=cfg.inner_tol
        )
    except ProxdynError as exc:
        summary["error"] = str(exc)
        summary["invariants_passed"] = False
        summary["wall_time_s"] = time.perf_counter() - t_start
        _write_summary(out, summary)
        print(f"run failed: {exc}", file=sys.stderr)
        return 1

    records = diagnostics.edi_scan(spec, traj)
    if not all(r.passed for r in records):
        worst = max(records, key=lambda r: r.residual - r.tol)
        failures.append(
            f"energy-dissipation inequality violated at step {worst.n}: "
            f"residual {worst.residual:.3e} > tol {worst.tol:.3e}"
        )
    report = validate_assumptions(spec, samples=32, seed=cfg.seed)
    if not report.passed:
        names = ", ".join(c.name for c in report.failures())
        failures.append(f"assumption validation failed: {names}")

    kin0 = 0.5 * h_norm(spec.v0.values, spec.grid.h) ** 2
    rows = [[0, 0.0, kin0, traj.energy0, 0.0, 0.0, 0.0, 0.0]]
    rows += [
        [rec.n, traj.times[rec.n], rep.kinetic_after, rep.energy_after,
         rec.psi_accum, rec.psi_star_accum, rep.fy_gap, rec.residual]
        for rep, rec in zip(traj.reports, records)
    ]
    _write_csv(
        out / "trajectory.csv",
        ["n", "t", "kinetic", "energy", "psi_accum", "psi_star_accum", "fy_gap", "edi_residual"],
        rows,
    )

    count = min(traj.n_steps + 1, 200)
    idx = np.unique(np.linspace(0, traj.n_steps, count).round().astype(int))
    header = ["t"] + [f"x{j}" for j in range(spec.grid.n_nodes)]
    frames = np.zeros((len(idx), spec.grid.n_nodes + 1))
    frames[:, 0] = traj.times[idx]
    frames[:, 2:-1] = [traj.U[n].values for n in idx]
    _write_csv(out / "snapshots.csv", header, frames)

    if cfg.halvings > 0:
        table = diagnostics.convergence_study(traj, cfg.halvings, inner_tol=cfg.inner_tol)
        rows = []
        for k, tau_k in enumerate(table.taus):
            cau = table.cauchy[k] if k < len(table.cauchy) else float("nan")
            rate = table.rates[k] if k < len(table.rates) else float("nan")
            rows.append([tau_k, table.sup_u_devs[k], table.sup_v_devs[k], cau, rate])
        _write_csv(
            out / "convergence.csv",
            ["tau", "sup_U_dev", "sup_V_dev", "cauchy_diff", "observed_rate"],
            rows,
        )

    monitors = diagnostics.apriori_monitor(traj, records)
    summary.update(
        {
            "n_steps": traj.n_steps,
            "monitors": asdict(monitors),
            "max_edi_residual": max(r.residual for r in records),
            "max_edi_tol": max(r.tol for r in records),
            "max_fy_gap": max(r.fy_gap for r in traj.reports),
            "max_el_residual": max(r.el_residual for r in traj.reports),
            "assumption_checks": {c.name: c.passed for c in report.checks},
            "failures": failures,
            "invariants_passed": not failures,
        }
    )
    summary["wall_time_s"] = time.perf_counter() - t_start
    _write_summary(out, summary)
    if failures:
        for msg in failures:
            print(f"invariant violation: {msg}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="proxdyn",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="defaults: "
        + json.dumps({"common": COMMON_DEFAULTS, **MODEL_DEFAULTS}, indent=2),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="run a configured model and emit outputs")
    solve.add_argument("--config", required=True, help="path to a JSON run config")
    solve.add_argument("--tau", type=float, default=None, help="override step size")
    solve.add_argument(
        "--halvings", type=int, default=None, help="override refinement levels"
    )
    solve.add_argument("--out", default=None, help="override output directory")
    args = parser.parse_args(argv)

    if args.command == "solve":
        try:
            raw = _read_config(args.config)
            if args.tau is not None:
                raw["tau"] = args.tau
            if args.halvings is not None:
                raw["halvings"] = args.halvings
            if args.out is not None:
                raw["out_dir"] = args.out
            cfg = parse_config_dict(raw)
        except (OSError, ParseError, ValidationError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        return run_and_emit(cfg)
    return 2


if __name__ == "__main__":
    sys.exit(main())
