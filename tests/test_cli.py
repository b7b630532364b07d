"""Config parsing, serialization, exit codes, and determinism."""

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from proxdyn import convex
from proxdyn.cli import (
    _write_csv,
    build_problem,
    main,
    parse_config,
    parse_config_dict,
    run_and_emit,
)
from proxdyn.errors import InnerSolverFailed, ParseError, StepSizeTooLarge, ValidationError
from proxdyn.convex import SymBand
from proxdyn.grid import SpatialGrid, laplacian_band
from proxdyn.models import P3Params, build_p3
from proxdyn.stepper import run

from oracles import velocities


ROOT = Path(__file__).resolve().parents[1]


def src_env():
    """Environment for subprocesses that import proxdyn from src/ uninstalled.

    pytest's `pythonpath` setting reaches only this process, not children.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


def _reject_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def strict_json(path):
    """The JSON of a file, refusing the NaN/Infinity literals json allows."""
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


class TestParseConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, {"model": "p3", "tau": 0.01}))
        assert cfg.model == "p3"
        assert cfg.params["q"] == 2.0
        assert cfg.n_nodes == 65
        assert cfg.horizon == 1.0
        assert cfg.halvings == 0

    def test_step_bound_violation_names_the_bound(self, tmp_path):
        # p3 with well_scale 4 on 65 nodes: lambda = 3.0662, tau_max = 0.163069.
        with pytest.raises(ValidationError) as exc:
            parse_config(write_cfg(tmp_path, {"model": "p3", "tau": 0.5, "well_scale": 4.0}))
        msg = str(exc.value)
        assert "tau_max" in msg and "1/(2*lambda)" in msg and "0.163069" in msg

    def test_unknown_key_suggests(self, tmp_path):
        with pytest.raises(ParseError) as exc:
            parse_config(write_cfg(tmp_path, {"model": "p3", "taus": 0.01}))
        assert "'tau'" in str(exc.value)

    def test_missing_required(self, tmp_path):
        with pytest.raises(ParseError):
            parse_config(write_cfg(tmp_path, {"model": "p3"}))
        with pytest.raises(ParseError):
            parse_config(write_cfg(tmp_path, {"tau": 0.01}))

    def test_collects_every_violation(self):
        with pytest.raises(ValidationError) as exc:
            parse_config_dict({"model": "p3", "tau": -1.0, "halvings": -2, "n_nodes": 2})
        assert len(exc.value.violations) >= 3

    def test_round_trip_identity(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, {"model": "p2", "tau": 0.125, "seed": 7}))
        again = parse_config_dict(cfg.to_dict())
        assert again == cfg

    def test_tau_must_divide_horizon(self):
        with pytest.raises(ValidationError) as exc:
            parse_config_dict({"model": "linear_wave", "tau": 0.3})
        assert "divide" in str(exc.value)

    def test_negative_seed_exits_two_before_stepping(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"model": "p3", "tau": 0.0625, "n_nodes": 9, "seed": -1})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_nonexistent_file(self, tmp_path):
        with pytest.raises(ParseError):
            parse_config(tmp_path / "missing.json")

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ParseError):
            parse_config(p)


def p3_well_scale(lam, n_nodes=9):
    """The well_scale that gives p3 (unit stiffness) the defect lam:
    lambda = 2 scale - lambda_1(A)/2."""
    grid = SpatialGrid(n_nodes, 1.0 / (n_nodes - 1))
    return 0.5 * (lam + 0.5 * SymBand(laplacian_band(grid)).eigenvalue(0))


class TestStepRule:
    """The parser and the stepper apply one step rule, `core.check_step`:
    tau <= 1/(2*lambda) and 1/tau^2 > 2*lambda.  For p3 lambda is
    max(0, 2*well_scale - lambda_1(A)/2), and a single step tau = T = 1.25
    (or 1.12) breaks the second condition alone for lambda in (0.32, 0.4]."""

    @settings(max_examples=30, deadline=None)
    @given(lam=st.floats(0.004, 0.996), tau=st.sampled_from([1.12, 1.25, 2.0]))
    @example(lam=0.4, tau=1.25)
    @example(lam=0.4, tau=1.12)
    def test_parser_accepts_exactly_the_steps_run_takes(self, lam, tau):
        well_scale = p3_well_scale(lam)
        raw = {"model": "p3", "n_nodes": 9, "tau": tau, "horizon": tau, "well_scale": well_scale}
        try:
            parse_config_dict(raw)
            accepted = True
        except ValidationError:
            accepted = False
        spec = build_p3(P3Params(n_nodes=9, horizon=tau, well_scale=well_scale))
        try:
            run(spec, tau, max_iter=500)
            stepped = True
        except StepSizeTooLarge:
            stepped = False
        except InnerSolverFailed:
            stepped = True  # admitted; the step rule is all this test checks
        assert accepted == stepped

    def test_strict_convexity_violation_exits_two_naming_the_bound(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            {"model": "p3", "well_scale": p3_well_scale(0.4), "tau": 1.25, "horizon": 1.25,
             "n_nodes": 9},
        )
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        # tau_max = min(1/(2*0.4), 1/sqrt(2*0.4)) = 1/sqrt(0.8).
        assert "tau_max" in err and f"{1 / np.sqrt(0.8):.6g}" in err
        assert not (tmp_path / "o").exists()


class TestStrictTypes:
    """A value must have its key's JSON type; nothing is coerced."""

    @pytest.mark.parametrize(
        "raw, key",
        [
            ({"model": "p3", "tau": 0.0625, "n_nodes": 17.5}, "n_nodes"),
            ({"model": "linear_wave", "tau": "0.1", "n_nodes": 9}, "tau"),
            ({"model": "linear_wave", "tau": True, "n_nodes": 9}, "tau"),
            ({"model": "p1", "tau": 0.0625, "n_nodes": 9, "mu": "abc"}, "mu"),
        ],
        ids=["float_n_nodes", "string_tau", "bool_tau", "string_mu"],
    )
    def test_wrong_type_rejected(self, raw, key):
        with pytest.raises(ParseError, match=f"'{key}'"):
            parse_config_dict(raw)

    def test_wrong_type_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"model": "p1", "tau": 0.0625, "n_nodes": 9, "mu": "abc"})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "'mu'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "raw, key",
        [
            ({"model": "linear_wave", "tau": 0.25, "n_nodes": 9, "nu": float("nan")}, "nu"),
            ({"model": "p1", "tau": 0.0625, "n_nodes": 9, "mu": float("nan")}, "mu"),
            ({"model": "p2", "tau": 0.0625, "n_nodes": 9, "horizon": float("inf")}, "horizon"),
            ({"model": "p3", "tau": 0.0625, "n_nodes": 9, "inner_tol": float("inf")}, "inner_tol"),
            ({"model": "p3", "tau": 0.0625, "n_nodes": 9, "force_amplitude": float("inf")},
             "force_amplitude"),
        ],
        ids=["nan_nu", "nan_mu", "inf_horizon", "inf_inner_tol", "inf_force_amplitude"],
    )
    def test_non_finite_number_exits_two(self, tmp_path, capsys, raw, key):
        # json writes and reads the literals NaN and Infinity.
        cfg = write_cfg(tmp_path, raw)
        assert "NaN" in cfg.read_text() or "Infinity" in cfg.read_text()
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"'{key}' must be a finite number" in capsys.readouterr().err

    def test_integers_are_numbers(self):
        cfg = parse_config_dict(
            {"model": "linear_wave", "tau": 0.25, "n_nodes": 9, "horizon": 1, "nu": 2}
        )
        assert cfg.horizon == 1.0 and cfg.params["nu"] == 2


class TestWriteCsv:
    """One format string per row writes the bytes that the per-cell
    f"{float(x):.17g}" wrote."""

    @staticmethod
    def _per_cell(header, rows):
        lines = [",".join(header)] + [",".join(f"{float(x):.17g}" for x in row) for row in rows]
        return ("\n".join(lines) + "\n").encode("utf-8")

    def test_edge_values_and_wide_rows(self, tmp_path):
        specials = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308,
                    float("nan"), float("inf"), -float("inf"), 0.1, 1 / 3, 2.0**53]
        cases = {
            "mixed": (["n", *(f"c{j}" for j in range(len(specials)))],
                      [[n, *specials] for n in (0, 1, 17, 2**31)]),
            "wide": ([f"x{j}" for j in range(1027)],
                     [np.linspace(-1.0, 1.0, 1027) ** 3, np.resize(specials, 1027)]),
            "array": (["t", "u"], np.array([[0.0, -0.0], [0.5, 1e-310]])),
        }
        for name, (header, rows) in cases.items():
            path = tmp_path / f"{name}.csv"
            _write_csv(path, header, rows)
            assert path.read_bytes() == self._per_cell(header, rows), name

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.lists(st.floats(), min_size=5, max_size=5), min_size=1, max_size=4))
    def test_any_float(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "rows.csv"
        header = ["a", "b", "c", "d", "e"]
        _write_csv(path, header, rows)
        assert path.read_bytes() == self._per_cell(header, rows)


class TestRunAndEmit:
    def test_zero_data_run(self, tmp_path):
        cfg = parse_config_dict(
            {"model": "p2", "tau": 0.25, "u0_amplitude": 0.0,
             "out_dir": str(tmp_path / "out"), "n_nodes": 17}
        )
        assert run_and_emit(cfg) == 0
        rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert rows[0] == "n,t,kinetic,energy,psi_accum,psi_star_accum,fy_gap,edi_residual"
        for row in rows[1:]:
            vals = [float(x) for x in row.split(",")[2:]]
            assert all(abs(v) < 1e-12 for v in vals)
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["invariants_passed"]

    def test_outputs_and_exit_zero(self, tmp_path):
        cfg = parse_config_dict(
            {"model": "p3", "tau": 0.03125, "out_dir": str(tmp_path / "out"),
             "n_nodes": 33, "halvings": 2}
        )
        assert run_and_emit(cfg) == 0
        out = tmp_path / "out"
        for name in ("trajectory.csv", "snapshots.csv", "convergence.csv", "summary.json"):
            assert (out / name).exists()
        conv = (out / "convergence.csv").read_text().splitlines()
        assert conv[0] == "tau,sup_U_dev,sup_V_dev,cauchy_diff,observed_rate"
        assert len(conv) == 4  # header + halvings + 1 rows
        # LF endings, no CR
        raw = (out / "trajectory.csv").read_bytes()
        assert b"\r" not in raw
        # The accumulators of the last row are the summary's monitors.
        header, *_, last = raw.decode().splitlines()
        row = dict(zip(header.split(","), map(float, last.split(","))))
        monitors = json.loads((out / "summary.json").read_text())["monitors"]
        assert row["psi_accum"] == monitors["psi_accum"]
        assert row["psi_star_accum"] == monitors["psi_star_accum"]

    def test_halvings_step_each_tau_once(self, tmp_path, monkeypatch):
        # The refinement study reuses the run at tau0, so halvings = k
        # steps k + 1 step sizes, each once.
        from proxdyn import diagnostics, stepper

        taus = []

        def counted(spec, tau, **kwargs):
            taus.append(tau)
            return run(spec, tau, **kwargs)

        monkeypatch.setattr(stepper, "run", counted)
        monkeypatch.setattr(diagnostics, "run", counted)
        cfg = parse_config_dict(
            {"model": "p3", "tau": 0.0625, "n_nodes": 9, "horizon": 0.25, "halvings": 2,
             "out_dir": str(tmp_path / "out")}
        )
        assert run_and_emit(cfg) == 0
        assert taus == [0.0625, 0.03125, 0.015625]
        assert len((tmp_path / "out" / "convergence.csv").read_text().splitlines()) == 4

    def test_failed_refined_run_exits_one_with_a_summary(self, tmp_path, monkeypatch, capsys):
        # A step that fails at a refined tau of the --halvings study is a
        # run failure: exit 1 and a summary naming the error, not a
        # traceback after the trajectory files.
        from proxdyn import diagnostics

        def fail_refined(spec, tau, **kwargs):
            raise InnerSolverFailed(f"forced failure at tau {tau}", step_index=3)

        monkeypatch.setattr(diagnostics, "run", fail_refined)
        out = tmp_path / "out"
        cfg = parse_config_dict(
            {"model": "p3", "tau": 0.0625, "n_nodes": 9, "horizon": 0.25, "halvings": 1,
             "out_dir": str(out)}
        )
        assert run_and_emit(cfg) == 1
        summary = strict_json(out / "summary.json")
        assert summary["invariants_passed"] is False
        assert "forced failure at tau 0.03125" in summary["error"]
        assert "run failed: forced failure" in capsys.readouterr().err
        assert not (out / "convergence.csv").exists()

    def test_seventeen_digit_serialization(self, tmp_path):
        cfg = parse_config_dict(
            {"model": "linear_wave", "tau": 0.125, "out_dir": str(tmp_path / "out"),
             "n_nodes": 17}
        )
        run_and_emit(cfg)
        row = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[2]
        energy = row.split(",")[3]
        value = float(energy)
        assert f"{value:.17g}" == energy

    def test_determinism_byte_identical(self, tmp_path):
        # Repeated runs of one config reproduce the data files bit for bit;
        # the wall-time entry of summary.json is the one volatile field.
        out = tmp_path / "out"
        cfg = parse_config_dict(
            {"model": "p3", "tau": 0.0625, "n_nodes": 17, "halvings": 1,
             "out_dir": str(out)}
        )
        names = ("trajectory.csv", "snapshots.csv", "convergence.csv")
        assert run_and_emit(cfg) == 0
        first = {name: (out / name).read_bytes() for name in names}
        first_summary = {
            k: v for k, v in json.loads((out / "summary.json").read_text()).items()
            if k != "wall_time_s"
        }
        assert run_and_emit(cfg) == 0
        for name in names:
            assert (out / name).read_bytes() == first[name]
        second_summary = {
            k: v for k, v in json.loads((out / "summary.json").read_text()).items()
            if k != "wall_time_s"
        }
        assert second_summary == first_summary

    def test_p3_stick_config(self, tmp_path):
        # Below-threshold initial data through the config surface: constant
        # energy column and zero velocity column.
        cfg = parse_config_dict(
            {"model": "p3", "tau": 0.001, "u0_amplitude": 0.0005,
             "force_amplitude": 0.0, "out_dir": str(tmp_path / "out")}
        )
        assert run_and_emit(cfg) == 0
        rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[1:]
        kinetic = [float(r.split(",")[2]) for r in rows]
        energy = [float(r.split(",")[3]) for r in rows]
        assert all(k == 0.0 for k in kinetic)
        assert max(energy) - min(energy) <= 1e-12 * (1 + abs(energy[0]))

    def test_stalled_inner_solve_exits_one(self, tmp_path, monkeypatch):
        from proxdyn import convex
        from proxdyn.errors import MaxIterExceeded

        def stall(prob, init, *args, **kwargs):
            raise MaxIterExceeded("forced stall", best=init)

        monkeypatch.setattr(convex, "solve_prox_gradient", stall)
        cfg = parse_config_dict(
            {"model": "p3", "tau": 0.0625, "n_nodes": 17, "horizon": 0.25,
             "out_dir": str(tmp_path / "out")}
        )
        assert run_and_emit(cfg) == 1
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["invariants_passed"] is False
        assert "step 1" in summary["error"] and "forced stall" in summary["error"]

    def test_linear_wave_convergence_rates_near_one(self, tmp_path):
        cfg = parse_config_dict(
            {"model": "linear_wave", "tau": 0.01, "halvings": 2, "n_nodes": 33,
             "out_dir": str(tmp_path / "out")}
        )
        assert run_and_emit(cfg) == 0
        rows = (tmp_path / "out" / "convergence.csv").read_text().splitlines()[1:]
        rates = [float(r.split(",")[4]) for r in rows]
        finite = [r for r in rates if np.isfinite(r)]
        assert finite and all(abs(r - 1.0) <= 0.3 for r in finite)

    @pytest.mark.parametrize(
        "raw",
        [
            {"model": "p1", "tau": 0.125, "n_nodes": 9, "horizon": 0.25},
            {"model": "p2", "tau": 0.125, "n_nodes": 9, "horizon": 0.25},
            {"model": "p3", "tau": 0.0625, "n_nodes": 9, "horizon": 0.125},
            {"model": "linear_wave", "tau": 0.125, "n_nodes": 9, "horizon": 0.25},
        ],
        ids=["p1", "p2", "p3", "linear_wave"],
    )
    def test_summary_is_strict_json(self, tmp_path, raw):
        cfg = parse_config_dict({**raw, "out_dir": str(tmp_path / "out")})
        assert run_and_emit(cfg) == 0
        summary = strict_json(tmp_path / "out" / "summary.json")
        lam = cfg.spec.energy.lambda_conv
        assert summary["lambda_conv"] == lam
        assert summary["tau_max"] == (None if lam == 0.0 else pytest.approx(1 / (2 * lam)))

    def test_failed_run_summary_is_strict_json(self, tmp_path, monkeypatch):
        from proxdyn import cli as cli_mod

        def boom(*args, **kwargs):
            raise InnerSolverFailed("forced failure", step_index=1)

        monkeypatch.setattr(cli_mod.stepper, "run", boom)
        cfg = parse_config_dict(
            {"model": "linear_wave", "tau": 0.25, "n_nodes": 9, "out_dir": str(tmp_path / "out")}
        )
        assert run_and_emit(cfg) == 1
        summary = strict_json(tmp_path / "out" / "summary.json")
        assert summary["tau_max"] is None and "forced failure" in summary["error"]

    def test_snapshots_capped(self, tmp_path):
        cfg = parse_config_dict(
            {"model": "linear_wave", "tau": 0.002, "out_dir": str(tmp_path / "out"),
             "n_nodes": 9}
        )
        run_and_emit(cfg)
        rows = (tmp_path / "out" / "snapshots.csv").read_text().splitlines()
        assert len(rows) - 1 <= 200


# Configs the parser accepts that failed a step in a random sweep
# (`scripts/config_sweep.py`): R1-R4 with a composite step's Fenchel-Young
# gap above 10 inner_tol, R5 (draw 37 of the p1/p2 sweep at seed 7) with the
# exact composite conjugate's root stalled.  R7 (draw 18 of the p1/p2/p3
# sweep at seed 7) has a composite step whose Fenchel-Young bound passes
# 3.4 ulp of its terms on its way under 9 inner_tol, so a rounding floor
# that failed a step on the value alone would fail it.  R8 (draw 10 of the
# sweep at seed 7) has a composite step whose bound, within its floor,
# falls in steps of its rounding and holds 1.746e-10 at two tests in a
# row on its way under 9 inner_tol, so a stall rule of one test would fail
# it.  Each must certify.
_SWEEP_REPRODUCERS = {
    "R1": {"model": "p1", "n_nodes": 33, "tau": 0.0625, "horizon": 0.25, "mu": 0.2204,
           "nu": 0.2889, "alpha": 0.6559, "rho": 5.609, "u0_amplitude": 10.2315,
           "inner_tol": 1e-11},
    "R2": {"model": "p2", "n_nodes": 5, "tau": 0.00390625, "horizon": 0.125, "q": 1.05,
           "p": 2.0, "u0_amplitude": 25.8832},
    "R3": {"model": "p1", "n_nodes": 33, "tau": 0.015625, "horizon": 0.5, "mu": 0.0922,
           "nu": 1.6571, "alpha": 0.9133, "rho": 5.5203, "u0_amplitude": 28.5566},
    "R4": {"model": "p1", "n_nodes": 33, "tau": 0.00390625, "horizon": 0.125, "mu": 0.3629,
           "nu": 0.0292, "alpha": 1.7856, "rho": 3.699, "u0_amplitude": 17.8968},
    "R5": {"model": "p2", "n_nodes": 33, "tau": 0.25 / 23, "horizon": 0.25,
           "q": 3.180039632133334, "p": 1.873909718193738, "u0_amplitude": 0.6088772330705541,
           "inner_tol": 1e-11},
    "R7": {"model": "p1", "n_nodes": 5, "tau": 0.25 / 17, "horizon": 0.25, "mu": 0.2765269238971518,
           "nu": 0.2899584191844144, "alpha": 1.756375718836561, "rho": 1.4434513383142569,
           "u0_amplitude": 14.120510276629437, "inner_tol": 1e-11},
    "R8": {"model": "p1", "n_nodes": 17, "tau": 0.25 / 6, "horizon": 0.25, "mu": 0.4007622373868393,
           "nu": 0.27572001368801613, "alpha": 0.38492698993666474, "rho": 0.7177077873488837,
           "u0_amplitude": 18.447139233849814, "inner_tol": 1e-11},
}


@pytest.mark.parametrize("name", sorted(_SWEEP_REPRODUCERS))
def test_sweep_reproducer(name, tmp_path):
    raw = {**_SWEEP_REPRODUCERS[name], "out_dir": str(tmp_path)}
    code = run_and_emit(parse_config_dict(raw))
    summary = strict_json(tmp_path / "summary.json")
    assert code == 0 and summary["invariants_passed"], summary.get("error")
    assert summary["max_fy_gap"] <= 10.0 * raw.get("inner_tol", 1e-9)


# R6, draw 51 of the p1/p2/p3 sweep at seed 7: step 2's Fenchel-Young gap,
# 2.3e-10, is one ulp of its pairing <eta, V>_h ~ 1.3e6 at every point, so
# no iteration brings it under 9 inner_tol (the forward-backward solve spun
# to its 50,000-iteration cap in ~26 s).  The step fails at once, naming
# that rounding floor.
_ROUNDING_FLOOR_REPRODUCER = {
    "model": "p3", "n_nodes": 5, "tau": 0.125 / 18, "horizon": 0.125, "inner_tol": 1e-11,
    "q": 2.461334364602205, "well_scale": 3.579728743546085, "stiffness": 0.6669429823285974,
    "force_amplitude": 0.5064760161881308, "force_frequency": 3.979080353756122,
    "u0_amplitude": 18.10837405629574,
}


def test_sweep_reproducer_r6_fails_at_the_rounding_floor(tmp_path):
    cfg = parse_config_dict({**_ROUNDING_FLOOR_REPRODUCER, "out_dir": str(tmp_path)})
    start = time.perf_counter()
    code = run_and_emit(cfg)
    elapsed = time.perf_counter() - start
    summary = strict_json(tmp_path / "summary.json")
    assert code == 1 and not summary["invariants_passed"]
    assert "step 2" in summary["error"] and "rounding floor" in summary["error"]
    assert elapsed < 2.0


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1))
def test_sweep_draws_keep_the_exit_contract(seed, monkeypatch):
    raw = load_script(monkeypatch, "config_sweep").draw_config(np.random.default_rng(seed))
    assert_exit_contract(raw)


@pytest.mark.slow
def test_full_domain_sweep_keeps_the_exit_contract(monkeypatch):
    # The draws of `config_sweep.py --seed 7 --draws 200`, in its order.
    rng = np.random.default_rng(7)
    draw_config = load_script(monkeypatch, "config_sweep").draw_config
    for _ in range(200):
        assert_exit_contract(draw_config(rng))


def assert_exit_contract(raw):
    """Every config of the sweep's domain either certifies every step (exit
    0, every FY gap <= 10 inner_tol), fails loudly with a typed error in
    summary.json (exit 1), or is refused with its key named (exit 2);
    anything else, a traceback included, fails."""
    with tempfile.TemporaryDirectory() as out:
        try:
            cfg = parse_config_dict({**raw, "out_dir": out})
        except (ParseError, ValidationError) as exc:
            assert any(repr(key) in str(exc) or key in str(exc) for key in raw), str(exc)
            return
        code = run_and_emit(cfg)
        summary = strict_json(Path(out) / "summary.json")
        trajectory = (Path(out) / "trajectory.csv").read_text() if code == 0 else ""
    assert code in (0, 1), raw
    if code == 0:
        assert summary["invariants_passed"]
        fy = [float(row.split(",")[6]) for row in trajectory.splitlines()[1:]]
        assert max(fy) <= 10.0 * raw["inner_tol"], raw
    else:
        assert not summary["invariants_passed"] and (summary.get("error") or summary.get("failures"))


class TestBuildOnce:
    """run_and_emit steps the spec that parse_config_dict built."""

    def test_parsed_config_runs_without_a_build(self, tmp_path, monkeypatch):
        from proxdyn import cli as cli_mod
        from proxdyn import models

        raw = {"model": "p3", "tau": 0.0625, "n_nodes": 17, "horizon": 0.25, "halvings": 1}
        reference = parse_config_dict({**raw, "out_dir": str(tmp_path / "ref")})
        assert run_and_emit(reference) == 0
        cfg = parse_config_dict({**raw, "out_dir": str(tmp_path / "out")})
        assert cfg.spec is not None

        def boom(*args, **kwargs):
            raise AssertionError("the spec was built again after parsing")

        monkeypatch.setattr(cli_mod, "build_problem", boom)
        for name in dir(models):
            if name.startswith("build_"):
                monkeypatch.setattr(models, name, boom)
        assert run_and_emit(cfg) == 0
        for name in ("trajectory.csv", "convergence.csv"):
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()

    def test_spec_is_not_config_data(self):
        cfg = parse_config_dict({"model": "linear_wave", "tau": 0.25, "n_nodes": 9})
        bare = dataclasses.replace(cfg)
        assert bare.spec is None
        assert bare == cfg and repr(bare) == repr(cfg)
        assert "spec" not in cfg.to_dict()

    def test_replaced_config_builds_its_own_spec(self, tmp_path):
        cfg = parse_config_dict(
            {"model": "linear_wave", "tau": 0.25, "n_nodes": 9, "out_dir": str(tmp_path / "out")}
        )
        finer = dataclasses.replace(cfg, n_nodes=17)
        assert finer.spec is None
        assert run_and_emit(finer) == 0
        header = (tmp_path / "out" / "snapshots.csv").read_text().splitlines()[0]
        assert header.split(",") == ["t"] + [f"x{j}" for j in range(17)]

    def test_replaced_config_is_validated_before_stepping(self, tmp_path, capsys):
        cfg = parse_config_dict(
            {"model": "linear_wave", "tau": 0.25, "n_nodes": 9, "out_dir": str(tmp_path / "out")}
        )
        assert run_and_emit(dataclasses.replace(cfg, seed=-1)) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.parametrize("damping", ["mass", "gradient"])
    def test_stepping_holds_no_dense_matrix(self, tmp_path, damping):
        # At 2049 nodes one dense m x m array is 33.5 MB; everything a run
        # allocates after the parse (the stepping, the checks and the
        # output) stays under half of that.
        cfg = parse_config_dict(
            {"model": "linear_wave", "damping": damping, "n_nodes": 2049,
             "tau": 1 / 32, "horizon": 1.0, "out_dir": str(tmp_path / "out")}
        )
        tracemalloc.start()
        try:
            assert run_and_emit(cfg) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6, f"traced peak {peak / 1e6:.1f} MB"


class TestOneLedger:
    """trajectory.csv, summary.json and the monitors read the records of
    the one pass over the step reports, and E_0(u0) is evaluated once."""

    def test_initial_energy_evaluated_once(self, tmp_path, monkeypatch):
        from proxdyn import cli as cli_mod, core, diagnostics, stepper

        at_zero = []
        original = core.energy_total

        def counting(spec, t, u):
            if t == 0.0:
                at_zero.append(t)
            return original(spec, t, u)

        for mod in (core, stepper, diagnostics, cli_mod):
            if hasattr(mod, "energy_total"):
                monkeypatch.setattr(mod, "energy_total", counting)
        cfg = parse_config_dict(
            {"model": "p3", "tau": 1 / 32, "n_nodes": 17, "horizon": 0.25,
             "out_dir": str(tmp_path / "out")}
        )
        assert run_and_emit(cfg) == 0
        assert len(at_zero) == 1

    @pytest.mark.parametrize(
        "raw",
        [
            {"model": "p3", "tau": 1 / 32, "n_nodes": 17, "horizon": 0.25},
            {"model": "p2", "tau": 1 / 64, "n_nodes": 17, "horizon": 0.125, "q": 1.5},
        ],
        ids=["p3", "p2_q1.5"],
    )
    def test_outputs_are_the_records(self, tmp_path, monkeypatch, raw):
        from proxdyn import diagnostics, stepper
        from proxdyn.grid import h_norm

        kept = {}
        for mod, name in ((stepper, "run"), (diagnostics, "edi_scan")):
            original = getattr(mod, name)

            def keep(*args, _original=original, _name=name, **kwargs):
                kept[_name] = _original(*args, **kwargs)
                return kept[_name]

            monkeypatch.setattr(mod, name, keep)
        out = tmp_path / "out"
        assert run_and_emit(parse_config_dict({**raw, "out_dir": str(out)})) == 0
        traj, records = kept["run"], kept["edi_scan"]
        lines = (out / "trajectory.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
        assert len(rows) == len(records) + 1
        assert rows[0]["energy"] == traj.energy0
        assert rows[0]["psi_accum"] == rows[0]["psi_star_accum"] == 0.0
        for row, rec in zip(rows[1:], records):
            assert row["psi_accum"] == rec.psi_accum
            assert row["psi_star_accum"] == rec.psi_star_accum
            assert row["edi_residual"] == rec.residual
        assert records[-1].psi_accum > 0.0
        monitors = json.loads((out / "summary.json").read_text())["monitors"]
        assert monitors["psi_accum"] == records[-1].psi_accum
        assert monitors["psi_star_accum"] == records[-1].psi_star_accum
        h = traj.spec.grid.h
        assert monitors["sup_velocity"] == max(h_norm(v, h) for v in velocities(traj))
        assert monitors["sup_energy"] == max(
            [traj.energy0] + [r.energy_after for r in traj.reports]
        )


@pytest.mark.parametrize(
    "raw",
    [
        {"model": "p1", "tau": 0.0625, "n_nodes": 9, "horizon": 0.25, "halvings": 1},
        {"model": "p2", "tau": 0.0625, "n_nodes": 9, "horizon": 0.25, "q": 1.5},
        {"model": "p3", "tau": 0.0625, "n_nodes": 9, "horizon": 0.25, "halvings": 1},
        {"model": "linear_wave", "tau": 0.125, "n_nodes": 9, "damping": "mass"},
        {"model": "linear_wave", "tau": 0.125, "n_nodes": 9, "damping": "gradient"},
    ],
    ids=["p1", "p2", "p3", "wave_mass", "wave_gradient"],
)
def test_models_reject_dense_operators(raw):
    # EnergySpec takes bands only: each model's operators, handed over as
    # the dense matrices they stand for, are refused.
    from proxdyn.errors import ConfigError
    from oracles import dense_of

    energy = parse_config_dict(raw).spec.energy
    for name in ("quad_op", "quad_shift"):
        band = getattr(energy, name)
        if band is None:
            continue
        with pytest.raises(ConfigError, match=name):
            dataclasses.replace(energy, **{name: dense_of(band)})


def load_script(monkeypatch, name):
    """scripts/<name>.py as a module, run in this process."""
    import importlib.util

    # The scripts put src/ (and bench/) on sys.path; undo that afterwards.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


class TestWorkloadOutputs:
    def test_failed_run_prints_its_code_and_fails_the_script(self, tmp_path, monkeypatch, capsys):
        from types import SimpleNamespace

        script = load_script(monkeypatch, "workload_outputs")
        config = {"model": "linear_wave", "tau": 0.25, "n_nodes": 9}
        composite = {"model": "p2", "q": 1.5, "n_nodes": 9, "tau": 1 / 16, "horizon": 0.125}
        monkeypatch.setattr(script, "WORKLOADS", {
            "ok": SimpleNamespace(config=config),
            "bad": SimpleNamespace(config=config),
            "admm": SimpleNamespace(config=composite),
        })
        # A file where the output directory should be: run_and_emit exits
        # 2 before it steps.
        (tmp_path / "bad").write_text("")
        starts = []
        start_penalty = convex.start_penalty

        def recording_start(*args):
            starts.append(start_penalty(*args))
            return starts[-1]

        monkeypatch.setattr(convex, "start_penalty", recording_start)
        monkeypatch.setattr(sys, "argv", ["workload_outputs.py", str(tmp_path)])
        assert script.main() == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[-2:] == ["beta_start", "beta_end"]
        # linear_wave's closed-form steps have no penalty.
        assert lines[1].split()[:2] == ["ok", "0"] and lines[1].split()[-2:] == ["-", "-"]
        assert lines[2].split() == ["bad", "2"] + ["-"] * 5
        # The ADMM run prints its first start and its last step's penalty.
        admm = lines[3].split()
        assert admm[:2] == ["admm", "0"] and len(starts) == 1
        assert float(admm[-2]) == pytest.approx(starts[0], rel=1e-3)
        traj = run(build_problem(parse_config_dict(composite))[0], 1 / 16)
        assert float(admm[-1]) == pytest.approx(traj.reports[-1].penalty, rel=1e-3)

    def test_summary_column(self, tmp_path, monkeypatch, capsys):
        from types import SimpleNamespace

        script = load_script(monkeypatch, "workload_outputs")
        base = {"max_el_residual": 1e-10, "wall_time_s": 1.0,
                "assumption_checks": {"a": True, "b": True}, "failures": []}

        def write(name, summary):
            path = tmp_path / name
            path.write_text(json.dumps(summary))
            return path

        ref = write("ref.json", base)
        assert script.summary_drift(write("same.json", {**base, "wall_time_s": 9.0}), ref) == "identical"
        drifted = {**base, "max_el_residual": 1.1e-10, "assumption_checks": {"a": True}}
        assert script.summary_drift(write("drift.json", drifted), ref) == (
            "max_el_residual rel 9.09e-02; only OTHER: assumption_checks.b"
        )
        assert script.summary_drift(write("flag.json", {**base, "failures": ["x"]}), ref) == (
            "failures rel inf"
        )
        # The table's last column, for a run compared with itself.
        config = {"model": "linear_wave", "tau": 0.25, "n_nodes": 9}
        monkeypatch.setattr(script, "WORKLOADS", {"ok": SimpleNamespace(config=config)})
        monkeypatch.setattr(sys, "argv", ["workload_outputs.py", str(tmp_path / "a")])
        assert script.main() == 0
        argv = ["workload_outputs.py", str(tmp_path / "b"), "--against", str(tmp_path / "a")]
        monkeypatch.setattr(sys, "argv", argv)
        assert script.main() == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2].split()[-1] == "summary.json"
        assert lines[-1].split()[-3:] == ["identical"] * 3


class TestConfigSweep:
    def test_draws_stay_in_the_domain(self, monkeypatch):
        script = load_script(monkeypatch, "config_sweep")
        rng = np.random.default_rng(0)
        models = set()
        for _ in range(200):
            cfg = script.draw_config(rng)
            models.add(cfg["model"])
            assert cfg["n_nodes"] in (5, 9, 17, 33) and cfg["horizon"] in (0.125, 0.25)
            assert 2 <= round(cfg["horizon"] / cfg["tau"]) <= 32
            assert cfg["inner_tol"] in (1e-6, 1e-9, 1e-11)
            assert 0.1 <= cfg["u0_amplitude"] <= 25.0
            if cfg["model"] == "p2":
                assert 1.05 <= cfg["q"] <= 4.0 and 1.05 <= cfg["p"] <= 2.0
            elif cfg["model"] == "p3":
                assert 2.0 <= cfg["q"] <= 4.0 and 0.1 <= cfg["well_scale"] <= 4.0
                assert 0.5 <= cfg["stiffness"] <= 2.0 and 0.0 <= cfg["force_amplitude"] <= 1.0
                assert 0.0 <= cfg["force_frequency"] <= 8.0
            else:
                assert {"mu", "nu", "rho", "alpha"} <= set(cfg)
        assert models == {"p1", "p2", "p3"}

    def test_against_names_a_new_failure(self, tmp_path, monkeypatch, capsys):
        script = load_script(monkeypatch, "config_sweep")
        ok = {"model": "linear_wave", "tau": 0.25, "n_nodes": 9}
        # tau does not divide the horizon: exit 2 before stepping.
        bad = {**ok, "tau": 0.3}

        def sweep(*args):
            configs = iter([ok, bad])
            monkeypatch.setattr(script, "draw_config", lambda rng: next(configs))
            return script.main([*args, "--draws", "2"])

        assert sweep(str(tmp_path / "a")) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("exit codes: 0: 1, 2: 1")
        assert sweep(str(tmp_path / "b"), "--against", str(tmp_path / "a")) == 0
        # An earlier run in which draw 1 exited 0.
        earlier = json.loads((tmp_path / "a" / "sweep.json").read_text())
        earlier["draws"][1]["exit"] = 0
        (tmp_path / "c").mkdir()
        (tmp_path / "c" / "sweep.json").write_text(json.dumps(earlier))
        capsys.readouterr()
        assert sweep(str(tmp_path / "d"), "--against", str(tmp_path / "c")) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2] == f"draw   1: exit 0 in {tmp_path / 'c'} -> 2 here"
        assert lines[-1].startswith("1 draw(s) exit 0")

    @pytest.mark.parametrize("edit", ["draw_count", "config"])
    def test_against_refuses_other_draws(self, edit, tmp_path, monkeypatch, capsys):
        # Draws are paired by position, so a run with another draw count or
        # other configs compares nothing and fails the gate.
        script = load_script(monkeypatch, "config_sweep")
        ok = {"model": "linear_wave", "tau": 0.25, "n_nodes": 9}
        monkeypatch.setattr(script, "draw_config", lambda rng: dict(ok))
        assert script.main([str(tmp_path / "a"), "--draws", "2"]) == 0
        earlier = json.loads((tmp_path / "a" / "sweep.json").read_text())
        if edit == "draw_count":
            earlier["draws"].append(earlier["draws"][-1])
        else:
            earlier["draws"][1]["config"]["n_nodes"] = 17
        (tmp_path / "c").mkdir()
        (tmp_path / "c" / "sweep.json").write_text(json.dumps(earlier))
        capsys.readouterr()
        assert script.main([str(tmp_path / "b"), "--draws", "2", "--against", str(tmp_path / "c")]) == 1
        assert capsys.readouterr().out.splitlines()[-1].endswith("no draw compared")


class TestMainEntry:
    def test_solve_subcommand(self, tmp_path):
        cfg = write_cfg(tmp_path, {"model": "linear_wave", "tau": 0.125, "n_nodes": 9})
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "summary.json").exists()

    def test_flag_overrides(self, tmp_path):
        cfg = write_cfg(tmp_path, {"model": "linear_wave", "tau": 0.125, "n_nodes": 9})
        code = main(
            ["solve", "--config", str(cfg), "--tau", "0.25", "--out", str(tmp_path / "o2")]
        )
        assert code == 0
        summary = json.loads((tmp_path / "o2" / "summary.json").read_text())
        assert summary["config"]["tau"] == 0.25

    def test_config_error_exit_two(self, tmp_path):
        cfg = write_cfg(tmp_path, {"model": "p3", "tau": 0.5, "well_scale": 4.0})
        assert main(["solve", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "name, text, message",
        [("missing.json", None, "does not exist"), ("bad.json", "{not json", "malformed JSON in")],
    )
    def test_unreadable_config_exit_two_names_the_file(self, tmp_path, capsys, name, text, message):
        # main reads --config as parse_config does: the error names the path.
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        assert main(["solve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert message in err and str(path) in err

    def test_run_failure_exit_one_still_writes_summary(self, tmp_path, monkeypatch):
        from proxdyn import cli as cli_mod
        from proxdyn.errors import InnerSolverFailed

        def boom(*args, **kwargs):
            raise InnerSolverFailed("forced failure", step_index=1)

        monkeypatch.setattr(cli_mod.stepper, "run", boom)
        cfg = parse_config_dict(
            {"model": "linear_wave", "tau": 0.25, "n_nodes": 9,
             "out_dir": str(tmp_path / "out")}
        )
        assert run_and_emit(cfg) == 1
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert not summary["invariants_passed"]
        assert "forced failure" in summary["error"]

    def test_module_invocation(self, tmp_path):
        cfg = write_cfg(tmp_path, {"model": "linear_wave", "tau": 0.25, "n_nodes": 9})
        proc = subprocess.run(
            [sys.executable, "-m", "proxdyn.cli", "solve", "--config", str(cfg),
             "--out", str(tmp_path / "o3")],
            capture_output=True,
            env=src_env(),
        )
        assert proc.returncode == 0

    def test_run_model_script_without_tau(self, tmp_path, monkeypatch, capsys):
        # The probe config that finds tau_max must not itself trip the
        # step bound: p3 with well_scale 4 on 9 nodes has tau_max = 0.16 < 1.
        # The script takes the model defaults, so it runs in-process with
        # the default well_scale patched.
        from proxdyn.cli import MODEL_DEFAULTS

        monkeypatch.setitem(MODEL_DEFAULTS["p3"], "well_scale", 4.0)
        monkeypatch.setattr(
            sys, "argv", ["run_model.py", "p3", "--n-nodes", "9", "--out", str(tmp_path / "p3")]
        )
        assert load_script(monkeypatch, "run_model").main() == 0
        out = capsys.readouterr().out
        assert "tau_max = 0.159832, using tau = 0.0196078" in out
        assert "invariants_passed True" in out
        assert "max_fy_gap" in out and "max_edi_residual/tol" in out
        assert strict_json(tmp_path / "p3" / "summary.json")["config"]["well_scale"] == 4.0
