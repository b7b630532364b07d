"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[acceptance NN] PASS/FAIL ...` line (visible with
pytest -s or in the captured output on failure).  Shared runs live in
module-scoped fixtures: the step-bound matrix (tau_max/4, /8, /16 per
model and for p2 at q = 1.1, 1.5 and 3, 65 nodes, T = 1) and a four-level halving family per model.
"""

import json
import time

import numpy as np
import pytest

from proxdyn.cli import parse_config_dict, run_and_emit
from proxdyn.convex import SitePotential, SymBand, edge_conjugate_pair
from proxdyn.core import energy_total, tau_max, validate_assumptions
from proxdyn.diagnostics import apriori_monitor, deviation_norms, edi_scan
from proxdyn.grid import Field, SpatialGrid, h_norm, laplacian_band
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

from oracles import scalar_potential, velocities

INNER_TOL = 1e-9


def _report(num, ok, detail):
    print(f"\n[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def _build(model):
    if model == "p1":
        return build_p1(P1Params())
    if model == "p2":
        return build_p2(P2Params())
    if model == "p3":
        return build_p3(P3Params())
    if model == "linear_wave":
        return build_linear_wave(1.0)[0]
    raise ValueError(model)


MODELS = ("p1", "p2", "p3", "linear_wave")
# p2's power-law branch, which the default p2 (q = 2) never reaches.
P2_EXPONENTS = (1.1, 1.5, 3.0)


@pytest.fixture(scope="module")
def edi_runs():
    """(model, frac) -> (spec, trajectory, EDI records) on the 65-node grid,
    for each model and for p2 at each of P2_EXPONENTS (named "p2 q=...")."""
    t0 = time.perf_counter()
    out = {}
    specs = [(model, _build(model)) for model in MODELS]
    specs += [(f"p2 q={q}", build_p2(P2Params(q=q))) for q in P2_EXPONENTS]
    for model, spec in specs:
        t_eff = min(tau_max(spec), spec.horizon)
        for frac in (4, 8, 16):
            tau = admissible_tau(spec, t_eff / frac)
            traj = run(spec, tau, inner_tol=INNER_TOL)
            out[(model, frac)] = (spec, traj, edi_scan(spec, traj))
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def halving_families():
    """model -> list of (tau, trajectory) over a 4-level halving family.

    The family starts at tau_max/16 so the coarsest run already resolves
    the dynamics; criteria 7 and 8 constrain the family's behavior, not
    its starting step.
    """
    out = {}
    for model in MODELS:
        spec = _build(model)
        t_eff = min(tau_max(spec), spec.horizon)
        tau0 = admissible_tau(spec, t_eff / 16)
        runs = []
        for k in range(4):
            tau = tau0 / 2**k
            runs.append((tau, run(spec, tau, inner_tol=INNER_TOL)))
        out[model] = (spec, runs)
    return out


def test_criterion_01_discrete_edi(edi_runs):
    """Every EDI record passes at its accumulated-gap tolerance."""
    runs, elapsed = edi_runs
    worst = None
    for (model, frac), (spec, traj, records) in runs.items():
        for rec in records:
            margin = rec.residual - rec.tol
            if worst is None or margin > worst[0]:
                worst = (margin, model, frac, rec.n)
    ok = worst[0] <= 0.0 and elapsed < 60.0
    _report(
        1, ok,
        f"discrete energy-dissipation inequality on {len(runs)} runs "
        f"(worst margin {worst[0]:.3e} at {worst[1]} frac={worst[2]} step {worst[3]}; "
        f"{elapsed:.1f}s < 60s)",
    )


def test_criterion_02_fenchel_young_at_minimizers(edi_runs):
    """Max per-step Fenchel-Young gap <= 10 * inner tolerance = 1e-8."""
    runs, _ = edi_runs
    worst = max(
        (r.fy_gap, model, frac)
        for (model, frac), (_, traj, _) in runs.items()
        for r in traj.reports
    )
    ok = worst[0] <= 10 * INNER_TOL
    _report(2, ok, f"max fy_gap = {worst[0]:.3e} (<= 1e-8) at {worst[1]} frac={worst[2]}")


def test_criterion_03_prox_conjugate_oracles():
    """1000 random potentials against grid-search oracles.

    The two-stage scan (coarse bracket, fine pass at the stated
    resolution) equals the full fine grid because the scanned objective is
    convex (prox) or concave (conjugate) in the scan variable.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_prox = 0.0
    worst_conj = 0.0
    for _ in range(1000):
        a = rng.uniform(0.0, 3.0)
        g = rng.uniform(0.3, 5.0)
        q = rng.uniform(1.5, 4.0)
        gamma = rng.uniform(0.05, 10.0)
        s = rng.uniform(-8.0, 8.0)
        psi = scalar_potential(a, g, q)

        box = abs(s) + 1.0
        coarse = np.linspace(-box, box, 20001)
        obj = 0.5 / gamma * (coarse - s) ** 2 + psi(coarse)
        i = int(np.argmin(obj))
        lo, hi = coarse[max(i - 1, 0)], coarse[min(i + 1, 20000)]
        fine = np.linspace(lo, hi, max(int((hi - lo) / 1e-6) + 2, 3))
        obj = 0.5 / gamma * (fine - s) ** 2 + psi(fine)
        oracle_prox = float(fine[np.argmin(obj)])
        prox = SitePotential([a], [g], q, 0.0, 0.0).prox(gamma, np.array([s]))[0]
        worst_prox = max(worst_prox, abs(prox - oracle_prox))

        xi = rng.uniform(-6.0, 6.0)
        reach = (max(abs(xi) - a, 0.0) / g) ** (1.0 / (q - 1.0)) + 1.0
        coarse = np.linspace(-reach, reach, 20001)
        vals = xi * coarse - psi(coarse)
        i = int(np.argmax(vals))
        lo, hi = coarse[max(i - 1, 0)], coarse[min(i + 1, 20000)]
        fine = np.linspace(lo, hi, max(int((hi - lo) / 1e-6) + 2, 3))
        oracle_conj = float(np.max(xi * fine - psi(fine)))
        conj, _ = edge_conjugate_pair(a, 0.0, g, q, np.array([xi]))
        worst_conj = max(worst_conj, abs(conj[0] - oracle_conj))

    elapsed = time.perf_counter() - t0
    ok = worst_prox <= 1e-5 and worst_conj <= 1e-4 and elapsed < 30.0
    _report(
        3, ok,
        f"1000 tuples: prox err {worst_prox:.2e} (<=1e-5), "
        f"conj err {worst_conj:.2e} (<=1e-4), {elapsed:.1f}s (<30s)",
    )


def test_criterion_04_manufactured_benchmark_order():
    """linear_wave error vs exact modal solution halves per tau halving."""
    t0 = time.perf_counter()
    ratios_all = []
    for nu in (0.0, 1.0):
        spec, exact = build_linear_wave(nu)
        errs = []
        for k in range(5):
            tau = 0.05 / 2**k
            traj = run(spec, tau, inner_tol=INNER_TOL)
            sq = sum(
                tau * h_norm(traj.U[n].values - exact(traj.times[n]).values, spec.grid.h) ** 2
                for n in range(1, traj.n_steps + 1)
            )
            errs.append(np.sqrt(sq))
        ratios_all.append([e0 / e1 for e0, e1 in zip(errs, errs[1:])])
    flat = [r for rs in ratios_all for r in rs]
    elapsed = time.perf_counter() - t0
    ok = all(1.6 <= r <= 2.4 for r in flat) and elapsed < 30.0
    _report(
        4, ok,
        f"L2-in-time error ratios per halving nu=0: "
        f"{['%.2f' % r for r in ratios_all[0]]}, nu=1: "
        f"{['%.2f' % r for r in ratios_all[1]]} (2.0 +/- 0.4; "
        f"{elapsed:.1f}s < 30s)",
    )


def test_criterion_05_stick_condition():
    """Below-threshold initial data stay put for 1000 steps."""
    t0 = time.perf_counter()
    probe = build_p3(P3Params(force_amplitude=0.0))
    g = probe.grid
    u0 = 0.0005 * np.sin(np.pi * g.interior_x / g.length)
    from proxdyn.core import energy_grad

    drive = energy_grad(probe, 0.0, u0)
    assert np.max(np.abs(drive)) <= 1.0  # nodewise subgradient condition
    spec = build_p3(P3Params(force_amplitude=0.0, u0=u0))
    traj = run(spec, 0.001, inner_tol=INNER_TOL)
    worst = max(
        h_norm(traj.U[n].values - u0, g.h) for n in range(traj.n_steps + 1)
    )
    elapsed = time.perf_counter() - t0
    ok = traj.n_steps == 1000 and worst <= 1e-8 and elapsed < 10.0
    _report(
        5, ok,
        f"stick over 1000 steps: max |U^n - u0|_h = {worst:.3e} (<=1e-8; "
        f"{elapsed:.1f}s < 10s)",
    )


def test_criterion_06_energy_monotonicity(edi_runs):
    """No forcing, no perturbation, time-independent E: the total discrete
    energy is non-increasing up to the lambda*tau slack."""
    worst = -np.inf
    checked = 0
    runs, _ = edi_runs
    cases = [(m, f) for m in ("p1", "linear_wave") for f in (4, 8, 16)]
    specs = {(m, f): runs[(m, f)] for m, f in cases}
    # P3 without its force has a time-independent energy as well.
    p3_spec = build_p3(P3Params(force_amplitude=0.0))
    for frac in (4, 8, 16):
        tau = admissible_tau(p3_spec, min(tau_max(p3_spec), 1.0) / frac)
        traj = run(p3_spec, tau, inner_tol=INNER_TOL)
        specs[("p3_noforce", frac)] = (p3_spec, traj, None)
    for (model, frac), (spec, traj, _) in specs.items():
        lam = spec.energy.lambda_conv
        h = spec.grid.h
        vel = velocities(traj)
        prev = 0.5 * h_norm(vel[0], h) ** 2 + energy_total(spec, 0.0, traj.U[0].values)
        for n, rep in enumerate(traj.reports, start=1):
            total = rep.kinetic_after + rep.energy_after
            slack = lam * rep.tau * rep.tau * h_norm(vel[n], h) ** 2 + 1e-8
            worst = max(worst, total - prev - slack)
            prev = total
            checked += 1
    ok = worst <= 0.0
    _report(6, ok, f"energy monotone over {checked} steps (worst excess {worst:.3e})")


def test_criterion_07_interpolant_deviation_decay(halving_families):
    """sup_U_dev and sup_V_dev shrink by >= 1.3 per halving on P2 and P3."""
    details = []
    ok = True
    for model in ("p2", "p3"):
        spec, runs = halving_families[model]
        sups = [deviation_norms(traj) for _, traj in runs]
        u_ratios = [a[0] / b[0] for a, b in zip(sups, sups[1:])]
        v_ratios = [a[1] / b[1] for a, b in zip(sups, sups[1:])]
        ok = ok and all(r >= 1.3 for r in u_ratios + v_ratios)
        details.append(
            f"{model}: U {['%.2f' % r for r in u_ratios]} V {['%.2f' % r for r in v_ratios]}"
        )
    _report(7, ok, "deviation decay per halving (>=1.3): " + "; ".join(details))


def test_criterion_08_apriori_stability(halving_families):
    """Monitors stay within 2x the coarsest run's values + 1 over 4 levels."""
    ok = True
    details = []
    for model in MODELS:
        spec, runs = halving_families[model]
        reports = [apriori_monitor(traj, edi_scan(spec, traj)) for _, traj in runs]
        base = reports[0]
        for rep in reports:
            for field in ("sup_velocity", "sup_energy", "psi_accum", "psi_star_accum"):
                val, ref = getattr(rep, field), getattr(base, field)
                if not (np.isfinite(val) and val <= 2 * ref + 1):
                    ok = False
                    details.append(f"{model}.{field}={val:.3g} vs base {ref:.3g}")
        if not any(d.startswith(model) for d in details):
            details.append(f"{model} ok")
    _report(8, ok, "a priori bounds under halving: " + "; ".join(details))


def test_criterion_09_assumption_validator():
    """Every shipped builder validates; a broken spec is rejected."""
    all_pass = True
    for model in MODELS:
        report = validate_assumptions(_build(model), samples=40)
        all_pass = all_pass and report.passed

    from proxdyn.core import EnergySpec, PerturbationSpec, ProblemSpec, DissipationSpec

    g = SpatialGrid(17, 1.0 / 16)
    m = g.n_interior
    broken = ProblemSpec(
        grid=g,
        energy=EnergySpec(quad_op=SymBand(-laplacian_band(g))),
        dissipation=DissipationSpec(
            kind="separable",
            state_dep=lambda s: (np.ones(m), np.ones(m)),
            q=2.0, growth_c=0.4, growth_C=2.0,
        ),
        perturbation=PerturbationSpec(),
        force=None, horizon=1.0,
        u0=Field(np.zeros(m), g), v0=Field(np.zeros(m), g),
    )
    report = validate_assumptions(broken, samples=10)
    rejected = "quad_op_positivity" in {c.name for c in report.failures()}
    ok = all_pass and rejected
    _report(
        9, ok,
        f"builders validate ({all_pass}), indefinite operator rejected ({rejected})",
    )


def test_criterion_10_determinism(tmp_path):
    """Repeated runs of one config produce byte-identical outputs."""
    out = tmp_path / "det"
    cfg = parse_config_dict(
        {"model": "p2", "tau": 0.0625, "n_nodes": 33, "halvings": 1,
         "out_dir": str(out)}
    )
    names = ("trajectory.csv", "snapshots.csv", "convergence.csv")
    assert run_and_emit(cfg) == 0
    first = {n: (out / n).read_bytes() for n in names}
    first_summary = {
        k: v for k, v in json.loads((out / "summary.json").read_text()).items()
        if k != "wall_time_s"
    }
    assert run_and_emit(cfg) == 0
    same = all((out / n).read_bytes() == first[n] for n in names)
    second_summary = {
        k: v for k, v in json.loads((out / "summary.json").read_text()).items()
        if k != "wall_time_s"
    }
    ok = same and second_summary == first_summary
    _report(10, ok, f"byte-identical outputs on repeat ({', '.join(names)})")
