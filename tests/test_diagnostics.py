"""Energy-dissipation inequality scan, monitors, deviations, refinement."""

from dataclasses import replace

from math import sqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from proxdyn.core import (
    DissipationSpec,
    EnergySpec,
    PerturbationSpec,
    ProblemSpec,
    energy_total,
)
from proxdyn.diagnostics import (
    apriori_monitor,
    convergence_study,
    deviation_norms,
    edi_scan,
    energy_balance_residual,
)
from proxdyn.convex import SymBand
from proxdyn.errors import ConfigError, IncompleteTrajectory
from proxdyn.grid import Field, SpatialGrid, h_inner, h_norm, laplacian_band
from proxdyn.models import P2Params, P3Params, build_linear_wave, build_p2, build_p3
from proxdyn.stepper import (
    StepInput,
    Trajectory,
    average_force,
    incremental_minimize,
    run,
    step_operator,
)

from oracles import step_subgradient, velocities


def zero_spec(n=9):
    g = SpatialGrid(n, 1.0 / (n - 1))
    m = g.n_interior
    return ProblemSpec(
        grid=g,
        energy=EnergySpec(quad_op=SymBand(laplacian_band(g))),
        dissipation=DissipationSpec(
            kind="separable",
            state_dep=lambda s: (np.ones(m), np.ones(m)),
            q=2.0, growth_c=0.4, growth_C=2.0,
        ),
        perturbation=PerturbationSpec(),
        force=None, horizon=1.0,
        u0=Field(np.zeros(m), g), v0=Field(np.zeros(m), g),
    )


class TestEDIScan:
    def test_zero_trajectory(self):
        traj = run(zero_spec(), 0.1)
        for rec in edi_scan(traj.spec, traj):
            assert rec.residual == pytest.approx(0.0, abs=1e-14)
            assert rec.passed

    def test_damped_wave_inequality_holds(self):
        spec, _ = build_linear_wave(1.0, n_nodes=33)
        traj = run(spec, 1e-3)
        records = edi_scan(spec, traj)
        assert len(records) == 1000
        assert all(r.passed for r in records)
        # inequality direction: theорem gives residual <= per-step gaps
        assert max(r.residual for r in records) <= max(r.tol for r in records)

    def test_corrupted_subgradient_detected(self):
        # A +10% corruption of one stored subgradient must trip the record
        # at that step.  With rate-independent dissipation and a moving
        # state the pairing term is first order in the velocity, so the
        # corruption dominates the scheme's natural quadratic margin.
        g_probe = build_p3(P3Params(n_nodes=17, force_amplitude=0.0)).grid
        v0 = 3.0 * np.sin(np.pi * g_probe.interior_x / g_probe.length)
        spec = build_p3(
            P3Params(n_nodes=17, force_amplitude=0.0,
                     u0=np.zeros(g_probe.n_interior), v0=v0)
        )
        traj = run(spec, 0.01)
        k_bad = 0
        # Scaling eta^k by 1.1 raises Psi*_k = <eta^k, V^k>_h - Psi_k + fy_k
        # by 0.1 <eta^k, V^k>_h; the ledger carries Psi*_k, so corrupt it.
        eta, _ = step_subgradient(traj, k_bad + 1)
        pair = h_inner(eta, velocities(traj)[k_bad + 1], spec.grid.h)
        reports = list(traj.reports)
        reports[k_bad] = replace(
            reports[k_bad], psi_star=reports[k_bad].psi_star + 0.1 * pair
        )
        bad = replace(traj, reports=tuple(reports))
        records = edi_scan(spec, bad)
        assert not records[k_bad].passed

    def test_missing_report_rejected(self):
        spec, _ = build_linear_wave(1.0, n_nodes=17)
        traj = run(spec, 0.1)
        broken = replace(traj, reports=traj.reports[:-1])
        with pytest.raises(IncompleteTrajectory):
            edi_scan(spec, broken)
        with pytest.raises(IncompleteTrajectory):
            apriori_monitor(broken, edi_scan(spec, traj))

    def test_p3_with_time_dependent_energy(self):
        spec = build_p3(P3Params(n_nodes=33))
        traj = run(spec, 1.0 / 64)
        assert all(r.passed for r in edi_scan(spec, traj))

    def test_variable_steps_weigh_each_step_by_its_length(self):
        # Two steps of p3, at tau and then tau/2, each from its own
        # V^{n-1}: the ledger weighs a step's dissipation by its own length
        # and its convexity slack by that length squared (a soft spring
        # leaves p3's double well nonconvex, lambda > 0).
        spec = build_p3(P3Params(n_nodes=9, horizon=0.25, stiffness=0.01))
        lam, g = spec.energy.lambda_conv, spec.grid
        assert lam > 0.0
        times, U, reports = [0.0], [spec.u0], []
        u_prev, v_prev = spec.u0.values, spec.v0.values
        for tau in (1 / 16, 1 / 32):
            t_prev, t_next = times[-1], times[-1] + tau
            f_avg = average_force(spec.force_values, t_prev, t_next) if spec.force else 0.0
            inp = StepInput(tau=tau, t_prev=t_prev, t_next=t_next, v=u_prev,
                            w=u_prev - tau * v_prev,
                            zeta=spec.perturbation(t_next, u_prev, v_prev, g) - f_avg)
            u, _, step, _ = incremental_minimize(spec, inp, step_operator(spec, tau))
            assert step.tau == tau
            times.append(t_next)
            U.append(Field(u, g))
            reports.append(step)
            u_prev, v_prev = u, (u - u_prev) / tau
        traj = Trajectory(spec=spec, times=np.array(times), U=tuple(U), reports=tuple(reports),
                          energy0=energy_total(spec, 0.0, spec.u0.values))
        r1, r2 = reports
        records = edi_scan(spec, traj)
        assert records[-1].psi_accum == r1.tau * r1.psi + r2.tau * r2.psi
        assert records[-1].psi_star_accum == r1.tau * r1.psi_star + r2.tau * r2.psi_star
        assert records[-1].slack_h == sum(2.0 * lam * r.tau * r.tau * r.kinetic_after for r in reports)
        assert all(rec.passed for rec in records)
        rec = records[-1]
        assert energy_balance_residual(spec, traj, 3 / 32) == abs(rec.residual + rec.slack_h)
        v1 = (U[1].values - U[0].values) / r1.tau
        v2 = (U[2].values - U[1].values) / r2.tau
        want = max(h_norm(v1 - spec.v0.values, g.h), h_norm(v2 - v1, g.h))
        assert deviation_norms(traj)[1] == want
        with pytest.raises(ConfigError, match="equal steps"):
            convergence_study(traj, 1)


class TestLedger:
    """The stepper's per-step terms against a recomputation from the stored
    trajectory (state U^{n-1}, velocity V^n, and the subgradient eta^n and
    forcing S^n recovered from U)."""

    @pytest.mark.parametrize(
        "spec, tau, live",
        [
            # separable; the force enters a time-dependent energy
            (build_p3(P3Params(n_nodes=17)), 1 / 32, "energy_rate"),
            # composite, non-quadratic; the perturbation does work
            (build_p2(P2Params(q=1.5, n_nodes=17, horizon=1 / 8)), 1 / 64, "work"),
        ],
        ids=["p3", "p2_q1.5"],
    )
    def test_reports_match_recomputed_terms(self, spec, tau, live):
        traj = run(spec, tau)
        assert any(getattr(rep, live) != 0.0 for rep in traj.reports)
        h = spec.grid.h
        vel = velocities(traj)
        for k, rep in enumerate(traj.reports, start=1):
            state = traj.U[k - 1]
            v_k = vel[k]
            psi = spec.psi_value(state, v_k)
            eta, forcing = step_subgradient(traj, k)
            psi_star = h_inner(eta, v_k, h) - psi + rep.fy_gap
            # E_t depends on t through lin_part only, so the integral of
            # dE_t(U^{k-1})/dt over the step is this difference.
            energy_rate = energy_total(spec, traj.times[k], state.values) - energy_total(
                spec, traj.times[k - 1], state.values
            )
            work = tau * h_inner(forcing, v_k, h)
            for got, want in (
                (rep.psi, psi),
                (rep.psi_star, psi_star),
                (rep.energy_rate, energy_rate),
                (rep.work, work),
            ):
                assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


class TestEnergyBalance:
    def test_zero_at_initial_time(self):
        spec, _ = build_linear_wave(1.0, n_nodes=17)
        traj = run(spec, 0.1)
        assert energy_balance_residual(spec, traj, 0.0) == 0.0

    def test_zero_trajectory(self):
        traj = run(zero_spec(), 0.1)
        assert energy_balance_residual(traj.spec, traj, 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_residual_shrinks_with_tau(self):
        spec, _ = build_linear_wave(1.0, n_nodes=33)
        res = []
        for tau in (0.02, 0.01, 0.005):
            traj = run(spec, tau)
            res.append(energy_balance_residual(spec, traj, 1.0))
        assert res[0] / res[1] >= 1.3
        assert res[1] / res[2] >= 1.3

    @pytest.mark.parametrize(
        "spec",
        [
            build_p3(P3Params(n_nodes=33, horizon=0.5)),
            build_linear_wave(1.0, n_nodes=33, horizon=0.5, damping="mass")[0],
            build_linear_wave(1.0, n_nodes=33, horizon=0.5, damping="gradient")[0],
        ],
        ids=["p3", "wave_mass", "wave_gradient"],
    )
    def test_equality_defect_first_order(self, spec):
        # The limit satisfies the energy-dissipation equality; the discrete
        # defect at T decays at (nearly) first order in tau.
        big_t = spec.horizon
        defects = [
            energy_balance_residual(spec, run(spec, big_t / k), big_t) for k in (8, 16, 32, 64)
        ]
        orders = np.log2(np.array(defects[:-1]) / np.array(defects[1:]))
        assert np.all(orders >= 0.7), orders

    def test_requires_grid_node(self):
        spec, _ = build_linear_wave(1.0, n_nodes=17)
        traj = run(spec, 0.1)
        with pytest.raises(ConfigError):
            energy_balance_residual(spec, traj, 0.123)


class TestAprioriMonitor:
    def test_zero_trajectory(self):
        traj = run(zero_spec(), 0.1)
        rep = apriori_monitor(traj, edi_scan(traj.spec, traj))
        assert rep.sup_velocity == 0.0
        assert rep.sup_energy == 0.0
        assert rep.psi_accum == 0.0
        assert rep.psi_star_accum == pytest.approx(0.0, abs=1e-15)
        assert rep.all_finite

    def test_p3_stable_under_halving(self):
        spec = build_p3(P3Params(n_nodes=17))
        trajs = [run(spec, tau) for tau in (1 / 16, 1 / 32, 1 / 64)]
        reports = [apriori_monitor(traj, edi_scan(spec, traj)) for traj in trajs]
        base = reports[0]
        for rep in reports:
            assert rep.all_finite
            assert rep.sup_velocity <= 2 * base.sup_velocity + 1
            assert rep.sup_energy <= 2 * base.sup_energy + 1
            assert rep.psi_accum <= 2 * base.psi_accum + 1
            assert rep.psi_star_accum <= 2 * base.psi_star_accum + 1


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(-1e140, 1e140, allow_nan=False), min_size=1, max_size=40),
    st.floats(1e-6, 1.0),
)
def test_velocity_norm_survives_the_kinetic_energy(values, h):
    # The stepper keeps 1/2 |V^n|_h^2; apriori_monitor takes |V^n|_h back
    # as sqrt(2 kinetic_after), which is exact away from under- and
    # overflow: sqrt(RN(x^2)) = x in binary64.
    x = h_norm(np.array(values), h)
    assume(1e-150 < x < 1e150)
    kinetic = 0.5 * x**2  # StepReport.kinetic_after
    assert sqrt(2.0 * kinetic) == x


class TestDeviationNorms:
    def test_constant_trajectory(self):
        traj = run(zero_spec(), 0.1)
        assert deviation_norms(traj) == (0.0, 0.0)

    def test_single_step_attains_increment(self):
        # One step from rest: the sup of the linear-vs-right-constant gap is
        # the full first increment, attained just above t0.
        spec, _ = build_linear_wave(0.0, n_nodes=17)
        traj = run(spec, 0.5)
        sup_u, sup_v = deviation_norms(traj)
        du = traj.U[1].values - traj.U[0].values
        q = spec.dissipation.q
        want = (spec.grid.h * np.sum(np.abs(du) ** q)) ** (1 / q)
        first = (spec.grid.h * np.sum(np.abs(du) ** q)) ** (1 / q)
        assert sup_u >= first - 1e-15

    def test_halving_decreases_deviations(self):
        spec, _ = build_linear_wave(1.0, n_nodes=33)
        sups = [deviation_norms(run(spec, tau)) for tau in (0.02, 0.01, 0.005)]
        for (u0, v0), (u1, v1) in zip(sups, sups[1:]):
            assert u1 < u0
            assert v1 < v0


class TestConvergenceStudy:
    def test_linear_wave_first_order(self):
        spec, _ = build_linear_wave(1.0, n_nodes=33)
        table = convergence_study(run(spec, 0.02), 3)
        assert len(table.taus) == 4
        assert len(table.cauchy) == 3
        for rate in table.rates:
            assert rate == pytest.approx(1.0, abs=0.3)

    def test_zero_problem(self):
        table = convergence_study(run(zero_spec(), 0.25), 2)
        assert all(c == 0.0 for c in table.cauchy)
        assert all(u == 0.0 for u in table.sup_u_devs)

    def test_p3_cauchy_monotone(self):
        spec = build_p3(P3Params(n_nodes=17))
        table = convergence_study(run(spec, 1 / 16), 3)
        assert all(c1 < c0 for c0, c1 in zip(table.cauchy, table.cauchy[1:]))

    def test_p2_deviations_decay(self):
        spec = build_p2(P2Params(n_nodes=17))
        table = convergence_study(run(spec, 1 / 8), 2)
        assert all(u1 < u0 for u0, u1 in zip(table.sup_u_devs, table.sup_u_devs[1:]))

    def test_tau0_guard(self):
        # well_scale = 4 leaves a defect of ~3.08, so tau_max is ~0.162.
        spec = build_p3(P3Params(n_nodes=17, well_scale=4.0))
        with pytest.raises(ConfigError):
            convergence_study(run(spec, 0.5), 2)
        with pytest.raises(ConfigError):
            convergence_study(run(spec, 1 / 16), 0)
