"""Shipped application problems: builder contracts and model physics."""

import numpy as np
import pytest

from proxdyn.core import (
    DissipationSpec,
    EnergySpec,
    PerturbationSpec,
    ProblemSpec,
    energy_grad,
    energy_total,
    tau_max,
    validate_assumptions,
)
from oracles import (
    band_of,
    biharmonic_clamped_dense,
    dense_of,
    gradient_consistency_error,
    gradient_matrix,
    p1_double_well,
    p3_smooth_energy,
    phase_indicator,
    velocities,
)
from proxdyn.errors import ConfigError, EvalError
from proxdyn.grid import Field, h_inner, h_norm
from proxdyn.models import (
    P1Params,
    P2Params,
    P3Params,
    build_linear_wave,
    build_p1,
    build_p2,
    build_p3,
    phase_indicator_slope,
)
from proxdyn.stepper import run


class TestBuilderValidation:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: build_p1(P1Params(n_nodes=33)),
            lambda: build_p2(P2Params(n_nodes=33)),
            lambda: build_p3(P3Params(n_nodes=33)),
            lambda: build_linear_wave(1.0, n_nodes=33)[0],
            lambda: build_linear_wave(0.0, n_nodes=33)[0],
            lambda: build_linear_wave(1.0, n_nodes=33, damping="gradient")[0],
        ],
        ids=["p1", "p2", "p3", "wave_nu1", "wave_nu0", "wave_grad"],
    )
    def test_every_builder_passes_assumptions(self, factory):
        spec = factory()
        report = validate_assumptions(spec, 40)
        assert report.passed, [(c.name, c.worst) for c in report.failures()]

    def test_parameter_guards(self):
        with pytest.raises(ConfigError):
            build_p1(P1Params(mu=0.0))
        with pytest.raises(ConfigError):
            build_p2(P2Params(p=2.5))
        with pytest.raises(ConfigError):
            build_p2(P2Params(q=1.0))
        with pytest.raises(ConfigError):
            build_p3(P3Params(q=1.5))
        with pytest.raises(ConfigError):
            build_linear_wave(-1.0)

    def test_smooth_gradients_match_finite_differences(self):
        for spec in (
            build_p1(P1Params(n_nodes=17)),
            build_p2(P2Params(n_nodes=17)),
            build_p3(P3Params(n_nodes=17)),
            build_linear_wave(1.0, n_nodes=17)[0],
        ):
            assert gradient_consistency_error(spec, samples=3) <= 1e-6

    def test_structured_energy_matches_closed_form(self):
        # The decomposition is E2 up to its constant: h (m+1)/rho for p1's
        # double well on the edges, scale h m for p3's on the nodes.
        p1, p3 = P1Params(n_nodes=17, rho=2.0), P3Params(n_nodes=17, well_scale=0.75)
        rng = np.random.default_rng(0)
        for params, spec in ((p1, build_p1(p1)), (p3, build_p3(p3))):
            g = spec.grid
            m = g.n_interior
            a = dense_of(spec.energy.quad_op)
            for _ in range(5):
                u = rng.standard_normal(m)
                t = rng.uniform(0, spec.horizon)
                quad = 0.5 * g.h * float(u @ (a @ u))
                if params is p1:
                    want = quad + p1_double_well(p1, g, u) - g.h * (m + 1) / p1.rho
                else:
                    want = quad + p3_smooth_energy(p3, g, t, u) - p3.well_scale * g.h * m
                got = energy_total(spec, t, u)
                assert abs(got - want) <= 1e-12 * abs(want)


class TestP1:
    def test_lambda_certificate_grid_dependence(self):
        # Strong capillarity absorbs the double-well concavity entirely;
        # weak capillarity leaves a positive certified defect and a finite
        # step bound.
        assert build_p1(P1Params(n_nodes=65, mu=0.15)).energy.lambda_conv == 0.0
        weak = build_p1(P1Params(n_nodes=65, mu=0.02))
        assert weak.energy.lambda_conv > 0.0
        assert tau_max(weak) == pytest.approx(1.0 / (2 * weak.energy.lambda_conv))

    def test_defect_is_sharp(self):
        # mu = 0.02 on 33 nodes: lambda is the sharp -lambda_min(K)/2 =
        # 64.39, K = mu A4 - 4 L assembled densely; tau_max is then the
        # lemma's bound 1/(2 lambda).
        spec = build_p1(P1Params(n_nodes=33, mu=0.02))
        d = gradient_matrix(spec.grid)
        k = 0.02 * biharmonic_clamped_dense(spec.grid) - 4.0 * d.T @ d
        lam = spec.energy.lambda_conv
        assert lam == pytest.approx(-0.5 * np.linalg.eigvalsh(k)[0], rel=1e-10)
        assert lam == pytest.approx(64.39, abs=0.005)
        assert tau_max(spec) == pytest.approx(1.0 / (2 * lam), rel=1e-15)

    def test_well_bottom_sawtooth_sticks(self):
        # Gradient at the well bottoms (Du = +/-1) kills the stress; with a
        # strong enough phase indicator the capillarity force stays inside
        # the dry-friction threshold, so the state is stationary.
        from proxdyn.stepper import admissible_tau

        p = P1Params(n_nodes=9, mu=1e-3, nu=1.0, alpha=2.0, horizon=0.02)
        spec = build_p1(p)
        g = spec.grid
        x = g.interior_x
        big_l = g.length
        u0 = np.where(x <= big_l / 2, x, big_l - x)  # hat: Du = +/-1
        d = spec.ops.grad
        e = d @ u0
        # interior edges sit at the well bottoms
        assert np.max(np.abs(np.abs(e[1:-1]) - 1.0)) < 1e-12

        # nodewise stick check: driving force must be representable as
        # -D^T(a * s) with |s| <= 1 (1D: cumulative sums, one free constant)
        drive = energy_grad(spec, 0.0, u0)
        a_e, _ = spec.dissipation.coefficients(Field(u0, g))
        lam0 = np.concatenate([[0.0], -np.cumsum(g.h * drive)])
        t_lo = np.max(-a_e - lam0)
        t_hi = np.min(a_e - lam0)
        assert t_lo <= t_hi  # feasible multiplier exists

        spec = ProblemSpec(
            grid=g, energy=spec.energy, dissipation=spec.dissipation,
            perturbation=spec.perturbation, force=None, horizon=p.horizon,
            u0=Field(u0, g), v0=Field(np.zeros(g.n_interior), g),
        )
        traj = run(spec, admissible_tau(spec, tau_max(spec) / 2))
        drift = max(h_norm(traj.U[n].values - u0, g.h) for n in range(traj.n_steps + 1))
        assert drift <= 1e-7

    def _manual_alpha_zero(self, spec, p):
        g = spec.grid
        m = g.n_interior
        d = gradient_matrix(g)
        lap = d.T @ d
        return ProblemSpec(
            grid=g,
            energy=EnergySpec(
                quad_op=band_of(p.mu / p.rho * biharmonic_clamped_dense(g)),
                quad_shift=band_of(-4.0 * lap),
                site_quartic=1.0,
            ),
            dissipation=DissipationSpec(
                kind="grad_composite",
                state_dep=lambda s: (np.zeros(m + 1), np.zeros(m + 1)),
                q=2.0, visc=p.nu,
                growth_c=0.5 * p.nu, growth_C=0.5 * p.nu,
            ),
            perturbation=PerturbationSpec(),
            force=None, horizon=p.horizon,
            u0=spec.u0, v0=spec.v0,
        )

    def test_alpha_zero_matches_hand_assembly(self):
        # Model-reduction consistency: the builder wiring for alpha = 0 must
        # reproduce an independently assembled visco-capillarity problem,
        # here one with a convexity defect (mu = 0.05: lambda ~ 15.1, tau_max
        # ~ 0.033), which each derives from its own quadratic part.
        p = P1Params(n_nodes=9, alpha=0.0, horizon=0.25, mu=0.05)
        spec = build_p1(p)
        manual = self._manual_alpha_zero(spec, p)
        assert spec.energy.lambda_conv > 0.0
        assert manual.energy.lambda_conv == pytest.approx(spec.energy.lambda_conv, rel=1e-12)
        tau = 0.0125
        t1 = run(spec, tau)
        t2 = run(manual, tau)
        for n in range(t1.n_steps + 1):
            assert h_norm(t1.U[n].values - t2.U[n].values, spec.grid.h) <= 1e-10

    def test_phase_indicator_bounds(self):
        e = np.linspace(-30, 30, 1001)
        slope = phase_indicator_slope(0.7, e)
        assert np.all(np.abs(slope) <= 0.7)
        # second derivative bounded (finite differences stay bounded)
        dd = np.diff(slope) / np.diff(e)
        assert np.all(np.abs(dd) <= 0.7 + 1e-9)

    def test_total_variation_accounting(self):
        # The 1-homogeneous dissipation accumulated along the trajectory
        # equals the discrete total variation of the phase indicator up to a
        # chain-rule error that shrinks when tau is halved.
        p = P1Params(n_nodes=17, horizon=0.5, alpha=1.0)
        spec = build_p1(p)
        g = spec.grid
        d = spec.ops.grad

        def defect(tau):
            traj = run(spec, tau)
            vel = velocities(traj)
            acc = 0.0
            var = 0.0
            for n in range(1, traj.n_steps + 1):
                e_prev = d @ traj.U[n - 1].values
                a_e, _ = spec.dissipation.coefficients(traj.U[n - 1])
                dv = d @ vel[n]
                acc += tau * g.h * float(np.sum(a_e * np.abs(dv)))
                e_new = d @ traj.U[n].values
                var += g.h * float(
                    np.sum(np.abs(phase_indicator(p.alpha, e_new) - phase_indicator(p.alpha, e_prev)))
                )
            return abs(acc - var)

        d1 = defect(0.025)
        d2 = defect(0.0125)
        assert d2 <= 0.75 * d1  # first-order chain-rule error


class TestP2:
    def test_degenerate_case_matches_gradient_damped_wave(self):
        # g1 = 1, g2 = 0, q = 2, b = 0 is exactly the linear wave with
        # gradient damping; trajectories agree to 1e-10 and track the modal
        # ODE solution at first order.
        n = 33
        p = P2Params(
            q=2.0, g1=lambda s: np.ones_like(np.asarray(s, float)),
            g2=lambda s: np.zeros_like(np.asarray(s, float)),
            g1_min=1.0, g1_max=1.0, g2_max=0.0,
            b=lambda s: np.zeros_like(np.asarray(s, float)),
            n_nodes=n, u0_amplitude=1.0,
        )
        spec2 = build_p2(p)
        wave, exact = build_linear_wave(1.0, n_nodes=n, damping="gradient")
        tau = 0.01
        t_p2 = run(spec2, tau)
        t_w = run(wave, tau)
        for k in range(t_p2.n_steps + 1):
            assert h_norm(t_p2.U[k].values - t_w.U[k].values, spec2.grid.h) <= 1e-10
        err = max(
            h_norm(t_w.U[k].values - exact(t_w.times[k]).values, wave.grid.h)
            for k in range(t_w.n_steps + 1)
        )
        assert err < 0.05  # O(tau) on a smooth linear problem

    def test_default_coefficients_bounded(self):
        p = P2Params()
        s = np.linspace(-50, 50, 1001)
        g1 = p.g1(s)
        g2 = p.g2(s)
        assert np.all((1.0 <= g1) & (g1 <= 2.0))
        assert np.all((0.0 <= g2) & (g2 < 1.0))

    def test_zero_data_stays_zero_despite_perturbation(self):
        spec = build_p2(P2Params(n_nodes=17, u0_amplitude=0.0))
        traj = run(spec, 0.1)
        for n in range(traj.n_steps + 1):
            assert np.all(traj.U[n].values == 0.0)

    def test_perturbation_growth_exponent(self):
        spec = build_p2(P2Params(n_nodes=17, p=1.5))
        g = spec.grid
        out = spec.perturbation(0.0, np.full(g.n_interior, 4.0), np.zeros(g.n_interior), g)
        assert out == pytest.approx(np.full(g.n_interior, 2.0))  # 4^0.5

    def test_general_exponent_damping(self):
        from proxdyn.diagnostics import edi_scan

        for q in (1.5, 3.0):
            spec = build_p2(P2Params(n_nodes=17, q=q))
            traj = run(spec, 1 / 16)
            assert all(r.passed for r in edi_scan(spec, traj))
            assert max(r.fy_gap for r in traj.reports) <= 1e-8


class TestP3:
    def test_stick_below_threshold(self):
        # Dry friction holds a small bump for the whole run when the total
        # driving force is nodewise below the unit threshold.
        n = 65
        base = build_p3(P3Params(n_nodes=n, force_amplitude=0.0))
        g = base.grid
        u0 = 0.0005 * np.sin(np.pi * g.interior_x / g.length)
        drive = energy_grad(base, 0.0, u0)
        assert np.max(np.abs(drive)) <= 1.0
        spec = build_p3(P3Params(n_nodes=n, force_amplitude=0.0, u0=u0))
        traj = run(spec, 0.001, max_iter=2000)
        for k in range(traj.n_steps + 1):
            assert h_norm(traj.U[k].values - u0, g.h) <= 1e-8

    def test_kick_dissipates_kinetic_energy(self):
        # Both the power-law and dry-friction channels drain a pure kick;
        # kinetic energy exchanges with the well potential along the way, so
        # the theorem-backed monotone quantity is the total energy.
        n = 33
        g_probe = build_p3(P3Params(n_nodes=n, force_amplitude=0.0)).grid
        v0 = 3.0 * np.sin(np.pi * g_probe.interior_x / g_probe.length)
        spec = build_p3(
            P3Params(n_nodes=n, force_amplitude=0.0,
                     u0=np.zeros(g_probe.n_interior), v0=v0)
        )
        traj = run(spec, 0.01)
        total = [r.kinetic_after + r.energy_after for r in traj.reports]
        assert all(b <= a + 1e-10 for a, b in zip(total, total[1:]))
        kin = [r.kinetic_after for r in traj.reports]
        assert kin[-1] < 0.15 * kin[0]

    def test_time_dependent_energy_terms(self):
        p = P3Params(n_nodes=17)
        spec = build_p3(p)
        g = spec.grid
        u = np.linspace(-0.5, 0.5, g.n_interior)
        # d/dt E_t(u) = -<f'(t), u>_h against finite differences in t
        eps = 1e-6
        fd = (energy_total(spec, 0.3 + eps, u) - energy_total(spec, 0.3 - eps, u)) / (2 * eps)
        f_dt = -p.force_amplitude * p.force_frequency * np.sin(p.force_frequency * 0.3)
        want = -h_inner(f_dt * np.sin(np.pi * g.interior_x / g.length), u, g.h)
        assert want == pytest.approx(fd, rel=1e-6)

    def test_tau_max_pinned(self):
        # lambda = max(0, 2 scale - lambda_1(A)/2), lambda_1(A) = (4/h^2)
        # sin^2(pi h/2) for unit stiffness: none at the default scale 1,
        # 3.0662 at scale 4 (65 nodes).
        spec = build_p3(P3Params())
        assert spec.energy.lambda_conv == 0.0
        assert tau_max(spec) == float("inf")
        spec = build_p3(P3Params(well_scale=4.0))
        h = spec.grid.h
        lam1 = 4.0 / h**2 * np.sin(np.pi * h / 2) ** 2
        assert spec.energy.lambda_conv == pytest.approx(8.0 - lam1 / 2, rel=1e-12)
        assert spec.energy.lambda_conv == pytest.approx(3.0662, abs=5e-5)
        assert tau_max(spec) == pytest.approx(0.16307, abs=5e-6)

    @pytest.mark.parametrize("tau", [0.25, 0.5])
    def test_large_steps_certify(self, tau):
        # The default energy is convex (lambda = 0), so no step bound
        # applies, and steps of T/4 and T/2 keep every certificate.
        from proxdyn.diagnostics import edi_scan

        spec = build_p3(P3Params())
        traj = run(spec, tau)
        assert max(r.fy_gap for r in traj.reports) <= 1e-8
        assert all(r.passed for r in edi_scan(spec, traj))

    def test_nan_well_scale_rejected(self):
        # nan passes `well_scale <= 0`; the energy's finiteness check
        # refuses it.
        with pytest.raises(ConfigError, match="finite"):
            build_p3(P3Params(n_nodes=17, well_scale=float("nan")))

    def test_heterogeneous_stiffness(self):
        spec = build_p3(P3Params(n_nodes=17, stiffness=lambda x: 1.0 + x))
        report = validate_assumptions(spec, 20)
        assert report.passed

    def test_general_exponent_runs(self):
        # q = 3 exercises the power-root prox; Psi is not strongly convex
        # there, so the separable solver stops on the closed-form gap itself.
        from proxdyn.diagnostics import edi_scan
        from proxdyn.stepper import DEFAULT_INNER_TOL

        spec = build_p3(P3Params(n_nodes=17, q=3.0))
        traj = run(spec, 1 / 32)
        assert all(r.passed for r in edi_scan(spec, traj))
        assert max(r.fy_gap for r in traj.reports) <= 10 * DEFAULT_INNER_TOL


class TestUserForce:
    def test_each_evaluation_calls_the_user_force_once(self):
        calls = []

        def force(t):
            calls.append(t)
            return np.full(7, t)

        for spec in (
            build_p1(P1Params(n_nodes=9, force=force)),
            build_p2(P2Params(n_nodes=9, force=force)),
        ):
            calls.clear()
            np.testing.assert_array_equal(spec.force_values(0.5) != 0.0, True)
            assert calls == [0.5]
        spec = build_p3(P3Params(n_nodes=9, force=force))
        calls.clear()
        spec.energy.lin_part(0.25)
        spec.energy.lin_part(0.75)
        assert calls == [0.25, 0.75]

    @pytest.mark.parametrize(
        "bad", [np.full(7, np.nan), np.zeros(3), 1.0], ids=["nan", "short", "scalar"]
    )
    @pytest.mark.parametrize("build, params", [(build_p1, P1Params), (build_p2, P2Params),
                                               (build_p3, P3Params)], ids=["p1", "p2", "p3"])
    def test_malformed_force_fails_fast(self, build, params, bad):
        # On p3 the force enters through E2's linear part: a NaN there used
        # to pass the quartic prox as its shift and only fail the step after
        # its inner iteration cap, with max_iter = 2 as an InnerSolverFailed.
        spec = build(params(n_nodes=9, horizon=0.25, force=lambda t: bad))
        with pytest.raises(EvalError, match=r"force.* t="):
            run(spec, 1 / 32, max_iter=2)


class TestLinearWave:
    def test_periodicity_without_damping(self):
        spec, exact = build_linear_wave(0.0, n_nodes=33)
        omega = np.sqrt(spec.energy.quad_op.eigenvalue(0))
        t_star = 2 * np.pi / omega
        np.testing.assert_allclose(exact(t_star).values, spec.u0.values, atol=1e-10)

    def test_undamped_energy_nearly_conserved(self):
        spec, _ = build_linear_wave(0.0, n_nodes=33)
        traj = run(spec, 0.005)
        vals = [r.kinetic_after + r.energy_after for r in traj.reports]
        assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))  # dissipates
        assert vals[-1] >= vals[0] * 0.9  # but only at O(tau)

    def test_overdamped_branch(self):
        spec, exact = build_linear_wave(50.0, n_nodes=9, horizon=0.5)
        # heavy damping: monotone decay, no oscillation
        c = [float(exact(t).values[0] / spec.u0.values[0]) for t in np.linspace(0, 0.5, 20)]
        assert all(b <= a + 1e-12 for a, b in zip(c, c[1:]))
        assert c[0] == pytest.approx(1.0)

    def test_exact_solution_solves_modal_ode(self):
        nu = 1.0
        spec, exact = build_linear_wave(nu, n_nodes=17)
        omega_sq = spec.energy.quad_op.eigenvalue(0)
        eps = 1e-5
        for t in (0.2, 0.5, 0.8):
            c = lambda s: exact(s).values[3] / spec.u0.values[3]
            cdd = (c(t + eps) - 2 * c(t) + c(t - eps)) / eps**2
            cd = (c(t + eps) - c(t - eps)) / (2 * eps)
            assert cdd + nu * cd + omega_sq * c(t) == pytest.approx(0.0, abs=1e-4)
