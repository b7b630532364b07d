"""Per-step minimization and trajectory runs."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proxdyn.core import (
    DissipationSpec,
    EnergySpec,
    PerturbationSpec,
    ProblemSpec,
)
from proxdyn import convex
from proxdyn.cli import parse_config_dict, run_and_emit
from proxdyn.convex import SymBand
from proxdyn.errors import ConfigError, InnerSolverFailed, StepSizeTooLarge
from proxdyn.grid import Field, SpatialGrid, h_inner, h_norm, laplacian_band
from proxdyn.models import (
    P1Params,
    P2Params,
    P3Params,
    build_linear_wave,
    build_p1,
    build_p2,
    build_p3,
)
from proxdyn.stepper import (
    StepInput,
    admissible_tau,
    average_force,
    incremental_minimize,
    run,
    step_operator,
)

from oracles import (
    defect_shift,
    dense_of,
    exact_composite_conjugate,
    phi_value,
    step_input,
    step_subgradient,
    velocities,
)


def scalar_spec(psi_g=1.0):
    g = SpatialGrid(3, 1.0)
    return ProblemSpec(
        grid=g,
        energy=EnergySpec(quad_op=SymBand(np.ones((1, 1)))),
        dissipation=DissipationSpec(
            kind="separable",
            state_dep=lambda s: (np.zeros(1), np.full(1, psi_g)),
            q=2.0,
            growth_c=0.4 * psi_g,
            growth_C=psi_g,
        ),
        perturbation=PerturbationSpec(),
        force=None,
        horizon=1.0,
        u0=Field(np.zeros(1), g),
        v0=Field(np.zeros(1), g),
    )


class TestAverageForce:
    def test_constant(self):
        out = average_force(lambda t: np.array([3.5]), 0.2, 0.7)
        assert out == pytest.approx([3.5])

    def test_linear(self):
        out = average_force(lambda t: np.array([t]), 0.0, 1.0)
        assert out == pytest.approx([0.5], abs=1e-15)

    def test_sine_closed_form(self):
        out = average_force(lambda t: np.array([np.sin(t)]), 0.0, 0.1)
        want = (1 - np.cos(0.1)) / 0.1
        assert out == pytest.approx([want], abs=1e-14)

    def test_vector_quadratic(self):
        out = average_force(lambda t: np.full(3, t**2), 0.0, 1.0)
        assert isinstance(out, np.ndarray)
        assert out == pytest.approx(np.full(3, 1.0 / 3.0), abs=1e-15)

    def test_bad_interval(self):
        with pytest.raises(ConfigError):
            average_force(lambda t: np.zeros(1), 1.0, 1.0)


class TestIncrementalMinimize:
    def test_scalar_toy(self):
        # Phi(u) = (3/2) u^2 - u is minimized at 1/3; the scalar grid search
        # confirms, and eta = f - u'' - A u = 1 - 1/3 - 1/3 = 1/3.
        xs = np.linspace(-2, 2, 4000001)
        oracle = xs[np.argmin(1.5 * xs**2 - xs)]
        assert oracle == pytest.approx(1.0 / 3.0, abs=1e-6)

        spec = scalar_spec()
        inp = StepInput(tau=1.0, t_prev=0.0, t_next=1.0, v=np.zeros(1), w=np.zeros(1),
                        zeta=np.array([-1.0]))
        u, eta, rep, _ = incremental_minimize(spec, inp, step_operator(spec, inp.tau))
        assert u == pytest.approx([1.0 / 3.0], abs=1e-9)
        assert eta == pytest.approx([1.0 / 3.0], abs=1e-9)
        assert rep.fy_gap <= 1e-8

    def test_stationary_point_stays(self):
        # f = 0, B = 0, v = w = u0 with DE(u0) = 0 keeps the minimizer at u0.
        g = SpatialGrid(9, 0.125)
        m = g.n_interior
        spec = ProblemSpec(
            grid=g,
            energy=EnergySpec(quad_op=SymBand(laplacian_band(g))),
            dissipation=DissipationSpec(
                kind="separable",
                state_dep=lambda s: (np.zeros(m), np.ones(m)),
                q=2.0, growth_c=0.4, growth_C=1.0,
            ),
            perturbation=PerturbationSpec(),
            force=None, horizon=1.0,
            u0=Field(np.zeros(m), g), v0=Field(np.zeros(m), g),
        )
        u0 = np.zeros(m)
        inp = StepInput(tau=0.1, t_prev=0.0, t_next=0.1, v=u0, w=u0, zeta=np.zeros(m))
        u, eta, rep, _ = incremental_minimize(spec, inp, step_operator(spec, inp.tau))
        assert np.all(u == 0.0)
        assert eta == pytest.approx(np.zeros(m), abs=1e-12)

    def test_stick_below_threshold(self):
        # Dry friction holds the state when the driving force sits inside
        # the subdifferential of the dissipation at zero velocity.
        g = SpatialGrid(9, 0.125)
        m = g.n_interior
        k = SymBand(laplacian_band(g))
        u0 = 0.002 * np.sin(np.pi * g.interior_x)
        drive = k @ u0
        assert np.max(np.abs(drive)) <= 1.0  # nodewise subgradient condition
        spec = ProblemSpec(
            grid=g,
            energy=EnergySpec(quad_op=k),
            dissipation=DissipationSpec(
                kind="separable",
                state_dep=lambda s: (np.ones(m), np.ones(m)),
                q=2.0, growth_c=0.4, growth_C=2.0,
            ),
            perturbation=PerturbationSpec(),
            force=None, horizon=1.0,
            u0=Field(u0, g), v0=Field(np.zeros(m), g),
        )
        traj = run(spec, 0.01)
        for n in range(traj.n_steps + 1):
            assert np.array_equal(traj.U[n].values, u0)

    def test_step_size_guard(self):
        spec = scalar_spec()
        spec = ProblemSpec(
            grid=spec.grid,
            # K = 1 - 9 = -8: the derived defect is 4, so tau <= 1/8.
            energy=EnergySpec(quad_op=SymBand(np.ones((1, 1))), quad_shift=SymBand([[-9.0]])),
            dissipation=spec.dissipation,
            perturbation=spec.perturbation,
            force=None, horizon=1.0,
            u0=spec.u0, v0=spec.v0,
        )
        inp = StepInput(tau=0.25, t_prev=0.0, t_next=0.25, v=np.zeros(1), w=np.zeros(1),
                        zeta=np.zeros(1))
        with pytest.raises(StepSizeTooLarge):
            incremental_minimize(spec, inp, step_operator(spec, inp.tau))

    def test_phi_decrease_vs_stay_put(self):
        spec, _ = build_linear_wave(1.0, n_nodes=17)
        traj = run(spec, 0.05)
        for n in range(1, traj.n_steps + 1):
            inp = step_input(traj, n)
            stay = phi_value(spec, inp, traj.U[n - 1].values)
            assert phi_value(spec, inp, traj.U[n].values) <= stay + 1e-12 * (1 + abs(stay))

    def test_p1_type_composite_step_fy_gap(self):
        # Composite step on 17 nodes: Fenchel-Young identity at the minimizer
        # holds to 10x the inner tolerance.
        from proxdyn.models import P1Params

        spec = build_p1(P1Params(n_nodes=17, mu=0.05))
        m = spec.grid.n_interior
        tau = min(1.0 / (2 * spec.energy.lambda_conv + 1e-12), 0.01)
        inp = StepInput(
            tau=tau, t_prev=0.0, t_next=tau, v=spec.u0.values,
            w=spec.u0.values - tau * 0.3 * np.ones(m), zeta=np.zeros(m),
        )
        u, eta, rep, _ = incremental_minimize(spec, inp, step_operator(spec, tau), inner_tol=1e-9)
        assert rep.fy_gap <= 1e-8
        assert rep.el_residual <= 1e-3


class TestStepOracle:
    """Minimize Phi directly through phi_value (independent evaluation
    path: model-level dissipation and energy, no solver splitting) and
    compare against the step solver."""

    def _oracle_step(self, spec, inp, start):
        import scipy.optimize

        def obj(u):
            return phi_value(spec, inp, u)

        best = None
        rng = np.random.default_rng(0)
        for _ in range(8):
            res = scipy.optimize.minimize(
                obj, start + 0.01 * rng.standard_normal(start.shape),
                method="Nelder-Mead",
                options={"xatol": 1e-11, "fatol": 1e-14, "maxiter": 120000, "maxfev": 120000},
            )
            if best is None or res.fun < best.fun:
                best = res
        return best

    def test_p2_composite_step_matches_bruteforce(self):
        from proxdyn.models import P2Params, build_p2

        spec = build_p2(P2Params(n_nodes=8))
        m = spec.grid.n_interior
        tau = 0.05
        rng = np.random.default_rng(1)
        v = 0.3 * rng.standard_normal(m)
        w = v - tau * 0.2 * rng.standard_normal(m)
        inp = StepInput(tau=tau, t_prev=0.0, t_next=tau, v=v, w=w,
                        zeta=0.1 * rng.standard_normal(m))
        u, eta, rep, _ = incremental_minimize(spec, inp, step_operator(spec, tau))
        best = self._oracle_step(spec, inp, u)
        assert phi_value(spec, inp, u) <= best.fun + 1e-9
        assert np.max(np.abs(u - best.x)) < 1e-4

    def test_p3_power_step_matches_bruteforce(self):
        from proxdyn.models import P3Params, build_p3

        spec = build_p3(P3Params(n_nodes=8, q=3.0))
        m = spec.grid.n_interior
        tau = 0.05
        rng = np.random.default_rng(2)
        v = 0.4 * rng.standard_normal(m)
        w = v - tau * 0.3 * rng.standard_normal(m)
        inp = StepInput(tau=tau, t_prev=0.1, t_next=0.15, v=v, w=w,
                        zeta=0.2 * rng.standard_normal(m))
        u, eta, rep, _ = incremental_minimize(spec, inp, step_operator(spec, tau))
        best = self._oracle_step(spec, inp, u)
        assert phi_value(spec, inp, u) <= best.fun + 1e-9
        assert np.max(np.abs(u - best.x)) < 1e-4


class TestRun:
    @pytest.mark.parametrize(
        "spec",
        [build_p2(P2Params(n_nodes=17, horizon=0.25)), build_p3(P3Params(n_nodes=17, horizon=0.25))],
        ids=["p2", "p3"],
    )
    def test_stalled_inner_solve_names_its_step(self, spec):
        with pytest.raises(InnerSolverFailed) as exc:
            run(spec, 1 / 16, max_iter=1)
        assert exc.value.step_index == 1
        assert "step 1" in str(exc.value)
        assert exc.value.best.shape == (15,)

    def test_uncertified_step_fails_loudly(self, tmp_path, monkeypatch):
        # An inner solver that reports convergence at a point off the
        # minimizer: the step certifies the point it gets back, whose gap is
        # large, and must fail, not pass, in `run` and in the CLI.
        spec = build_p3(P3Params(n_nodes=17, horizon=0.25))
        solve = convex.solve_prox_gradient
        offsets = []

        def off_minimizer(prob, init):
            u, p_hat, rep = solve(prob, init)
            offsets.append(u + 1e-3)
            return offsets[-1], p_hat, rep

        monkeypatch.setattr(convex, "solve_prox_gradient", off_minimizer)
        with pytest.raises(InnerSolverFailed, match="Fenchel-Young gap") as exc:
            run(spec, 1 / 32)
        assert exc.value.step_index == 1
        assert "step 1" in str(exc.value)
        assert exc.value.best.shape == (15,)
        np.testing.assert_array_equal(exc.value.best, offsets[-1])
        cfg = parse_config_dict(
            {"model": "p3", "tau": 1 / 32, "n_nodes": 17, "horizon": 0.25,
             "out_dir": str(tmp_path / "out")}
        )
        assert run_and_emit(cfg) == 1
        monkeypatch.undo()
        assert max(r.fy_gap for r in run(spec, 1 / 32).reports) <= 1e-8

    @pytest.mark.parametrize("n_nodes", [65, 129, 257])
    def test_separable_inner_iterations_stay_bounded_under_refinement(self, n_nodes):
        # The fixed-step proximal gradient took up to 54 / 196 / 765
        # iterations per step here, ~4x per halving of h; the Newton solver
        # takes at most 3 / 3 / 5.
        spec = build_p3(P3Params(n_nodes=n_nodes, horizon=0.25))
        traj = run(spec, 1 / 64)
        assert max(r.inner_iters for r in traj.reports) <= 20
        assert max(r.fy_gap for r in traj.reports) <= 1e-8

    @pytest.mark.parametrize(
        "model, n_nodes, horizon, q, bound",
        [
            # p2: the totals from the pencil's optimal start, times 1.15;
            # from the earlier start sqrt(gamma lambda_max(Q))/|D|^2 they
            # were 2680 / 1448 / 5308 at 65 nodes and 1604 at 257.  p1:
            # the plain ADMM's totals, times 1.15; the start takes
            # 3384 / 7240 there.
            pytest.param("p2", 65, 0.125, 1.1, 1.15 * 2396, id="p2-q1.1"),
            pytest.param("p2", 65, 0.125, 1.5, 1.15 * 676, id="p2-q1.5"),
            pytest.param("p2", 65, 0.125, 3.0, 1.15 * 3300, id="p2-q3"),
            pytest.param("p2", 257, 0.125, 1.5, 1.15 * 580, id="p2-257-q1.5"),
            pytest.param("p1", 17, 0.5, None, 1.15 * 4156, id="p1-17"),
            pytest.param("p1", 33, 0.5, None, 1.15 * 9104, id="p1-33"),
        ],
    )
    def test_composite_inner_iterations(self, model, n_nodes, horizon, q, bound):
        if model == "p2":
            spec = build_p2(P2Params(q=q, n_nodes=n_nodes, horizon=horizon))
        else:
            spec = build_p1(P1Params(n_nodes=n_nodes, horizon=horizon))
        traj = run(spec, 1 / 64)
        assert sum(r.inner_iters for r in traj.reports) <= bound
        assert max(r.fy_gap for r in traj.reports) <= 1e-8

    def test_reports_carry_the_composite_penalty(self):
        # The ADMM's final penalty on every composite step; none for
        # separable or closed-form steps.
        traj = run(build_p2(P2Params(q=1.5, n_nodes=17, horizon=0.125)), 1 / 32)
        assert all(isinstance(r.penalty, float) and r.penalty > 0.0 for r in traj.reports)
        separable = run(build_p3(P3Params(n_nodes=17, horizon=0.125)), 1 / 32)
        closed_form, _ = build_linear_wave(0.5, n_nodes=17, horizon=0.25, damping="gradient")
        for other in (separable, run(closed_form, 1 / 16)):
            assert [r.penalty for r in other.reports] == [None] * other.n_steps

    def test_zero_data_stays_zero(self):
        spec = scalar_spec()
        traj = run(spec, 0.1)
        for n in range(traj.n_steps + 1):
            assert np.all(traj.U[n].values == 0.0)
        for n in range(1, traj.n_steps + 1):
            eta, _ = step_subgradient(traj, n)
            assert np.all(eta == 0.0)

    def test_linear_wave_tracks_modal_solution(self):
        errs = []
        for tau in (0.02, 0.01):
            spec, exact = build_linear_wave(1.0, n_nodes=33)
            traj = run(spec, tau)
            err = max(
                np.max(np.abs(traj.U[n].values - exact(traj.times[n]).values))
                for n in range(traj.n_steps + 1)
            )
            errs.append(err)
        assert errs[0] < 0.2
        assert errs[1] < 0.75 * errs[0]  # first-order decay

    def test_energy_monotone_without_forcing(self):
        spec, _ = build_linear_wave(0.5, n_nodes=33)
        traj = run(spec, 0.01)
        vals = [r.kinetic_after + r.energy_after for r in traj.reports]
        assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))

    def test_tau_must_divide_horizon(self):
        spec = scalar_spec()
        with pytest.raises(ConfigError):
            run(spec, 0.3)

    def test_tau_above_bound_rejected(self):
        g = SpatialGrid(5, 0.25)
        m = g.n_interior
        quad = SymBand(laplacian_band(g))
        spec = ProblemSpec(
            grid=g,
            energy=EnergySpec(quad_op=quad, quad_shift=defect_shift(quad, 4.0)),
            dissipation=DissipationSpec(
                kind="separable",
                state_dep=lambda s: (np.zeros(m), np.ones(m)),
                q=2.0, growth_c=0.4, growth_C=1.0,
            ),
            perturbation=PerturbationSpec(),
            force=None, horizon=1.0,
            u0=Field(np.zeros(m), g), v0=Field(np.zeros(m), g),
        )
        with pytest.raises(StepSizeTooLarge):
            run(spec, 0.25)

    def test_velocity_reconstruction_is_exact(self):
        # A trajectory stores no velocity: V^n = (U^n - U^{n-1})/tau_n,
        # derived from U, is bit for bit the V^n whose kinetic energy the
        # step recorded, on a linear and on a composite nonlinear model.
        for spec, tau in ((build_linear_wave(1.0, n_nodes=17)[0], 0.05),
                          (build_p2(P2Params(n_nodes=17, horizon=0.125)), 1 / 32)):
            traj = run(spec, tau)
            h = spec.grid.h
            for n, rep in enumerate(traj.reports, start=1):
                v_n = (traj.U[n].values - traj.U[n - 1].values) / rep.tau
                assert rep.kinetic_after == 0.5 * h_norm(v_n, h) ** 2

    def test_fy_gap_bounded_every_step(self):
        spec, _ = build_linear_wave(1.0, n_nodes=17)
        traj = run(spec, 0.02, inner_tol=1e-9)
        assert max(r.fy_gap for r in traj.reports) <= 1e-8
        assert min(r.fy_gap for r in traj.reports) >= -1e-10

    def test_semi_implicit_forcing_uses_interval_average(self):
        # For f(t) = t the first-step forcing must be the exact average.
        g = SpatialGrid(5, 0.25)
        m = g.n_interior
        spec = ProblemSpec(
            grid=g,
            energy=EnergySpec(quad_op=SymBand(laplacian_band(g))),
            dissipation=DissipationSpec(
                kind="separable",
                state_dep=lambda s: (np.zeros(m), np.ones(m)),
                q=2.0, growth_c=0.4, growth_C=1.0,
            ),
            perturbation=PerturbationSpec(),
            force=lambda t: Field(np.full(m, t), g),
            horizon=1.0,
            u0=Field(np.zeros(m), g), v0=Field(np.zeros(m), g),
        )
        tau = 0.5
        traj = run(spec, tau)
        # work = tau <S^n, V^n>_h; S^n within 1e-15 of the average per node.
        for rep, v, avg in zip(traj.reports, velocities(traj)[1:], (0.25, 0.75)):
            assert np.any(v != 0.0)
            want = tau * h_inner(np.full(m, avg), v, g.h)
            slack = tau * g.h * 1e-15 * np.sum(np.abs(v))
            assert abs(rep.work - want) <= slack + 1e-15 * abs(want)


@functools.lru_cache(maxsize=None)
def _composite_step(model, q):
    """(spec, psi_pot, eta^n, lam) of step 2 of a 17-node run at tau = 1/64,
    lam the ADMM's multiplier less the site quartic's gradient, re-solved
    from the run's own inputs."""
    if model == "p1":
        spec = build_p1(P1Params(n_nodes=17, horizon=0.125))
    else:
        spec = build_p2(P2Params(q=q, n_nodes=17, horizon=0.125))
    traj = run(spec, 1 / 64)
    inp = step_input(traj, 2)
    u, eta, _, (p, _) = incremental_minimize(spec, inp, step_operator(spec, inp.tau))
    lam = p - 4.0 * spec.energy.site_quartic * spec.sites(u) ** 3
    return spec, spec.dissipation.potential(Field(inp.v, spec.grid)), eta, lam


class TestMultiplierBound:
    """`convex.composite_conjugate`, the closed-form bound on Psi* that a
    composite step reads from the solver's multiplier, both its stop test
    and its reported gap, is an upper bound of the exact conjugate (the
    oracle `exact_composite_conjugate`) for every multiplier, and equal to
    it, to rounding, at the ADMM's own."""

    CASES = [("p1", None), ("p2", 1.5), ("p2", 3.0)]

    @staticmethod
    def _bound(spec, pot, eta, lam):
        return convex.composite_conjugate(pot, spec.grid.h, eta, lam)

    @pytest.mark.parametrize("model, q", CASES)
    def test_matches_the_exact_conjugate_at_the_solver_multiplier(self, model, q):
        spec, pot, eta, lam = _composite_step(model, q)
        exact, _ = exact_composite_conjugate(pot, spec.grid.h, eta)
        assert abs(self._bound(spec, pot, eta, lam) - exact) <= 1e-12 * (1.0 + abs(exact))

    @settings(max_examples=60, deadline=None)
    @given(
        case=st.sampled_from(CASES),
        shift=st.floats(-50.0, 50.0),
        noise=st.floats(0.0, 10.0),
        seed=st.integers(0, 2**16),
    )
    def test_bounds_the_exact_conjugate_for_any_multiplier(self, case, shift, noise, seed):
        spec, pot, eta, lam = _composite_step(*case)
        other = lam + shift + noise * np.random.default_rng(seed).standard_normal(lam.shape)
        exact, _ = exact_composite_conjugate(pot, spec.grid.h, eta)
        assert self._bound(spec, pot, eta, other) >= exact - 1e-12 * (1.0 + abs(exact))

    @pytest.mark.parametrize(
        "spec",
        [
            build_p1(P1Params(n_nodes=33, horizon=0.5)),
            build_p2(P2Params(q=1.1, n_nodes=17, horizon=0.125)),
            build_p2(P2Params(q=1.5, n_nodes=17, horizon=0.125)),
            build_p2(P2Params(q=3.0, n_nodes=17, horizon=0.125)),
            build_linear_wave(1.0, n_nodes=17, damping="gradient")[0],
        ],
        ids=["p1", "p2-1.1", "p2-1.5", "p2-3.0", "wave_gradient"],
    )
    def test_every_reported_gap_is_the_exact_gap(self, spec):
        # The reported gap is the bound at the accepted point's multiplier;
        # linear_wave's gradient damping is quadratic, so its closed-form
        # solve certifies after the solve, from its exact multiplier.
        traj = run(spec, 1 / 64)
        h = spec.grid.h
        vel = velocities(traj)
        for n, rep in enumerate(traj.reports, start=1):
            eta, _ = step_subgradient(traj, n)
            pot = spec.dissipation.potential(traj.U[n - 1])
            exact, _ = exact_composite_conjugate(pot, h, eta)
            gap = rep.psi + exact - h_inner(eta, vel[n], h)
            assert abs(rep.fy_gap - gap) <= 1e-12 * (1.0 + abs(exact)), n


class TestStepOperator:
    """Q = A + I/tau^2 (+ quad_shift) in band form."""

    @pytest.mark.parametrize(
        "spec, bandwidth",
        [
            (build_p1(P1Params(n_nodes=17)), 2),
            (build_p2(P2Params(q=1.5, n_nodes=17)), 1),
            (build_p3(P3Params(n_nodes=17)), 1),
            (build_linear_wave(1.0, n_nodes=17, damping="mass")[0], 1),
            (build_linear_wave(1.0, n_nodes=17, damping="gradient")[0], 1),
        ],
        ids=["p1", "p2", "p3", "wave_mass", "wave_gradient"],
    )
    def test_band_matches_dense(self, spec, bandwidth):
        tau = 1 / 64
        en = spec.energy
        want = dense_of(en.quad_op) + np.eye(spec.grid.n_interior) / tau**2
        if en.quad_shift is not None:
            want = want + dense_of(en.quad_shift)
        q = step_operator(spec, tau)
        assert q.bandwidth == bandwidth
        unpacked = np.zeros_like(want)
        for k in range(bandwidth + 1):
            diag = q.band[bandwidth - k, k:]
            unpacked += np.diag(diag, k) + (np.diag(diag, -k) if k else 0.0)
        np.testing.assert_array_equal(unpacked, want)
        x = np.random.default_rng(0).standard_normal(spec.grid.n_interior)
        np.testing.assert_allclose(q @ x, want @ x, rtol=0.0, atol=1e-13 * np.abs(want).max() * np.abs(x).sum())
        top = np.linalg.eigvalsh(want)[-1]
        assert abs(q.max_eig - top) <= 1e-12 * top

    @pytest.mark.parametrize("damping", ["mass", "gradient"])
    def test_run_does_no_dense_factorization(self, damping, monkeypatch):
        # After the build, a run and the assumption checks need no dense
        # SVD, eigendecomposition or Cholesky factorization.
        import importlib

        import scipy.linalg

        from proxdyn.core import validate_assumptions

        spec, _ = build_linear_wave(1.0, n_nodes=1025, horizon=0.25, damping=damping)

        def forbidden(*args, **kwargs):
            raise AssertionError("dense O(m^3) factorization after the build")

        # np.linalg.norm(mat, 2) calls svd inside numpy.linalg._linalg.
        for mod in (np.linalg, importlib.import_module("numpy.linalg._linalg")):
            for name in ("svd", "eigh", "eigvalsh"):
                monkeypatch.setattr(mod, name, forbidden)
        monkeypatch.setattr(scipy.linalg, "cho_factor", forbidden)
        traj = run(spec, 1 / 32)
        assert traj.n_steps == 8
        assert validate_assumptions(spec, samples=2).passed


    def test_composite_solve_does_no_dense_cholesky(self, monkeypatch):
        # The ADMM's Q + beta D^T D (+ I/s) is factored and solved in band
        # form: a composite run needs no dense Cholesky factor or solve.
        import scipy.linalg

        def forbidden(*args, **kwargs):
            raise AssertionError("dense Cholesky in the inner solve")

        tau = 1 / 64
        spec = build_p2(P2Params(q=1.5, n_nodes=513, horizon=2 * tau))
        monkeypatch.setattr(scipy.linalg, "cho_factor", forbidden)
        monkeypatch.setattr(scipy.linalg, "cho_solve", forbidden)
        traj = run(spec, tau)
        assert traj.n_steps == 2
        assert max(r.inner_iters for r in traj.reports) > 1


class TestOnePsiPerStep:
    @pytest.mark.parametrize(
        "spec",
        [build_p2(P2Params(q=1.5, n_nodes=17, horizon=0.125)), build_p3(P3Params(n_nodes=17, horizon=0.125))],
        ids=["composite", "separable"],
    )
    def test_state_dep_runs_once_per_step(self, spec):
        # Psi_{U^{n-1}} is built once per step and serves the step
        # potential, the ledger's psi and the Fenchel-Young gap.  The step
        # works on arrays, so the callable gets a Field around U^{n-1}'s
        # own array.
        calls = []
        state_dep = spec.dissipation.state_dep

        def counting(state):
            calls.append(state)
            return state_dep(state)

        spec = dataclasses.replace(
            spec, dissipation=dataclasses.replace(spec.dissipation, state_dep=counting)
        )
        traj = run(spec, 1 / 64)
        assert len(calls) == traj.n_steps == 8
        for n, state in enumerate(calls, start=1):
            assert state.values is traj.U[n - 1].values


class TestOneForcePerStep:
    """A run evaluates E2's linear part once per time of `Trajectory.times`:
    E_0 before step 1, and in step n at t_n for b, eta^n and the ledger's
    energy, reusing the previous step's value at t_{n-1}."""

    @staticmethod
    def _recording_run(tau, horizon):
        calls = []

        def force(t):
            calls.append(t)
            return np.full(15, np.cos(t))

        traj = run(build_p3(P3Params(n_nodes=17, horizon=horizon, force=force)), tau)
        return traj, calls

    def test_user_force_runs_once_per_step(self):
        traj, calls = self._recording_run(1 / 32, 0.25)
        assert traj.n_steps == 8
        assert calls == [n / 32 for n in range(9)]

    def test_one_call_per_time_exactly_at_n_tau(self):
        # With tau = 0.1, (n - 1) tau + tau and n tau differ by an ulp at
        # n = 6; every term of step n is evaluated at n tau.
        tau = 0.1
        assert 5 * tau + tau != 6 * tau
        traj, calls = self._recording_run(tau, 1.0)
        assert traj.n_steps == 10
        assert calls == [n * tau for n in range(11)] == traj.times.tolist()


class TestAdmissibleTau:
    def test_divides_and_bounds(self):
        spec = scalar_spec()
        tau = admissible_tau(spec, 0.3)
        assert tau <= 0.3 + 1e-15
        n = round(spec.horizon / tau)
        assert abs(n * tau - spec.horizon) < 1e-12

    @pytest.mark.parametrize("target", [-0.1, -0.0, 0.0, np.nan, -np.inf, 1e-320])
    def test_rejects_a_target_without_a_step(self, target):
        # No step > 0 is <= a target <= 0, and a subnormal target leaves
        # horizon/target infinite.
        spec = build_p3(P3Params(n_nodes=9))
        with pytest.raises(ConfigError, match="target step > 0"):
            admissible_tau(spec, target)

    def test_infinite_target_takes_the_horizon(self):
        spec = build_p3(P3Params(n_nodes=9))
        assert admissible_tau(spec, np.inf) == spec.horizon

