"""Prox, conjugate, Fenchel-Young, and inner-solver tests.

Expected values for the prox and conjugate come from independent
grid-search oracles (coarse bracket + fine refinement, valid because the
scanned functions are convex/concave in the scan variable); closed forms
are asserted against frozen oracle outputs.
"""

import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from proxdyn import convex
from proxdyn.errors import EvalError, MaxIterExceeded, NonFiniteIterate
from proxdyn.convex import (
    SitePotential,
    StepProblem,
    SymBand,
    _monotone_newton,
    _newton_bisect,
    _power_solve,
    band_solve,
    composite_conjugate,
    edge_conjugate_pair,
    solve_pd,
    solve_prox_gradient,
    start_penalty,
)
from proxdyn.grid import ForwardDifference, SpatialGrid
from proxdyn.models import P1Params, P2Params, P3Params, build_p1, build_p2, build_p3
from proxdyn.stepper import run

from oracles import (
    DenseSiteOp,
    admm_optimal_penalty,
    band_of,
    conjugate_numeric,
    gradient_matrix,
    objective,
    prox_gradient_reference,
    scalar_potential,
)


def prox1(a, g, q, gamma, s):
    """The kernel's prox of a|.| + (g/q)|.|^q with parameter gamma at s."""
    return float(SitePotential([a], [g], q, 0.0, 0.0).prox(gamma, np.array([s]))[0])


def conj1(a, g, q, xi):
    """The kernel's conjugate of a|.| + (g/q)|.|^q at xi."""
    val, _ = edge_conjugate_pair(a, 0.0, g, q, np.array([xi]))
    return float(val[0])


def prox_oracle(psi, gamma, s, box=None, step=1e-6):
    """Two-stage grid search for argmin (1/(2g))(x-s)^2 + psi(x).

    The objective is strictly convex, so a coarse scan brackets the
    minimizer and a fine scan inside the bracket equals the full fine grid.
    """
    box = box if box is not None else abs(s) + 1.0
    coarse = np.linspace(-box, box, 20001)
    obj = 0.5 / gamma * (coarse - s) ** 2 + psi(coarse)
    i = int(np.argmin(obj))
    lo, hi = coarse[max(i - 1, 0)], coarse[min(i + 1, len(coarse) - 1)]
    fine = np.linspace(lo, hi, max(int((hi - lo) / step) + 1, 3))
    obj = 0.5 / gamma * (fine - s) ** 2 + psi(fine)
    return float(fine[np.argmin(obj)])


def conj_oracle(psi, xi, box=6.0, step=1e-7):
    """Two-stage grid search for sup_s (xi*s - psi(s)) (concave scan)."""
    coarse = np.linspace(-box, box, 20001)
    vals = xi * coarse - psi(coarse)
    i = int(np.argmax(vals))
    lo, hi = coarse[max(i - 1, 0)], coarse[min(i + 1, len(coarse) - 1)]
    fine = np.linspace(lo, hi, max(int((hi - lo) / step) + 1, 3))
    return float(np.max(xi * fine - psi(fine)))


class TestProxSeparable:
    """SitePotential.prox of the nodewise potential a|.| + (g/q)|.|^q."""

    def test_shrinks_past_threshold(self):
        assert prox1(1.0, 1.0, 2.0, 1.0, 3.0) == pytest.approx(1.0, abs=1e-12)
        assert abs(prox_oracle(scalar_potential(1.0, 1.0, 2.0), 1.0, 3.0) - 1.0) < 5e-6

    def test_sticks_below_threshold(self):
        assert prox1(1.0, 1.0, 2.0, 1.0, 0.5) == 0.0
        assert prox_oracle(scalar_potential(1.0, 1.0, 2.0), 1.0, 0.5) == pytest.approx(0.0, abs=5e-6)

    def test_zero_input(self):
        for a, g, q in ((0.3, 2.0, 3.0), (0.0, 1.0, 1.5)):
            assert prox1(a, g, q, 0.7, 0.0) == 0.0

    def test_general_exponent_matches_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            a, g, q = rng.uniform(0, 2), rng.uniform(0.1, 3), rng.uniform(1.2, 4)
            gamma = rng.uniform(0.05, 5)
            s = rng.uniform(-6, 6)
            got = prox1(a, g, q, gamma, s)
            want = prox_oracle(scalar_potential(a, g, q), gamma, s)
            assert abs(got - want) < 1e-5

    @given(
        s1=st.floats(-20, 20),
        s2=st.floats(-20, 20),
        a=st.floats(0, 3),
        g=st.floats(0.05, 4),
        q=st.floats(1.1, 4),
        gamma=st.floats(0.01, 10),
    )
    @settings(max_examples=80, deadline=None)
    def test_nonexpansive(self, s1, s2, a, g, q, gamma):
        p1 = prox1(a, g, q, gamma, s1)
        p2 = prox1(a, g, q, gamma, s2)
        assert abs(p1 - p2) <= abs(s1 - s2) + 1e-10

    @given(s=st.floats(-10, 10), a=st.floats(0, 2), g=st.floats(0.1, 3))
    @settings(max_examples=50, deadline=None)
    def test_sign_and_magnitude(self, s, a, g):
        p = prox1(a, g, 2.0, 1.0, s)
        assert p == 0.0 or np.sign(p) == np.sign(s)
        assert abs(p) <= abs(s) + 1e-12


class TestConjSeparable:
    """edge_conjugate_pair of the nodewise potential a|.| + (g/q)|.|^q."""

    def test_quadratic_case(self):
        # sup_s (3s - s - s^2/2) attained at s = 2.
        assert conj1(1.0, 1.0, 2.0, 3.0) == pytest.approx(2.0, abs=1e-12)
        assert conj_oracle(scalar_potential(1.0, 1.0, 2.0), 3.0) == pytest.approx(2.0, abs=1e-6)

    def test_threshold_case(self):
        assert conj1(1.0, 1.0, 2.0, 1.0) == 0.0
        assert conj_oracle(scalar_potential(1.0, 1.0, 2.0), 1.0) == pytest.approx(0.0, abs=1e-6)

    def test_zero_argument(self):
        for a, g, q in ((0.5, 2.0, 3.0), (0.0, 1.0, 2.0)):
            assert conj1(a, g, q, 0.0) == 0.0

    def test_general_exponent_matches_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            a, g, q = rng.uniform(0, 1.5), rng.uniform(0.2, 3), rng.uniform(1.3, 4)
            xi = rng.uniform(-4, 4)
            want = conj_oracle(scalar_potential(a, g, q), xi, box=10.0)
            assert abs(conj1(a, g, q, xi) - want) < 1e-4

    def test_degenerate_friction_only(self):
        assert conj1(1.0, 0.0, 2.0, 0.5) == 0.0
        assert conj1(1.0, 0.0, 2.0, 1.5) == float("inf")

    @given(xi=st.floats(-8, 8), a=st.floats(0, 2), g=st.floats(0.1, 3), q=st.floats(1.2, 4))
    @settings(max_examples=60, deadline=None)
    def test_fenchel_young_inequality(self, xi, a, g, q):
        psi = scalar_potential(a, g, q)
        rng = np.random.default_rng(int(abs(xi * 1000)) + 1)
        for v in rng.uniform(-5, 5, size=4):
            gap = psi(v) + conj1(a, g, q, xi) - xi * v
            assert gap >= -1e-10

    def test_convex_even_monotone(self):
        a, g, q = 0.7, 1.3, 2.5
        xs = np.linspace(0.0, 6.0, 50)
        vals = np.array([conj1(a, g, q, x) for x in xs])
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all(np.diff(vals, 2) >= -1e-9)
        for x in xs:
            assert conj1(a, g, q, -x) == pytest.approx(conj1(a, g, q, x))

    def test_moreau_decomposition_q2(self):
        # prox of the potential and a conjugate-prox oracle reconstruct s.
        a, g = 0.8, 1.7
        rng = np.random.default_rng(2)
        for s in rng.uniform(-5, 5, size=10):
            gamma = rng.uniform(0.2, 3)
            p = prox1(a, g, 2.0, gamma, s)
            # grid-search prox of f* (closed form for q = 2) at s/gamma
            xs = np.linspace(-8, 8, 400001)
            t = np.maximum(np.abs(xs) - a, 0.0)
            conj_vals = t**2 / (2.0 * g)
            obj = 0.5 * gamma * (xs - s / gamma) ** 2 + conj_vals
            p_star = xs[np.argmin(obj)]
            assert p + gamma * p_star == pytest.approx(s, abs=5e-5)


class TestConjugateNumeric:
    def test_matches_closed_form(self):
        psi = scalar_potential(1.0, 1.0, 2.0)
        got = conjugate_numeric(psi, 3.0, search_box=5.0, steps=10**6)
        assert got == pytest.approx(2.0, abs=1e-5)

    def test_zero(self):
        psi = scalar_potential(1.0, 1.0, 2.0)
        assert conjugate_numeric(psi, 0.0, 5.0, 10**5) == pytest.approx(0.0, abs=1e-9)

    def test_dual_pair_of_oracles(self):
        a, g = 0.5, 2.0
        got = conjugate_numeric(scalar_potential(a, g, 3.0), 2.0, search_box=5.0, steps=10**6)
        qs = 1.5
        want = g ** (1 - qs) / qs * max(2.0 - a, 0.0) ** qs
        assert got == pytest.approx(want, abs=1e-4)

    def test_arrays_coordinatewise(self):
        psi = scalar_potential(1.0, 1.0, 2.0)
        out = conjugate_numeric(psi, np.array([3.0, 0.0, -3.0]), 5.0, 10**5)
        assert out == pytest.approx([2.0, 0.0, 2.0], abs=1e-4)


def _edge_grad(m, h):
    d = np.zeros((m + 1, m))
    for e in range(m + 1):
        if e - 1 >= 0:
            d[e, e - 1] -= 1.0 / h
        if e < m:
            d[e, e] += 1.0 / h
    return d


class TestSolvePD:
    def test_zero_data(self):
        m, h = 7, 0.125
        d = _edge_grad(m, h)
        pot = SitePotential(np.full(m + 1, 0.5), np.full(m + 1, 1.0), 2.0,
                            np.zeros(m + 1), np.zeros(m + 1))
        prob = StepProblem(
            quad_op=band_of(np.eye(m) * 10), lin=np.zeros(m), lin_op=DenseSiteOp(d), nonsmooth=pot,
            h=h, strong_convexity=10.0, op_norm=np.sqrt(np.linalg.eigvalsh(d.T @ d)[-1]),
        )
        u, p, rep = solve_pd(prob, np.zeros(m))
        assert np.all(u == 0.0)
        assert np.all(p == 0.0)
        assert rep.gap == 0.0

    def test_identity_operator_reproduces_prox(self):
        # With D = I and G = (1/(2 gamma))|u - s|^2 the minimizer is the prox.
        m = 6
        rng = np.random.default_rng(3)
        s = rng.uniform(-4, 4, m)
        gamma = 0.8
        a, g = 0.9, 1.4
        pot = SitePotential(np.full(m, a), np.full(m, g), 2.0, np.zeros(m), np.zeros(m))
        prob = StepProblem(
            quad_op=band_of(np.eye(m) / gamma), lin=-s / gamma, lin_op=DenseSiteOp(np.eye(m)),
            nonsmooth=pot, h=1.0, strong_convexity=1.0 / gamma, op_norm=1.0,
            tol=1e-14,
        )
        u, p, rep = solve_pd(prob, np.zeros(m))
        want = [prox1(a, g, 2.0, gamma, si) for si in s]
        np.testing.assert_allclose(u, want, atol=1e-7)

    def test_transpose_consistency(self):
        m, h = 9, 0.1
        d = _edge_grad(m, h)
        rng = np.random.default_rng(4)
        u = rng.standard_normal(m)
        p = rng.standard_normal(m + 1)
        lhs = h * np.dot(d @ u, p)
        rhs = h * np.dot(u, d.T @ p)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_duality_gap_verified_directly(self):
        # q = 2 composite problem with closed-form conjugates: the reported
        # certified gap must bound the direct primal-minus-dual difference.
        m, h = 9, 0.1
        d = _edge_grad(m, h)
        rng = np.random.default_rng(5)
        q_mat = np.eye(m) * 30.0
        b = rng.standard_normal(m)
        a = np.abs(rng.standard_normal(m + 1)) * 0.4
        g = np.full(m + 1, 2.0)
        shift = rng.standard_normal(m + 1) * 0.2
        pot = SitePotential(a, g, 2.0, np.zeros(m + 1), shift)
        prob = StepProblem(
            quad_op=band_of(q_mat), lin=b, lin_op=DenseSiteOp(d), nonsmooth=pot, h=h,
            strong_convexity=30.0, op_norm=np.sqrt(np.linalg.eigvalsh(d.T @ d)[-1]),
            tol=1e-12,
        )
        u, p, rep = solve_pd(prob, np.zeros(m))
        assert rep.gap <= 1e-12
        primal = objective(prob, u)
        # dual: -G*(-D^T p) - F*(p) with G quadratic and F* per edge.
        w = -d.T @ p - b
        dual = -0.5 * float(w @ np.linalg.solve(q_mat, w)) - pot.conjugate_sum(p)
        assert primal - dual >= -1e-12
        assert primal - dual <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(2, 130),
        c=st.floats(1e-3, 1e6),
        k=st.floats(0.0, 1e3),
    )
    def test_cold_start_is_the_optimal_penalty_of_a_commuting_pencil(self, m, c, k):
        # Q = c I + k D^T D commutes with D^T D, so the start is Giselsson
        # & Boyd's optimum exactly.  Zero data returns before the first
        # iteration, so the report's penalty is the start.
        grid = SpatialGrid(m + 2, 1.0 / (m + 1))
        d = gradient_matrix(grid)
        dtd = d.T @ d
        quad = c * np.eye(m) + k * dtd
        pot = SitePotential(np.full(m + 1, 0.5), np.full(m + 1, 1.0), 1.5,
                            np.zeros(m + 1), np.zeros(m + 1))
        prob = StepProblem(
            quad_op=band_of(quad), lin=np.zeros(m), lin_op=ForwardDifference(m, grid.h),
            nonsmooth=pot, h=grid.h, strong_convexity=c,
            op_norm=np.sqrt(np.linalg.eigvalsh(dtd)[-1]),
        )
        u, p, rep = solve_pd(prob, np.zeros(m))
        assert rep.iterations == 0
        assert rep.beta == start_penalty(prob, prob.gram(np.ones(m + 1)))
        assert rep.beta == pytest.approx(admm_optimal_penalty(quad, dtd), rel=1e-10)

    @pytest.mark.parametrize("q, k4", [(1.5, 0.0), (3.0, 0.0), (2.0, 0.7)])
    def test_multiplier_is_a_subgradient_at_every_return(self, q, k4):
        # The over-relaxed updates keep p = beta lam in dF(y), y the last
        # prox output: cold starts at three tolerances, then a warm start
        # that returns before its first iteration.
        m, h = 12, 1.0 / 13.0
        d = _edge_grad(m, h)
        rng = np.random.default_rng(8)
        pot = SitePotential(
            rng.uniform(0.0, 0.6, m + 1), rng.uniform(0.5, 2.0, m + 1), q,
            rng.uniform(0.0, 0.5, m + 1), rng.standard_normal(m + 1) * 0.3, k4=k4,
        )
        ys = []
        prox = pot.prox

        def recording_prox(sigma, z, start=None):
            ys.append(prox(sigma, z, start=start))
            return ys[-1]

        pot.prox = recording_prox
        prob = StepProblem(
            quad_op=band_of(np.eye(m) * 40.0), lin=rng.standard_normal(m), lin_op=DenseSiteOp(d),
            nonsmooth=pot, h=h, strong_convexity=40.0,
            op_norm=np.sqrt(np.linalg.eigvalsh(d.T @ d)[-1]),
        )
        returns = []
        for tol in (1e-6, 1e-10, 1e-13):
            prob.tol = tol
            u, p, rep = solve_pd(prob, np.zeros(m))
            returns.append((rep.iterations, ys[-1], p))
        u, p, rep = solve_pd(prob, u, p0=p, beta=rep.beta)
        returns.append((rep.iterations, ys[-1], p))
        assert [it > 0 for it, _, _ in returns] == [True, True, True, False]
        for _, y, p in returns:
            assert np.any(y == pot.shift) and not np.all(y == pot.shift)
            np.testing.assert_allclose(pot.subgrad_project(y, p), p, rtol=0.0,
                                       atol=1e-12 * np.max(np.abs(p)))

    def test_quartic_prox_matches_bruteforce(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            a = abs(rng.standard_normal()) * 0.8
            w2 = abs(rng.standard_normal()) * 2
            c = rng.standard_normal() * 1.5
            k4 = abs(rng.standard_normal()) * 1.2 + 0.01
            sig = 10 ** rng.uniform(-2, 1.5)
            z = rng.standard_normal() * 3
            pot = SitePotential(np.array([a]), np.array([0.0]), 2.0,
                                np.array([w2]), np.array([c]), k4=k4)
            got = pot.prox(sig, np.array([z]))[0]
            xs = np.linspace(-10, 10, 2000001)
            vals = 0.5 / sig * (xs - z) ** 2 + k4 * xs**4 + a * np.abs(xs - c) + 0.5 * w2 * (xs - c) ** 2
            want = xs[np.argmin(vals)]
            assert abs(got - want) < 2e-5

    @pytest.mark.parametrize(
        "root, g, q", [("_cubic_root", 0.0, 2.0), ("_branch_root", 1.3, 3.0)]
    )
    def test_quartic_prox_solves_one_branch(self, root, g, q, monkeypatch):
        # Each site takes at most one sign branch, so one root solve per
        # prox call serves sites of both signs and stuck sites alike.
        calls = []
        solve = getattr(SitePotential, root)

        def counting(self, *args):
            calls.append(args)
            return solve(self, *args)

        monkeypatch.setattr(SitePotential, root, counting)
        pot = SitePotential(np.full(3, 0.5), np.full(3, g), q, 1.0, 0.0, k4=1.0)
        y = pot.prox(0.5, np.array([-3.0, 0.1, 3.0]))
        assert len(calls) == 1
        assert y[0] < 0.0 and y[1] == 0.0 and y[2] > 0.0


    def test_quartic_prox_picks_branches_without_branch_calls(self, monkeypatch):
        # With g = 0 the branch pick reads the derivative at d = 0 from one
        # evaluation, and the cubic needs no branch derivative at all.
        calls = []
        deriv = SitePotential._branch_deriv

        def counting(self, *args):
            calls.append(args)
            return deriv(self, *args)

        monkeypatch.setattr(SitePotential, "_branch_deriv", counting)
        pot = SitePotential(np.full(3, 0.5), np.zeros(3), 2.0, 1.0, 0.0, k4=1.0)
        y = pot.prox(0.5, np.array([-3.0, 0.1, 3.0]))
        assert calls == []
        assert y[0] < 0.0 and y[1] == 0.0 and y[2] > 0.0

    @pytest.mark.parametrize("k4", [5e-324, 2.2250738585072014e-308, 1e-300, 1e-40])
    def test_quartic_prox_with_tiny_weight(self, k4):
        # The cubic's closed form overflows here; 4 k4 y^3 is below every
        # other term, so the prox is the one without the quartic.
        args = ([0.0, 0.3, 0.0], [0.0, 0.0, 0.0], 2.0, [0.0, 0.0, 1.0], [0.1, -0.2, 0.3])
        z = np.array([1.0, -2.0, 0.5])
        with np.errstate(over="ignore", invalid="ignore"):
            got = SitePotential(*args, k4=k4).prox(0.01, z)
        np.testing.assert_allclose(got, SitePotential(*args).prox(0.01, z), rtol=1e-15)
        # Far from the origin (the branch root's solve, g > 0) the root lies
        # beyond 2^60, and with k4 = 1e-40 the quartic takes over below z:
        # the prox must solve y - z + sign(y)|y|^(1/2) + 4 k4 y^3 = 0.
        z = np.array([1e30, -1e30, 1e25, -1e25])
        y = SitePotential(0.0, 1.0, 1.5, 0.0, 0.0, k4=k4).prox(1.0, z)
        resid = y - z + np.sign(y) * np.abs(y) ** 0.5 + 4.0 * k4 * y**3
        assert np.all(np.abs(resid) <= 4 * np.finfo(float).eps * np.abs(z))


class TestSiteValue:
    """SitePotential.value multiplies each weight by its power before the
    constant, so subnormal weights keep their digits."""

    def test_subnormal_quadratic_weight(self):
        pot = SitePotential([0.0], [0.0], 3.0, 5e-324, [0.0])
        assert pot.value([5e51]) == pytest.approx(6.18e-221, rel=1e-2)

    def test_subnormal_power_weight(self):
        # (g/q) d^q with g = 5e-324, q = 3, d = 1e40: g/q underflows to 0.
        pot = SitePotential([0.0], [5e-324], 3.0, 0.0, [0.0])
        assert pot.value([1e40]) == pytest.approx(5e-324 * 1e120 / 3.0, rel=1e-2)

    def test_nan_quartic_weight_rejected(self):
        # A NaN compares false with every bound, so only `not k4 >= 0`
        # refuses it.
        with pytest.raises(EvalError, match="k4 >= 0"):
            SitePotential([1.0], [1.0], 2.0, 0.0, [0.0], k4=float("nan"))

    @pytest.mark.parametrize("weight", ["a", "g"])
    def test_nan_weight_rejected(self, weight):
        # A NaN fails every comparison, so only a negated check refuses it;
        # let through, a NaN g gives a NaN prox, and a NaN a a site that
        # reads as stuck.
        weights = {"a": [0.0], "g": [0.0], weight: [float("nan")]}
        with pytest.raises(EvalError, match="a >= 0, g >= 0"):
            SitePotential(weights["a"], weights["g"], 1.5, 0.0, [0.0])


class TestCurvature:
    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_matches_difference_of_the_subgradient(self, q):
        # Off the kink the subdifferential is the singleton f'(y), and
        # curvature(y) is its derivative.
        pot = SitePotential([0.4, 0.0, 1.0], [1.3, 0.7, 0.0], q, [0.0, 2.0, 0.5],
                            [0.2, -0.1, 0.0], k4=0.8)
        y = np.array([0.9, -0.6, 0.35])
        eps = 1e-6
        slope = (pot.subgrad_project(y + eps, 0.0) - pot.subgrad_project(y - eps, 0.0)) / (2 * eps)
        np.testing.assert_allclose(pot.curvature(y), slope, rtol=1e-7)


class TestCompositeConjugate:
    def test_matches_bruteforce_sup(self):
        m, h = 5, 0.2
        d = _edge_grad(m, h)
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = np.abs(rng.standard_normal(m + 1)) * 0.5
            eta = rng.standard_normal(m) * 1.5
            visc = 1.0

            def psi(v):
                y = d @ v
                return h * np.sum(a * np.abs(y) + 0.5 * visc * y**2)

            pot = SitePotential(a, np.zeros(m + 1), 2.0, visc, 0.0)
            got = composite_conjugate(pot, h, eta)
            # brute force over a fine random search refined by the smooth
            # unconstrained maximum of the differentiable majorant
            import scipy.optimize

            best = None
            for s in range(10):
                res = scipy.optimize.minimize(
                    lambda v: -(h * eta @ v - psi(v)),
                    rng.standard_normal(m) * 2,
                    method="Nelder-Mead",
                    options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 60000, "maxfev": 60000},
                )
                if best is None or res.fun < best:
                    best = res.fun
            # The dual characterization upper-bounds the sup by construction;
            # Nelder-Mead under-optimizes the kinked 5-dim problem slightly.
            assert -best <= got + 1e-10
            assert got == pytest.approx(-best, abs=2e-5)

    def test_general_exponent_branch(self):
        m, h = 4, 0.25
        d = _edge_grad(m, h)
        rng = np.random.default_rng(8)
        a = np.abs(rng.standard_normal(m + 1)) * 0.3
        g = np.full(m + 1, 1.2)
        q = 3.0
        eta = rng.standard_normal(m)

        def psi(v):
            y = d @ v
            return h * np.sum(a * np.abs(y) + g / q * np.abs(y) ** q)

        got = composite_conjugate(SitePotential(a, g, q, 0.0, 0.0), h, eta)
        import scipy.optimize

        best = None
        for s in range(6):
            res = scipy.optimize.minimize(
                lambda v: -(h * eta @ v - psi(v)),
                rng.standard_normal(m) * 2,
                method="Nelder-Mead",
                options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 60000, "maxfev": 60000},
            )
            if best is None or res.fun < best:
                best = res.fun
        assert got == pytest.approx(-best, abs=1e-6)


class TestProxGradient:
    def test_matches_pd_on_separable_problem(self):
        m = 8
        rng = np.random.default_rng(9)
        q_mat = np.eye(m) * 12.0 + np.diag(np.full(m - 1, -1.0), 1) + np.diag(np.full(m - 1, -1.0), -1)
        b = rng.standard_normal(m)
        pot = SitePotential(np.full(m, 0.6), np.full(m, 1.0), 2.0, np.zeros(m),
                            rng.standard_normal(m) * 0.2)
        prob = StepProblem(
            quad_op=band_of(q_mat), lin=b, nonsmooth=pot, h=0.1,
            strong_convexity=10.0, tol=1e-14,
        )
        u, p_hat, rep = solve_prox_gradient(prob, np.zeros(m))
        assert rep.gap <= prob.tol
        pd = StepProblem(
            quad_op=band_of(q_mat), lin=b, lin_op=DenseSiteOp(np.eye(m)), nonsmooth=pot, h=0.1,
            strong_convexity=10.0, op_norm=1.0, tol=1e-14,
        )
        u2, _, _ = solve_pd(pd, np.zeros(m))
        np.testing.assert_allclose(u, u2, atol=1e-7)

    @given(
        m=st.integers(2, 24),
        bw=st.integers(1, 2),
        q=st.sampled_from([1.5, 2.0, 3.0]),
        a=st.floats(0.0, 5.0),
        g=st.floats(0.0, 5.0),
        w2=st.floats(0.0, 5.0),
        k4=st.floats(0.0, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_separable_problem_matches_reference(self, m, bw, q, a, g, w2, k4, seed):
        rng = np.random.default_rng(seed)
        # SPD by diagonal dominance: the off-diagonals of bandwidth bw, and
        # a diagonal that exceeds each row's absolute off-diagonal sum.
        off = [rng.standard_normal(m - k) for k in range(1, bw + 1)]
        q_mat = sum(np.diag(o, k) + np.diag(o, -k) for k, o in enumerate(off, start=1))
        q_mat += np.diag(np.sum(np.abs(q_mat), axis=1) + rng.uniform(0.5, 5.0, m))
        quad = band_of(q_mat)
        pot = SitePotential(
            a * rng.uniform(0.0, 1.0, m), g * rng.uniform(0.0, 1.0, m), q,
            w2 * rng.uniform(0.0, 1.0, m), rng.standard_normal(m), k4,
        )
        gamma = quad.eigenvalue(0)
        prob = StepProblem(
            quad_op=quad, lin=5.0 * rng.standard_normal(m), nonsmooth=pot,
            h=1.0 / (m + 1), strong_convexity=gamma, tol=1e-10,
        )
        u, _, rep = solve_prox_gradient(prob, np.zeros(m))
        u_ref, p_ref, ref = prox_gradient_reference(prob, np.zeros(m))
        assert rep.gap <= prob.tol
        # Both points lie within sqrt(2 gap/gamma) of the minimizer in |.|_h.
        dist = np.sqrt(prob.h) * np.linalg.norm(u - u_ref)
        assert dist <= np.sqrt(2.0 * rep.gap / gamma) + np.sqrt(2.0 * ref.gap / gamma) + 1e-12
        # Where the reference sticks with its multiplier well inside the
        # friction interval, the solver's point sits on the shift exactly.
        smooth = 4.0 * pot.k4 * pot.shift**3
        held = (u_ref == pot.shift) & (np.abs(p_ref - smooth) < 0.5 * pot.a)
        assert np.all(u[held] == pot.shift[held])


class TestBandedClosedForms:
    """The quadratic-potential branches solve in band form; dense solves of
    the same systems are the oracle."""

    def test_prox_gradient_matches_dense_solve(self):
        m = 40
        rng = np.random.default_rng(11)
        # Pentadiagonal, like the clamped biharmonic block of p1.
        q_mat = (
            np.eye(m) * 30.0
            + np.diag(np.full(m - 1, -4.0), 1) + np.diag(np.full(m - 1, -4.0), -1)
            + np.diag(np.full(m - 2, 1.0), 2) + np.diag(np.full(m - 2, 1.0), -2)
        )
        w2 = rng.uniform(0.5, 2.0, m)
        shift = rng.standard_normal(m)
        b = rng.standard_normal(m)
        pot = SitePotential(np.zeros(m), np.zeros(m), 2.0, w2, shift)
        prob = StepProblem(
            quad_op=band_of(q_mat), lin=b, nonsmooth=pot, h=0.1,
            strong_convexity=20.0,
        )
        assert prob.quad_op.bandwidth == 2
        u, _, rep = solve_prox_gradient(prob, np.zeros(m))
        want = np.linalg.solve(q_mat + np.diag(w2), -b + w2 * shift)
        assert rep.iterations == 1
        np.testing.assert_allclose(u, want, rtol=1e-12, atol=1e-13 * np.max(np.abs(want)))

    def test_pd_matches_dense_solve(self):
        m, h = 40, 1.0 / 41
        d = _edge_grad(m, h)
        rng = np.random.default_rng(12)
        q_mat = np.eye(m) * 50.0 + d.T @ d
        w2 = rng.uniform(0.5, 2.0, m + 1)
        shift = rng.standard_normal(m + 1)
        b = rng.standard_normal(m)
        pot = SitePotential(np.zeros(m + 1), np.zeros(m + 1), 2.0, w2, shift)
        prob = StepProblem(
            quad_op=band_of(q_mat), lin=b, lin_op=DenseSiteOp(d), nonsmooth=pot, h=h,
            strong_convexity=50.0, op_norm=np.sqrt(np.linalg.eigvalsh(d.T @ d)[-1]),
        )
        u, _, rep = solve_pd(prob, np.zeros(m))
        want = np.linalg.solve(q_mat + d.T @ (w2[:, None] * d), -b + d.T @ (w2 * shift))
        assert rep.iterations == 1
        np.testing.assert_allclose(u, want, rtol=1e-12, atol=1e-13 * np.max(np.abs(want)))


class TestBandedCholeskyFailures:
    """The banded Cholesky owner raises the package's errors: a non-finite
    right-hand side NonFiniteIterate, a band that is not positive definite
    EvalError."""

    @staticmethod
    def _problem(pot, lin_op=None):
        m = 7
        lin = np.ones(m)
        lin[3] = np.nan
        return StepProblem(
            quad_op=band_of(np.eye(m) * 10), lin=lin, nonsmooth=pot, h=0.125,
            strong_convexity=10.0, lin_op=lin_op, op_norm=16.0,
        )

    def test_nan_lin_through_the_splitting(self):
        m = 7
        d = DenseSiteOp(_edge_grad(m, 0.125))
        pot = SitePotential(np.full(m + 1, 0.5), np.zeros(m + 1), 2.0, np.ones(m + 1), np.zeros(m + 1))
        with pytest.raises(NonFiniteIterate):
            solve_pd(self._problem(pot, d), np.zeros(m))

    @pytest.mark.parametrize("solver", [solve_pd, solve_prox_gradient])
    def test_nan_lin_through_the_quadratic_solve(self, solver):
        pot = SitePotential(np.zeros(7), np.zeros(7), 2.0, np.ones(7), np.zeros(7))
        assert pot.is_quadratic
        with pytest.raises(NonFiniteIterate):
            solver(self._problem(pot), np.zeros(7))

    def test_indefinite_band(self):
        band = np.array([[0.0, 2.0, 2.0], [1.0, 1.0, 1.0]])
        with pytest.raises(EvalError):
            SymBand(band).factor_plus()
        with pytest.raises(EvalError):
            SymBand(np.ones((1, 3))).factor_plus(-np.full((1, 3), 2.0))

    def test_overflowing_square_norm_is_finite(self):
        # x.x overflows at entries ~1e200, but x is finite: only the
        # elementwise test may decide.
        fac = SymBand(np.ones((1, 4))).factor()
        x = band_solve(fac, np.array([1e200, -1e200, 3.0, 0.0]))
        assert np.array_equal(x, [1e200, -1e200, 3.0, 0.0])
        with pytest.raises(NonFiniteIterate):
            band_solve(fac, np.array([1e200, np.inf, 3.0, 0.0]))

    def test_nan_band(self):
        with pytest.raises(NonFiniteIterate):
            SymBand(np.array([[0.0, np.nan, 1.0], [1.0, 1.0, 1.0]])).factor_plus()


_MEMO_CASES = {
    # g = 0: the cubic's closed form, whose constants the memo holds.
    "cubic": (0.0, 2.0, 0.7),
    # g > 0: the branch root search.
    "branch": (1.3, 1.5, 0.7),
    # No quartic: the power-law prox, whose sigma_eff products the memo
    # holds.
    "power": (1.3, 1.5, 0.0),
    # k4 at the bottom of the doubles: the closed form overflows to nan and
    # the branch root search takes every site.
    "tiny_k4": (0.0, 2.0, 5e-324),
}


class TestSigmaMemo:
    """SitePotential keeps the prox's per-penalty constants in one slot
    keyed on sigma; a potential that has seen other penalties gives the
    prox of a fresh one, bit for bit."""

    @pytest.mark.parametrize("case", sorted(_MEMO_CASES))
    @settings(max_examples=40, deadline=None)
    @given(
        pool=st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=4, unique=True),
        order=st.lists(st.integers(0, 3), min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_prox_matches_a_fresh_potential(self, case, pool, order, seed):
        g, q, k4 = _MEMO_CASES[case]
        rng = np.random.default_rng(seed)
        m = 6
        args = (rng.uniform(0.0, 1.0, m), np.full(m, g), q, rng.uniform(0.0, 2.0, m), rng.standard_normal(m))
        pot = SitePotential(*args, k4=k4)
        # sigma_1, sigma_2, sigma_1 first: a revisit after the slot moved on.
        for i in [0, 1, 0] + order:
            sigma = pool[i % len(pool)]
            z = rng.standard_normal(m) * 3.0
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = pot.prox(sigma, z)
            assert np.array_equal(got, SitePotential(*args, k4=k4).prox(sigma, z))


class TestEdgeConjugatePair:
    @pytest.mark.parametrize("q", [1.05, 1.5, 3.0, 6.0])
    def test_pure_power_closed_form(self, q):
        # psi = (g/q)|s|^q: psi*(lam) = g^(1-q*)|lam|^q*/q*, s* = (|lam|/g)^(1/(q-1)).
        qs = q / (q - 1.0)
        for g in (0.3, 1.0, 7.0):
            lam = np.array([-3.0, -0.2, 0.0, 0.5, 3.0])
            val, s = edge_conjugate_pair(0.0, 0.0, g, q, lam)
            want_val = g ** (1.0 - qs) * np.abs(lam) ** qs / qs
            want_s = np.sign(lam) * (np.abs(lam) / g) ** (1.0 / (q - 1.0))
            np.testing.assert_allclose(val, want_val, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(s, want_s, rtol=1e-12, atol=0.0)

    def test_large_maximizer_is_not_truncated(self):
        # q = 1.05 at lam = 3: s* = 3^20 and psi* = 3^21/21, far beyond 1e6.
        val, s = edge_conjugate_pair(0.0, 0.0, 1.0, 1.05, np.array([3.0]))
        assert val[0] == pytest.approx(3.0**21 / 21.0, rel=1e-12)
        assert s[0] == pytest.approx(3.0**20, rel=1e-12)

    @pytest.mark.parametrize("q", [1.05, 1.5, 3.0, 6.0])
    def test_mixed_potential_solves_stationarity(self, q):
        a, w2, g = 0.4, 0.7, 1.3
        lam = np.linspace(-5.0, 5.0, 41)
        val, s = edge_conjugate_pair(a, w2, g, q, lam)
        t = np.maximum(np.abs(lam) - a, 0.0)
        np.testing.assert_allclose(
            w2 * np.abs(s) + g * np.abs(s) ** (q - 1.0), t, rtol=1e-13, atol=1e-15
        )
        psi = a * np.abs(s) + 0.5 * w2 * s**2 + g / q * np.abs(s) ** q
        np.testing.assert_allclose(val, lam * s - psi, rtol=1e-12, atol=1e-15)


    @settings(max_examples=200, deadline=None)
    @given(
        q=st.floats(1.0, 8.0, exclude_min=True),
        sites=st.lists(
            st.tuples(st.floats(0.0, 1e3), st.floats(0.0, 1e300), st.floats(-1e300, 1e300)),
            min_size=1, max_size=8,
        ),
    )
    def test_no_power_path_matches_the_general_path(self, q, sites):
        # g = 0 everywhere takes the closed form t/w2; one extra site with
        # g > 0 sends the same sites through _power_solve, whose answer
        # must be the same bits wherever s^(q-1) is finite.
        a, w2, lam = (np.array(c) for c in zip(*sites))
        val, s = edge_conjugate_pair(a, w2, np.zeros_like(a), q, lam)
        val_gen, s_gen = edge_conjugate_pair(
            np.append(a, 0.0), np.append(w2, 1.0), np.append(np.zeros_like(a), 1.0), q,
            np.append(lam, 2.0),
        )
        with np.errstate(over="ignore"):
            finite = np.isfinite(np.abs(s) ** (q - 1.0))
        assert np.array_equal(s, s_gen[:-1])
        assert np.array_equal(val[finite], val_gen[:-1][finite])

    @pytest.mark.parametrize("w2", [9.54219455319192e-130, 0.0])
    def test_subnormal_power_weight_does_not_overflow(self, w2):
        # With g = 5e-324, t/g and g s^3 at the root overflow before g
        # scales them down, although s* ~ 1.17e103 and psi* are finite.
        a, g, q = 1.3554718347527341, 5e-324, 4.0
        lam = a + 8e-15
        t = lam - a
        val, s = edge_conjugate_pair(a, w2, g, q, np.array([lam]))
        log_g = np.log(g)
        # Stationarity w2 s + g s^3 = t, the power taken in logs.
        resid = w2 * s[0] + np.exp(log_g + 3.0 * np.log(s[0])) - t
        assert abs(resid) <= 1e-12 * t
        assert s[0] == pytest.approx(1.1739583516573987e103, rel=1e-11)
        psi = 0.5 * w2 * s[0] ** 2 + np.exp(log_g + 4.0 * np.log(s[0])) / q
        assert val[0] == pytest.approx(t * s[0] - psi, rel=1e-10)
        if w2 > 0.0:
            assert val[0] <= t**2 / (2.0 * w2)


class TestNewtonBisect:
    def test_stops_at_once_on_an_overflowing_root(self):
        # The root 1e310 overflows: the iterate starts at hi = inf, which the
        # midpoint of [lo, inf] maps to itself, so the iteration must stop
        # there instead of spinning to its cap.
        calls = []

        def fun(x):
            calls.append(x.copy())
            return 1e-300 * x - 1e10, np.full_like(x, 1e-300)

        x = _newton_bisect(fun, np.array([0.0]), np.array([np.inf]))
        assert x[0] == np.inf
        assert len(calls) <= 2

    def test_two_cycle_of_rounding_stops(self):
        # Newton alternates between a = c + 4 ulp and b = c - 4 ulp, 1.2e-15
        # apart relative (above _ROOT_RTOL): from a it lands on b, and from b
        # back on the bracket end a.  Two evaluations make the bracket
        # [b, a]; the next may not repeat a.
        c = 1.5
        ulp = np.spacing(c)
        a, b = c + 4.0 * ulp, c - 4.0 * ulp
        calls = []

        def fun(x):
            calls.append(x.copy())
            return x - c, np.full_like(x, 0.5)

        x = _newton_bisect(fun, np.array([0.0]), np.array([a]))
        assert [float(v[0]) for v in calls[:2]] == [a, b]
        assert len(calls) <= 2 + 3
        assert abs(x[0] - c) <= 4.0 * ulp

    def test_cap_raises(self):
        # A NaN slope forces bisection, which needs ~1060 halvings from
        # [0, 1e300] to the root 1: the cap is reached and says so.
        with pytest.raises(MaxIterExceeded):
            _newton_bisect(
                lambda x: (x - 1.0, np.full_like(x, np.nan)), np.array([0.0]), np.array([1e300])
            )

    @pytest.mark.parametrize("model, q", [("p1", None), ("p3", 2.5), ("p3", 3.0)])
    def test_no_cap_hits_on_the_models(self, model, q, monkeypatch):
        # The p1_admm config's cokernel shifts (composite_conjugate) and p3's
        # quartic branches (_branch_root) at q = 2.5 and 3, 65 nodes.
        evals = []

        def counting(fun, lo, hi):
            evals.append(0)

            def counted(x):
                evals[-1] += 1
                return fun(x)

            return _newton_bisect(counted, lo, hi)

        monkeypatch.setattr(convex, "_newton_bisect", counting)
        if model == "p1":
            spec = build_p1(P1Params(n_nodes=33, horizon=0.5))
        else:
            spec = build_p3(P3Params(q=q, n_nodes=65, horizon=0.125))
        traj = run(spec, 1.0 / 64.0, inner_tol=1e-9)
        assert evals and max(evals) <= 10
        assert max(r.fy_gap for r in traj.reports) <= 1e-8


def _mp_power_root(w, g, q, t):
    """The root of w s + g s^(q-1) = t at 50 digits, by bisection on [0, hi],
    hi the bound at which either term alone reaches t."""
    with mpmath.workdps(50):
        w, g, q, t = (mpmath.mpf(c) for c in (w, g, q, t))
        hi = min(t / w if w else mpmath.inf, (t / g) ** (1 / (q - 1)) if g else mpmath.inf)
        lo = mpmath.mpf(0)
        for _ in range(240):
            mid = (lo + hi) / 2
            if w * mid + g * mid ** (q - 1) > t:
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2


_decades = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)


def _assert_power_root(s, w, g, q, t, ref):
    """s is the 50-digit root ref of w s + g s^(q-1) = t to the precision
    that `_power_solve` promises."""
    if ref > np.finfo(float).max:
        assert s == np.inf
    else:
        # Subnormal roots carry no relative precision.  Where the w-term
        # holds at least half of t the root is well conditioned and must be
        # exact to a few ulp, also for q near 1.  With w = 0 the polished
        # closed form erred by at most 0.9 eps (1 + r), r = 1/(q-1), over
        # 14,568 random draws in these ranges.
        eps = np.finfo(float).eps
        if w == 0.0:
            rtol = 2.0 * eps * (1.0 + 1.0 / (q - 1.0))
        else:
            rtol = 4.0 * eps if w * ref >= 0.5 * t else 1e-13
        assert abs(s - ref) <= rtol * ref + _TINY


# Guesses of a root: none (NaN, inf), zero, and the root times 10^u for u
# in [-3, 3], so below, at and above it.
_starts = st.one_of(st.sampled_from(["nan", "inf", "zero"]), st.just(0.0), st.floats(-3.0, 3.0))
_SPECIAL_STARTS = {"nan": np.nan, "inf": np.inf, "zero": 0.0}


def _guess(kind, root):
    """The guess that _starts draws for a root: a special value, or the
    root times 10^kind."""
    if isinstance(kind, str):
        return _SPECIAL_STARTS[kind]
    with np.errstate(over="ignore"):
        return float(root) * 10.0**kind


class TestPowerSolve:
    @settings(max_examples=300, deadline=None)
    @given(
        q=st.floats(1.01, 8.0),
        w=st.one_of(_decades, st.just(0.0)),
        g=st.one_of(_decades, st.sampled_from([0.0, 5e-324])),
        t=st.floats(-12.0, 12.0).map(lambda e: 10.0**e),
    )
    def test_matches_a_50_digit_root(self, q, w, g, t):
        assume(w > 0.0 or g > 0.0)
        with np.errstate(over="ignore"):
            s = float(_power_solve(np.array([w]), np.array([g]), q, np.array([t]))[0])
        _assert_power_root(s, w, g, q, t, _mp_power_root(w, g, q, t))

    @settings(max_examples=300, deadline=None)
    @given(
        q=st.floats(1.01, 8.0),
        w=st.one_of(_decades, st.just(0.0)),
        g=st.one_of(_decades, st.sampled_from([0.0, 5e-324])),
        t=st.floats(-12.0, 12.0).map(lambda e: 10.0**e),
        kind=_starts,
    )
    def test_a_start_keeps_the_50_digit_root(self, q, w, g, t, kind):
        # A guess anywhere, or none, starts the root without moving it: one
        # Newton step from a guess below the root lands above it.
        assume(w > 0.0 or g > 0.0)
        ref = _mp_power_root(w, g, q, t)
        start = np.array([_guess(kind, ref)])
        with np.errstate(over="ignore"):
            s = float(_power_solve(np.array([w]), np.array([g]), q, np.array([t]), start)[0])
        _assert_power_root(s, w, g, q, t, ref)

    @pytest.mark.parametrize("w", [0.0, 1e-300])
    def test_subnormal_power_weight_near_overflow(self, w):
        # t/g overflows and k = (t/g)^r ~ 1.8e305 is finite, but k/t is
        # not: the root in units of k must not be taken there (it gave NaN
        # for w = 0 and 0 for w = 1e-300).
        q, g, t = 2.01, 5e-324, 1e-15
        with np.errstate(over="ignore"):
            s = float(_power_solve(np.array([w]), np.array([g]), q, np.array([t]))[0])
        ref = _mp_power_root(w, g, q, t)
        assert abs(s - ref) <= 1e-13 * ref

    def test_monotone_newton_raises_on_nan(self):
        with pytest.raises(MaxIterExceeded):
            _monotone_newton(lambda x: (x * np.nan, np.ones_like(x)), np.array([1.0]))

    @pytest.mark.parametrize("q", [1.1, 1.5, 3.0])
    def test_few_evaluations_per_root_on_p2(self, q, monkeypatch):
        # p2 at 65 nodes, tau = 1/64, T = 0.125: every root of _power_solve
        # takes at most 8 evaluations of its function, whichever root
        # finder it uses, the evaluation at the ADMM's warm start included,
        # and at most 1.15 times the measured mean per root; every step
        # certifies.
        mean_evals = {1.1: 1.972, 1.5: 2.142, 3.0: 2.364}[q]
        active, per_call = [], []
        power_solve = convex._power_solve

        def counted_power_solve(*args):
            active.append(0)
            try:
                return power_solve(*args)
            finally:
                per_call.append(active.pop())

        def counting(finder):
            def wrapped(fun, *args):
                def counted(x):
                    if active:
                        active[-1] += 1
                    return fun(x)

                return finder(counted, *args)

            return wrapped

        monkeypatch.setattr(convex, "_power_solve", counted_power_solve)
        for name in ("_newton_bisect", "_monotone_newton"):
            finder = getattr(convex, name, None)
            if finder is not None:
                monkeypatch.setattr(convex, name, counting(finder))
        traj = run(build_p2(P2Params(q=q, n_nodes=65, horizon=0.125)), 1.0 / 64.0, inner_tol=1e-9)
        assert max(per_call) > 0
        assert max(per_call) <= 8
        assert np.mean(per_call) <= 1.15 * mean_evals
        assert max(r.fy_gap for r in traj.reports) <= 1e-8


# Parameter ranges of the kernel properties: weights up to 1e3, exponents
# from just above 1 to 6, arguments up to 1e8 in magnitude.
_weights = st.floats(0.0, 1e3)
_exponents = st.floats(1.01, 6.0, exclude_min=True)
_arguments = st.floats(-1e8, 1e8)
_gammas = st.floats(1e-3, 1e3)
# Subnormal results carry no relative precision.
_TINY = np.finfo(float).tiny


class TestKernelProperties:
    @given(a=_weights, g=_weights, w2=_weights, q=_exponents, x=_arguments, gamma=_gammas)
    @settings(max_examples=500, deadline=None)
    def test_fenchel_young_equality_at_prox_outputs(self, a, g, w2, q, x, gamma):
        pot = SitePotential([a], [g], q, w2, [0.0])
        y = pot.prox(gamma, np.array([x]))
        p = (x - y) / gamma
        # Rounding y to a float moves p by up to delta, and the gap by at
        # most the change of the conjugate and of the pairing over delta
        # (this dominates when a tiny quadratic weight makes psi* steep).
        delta = 4.0 * np.finfo(float).eps * (abs(x) + abs(y[0])) / gamma
        with np.errstate(over="ignore"):
            conj = pot.conjugate_sum(p)
            conj_moved = pot.conjugate_sum(np.abs(p) + delta)
        assume(np.isfinite(conj_moved))
        val = pot.value(y)
        pair = float(p[0] * y[0])
        gap = val + conj - pair
        rounding = conj_moved - conj + delta * abs(y[0])
        assert abs(gap) <= 1e-9 * (abs(val) + abs(conj) + abs(pair)) + rounding + _TINY

    @given(a=_weights, g=_weights, w2=_weights, q=_exponents, lam=_arguments)
    @settings(max_examples=500, deadline=None)
    def test_conjugate_dominates_grid_oracle(self, a, g, w2, q, lam):
        with np.errstate(over="ignore"):
            val, s = edge_conjugate_pair(a, w2, g, q, np.array([lam]))
        assume(np.isfinite(val[0]) and np.isfinite(s[0]))

        def psi(v):
            # Factored so that subnormal weights do not underflow first.
            v = np.abs(v)
            return v * (a + w2 * v / 2.0 + g * v ** (q - 1.0) / q)

        # Search a grid around the maximizer, where psi must be finite.
        box = 2.0 * abs(s[0]) + 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            assume(np.isfinite(psi(box)))
        # The maximizer attains the value ...
        attained = lam * s[0] - float(psi(s[0]))
        assert abs(val[0] - attained) <= 1e-12 * (abs(lam * s[0]) + abs(val[0])) + _TINY
        # ... and no grid point does better.
        oracle = conjugate_numeric(psi, lam, search_box=box, steps=10**5)
        assert oracle <= val[0] + 1e-12 * (abs(lam) * box + abs(val[0])) + _TINY

    @given(a=_weights, g=_weights, w2=_weights, q=_exponents, x=_arguments, sigma=_gammas)
    @settings(max_examples=500, deadline=None)
    def test_moreau_identity(self, a, g, w2, q, x, sigma):
        # prox_{sigma f}(x) + sigma prox_{f*/sigma}(x/sigma) = x: with
        # y = prox_{sigma f}(x), p = (x - y)/sigma is a subgradient of f at
        # y, so y is the conjugate's maximizer at p.  f* is differentiable
        # unless f is dry friction alone.
        assume(g > 0.0 or w2 > 0.0)
        pot = SitePotential([a], [g], q, w2, [0.0])
        y = pot.prox(sigma, np.array([x]))[0]
        p = (x - y) / sigma
        # Rounding y to a float moves p by up to delta, and the maximizer,
        # which increases with p, by at most its change over delta.
        delta = 4.0 * np.finfo(float).eps * (abs(x) + abs(y)) / sigma
        with np.errstate(over="ignore", divide="ignore"):
            _, s = edge_conjugate_pair(a, w2, g, q, np.array([p - delta, p, p + delta]))
            spread = s[2] - s[0]
        assume(np.all(np.isfinite(s)))
        assert abs(s[1] - y) <= spread + 1e-12 * abs(y) + _TINY

    @given(
        a=_weights, g=_weights, w2=_weights, q=_exponents,
        x1=_arguments, x2=_arguments, gamma=_gammas,
    )
    @settings(max_examples=500, deadline=None)
    def test_prox_monotone_in_input(self, a, g, w2, q, x1, x2, gamma):
        pot = SitePotential([a, a], [g, g], q, w2, [0.0, 0.0])
        lo, hi = pot.prox(gamma, np.array([min(x1, x2), max(x1, x2)]))
        assert lo <= hi + 1e-14 * (abs(lo) + abs(hi))

    @settings(max_examples=300, deadline=None)
    @given(
        a=_weights, g=_weights, w2=_weights, q=st.floats(1.01, 8.0),
        x=_arguments, sigma=_gammas, kind=_starts, flip=st.booleans(),
    )
    def test_prox_with_a_start_matches_the_prox(self, a, g, w2, q, x, sigma, kind, flip):
        # The start only speeds up the root: the output is the prox's to
        # 4 ulp of the larger of |y| and |y - c|, times 1 + r (r = 1/(q-1))
        # where q < 2 and the power term holds more than half of the root's
        # equation, since s = y^r carries r times the rounding of y there.
        # The guess may have either sign.
        pot = SitePotential([a], [g], q, w2, [0.3])
        y = pot.prox(sigma, np.array([x]))
        d = y[0] - 0.3
        start = 0.3 + (-1.0 if flip else 1.0) * np.array([_guess(kind, d)])
        got = pot.prox(sigma, np.array([x]), start=start)
        den = 1.0 + sigma * w2
        t = abs(x - 0.3) / den - sigma / den * a
        ulps = 4.0 if q > 2.0 or abs(d) >= 0.5 * t else 4.0 * (1.0 + 1.0 / (q - 1.0))
        assert abs(got[0] - y[0]) <= ulps * np.spacing(max(abs(y[0]), abs(d))) + _TINY
