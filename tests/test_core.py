"""Problem-model types, energy evaluation, and the assumption validator."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proxdyn.core import (
    DissipationSpec,
    EnergySpec,
    PerturbationSpec,
    ProblemSpec,
    check_step,
    energy_total,
    step_count,
    tau_max,
    validate_assumptions,
)
from oracles import (
    band_of,
    biharmonic_clamped_dense,
    defect_shift,
    dense_of,
    gradient_consistency_error,
    gradient_matrix,
)
from proxdyn.convex import SymBand
from proxdyn.errors import ConfigError, EvalError, StepSizeTooLarge
from proxdyn.grid import (
    Field,
    ForwardDifference,
    SpatialGrid,
    biharmonic_band,
    dirichlet_mode,
    h_norm,
    laplacian_band,
    laplacian_matrix,
    q_norm,
)
from proxdyn.stepper import run


def simple_separable(m, a=0.0, g=1.0, q=2.0, growth_c=0.4, growth_C=2.0):
    return DissipationSpec(
        kind="separable",
        state_dep=lambda s: (np.full(m, a), np.full(m, g)),
        q=q,
        growth_c=growth_c,
        growth_C=growth_C,
    )


def double_well_parts(m, scale=1.0):
    """The decomposition of E2 = scale * h * sum (1 - u^2)^2 = scale * h *
    sum u^4 + 0.5 <-4 scale I u, u>_h + scale h m, nodal sites, without
    the constant scale h m."""
    return {"site_quartic": scale, "quad_shift": SymBand(np.full((1, m), -4.0 * scale))}


def make_spec(grid, quad, smooth=None, dissipation=None, pert=None, horizon=1.0):
    m = grid.n_interior
    energy_kwargs = {"quad_op": quad}
    if smooth is not None:
        energy_kwargs.update(smooth)
    return ProblemSpec(
        grid=grid,
        energy=EnergySpec(**energy_kwargs),
        dissipation=dissipation or simple_separable(m),
        perturbation=pert or PerturbationSpec(),
        force=None,
        horizon=horizon,
        u0=Field(np.zeros(m), grid),
        v0=Field(np.zeros(m), grid),
    )


class TestGrid:
    def test_invariants(self):
        g = SpatialGrid(11, 0.1)
        assert g.n_interior == 9
        assert g.length == pytest.approx(1.0)
        with pytest.raises(ConfigError):
            SpatialGrid(2, 0.1)
        with pytest.raises(ConfigError):
            SpatialGrid(5, -1.0)

    def test_field_norms(self):
        g = SpatialGrid(5, 0.25)
        f = Field(np.array([1.0, -2.0, 2.0]), g)
        assert h_norm(f.values, g.h) == pytest.approx(np.sqrt(0.25 * 9))
        assert q_norm(f.values, g.h, 3.0) == pytest.approx((0.25 * (1 + 8 + 8)) ** (1 / 3))
        zero = Field(np.zeros(3), g)
        assert h_norm(zero.values, g.h) == 0.0

    def test_field_dimension_mismatch(self):
        g = SpatialGrid(5, 0.25)
        with pytest.raises(ConfigError):
            Field(np.zeros(4), g)
        with pytest.raises(ConfigError):
            Field(np.array([1.0, np.nan, 0.0]), g)

    def test_gradient_transpose_pairing(self):
        g = SpatialGrid(9, 0.125)
        d = gradient_matrix(g)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(7)
        p = rng.standard_normal(8)
        assert np.dot(d @ u, p) == pytest.approx(np.dot(u, d.T @ p), rel=1e-13)


_EPS = np.finfo(float).eps
_SUBNORMAL = np.finfo(float).smallest_subnormal


class TestForwardDifference:
    """The O(m) operator D against gradient_matrix's dense D."""

    @staticmethod
    def _draw(m, h, seed):
        g = SpatialGrid(m + 2, h)
        rng = np.random.default_rng(seed)
        return ForwardDifference(m, h), gradient_matrix(g), rng

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(1, 64),
        h=st.floats(1e-4, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_products_match_dense(self, m, h, seed):
        d, dense, rng = self._draw(m, h, seed)
        u = rng.standard_normal(m)
        p = rng.standard_normal(m + 1)
        inv = 1.0 / h
        np.testing.assert_allclose(
            d @ u, dense @ u, rtol=0.0, atol=4 * _EPS * inv * np.max(np.abs(u))
        )
        np.testing.assert_allclose(
            d.T @ p, dense.T @ p, rtol=0.0, atol=4 * _EPS * inv * np.max(np.abs(p))
        )

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(1, 64),
        h=st.floats(1e-4, 1e3),
        w_scale=st.floats(0.0, 1e6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gram_band_matches_dense(self, m, h, w_scale, seed):
        d, dense, rng = self._draw(m, h, seed)
        w = w_scale * rng.uniform(0.0, 1.0, m + 1)
        w[rng.uniform(size=m + 1) < 0.2] = 0.0
        want = dense.T @ (w[:, None] * dense)
        band = d.gram_band(w)
        assert band.shape == (2, m)
        got = np.diag(band[1]) + np.diag(band[0, 1:], 1) + np.diag(band[0, 1:], -1)
        assert band[0, 0] == 0.0
        np.testing.assert_allclose(
            got, want, rtol=0.0,
            # Subnormal weights: the dense product rounds w_e/h to the
            # subnormal grid before the second 1/h scales that error up.
            atol=8 * _EPS * np.max(w, initial=0.0) / h**2 + 8 * _SUBNORMAL * (1.0 + 1.0 / h) ** 2,
        )

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(1, 64),
        h=st.floats(1e-4, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_adjoint_pairing(self, m, h, seed):
        d, _, rng = self._draw(m, h, seed)
        u = rng.standard_normal(m)
        p = rng.standard_normal(m + 1)
        lhs = float(np.dot(d @ u, p))
        rhs = float(np.dot(u, d.T @ p))
        scale = 2.0 * np.max(np.abs(u)) * np.sum(np.abs(p)) / h
        assert abs(lhs - rhs) <= 4 * (m + 2) * _EPS * scale


class TestBiharmonicBand:
    def test_matches_dense_oracle(self):
        for n_nodes in range(3, 66):
            g = SpatialGrid(n_nodes, 1.0 / (n_nodes - 1))
            want = biharmonic_clamped_dense(g)
            got = dense_of(SymBand(biharmonic_band(g)))
            if (n_nodes - 1) & (n_nodes - 2) == 0:
                # h a power of two: every entry is exact on both sides.
                np.testing.assert_array_equal(got, want, err_msg=f"n_nodes {n_nodes}")
            else:
                np.testing.assert_allclose(
                    got, want, rtol=4 * _EPS, atol=0.0, err_msg=f"n_nodes {n_nodes}"
                )


class TestDirichletMode:
    """The closed-form lowest eigenpair of the Dirichlet D^T D against the
    dense eigensolver, on grids of any length L = (n_nodes - 1) h."""

    @settings(max_examples=100, deadline=None)
    @given(n_nodes=st.integers(3, 400), h=st.floats(1e-3, 10.0))
    def test_matches_the_dense_eigenpair(self, n_nodes, h):
        g = SpatialGrid(n_nodes, h)
        a = laplacian_matrix(g)
        w, v = np.linalg.eigh(a)
        lam1, phi1 = dirichlet_mode(g)
        tol = 64 * _EPS * w[-1]
        assert abs(lam1 - w[0]) <= tol
        assert abs(h_norm(phi1, h) - 1.0) <= 1e-14
        assert np.all(phi1 > 0)
        assert h_norm(a @ phi1 - lam1 * phi1, h) <= tol
        if n_nodes > 3:
            # Both vectors are h-normalised and positive; each is within its
            # residual over the spectral gap of the true eigenvector.
            dense = v[:, 0] * np.sign(np.sum(v[:, 0])) / np.sqrt(h)
            assert h_norm(phi1 - dense, h) <= tol / (w[1] - w[0])

    @pytest.mark.parametrize("h", [0.25, 1.0, 3.0])
    def test_one_unknown(self, h):
        # D^T D is the 1 x 1 matrix 2/h^2, whose h-normalised eigenvector
        # is 1/sqrt(h); L = 2h differs from 1 (and from 2 but at h = 1).
        lam1, phi1 = dirichlet_mode(SpatialGrid(3, h))
        assert lam1 == pytest.approx(2.0 / h**2, rel=4 * _EPS, abs=0.0)
        np.testing.assert_allclose(phi1, [1.0 / np.sqrt(h)], rtol=4 * _EPS, atol=0.0)


class TestDenseEnergyInput:
    def test_band_input_is_kept(self):
        g = SpatialGrid(11, 0.1)
        band = SymBand(laplacian_band(g))
        energy = make_spec(g, band).energy
        assert energy.quad_op is band
        assert validate_assumptions(make_spec(g, band), 10).passed


class TestEnergyTotal:
    def test_zero_state(self):
        g = SpatialGrid(5, 0.25)
        spec = make_spec(g, band_of(2.0 * np.eye(3)))
        assert energy_total(spec, 0.0, np.zeros(3)) == 0.0

    def test_laplacian_hand_assembly(self):
        # 1 interior node, h = 0.5: K = 2/h^2 = 8, E = 0.5*h*K = 2.0.
        g = SpatialGrid(3, 0.5)
        spec = make_spec(g, SymBand(laplacian_band(g)))
        val = energy_total(spec, 0.0, np.array([1.0]))
        assert val == pytest.approx(0.5 * (2.0 / 0.25) * 1.0 * 0.5)
        assert val == pytest.approx(2.0)

    def test_double_well_at_bottom(self):
        # h sum (1 - u^2)^2 = 0 at u = 1, less the constant h m.
        g = SpatialGrid(12, 0.1)
        m = g.n_interior
        spec = make_spec(g, band_of(np.zeros((m, m))), smooth=double_well_parts(m))
        assert energy_total(spec, 0.0, np.ones(m)) == pytest.approx(-g.h * m)

    def test_symmetry_pairing_property(self):
        g = SpatialGrid(9, 0.125)
        a = laplacian_matrix(g)
        rng = np.random.default_rng(1)
        for _ in range(10):
            u, v = rng.standard_normal(7), rng.standard_normal(7)
            lhs = g.h * np.dot(a @ u, v)
            rhs = g.h * np.dot(a @ v, u)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


class TestValidateAssumptions:
    def test_laplacian_all_pass(self):
        g = SpatialGrid(11, 0.1)
        spec = make_spec(g, SymBand(laplacian_band(g)))
        report = validate_assumptions(spec, 40)
        assert report.passed
        assert tau_max(spec) == float("inf")

    def test_double_well_modulus(self):
        # W(s) = (1-s^2)^2 has W'' >= -4, so W + 2 s^2 is convex (a scalar
        # brute force), and 2 * scale per site bounds the defect of the
        # double well scale * h * sum W(u_i).  With the Laplacian the
        # derived defect is the sharper 2 * scale - lambda_1(A)/2: scale = 4
        # is a real defect, scale = 2 none.
        s = np.linspace(-3, 3, 2001)
        w = (1 - s**2) ** 2 + 2 * s**2
        mids = 0.5 * (w[:-2] + w[2:])
        assert np.all(w[1:-1] <= mids + 1e-12)

        g = SpatialGrid(11, 0.1)
        m = g.n_interior
        lam1 = np.linalg.eigvalsh(laplacian_matrix(g))[0]
        for scale, lam in ((4.0, 8.0 - lam1 / 2), (2.0, 0.0)):
            spec = make_spec(g, SymBand(laplacian_band(g)), smooth=double_well_parts(m, scale))
            assert spec.energy.lambda_conv == pytest.approx(lam, rel=1e-12, abs=0.0)
            assert spec.energy.lambda_conv <= 2.0 * scale
            assert validate_assumptions(spec, 60).passed
            assert tau_max(spec) == (float("inf") if lam == 0.0 else pytest.approx(1 / (2 * lam)))

    def test_indefinite_operator_rejected(self):
        g = SpatialGrid(11, 0.1)
        spec = make_spec(g, SymBand(-laplacian_band(g)))
        report = validate_assumptions(spec, 10)
        pos = next(c for c in report.checks if c.name == "quad_op_positivity")
        assert not pos.passed
        top = np.linalg.eigvalsh(laplacian_matrix(g))[-1]
        assert pos.worst == pytest.approx(top, rel=1e-12)
        assert not report.passed

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["separable", "grad_composite"]),
        q=st.floats(1.0, 8.0, exclude_min=True),
        visc=st.floats(0.0, 1e300),
        coeffs=st.lists(st.floats(0.0, 1e300), min_size=16, max_size=16),
        state=st.lists(st.floats(-1e3, 1e3), min_size=7, max_size=7),
    )
    def test_potential_zero_at_rest(self, kind, q, visc, coeffs, state):
        # Psi_u(0) = h sum f(0) is exactly 0 for every potential whose
        # scalars and coefficients the spec accepts, which is why the
        # validator has no zero-at-rest check.
        g = SpatialGrid(9, 0.125)
        n = 7 if kind == "separable" else 8
        a, w = np.array(coeffs[:n]), np.array(coeffs[8:8 + n])
        dissipation = DissipationSpec(
            kind=kind, state_dep=lambda s: (a, w), q=q,
            visc=visc if kind == "grad_composite" else 0.0,
        )
        pot = dissipation.potential(Field(np.array(state), g))
        assert pot.value(np.zeros(n)) == 0.0

    @pytest.mark.parametrize("lam", [0.0, 1.5])
    def test_lambda_convexity_sees_the_lowest_mode(self, lam):
        # quad_shift = -(factor lambda_1(A) + 2 lam) I moves K's lowest
        # eigenvalue alone below -2 lam, by 1 % of lambda_1(A) (factor
        # 1.01), or leaves it above (0.99): the derived defect follows
        # lambda_min(K), which Gaussian samples of E_t weight least.
        g = SpatialGrid(65, 1.0 / 64)
        m = g.n_interior
        quad = SymBand(laplacian_band(g))
        lam1 = quad.eigenvalue(0)
        for factor, want in ((1.01, lam + 0.005 * lam1), (0.99, max(0.0, lam - 0.005 * lam1))):
            shift = SymBand(np.full((1, m), -(factor * lam1 + 2.0 * lam)))
            spec = make_spec(g, quad, smooth={"quad_shift": shift})
            assert spec.energy.lambda_conv == pytest.approx(want, rel=1e-9, abs=1e-12)
            assert validate_assumptions(spec, 32).passed

    def test_lambda_convexity_evaluates_no_energy(self, monkeypatch):
        # The defect is the eigenvalue of the decomposition's quadratic
        # part: deriving it samples neither E_t nor lin_part.
        import proxdyn.core as core

        def forbidden(*args, **kwargs):
            raise AssertionError("the defect evaluated the energy")

        monkeypatch.setattr(core, "energy_total", forbidden)
        g = SpatialGrid(11, 0.1)
        m = g.n_interior
        smooth = {"lin_part": forbidden, **double_well_parts(m, 4.0)}
        spec = make_spec(g, SymBand(laplacian_band(g)), smooth=smooth)
        assert spec.energy.lambda_conv > 0.0
        assert validate_assumptions(spec, 20).passed

    def test_lambda_convexity_interpolation_property(self):
        g = SpatialGrid(11, 0.1)
        m = g.n_interior
        spec = make_spec(g, SymBand(laplacian_band(g)), smooth=double_well_parts(m, 4.0))
        lam = spec.energy.lambda_conv
        assert lam > 0.0
        rng = np.random.default_rng(5)
        h = g.h
        for _ in range(40):
            u = rng.standard_normal(m)
            v = rng.standard_normal(m)
            th = rng.uniform()
            e_mid = energy_total(spec, 0.0, th * u + (1 - th) * v)
            bound = (
                th * energy_total(spec, 0.0, u)
                + (1 - th) * energy_total(spec, 0.0, v)
                + th * (1 - th) * lam * h * np.sum((u - v) ** 2)
            )
            assert e_mid <= bound + 1e-10

    def test_samples_must_be_positive(self):
        g = SpatialGrid(5, 0.25)
        spec = make_spec(g, SymBand(laplacian_band(g)))
        with pytest.raises(ConfigError):
            validate_assumptions(spec, 0)

    def test_perturbation_continuity_probe(self):
        g = SpatialGrid(11, 0.1)
        m = g.n_interior
        pert = PerturbationSpec(
            eval=lambda t, u, v: Field(np.tanh(u.values) + 0.5 * v.values, g)
        )
        spec = make_spec(g, SymBand(laplacian_band(g)), pert=pert)
        report = validate_assumptions(spec, 20)
        cont = next(c for c in report.checks if c.name == "perturbation_continuity")
        assert cont.passed


class TestDerivedDefect:
    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(1, 40),
        bw=st.integers(0, 2),
        shift_bw=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(1e-3, 1e3),
        th=st.floats(0.1, 0.9),
    )
    def test_sharp_lambda_of_any_band(self, m, bw, shift_bw, seed, scale, th):
        # lambda_conv = max(0, -lambda_min(K)/2) against a dense eigvalsh
        # of K = A + quad_shift; along K's lowest eigenvector u (v = -u)
        # the interpolation inequality holds at lambda and fails at
        # 0.99 lambda.
        rng = np.random.default_rng(seed)
        g = SpatialGrid(m + 2, 1.0 / (m + 1))
        quad = SymBand(scale * rng.standard_normal((bw + 1, m)))
        shift = SymBand(scale * rng.standard_normal((shift_bw + 1, m)))
        spec = make_spec(g, quad, smooth={"quad_shift": shift})
        k = dense_of(quad) + dense_of(shift)
        evals, evecs = np.linalg.eigh(k)
        lam = spec.energy.lambda_conv
        kmax = np.abs(k).max()
        assert abs(lam - max(0.0, -0.5 * evals[0])) <= 1e-12 * kmax

        u = evecs[:, 0]
        w2 = g.h * np.sum((2.0 * u) ** 2)
        mid = energy_total(spec, 0.0, (2 * th - 1) * u)
        ends = energy_total(spec, 0.0, u)  # E(-u) = E(u)

        def excess(lam_):
            return mid - (ends + th * (1 - th) * lam_ * w2)

        assert excess(lam) <= 1e-12 * kmax * w2
        if lam > 1e-9 * kmax:
            assert excess(0.99 * lam) > 0.0


class TestTauMax:
    def test_infinite_without_defect(self):
        g = SpatialGrid(5, 0.25)
        assert tau_max(make_spec(g, SymBand(laplacian_band(g)))) == float("inf")

    def test_lemma_bound(self):
        g = SpatialGrid(5, 0.25)
        quad = SymBand(laplacian_band(g))
        spec = make_spec(g, quad, smooth={"quad_shift": defect_shift(quad, 4.0)})
        assert tau_max(spec) == pytest.approx(1 / 8)

    def test_strict_convexity_bound_below_one_half(self):
        # For lambda < 1/2 the inertia bound 1/tau^2 > 2*lambda is the
        # tighter one: tau_max = 1/sqrt(2*lambda) < 1/(2*lambda).
        g = SpatialGrid(5, 0.25)
        quad = SymBand(laplacian_band(g))
        spec = make_spec(g, quad, smooth={"quad_shift": defect_shift(quad, 0.4)})
        assert tau_max(spec) == pytest.approx(1 / np.sqrt(0.8))
        assert check_step(spec, 1.1) == pytest.approx(1 / 1.21 - 0.8)
        for tau in (tau_max(spec), 1.12, 1.25, 1.3):
            with pytest.raises(StepSizeTooLarge):
                check_step(spec, tau)

    def test_step_bound_at_and_above_one_half(self):
        g = SpatialGrid(5, 0.25)
        quad = SymBand(laplacian_band(g))
        spec = make_spec(g, quad, smooth={"quad_shift": defect_shift(quad, 4.0)})
        assert check_step(spec, 1 / 8) == pytest.approx(64 - 8)
        with pytest.raises(StepSizeTooLarge):
            check_step(spec, 1 / 8 * (1 + 1e-9))
        # A StepSizeTooLarge is a ConfigError.
        with pytest.raises(ConfigError):
            check_step(spec, 1.0)


class TestStepCount:
    def test_divisor(self):
        assert step_count(1.0, 0.125) == 8
        assert step_count(0.3, 0.1) == 3

    @pytest.mark.parametrize("tau", [0.3, 2.0, 0.0, -0.5, 1e-320])
    def test_non_divisor_is_config_error(self, tau):
        with pytest.raises(ConfigError, match="does not divide"):
            step_count(1.0, tau)


class TestGradientConsistency:
    def test_supplied_gradient_matches_finite_differences(self):
        g = SpatialGrid(11, 0.1)
        m = g.n_interior
        smooth = {"lin_part": lambda t: np.full(m, -t), **double_well_parts(m)}
        spec = make_spec(g, SymBand(laplacian_band(g)), smooth=smooth)
        assert gradient_consistency_error(spec, samples=5) <= 1e-6


class TestSpecValidation:
    @pytest.mark.parametrize("which", [0, 1], ids=["a", "g"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_dissipation_coefficient_rejected(self, bad, which):
        # max(worst, nan) keeps worst, so a NaN coefficient would slip
        # through every sampled check; the coefficients themselves are
        # refused, before any check or step uses them.
        g = SpatialGrid(11, 0.1)
        m = g.n_interior

        def state_dep(state):
            coeffs = [np.full(m, 0.5), np.ones(m)]
            coeffs[which][3] = bad
            return tuple(coeffs)

        dissipation = DissipationSpec(
            kind="separable", state_dep=state_dep, q=1.5, growth_c=0.1, growth_C=10.0
        )
        spec = make_spec(g, SymBand(laplacian_band(g)), dissipation=dissipation, horizon=0.25)
        with pytest.raises(EvalError, match="finite"):
            dissipation.coefficients(Field(np.zeros(m), g))
        with pytest.raises(EvalError, match="finite"):
            validate_assumptions(spec, 10)
        with pytest.raises(EvalError, match="finite"):
            run(spec, 0.125)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", ["visc", "q", "growth_c", "growth_C"])
    def test_non_finite_scalar_rejected(self, name, bad):
        # A NaN compares false with every bound, so the range checks alone
        # let it through.
        kwargs = {"kind": "grad_composite", "state_dep": lambda s: None, "q": 2.0, name: bad}
        with pytest.raises(ConfigError, match="finite"):
            DissipationSpec(**kwargs)

    def test_dimension_mismatch(self):
        g = SpatialGrid(5, 0.25)
        with pytest.raises(ConfigError):
            make_spec(g, band_of(np.eye(4)))

    def test_dissipation_ranges(self):
        with pytest.raises(ConfigError):
            DissipationSpec(kind="separable", state_dep=lambda s: None, q=1.0)
        with pytest.raises(ConfigError):
            DissipationSpec(kind="separable", state_dep=lambda s: None, q=2.0, visc=1.0)
        with pytest.raises(ConfigError):
            DissipationSpec(kind="other", state_dep=lambda s: None, q=2.0)

    def test_energy_spec_ranges(self):
        # The defect is derived, never given.
        assert "lambda_conv" not in {f.name for f in dataclasses.fields(EnergySpec)}
        with pytest.raises(ConfigError):
            EnergySpec(quad_op=band_of(np.eye(3)), site_quartic=-1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("where", ["site_quartic", "quad_op", "quad_shift"])
    def test_non_finite_energy_rejected(self, where, bad):
        # A NaN compares false with every bound: `site_quartic < 0` admits
        # it, and energy_total's `site_quartic > 0` would drop the quartic;
        # a non-finite band entry would reach the eigensolver.
        kwargs = {"quad_op": band_of(np.eye(3)), "quad_shift": band_of(-0.5 * np.eye(3))}
        if where == "site_quartic":
            kwargs["site_quartic"] = bad
        else:
            kwargs[where].band[-1, 1] = bad
        with pytest.raises(ConfigError, match="finite"):
            EnergySpec(**kwargs)


class TestUserCallableOutput:
    """`core.user_values` checks what a user callable returns: m finite
    floats (a Field unwrapped), else an EvalError naming it and t."""

    def test_scalar_force_on_a_hand_built_spec_rejected(self):
        g = SpatialGrid(9, 0.125)
        spec = dataclasses.replace(make_spec(g, SymBand(laplacian_band(g))), force=lambda t: 1.0)
        with pytest.raises(EvalError, match=r"force at t=0\.0"):
            spec.force_values(0.0)
        with pytest.raises(EvalError, match="force"):
            run(spec, 0.25, max_iter=2)

    def test_field_force_is_unwrapped(self):
        g = SpatialGrid(9, 0.125)
        m = g.n_interior
        spec = dataclasses.replace(
            make_spec(g, SymBand(laplacian_band(g))), force=lambda t: Field(np.full(m, t), g)
        )
        np.testing.assert_array_equal(spec.force_values(0.5), np.full(m, 0.5))

    @pytest.mark.parametrize(
        "out", [np.zeros(3), np.zeros((7, 1)), 0.5, "x", np.full(7, np.nan)],
        ids=["short", "column", "scalar", "string", "nan"],
    )
    def test_wrong_perturbation_rejected(self, out):
        g = SpatialGrid(9, 0.125)
        m = g.n_interior
        pert = PerturbationSpec(eval=lambda t, u, v: out)
        with pytest.raises(EvalError, match=r"perturbation .*t=0\.25"):
            pert(0.25, np.zeros(m), np.zeros(m), g)
