"""Problem-model types, energy evaluation, and the assumption validator."""

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


def double_well_parts(m):
    """The decomposition of E2 = h * sum (1 - u^2)^2 = h * sum u^4
    + 0.5 <-4 I u, u>_h + h m, nodal sites, without the constant h m."""
    return {"site_quartic": 1.0, "quad_shift": SymBand(np.full((1, m), -4.0))}


def make_spec(grid, quad, lam=0.0, smooth=None, dissipation=None, pert=None, horizon=1.0):
    m = grid.n_interior
    energy_kwargs = {"quad_op": quad, "lambda_conv": lam}
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
        assert energy_total(spec, 0.0, Field(np.zeros(3), g)) == 0.0

    def test_laplacian_hand_assembly(self):
        # 1 interior node, h = 0.5: K = 2/h^2 = 8, E = 0.5*h*K = 2.0.
        g = SpatialGrid(3, 0.5)
        spec = make_spec(g, SymBand(laplacian_band(g)))
        val = energy_total(spec, 0.0, Field(np.array([1.0]), g))
        assert val == pytest.approx(0.5 * (2.0 / 0.25) * 1.0 * 0.5)
        assert val == pytest.approx(2.0)

    def test_double_well_at_bottom(self):
        # h sum (1 - u^2)^2 = 0 at u = 1, less the constant h m.
        g = SpatialGrid(12, 0.1)
        m = g.n_interior
        spec = make_spec(g, band_of(np.zeros((m, m))), lam=4.0, smooth=double_well_parts(m))
        assert energy_total(spec, 0.0, Field(np.ones(m), g)) == pytest.approx(-g.h * m)

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
        assert report.tau_max == float("inf")

    def test_double_well_modulus(self):
        # W(s) = (1-s^2)^2 has W'' >= -4, so the defect modulus 4 certifies
        # convexity of W + 2 s^2; verified here by a scalar brute force.
        s = np.linspace(-3, 3, 2001)
        w = (1 - s**2) ** 2 + 2 * s**2
        mids = 0.5 * (w[:-2] + w[2:])
        assert np.all(w[1:-1] <= mids + 1e-12)

        g = SpatialGrid(11, 0.1)
        m = g.n_interior
        spec = make_spec(g, SymBand(laplacian_band(g)), lam=4.0, smooth=double_well_parts(m))
        report = validate_assumptions(spec, 60)
        assert report.passed
        assert report.tau_max == pytest.approx(0.125)

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
        # quad_shift = -(1.01 lambda_1(A) + 2 lam) I leaves K + 2 lam I
        # indefinite by 1 % of lambda_1(A) along A's lowest eigenvector
        # only; Gaussian pairs weight A's top eigenvalues (~4/h^2) and miss
        # it, the eigenvalue does not.  0.99 instead of 1.01 passes.
        g = SpatialGrid(65, 1.0 / 64)
        m = g.n_interior
        quad = SymBand(laplacian_band(g))
        lam1 = quad.eigenvalue(0)
        for factor, ok in ((1.01, False), (0.99, True)):
            shift = SymBand(np.full((1, m), -(factor * lam1 + 2.0 * lam)))
            spec = make_spec(g, quad, lam=lam, smooth={"quad_shift": shift})
            conv = next(c for c in validate_assumptions(spec, 32).checks if c.name == "lambda_convexity")
            assert conv.passed == ok
            assert conv.worst == (0.0 if ok else pytest.approx(0.005 * lam1, rel=1e-9))

    def test_lambda_convexity_evaluates_no_energy(self, monkeypatch):
        # The convexity check is the eigenvalue of the decomposition's
        # quadratic part; it never samples E_t.
        import proxdyn.core as core

        def forbidden(*args, **kwargs):
            raise AssertionError("validate_assumptions evaluated the energy")

        monkeypatch.setattr(core, "energy_total", forbidden)
        g = SpatialGrid(11, 0.1)
        m = g.n_interior
        smooth = {"lin_part": lambda t: np.full(m, -t), **double_well_parts(m)}
        report = validate_assumptions(make_spec(g, SymBand(laplacian_band(g)), lam=4.0, smooth=smooth), 20)
        assert report.passed

    def test_lambda_convexity_interpolation_property(self):
        g = SpatialGrid(11, 0.1)
        m = g.n_interior
        lam = 4.0
        spec = make_spec(g, SymBand(laplacian_band(g)), lam=lam, smooth=double_well_parts(m))
        rng = np.random.default_rng(5)
        h = g.h
        for _ in range(40):
            u = rng.standard_normal(m)
            v = rng.standard_normal(m)
            th = rng.uniform()
            e_mid = energy_total(spec, 0.0, Field(th * u + (1 - th) * v, g))
            bound = (
                th * energy_total(spec, 0.0, Field(u, g))
                + (1 - th) * energy_total(spec, 0.0, Field(v, g))
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


class TestTauMax:
    def test_infinite_without_defect(self):
        g = SpatialGrid(5, 0.25)
        assert tau_max(make_spec(g, SymBand(laplacian_band(g)))) == float("inf")

    def test_lemma_bound(self):
        g = SpatialGrid(5, 0.25)
        assert tau_max(make_spec(g, SymBand(laplacian_band(g)), lam=4.0)) == pytest.approx(1 / 8)

    def test_strict_convexity_bound_below_one_half(self):
        # For lambda < 1/2 the inertia bound 1/tau^2 > 2*lambda is the
        # tighter one: tau_max = 1/sqrt(2*lambda) < 1/(2*lambda).
        g = SpatialGrid(5, 0.25)
        spec = make_spec(g, SymBand(laplacian_band(g)), lam=0.4)
        assert tau_max(spec) == pytest.approx(1 / np.sqrt(0.8))
        assert check_step(spec, 1.1) == pytest.approx(1 / 1.21 - 0.8)
        for tau in (tau_max(spec), 1.12, 1.25, 1.3):
            with pytest.raises(StepSizeTooLarge):
                check_step(spec, tau)

    def test_step_bound_at_and_above_one_half(self):
        g = SpatialGrid(5, 0.25)
        spec = make_spec(g, SymBand(laplacian_band(g)), lam=4.0)
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
        spec = make_spec(g, SymBand(laplacian_band(g)), lam=4.0, smooth=smooth)
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
        with pytest.raises(ConfigError):
            EnergySpec(quad_op=band_of(np.eye(3)), lambda_conv=-1.0)
        with pytest.raises(ConfigError):
            EnergySpec(quad_op=band_of(np.eye(3)), lambda_conv=0.0, site_quartic=-1.0)
