"""Problem model: energy, dissipation, perturbation, force, and validation.

A ProblemSpec collects the discretized quadruple (E_t, Psi_u, B, f) together
with the grid and initial data.  All abstract spaces collapse onto the
single nodal vector space with h-weighted norms; dual elements are stored
as nodal vectors through the h-pairing (discrete Riesz representation).
The energy's operators are `convex.SymBand`s, which the builders assemble
as bands; `EnergySpec` takes no other format.
The dissipation Psi_u is one per-site kernel: DissipationSpec.potential(u)
returns its `convex.SitePotential`, which every evaluation of Psi_u
(`ProblemSpec.psi_value`), of its conjugate (the stepper's certificate)
and of the step potential uses.

Specs are immutable after construction and safe to share across runs; all
operations here are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Literal, Optional

import numpy as np

from .convex import SitePotential, SymBand
from .errors import ConfigError, EvalError, StepSizeTooLarge
from .grid import (
    Field,
    ForwardDifference,
    SpatialGrid,
    first_eigenpair,
    h_norm,
    laplacian_matrix,
    operator_norm,
    q_norm,
)


@dataclass(frozen=True)
class EnergySpec:
    """Energy E_t(u) = 0.5 <A u, u>_h + E2_t(u), E2 given by its decomposition

        E2_t(u) = site_quartic * h * sum_site (M u)_site^4
                  + 0.5 <quad_shift u, u>_h + <lin_part(t), u>_h

    with M as for Psi (`ProblemSpec.sites`); E is defined up to a constant,
    which the energy-dissipation balance never sees.  lin_part is kept
    with its last value, each checked by `user_values` (m finite floats,
    else an EvalError): a call at the identical float t returns the same
    array without calling it again, so a run, which takes every time from
    `Trajectory.times`, calls it once per time, N + 1 times in N steps;
    lin_part must therefore be a pure function of t, and callers must not
    modify the array it returns.  quad_op (A) and quad_shift are SymBands
    with finite entries, and site_quartic is finite and >= 0 (else a
    ConfigError).
    E_t is 0.5 <K u, u>_h (K = A + quad_shift) plus a convex quartic and a
    linear term, so its sharp convexity defect, the least lambda >= 0 with

        E_t(th*u + (1-th)*v) <= th*E_t(u) + (1-th)*E_t(v)
                                + th*(1-th)*lambda*|u-v|_h^2,

    is `lambda_conv` = max(0, -lambda_min(K)/2): one banded eigenvalue,
    computed on first use.  It gates the step rule of `check_step`.
    """

    quad_op: SymBand
    quad_shift: Optional[SymBand] = None
    site_quartic: float = 0.0
    lin_part: Optional[Callable[[float], np.ndarray]] = None

    def __post_init__(self):
        if not isinstance(self.quad_op, SymBand):
            raise ConfigError("quad_op must be a SymBand")
        if not (self.quad_shift is None or isinstance(self.quad_shift, SymBand)):
            raise ConfigError("quad_shift must be a SymBand or None")
        order = self.quad_op.band.shape[1]
        if self.quad_shift is not None and self.quad_shift.band.shape[1] != order:
            raise ConfigError("quad_shift must match quad_op in order")
        shift = () if self.quad_shift is None else (self.quad_shift.band,)
        if not all(np.isfinite(b).all() for b in (self.quad_op.band, *shift)):
            raise ConfigError("quad_op and quad_shift must have finite entries")
        if not (math.isfinite(self.site_quartic) and self.site_quartic >= 0):
            raise ConfigError("site_quartic must be finite and nonnegative")
        if self.lin_part is not None:
            object.__setattr__(self, "lin_part", _LastValue(self.lin_part, order))

    @cached_property
    def quad_min_eig(self) -> float:
        """lambda_min(K), K = A + quad_shift."""
        k = self.quad_op if self.quad_shift is None else self.quad_op.plus(self.quad_shift.band)
        return k.eigenvalue(0)

    @cached_property
    def lambda_conv(self) -> float:
        return max(0.0, -0.5 * self.quad_min_eig)


class _LastValue:
    """lin_part with its last value kept, keyed on the identical float t;
    each new value is checked to be m finite floats."""

    def __init__(self, f: Callable[[float], np.ndarray], m: int):
        self.f = f
        self.m = m
        self.last = None

    def __call__(self, t: float) -> np.ndarray:
        last = self.last
        if last is None or t != last[0]:
            last = self.last = (t, user_values(self.f(t), self.m, "lin_part", t))
        return last[1]


def user_values(out, m: int, name: str, t: float) -> np.ndarray:
    """The output of the user callable `name` at time t as m finite floats,
    a Field unwrapped; anything else raises EvalError naming name and t."""
    try:
        vals = np.asarray(getattr(out, "values", out), dtype=float)
    except (TypeError, ValueError):
        vals = None
    if vals is None or vals.shape != (m,) or not np.isfinite(vals).all():
        raise EvalError(f"{name} at t={t} must give {m} finite floats, got {out!r:.80}")
    return vals


DissipationKind = Literal["separable", "grad_composite"]


@dataclass(frozen=True)
class DissipationSpec:
    """State-dependent dissipation potential Psi_u(v).

    separable:       Psi_u(v) = h * sum_i [ a_i |v_i| + (g_i/q) |v_i|^q ]
    grad_composite:  Psi_u(v) = h * sum_e [ a_e |(Dv)_e| + (g_e/q) |(Dv)_e|^q ]
                                + (visc/2) * h * sum_e (Dv)_e^2

    state_dep maps the state field to the per-site coefficient arrays
    (a, g): per interior node for the separable kind, per edge for the
    gradient-composite kind.  growth_c / growth_C certify the sandwich
    growth_c*(||v||^q - 1) <= Psi_u(v) <= growth_C*(||v||^q + 1) in the
    kind's natural norm (plain or gradient q-norm).
    """

    kind: DissipationKind
    state_dep: Callable[[Field], tuple[np.ndarray, np.ndarray]]
    q: float
    visc: float = 0.0
    growth_c: float = 0.0
    growth_C: float = 1.0

    def __post_init__(self):
        if self.kind not in ("separable", "grad_composite"):
            raise ConfigError(f"unknown dissipation kind {self.kind!r}")
        if not all(map(math.isfinite, (self.q, self.visc, self.growth_c, self.growth_C))):
            raise ConfigError("q, visc, growth_c and growth_C must be finite")
        if not self.q > 1.0:
            raise ConfigError("growth exponent q must exceed 1")
        if self.visc < 0.0:
            raise ConfigError("viscosity must be nonnegative")
        if self.visc > 0.0 and self.kind != "grad_composite":
            raise ConfigError("viscosity applies to the gradient-composite kind only")

    def coefficients(self, state: Field) -> tuple[np.ndarray, np.ndarray]:
        a, g = self.state_dep(state)
        a = np.asarray(a, dtype=float)
        g = np.asarray(g, dtype=float)
        n_sites = (
            state.grid.n_interior
            if self.kind == "separable"
            else state.grid.n_interior + 1
        )
        if a.shape != (n_sites,) or g.shape != (n_sites,):
            raise ConfigError(
                f"state_dep must return per-site arrays of length {n_sites}"
            )
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(g))):
            raise EvalError("dissipation coefficients must be finite")
        if np.any(a < 0) or np.any(g < 0):
            raise ConfigError("dissipation coefficients must be nonnegative")
        return a, g

    def potential(self, state: Field) -> SitePotential:
        """Psi_state as its per-site potential f = a|.| + (g/q)|.|^q +
        (visc/2)(.)^2, unshifted: Psi_state(v) = h * sum_site f((Mv)_site)
        with M the identity or D (ProblemSpec.site_op)."""
        a, g = self.coefficients(state)
        return SitePotential(a, g, self.q, self.visc, 0.0)


@dataclass(frozen=True)
class PerturbationSpec:
    """Non-variational perturbation B(t, u, v) of nodal arrays on a grid, as
    a nodal vector; eval gets u and v as Fields, and None is the zero map."""

    eval: Optional[Callable[[float, Field, Field], Field]] = None

    def __call__(self, t: float, u: np.ndarray, v: np.ndarray, grid: SpatialGrid) -> np.ndarray:
        if self.eval is None:
            return np.zeros_like(u)
        return user_values(self.eval(t, Field(u, grid), Field(v, grid)), u.size, "perturbation", t)


@dataclass(frozen=True)
class Operators:
    """Grid operators derived once per problem (immutable cache): the
    discrete gradient D as an O(m) operator, its norm, and the smallest
    eigenvalue of D^T D."""

    grad: ForwardDifference
    grad_norm: float
    lap_min_eig: float


@dataclass(frozen=True)
class ProblemSpec:
    """The full discretized problem (grid, E, Psi, B, f, horizon, data)."""

    grid: SpatialGrid
    energy: EnergySpec
    dissipation: DissipationSpec
    perturbation: PerturbationSpec
    force: Optional[Callable[[float], Field]]
    horizon: float
    u0: Field
    v0: Field
    ops: Operators = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.grid.n_interior
        order = self.energy.quad_op.band.shape[1]
        if order != m:
            raise ConfigError(f"quad_op has order {order}, expected {m}")
        if self.u0.values.shape != (m,) or self.v0.values.shape != (m,):
            raise ConfigError("initial data incompatible with grid interior size")
        if not self.horizon > 0:
            raise ConfigError("horizon must be positive")
        lap = laplacian_matrix(self.grid)
        object.__setattr__(
            self,
            "ops",
            Operators(
                grad=ForwardDifference(m, self.grid.h),
                grad_norm=float(np.sqrt(operator_norm(lap))),
                lap_min_eig=first_eigenpair(lap, self.grid.h)[0],
            ),
        )

    def force_values(self, t: float) -> np.ndarray:
        if self.force is None:
            return np.zeros(self.grid.n_interior)
        return user_values(self.force(t), self.grid.n_interior, "force", t)

    @property
    def site_op(self) -> Optional[ForwardDifference]:
        """M of Psi: None (the identity) for the separable kind, D else."""
        return None if self.dissipation.kind == "separable" else self.ops.grad

    def sites(self, v: np.ndarray) -> np.ndarray:
        """M v, the site values of a nodal vector."""
        return v if self.site_op is None else self.site_op @ v

    def psi_value(self, state: Field, v: np.ndarray) -> float:
        z = self.sites(np.asarray(v, dtype=float))
        return self.grid.h * self.dissipation.potential(state).value(z)


def tau_max(spec: ProblemSpec) -> float:
    """Supremum of the admissible steps, min(1/(2*lambda), 1/sqrt(2*lambda)):
    the step bound of `check_step` for lambda >= 1/2, the strict convexity
    1/tau^2 > 2*lambda below; infinite for lambda = 0."""
    lam = spec.energy.lambda_conv
    return float("inf") if lam == 0.0 else min(1.0 / (2.0 * lam), 1.0 / np.sqrt(2.0 * lam))


def check_step(spec: ProblemSpec, tau: float) -> float:
    """The strong convexity gamma = 1/tau^2 - 2*lambda of a step's functional;
    StepSizeTooLarge unless tau <= 1/(2*lambda) (within 1e-12) and gamma > 0,
    ConfigError if 1/tau^2 is not a finite number (tau^2 underflows)."""
    lam = spec.energy.lambda_conv
    sq = tau**2
    inv_sq = 1.0 / sq if sq else math.inf
    if not math.isfinite(inv_sq):
        raise ConfigError(f"tau = {tau} is too small: 1/tau^2 = {inv_sq} is not a finite number")
    gamma = inv_sq - 2.0 * lam
    if (lam > 0.0 and tau > 1.0 / (2.0 * lam) * (1 + 1e-12)) or not gamma > 0.0:
        raise StepSizeTooLarge(
            f"tau = {tau} breaks the unique-minimizer step rule tau <= 1/(2*lambda), "
            f"1/tau^2 > 2*lambda (lambda = {lam:.6g}, 1/tau^2 - 2*lambda = {gamma:.6g}, "
            f"tau_max = min(1/(2*lambda), 1/sqrt(2*lambda)) = {tau_max(spec):.6g})"
        )
    return gamma


def step_count(horizon: float, tau: float) -> int:
    """The number of steps N = T/tau; ConfigError unless tau divides the
    horizon to within 1e-12 (relative to max(1, T))."""
    ratio = horizon / tau if tau > 0 else 0.0
    n = int(round(ratio)) if math.isfinite(ratio) else 0
    if n < 1 or abs(n * tau - horizon) > 1e-12 * max(1.0, horizon):
        raise ConfigError(f"tau = {tau} does not divide the horizon T = {horizon}")
    return n


def energy_total(spec: ProblemSpec, t: float, vals: np.ndarray) -> float:
    """E_t(u) = 0.5 <(A + quad_shift) u, u>_h + site_quartic h sum (M u)^4
    + <lin_part(t), u>_h, of the nodal values vals of u."""
    en = spec.energy
    h = spec.grid.h
    out = 0.5 * h * float(vals @ _quad_part(en, vals))
    if en.site_quartic > 0.0:
        out += en.site_quartic * h * float(np.sum(spec.sites(vals) ** 4))
    if en.lin_part is not None:
        out += h * float(en.lin_part(t) @ vals)
    if not np.isfinite(out):
        raise EvalError(f"energy evaluated non-finite at t={t}")
    return out


def energy_grad(spec: ProblemSpec, t: float, values: np.ndarray) -> np.ndarray:
    """h-representation of D E_t(u) = (A + quad_shift) u
    + 4 site_quartic M^T (M u)^3 + lin_part(t)."""
    en = spec.energy
    g = _quad_part(en, values)
    if en.site_quartic > 0.0:
        cubic = 4.0 * en.site_quartic * spec.sites(values) ** 3
        g = g + (cubic if spec.site_op is None else spec.site_op.T @ cubic)
    if en.lin_part is not None:
        g = g + en.lin_part(t)
    if not np.all(np.isfinite(g)):
        raise EvalError(f"energy gradient non-finite at t={t}")
    return g


def _quad_part(en: EnergySpec, values: np.ndarray) -> np.ndarray:
    """(A + quad_shift) u."""
    out = en.quad_op @ values
    return out if en.quad_shift is None else out + en.quad_shift @ values


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def validate_assumptions(
    spec: ProblemSpec, samples: int, seed: int = 0
) -> ValidationReport:
    """Check the standing assumptions on a concrete problem.

    Exact, from one banded eigenvalue: strong positivity of the quadratic
    operator A.  The lambda-convexity of E_t needs no check, since
    `EnergySpec.lambda_conv` is derived from the energy's decomposition.
    Sampled, where user callables enter: the growth sandwich of the
    dissipation and the continuity of the perturbation on bounded sets.
    Reports the worst violation per check.
    """
    if samples < 1:
        raise ConfigError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    grid = spec.grid
    m = grid.n_interior
    h = grid.h
    checks = []

    en = spec.energy
    mu = en.quad_min_eig if en.quad_shift is None else en.quad_op.eigenvalue(0)
    checks.append(
        CheckResult("quad_op_positivity", mu > 0.0, max(0.0, -mu), f"mu = {mu:.6e}")
    )

    worst_growth = 0.0
    q = spec.dissipation.q
    for _ in range(samples):
        state = Field(rng.standard_normal(m), grid)
        scale = 10.0 ** rng.uniform(-1, 1)
        v = scale * rng.standard_normal(m)
        psi = spec.psi_value(state, v)
        nrm = q_norm(spec.sites(v), h, q)
        lower = spec.dissipation.growth_c * (nrm**q - 1.0)
        upper = spec.dissipation.growth_C * (nrm**q + 1.0)
        worst_growth = max(worst_growth, lower - psi, psi - upper)
    growth_tol = 1e-10
    checks.append(
        CheckResult("growth_sandwich", worst_growth <= growth_tol, max(worst_growth, 0.0))
    )

    worst_ratio = 0.0
    pert_ok = True
    if spec.perturbation.eval is not None:
        for _ in range(samples):
            t = rng.uniform(0.0, spec.horizon)
            u = rng.standard_normal(m)
            v = rng.standard_normal(m)
            base = spec.perturbation(t, u, v, grid)
            ratios = []
            for eps in (1e-3, 1e-6):
                du = eps * rng.standard_normal(m)
                dv = eps * rng.standard_normal(m)
                out = spec.perturbation(t, u + du, v + dv, grid)
                denom = h_norm(du, h) + h_norm(dv, h)
                ratios.append(h_norm(out - base, h) / denom)
            if not all(np.isfinite(r) for r in ratios):
                pert_ok = False
                worst_ratio = float("inf")
                break
            # Continuity probe: the local Lipschitz ratio must not blow up
            # as the perturbation scale shrinks.
            growth = ratios[1] / (1.0 + 10.0 * ratios[0])
            worst_ratio = max(worst_ratio, growth)
        pert_ok = pert_ok and worst_ratio <= 1.0
    checks.append(
        CheckResult("perturbation_continuity", pert_ok, worst_ratio if spec.perturbation.eval else 0.0)
    )

    return ValidationReport(checks=tuple(checks))

