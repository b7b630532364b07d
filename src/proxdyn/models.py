"""The shipped application problems as 1D finite-difference instances.

* build_p1: visco-elasto-plastic phase transformation with rate-independent
  plastic stress, first-order viscosity, fourth-order capillarity (clamped
  ends), and a non-monotone double-well stress.
* build_p2: nonlinearly damped wave with state-dependent gradient damping
  and a non-variational zeroth-order perturbation.
* build_p3: dry friction plus q-power damping with a double-well energy,
  heterogeneous stiffness, and a time-dependent force in the energy.
* build_linear_wave: manufactured linear benchmark with a closed-form
  modal solution (degenerate damping cases of the above).

Builders are pure; outputs are immutable ProblemSpec instances that pass
validate_assumptions by construction.  Every operator is assembled in band
form: the stiffness operators as `ForwardDifference.gram_band`, the clamped
biharmonic as `biharmonic_band`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal, Optional

import numpy as np

from .convex import SymBand
from .core import DissipationSpec, EnergySpec, PerturbationSpec, ProblemSpec, user_values
from .errors import ConfigError
from .grid import (
    Field,
    ForwardDifference,
    SpatialGrid,
    biharmonic_band,
    edge_average,
    first_eigenpair,
    laplacian_band,
    laplacian_matrix,
)


def _default_grid(n_nodes: int) -> SpatialGrid:
    return SpatialGrid(n_nodes, 1.0 / (n_nodes - 1))


# ---------------------------------------------------------------------------
# P1: visco-elasto-plastic phase transformation


@dataclass(frozen=True)
class P1Params:
    """Constant density rho, viscosity nu, capillarity mu, phase-indicator
    scale alpha; the stored energy is the double well phi(e) = (1 - e^2)^2
    and the phase indicator lambda(e) = alpha*(sqrt(1 + e^2) - 1), whose
    derivative is bounded by alpha with bounded second derivative."""

    rho: float = 1.0
    nu: float = 1.0
    mu: float = 0.15
    alpha: float = 0.5
    n_nodes: int = 65
    horizon: float = 1.0
    u0_amplitude: float = 1.0
    u0: Optional[np.ndarray] = None
    v0: Optional[np.ndarray] = None
    force: Optional[Callable[[float], np.ndarray]] = None


def phase_indicator_slope(alpha: float, e):
    """lambda'(e) for lambda(e) = alpha*(sqrt(1+e^2) - 1); bounded by alpha."""
    e = np.asarray(e, dtype=float)
    return alpha * e / np.sqrt(1.0 + e**2)


def build_p1(params: P1Params) -> ProblemSpec:
    """Assemble the 1D visco-elasto-plastic model (n = 1, m = 2 reduction).

    The equation is divided through by the constant density, so all
    operators carry a 1/rho factor.  The double well
    h/rho * sum_e (1 - (Du)_e^2)^2 enters without its constant h (m+1)/rho,
    as the quartic h/rho * sum_e (Du)_e^4 and the shift -4 L/rho (L the
    Laplacian D^T D); `EnergySpec` derives the convexity defect from the
    lowest eigenvalue of mu*A4/rho - 4*L/rho.
    """
    p = params
    if min(p.rho, p.nu, p.mu) <= 0 or p.alpha < 0:
        raise ConfigError("P1 requires rho, nu, mu > 0 and alpha >= 0")
    grid = _default_grid(p.n_nodes)
    h = grid.h
    m = grid.n_interior
    inv_rho = 1.0 / p.rho
    d = ForwardDifference(m, h)
    quad = SymBand(p.mu * inv_rho * biharmonic_band(grid))
    quad_shift = SymBand(-4.0 * inv_rho * laplacian_band(grid))

    def state_dep(state: Field):
        e = d @ state.values
        a = np.abs(phase_indicator_slope(p.alpha, e)) * inv_rho
        return a, np.zeros_like(a)

    dissipation = DissipationSpec(
        kind="grad_composite",
        state_dep=state_dep,
        q=2.0,
        visc=p.nu * inv_rho,
        growth_c=0.5 * p.nu * inv_rho,
        growth_C=0.5 * p.nu * inv_rho
        + p.alpha * inv_rho * (1.0 + np.sqrt(grid.length)),
    )

    x = grid.interior_x
    big_l = grid.length
    if p.u0 is not None:
        u0 = np.asarray(p.u0, dtype=float)
    else:
        s = x / big_l
        u0 = p.u0_amplitude * 16.0 * (s * (1.0 - s)) ** 2
    v0 = np.zeros(m) if p.v0 is None else np.asarray(p.v0, dtype=float)

    force = None
    if p.force is not None:
        user_force = p.force
        force = lambda t: user_values(user_force(t), m, "force", t) * inv_rho

    return ProblemSpec(
        grid=grid,
        energy=EnergySpec(
            quad_op=quad,
            quad_shift=quad_shift,
            site_quartic=inv_rho,
        ),
        dissipation=dissipation,
        perturbation=PerturbationSpec(),
        force=force,
        horizon=p.horizon,
        u0=Field(u0, grid),
        v0=Field(v0, grid),
    )


# ---------------------------------------------------------------------------
# P2: nonlinearly damped wave with perturbation


def _default_g1(s):
    s = np.asarray(s, dtype=float)
    return 1.0 + s**2 / (1.0 + s**2)


def _default_g2(s):
    s = np.asarray(s, dtype=float)
    return np.abs(s) / (1.0 + np.abs(s))


@dataclass(frozen=True)
class P2Params:
    """Damping exponent q > 1, perturbation exponent p in (1, 2], and
    continuous bounded coefficient functions g1 >= g1_min > 0, g2 >= 0
    (evaluated at the state interpolated to edge midpoints).  g1_min,
    g1_max, g2_max certify the growth sandwich constants."""

    q: float = 2.0
    p: float = 2.0
    g1: Callable = _default_g1
    g2: Callable = _default_g2
    g1_min: float = 1.0
    g1_max: float = 2.0
    g2_max: float = 1.0
    n_nodes: int = 65
    horizon: float = 1.0
    u0_amplitude: float = 0.5
    u0: Optional[np.ndarray] = None
    v0: Optional[np.ndarray] = None
    force: Optional[Callable[[float], np.ndarray]] = None
    b: Optional[Callable] = None


def build_p2(params: P2Params) -> ProblemSpec:
    """Assemble the damped-wave model: Laplacian energy, edge damping with
    state-dependent weights, and the zeroth-order perturbation b(u) with
    default b(s) = sign(s)|s|^(p-1)."""
    p = params
    if not p.q > 1.0:
        raise ConfigError("P2 requires q > 1")
    if not (1.0 < p.p <= 2.0):
        raise ConfigError("P2 requires the perturbation exponent p in (1, 2]")
    if p.g1_min <= 0:
        raise ConfigError("P2 requires g1 bounded below by g1_min > 0")
    grid = _default_grid(p.n_nodes)
    m = grid.n_interior

    g1, g2 = p.g1, p.g2

    def state_dep(state: Field):
        at_edges = edge_average(grid, state.values)
        return np.asarray(g2(at_edges), dtype=float), np.asarray(g1(at_edges), dtype=float)

    qs = p.q / (p.q - 1.0)
    len_edges = grid.h * (m + 1)
    dissipation = DissipationSpec(
        kind="grad_composite",
        state_dep=state_dep,
        q=p.q,
        growth_c=p.g1_min / p.q,
        growth_C=p.g1_max / p.q + p.g2_max * len_edges ** (1.0 / qs),
    )

    pw = p.p - 1.0
    user_b = p.b if p.b is not None else (lambda s: np.sign(s) * np.abs(s) ** pw)
    perturbation = PerturbationSpec(
        eval=lambda t, u, v: Field(np.asarray(user_b(u.values), dtype=float), grid)
    )

    if p.u0 is not None:
        u0 = np.asarray(p.u0, dtype=float)
    else:
        _, phi1 = first_eigenpair(laplacian_matrix(grid), grid.h)
        u0 = p.u0_amplitude * phi1
    v0 = np.zeros(m) if p.v0 is None else np.asarray(p.v0, dtype=float)
    force = p.force

    return ProblemSpec(
        grid=grid,
        energy=EnergySpec(quad_op=SymBand(laplacian_band(grid))),
        dissipation=dissipation,
        perturbation=perturbation,
        force=force,
        horizon=p.horizon,
        u0=Field(u0, grid),
        v0=Field(v0, grid),
    )


# ---------------------------------------------------------------------------
# P3: dry friction + power damping with double-well energy


@dataclass(frozen=True)
class P3Params:
    """Exponent q >= 2, uniformly positive stiffness E(x), well scale for
    W(s) = scale*(1 - s^2)^2, and a force entering the energy."""

    q: float = 2.0
    n_nodes: int = 65
    horizon: float = 1.0
    stiffness: Callable[[np.ndarray], np.ndarray] | float = 1.0
    well_scale: float = 1.0
    force_amplitude: float = 0.2
    force_frequency: float = np.pi
    force: Optional[Callable[[float], np.ndarray]] = None
    u0_amplitude: float = 0.5
    u0: Optional[np.ndarray] = None
    v0: Optional[np.ndarray] = None


def build_p3(params: P3Params) -> ProblemSpec:
    """Assemble the dry-friction model.

    The force enters the energy as E2_t(u) = scale*h*sum W(u_i) - <f(t), u>_h,
    less the constant scale*h*m, so E_t depends on t through its linear
    part -f(t) only.  The well is the quartic scale*h*sum u^4 plus the shift
    -4*scale I, so the derived defect is max(0, 2*scale - lambda_min(A)/2):
    none, and no step bound, for unit stiffness and scale up to ~2.4.
    """
    p = params
    if p.q < 2.0:
        raise ConfigError("P3 requires q >= 2")
    if p.well_scale <= 0:
        raise ConfigError("P3 requires a positive well scale")
    grid = _default_grid(p.n_nodes)
    h = grid.h
    m = grid.n_interior
    x = grid.interior_x
    big_l = grid.length

    edge_x = h * (np.arange(m + 1) + 0.5)
    if callable(p.stiffness):
        e_edge = np.asarray(p.stiffness(edge_x), dtype=float)
    else:
        e_edge = np.full(m + 1, float(p.stiffness))
    if e_edge.shape != (m + 1,):
        raise ConfigError("P3 stiffness must give one value per edge")
    if np.any(e_edge <= 0):
        raise ConfigError("P3 stiffness must be uniformly positive")
    quad = SymBand(ForwardDifference(m, h).gram_band(e_edge))

    scale = p.well_scale
    if p.force is not None:
        user_f = p.force
        lin_part = lambda t: -user_values(user_f(t), m, "force", t)
    else:
        amp, om = p.force_amplitude, p.force_frequency
        profile = np.sin(np.pi * x / big_l)
        lin_part = lambda t: -amp * np.cos(om * t) * profile

    qs = p.q / (p.q - 1.0)
    dissipation = DissipationSpec(
        kind="separable",
        state_dep=lambda state: (np.ones(m), np.ones(m)),
        q=p.q,
        growth_c=1.0 / p.q,
        growth_C=1.0 / p.q + (h * m) ** (1.0 / qs),
    )

    if p.u0 is not None:
        u0 = np.asarray(p.u0, dtype=float)
    else:
        u0 = p.u0_amplitude * np.sin(np.pi * x / big_l)
    v0 = np.zeros(m) if p.v0 is None else np.asarray(p.v0, dtype=float)

    return ProblemSpec(
        grid=grid,
        energy=EnergySpec(
            quad_op=quad,
            quad_shift=SymBand(np.full((1, m), -4.0 * scale)),
            site_quartic=scale,
            lin_part=lin_part,
        ),
        dissipation=dissipation,
        perturbation=PerturbationSpec(),
        force=None,
        horizon=p.horizon,
        u0=Field(u0, grid),
        v0=Field(v0, grid),
    )


# ---------------------------------------------------------------------------
# Manufactured linear benchmark


def _modal_coefficient(nu_eff: float, omega_sq: float) -> Callable[[float], float]:
    """c(t) solving c'' + nu_eff c' + omega^2 c = 0, c(0) = 1, c'(0) = 0."""
    disc = nu_eff**2 - 4.0 * omega_sq
    if disc < 0.0:
        om_d = 0.5 * np.sqrt(-disc)
        rate = 0.5 * nu_eff

        def coeff(t):
            return np.exp(-rate * t) * (
                np.cos(om_d * t) + rate / om_d * np.sin(om_d * t)
            )

    elif disc == 0.0:
        rate = 0.5 * nu_eff

        def coeff(t):
            return np.exp(-rate * t) * (1.0 + rate * t)

    else:
        r1 = 0.5 * (-nu_eff + np.sqrt(disc))
        r2 = 0.5 * (-nu_eff - np.sqrt(disc))

        def coeff(t):
            return (r2 * np.exp(r1 * t) - r1 * np.exp(r2 * t)) / (r2 - r1)

    return coeff


def build_linear_wave(
    nu: float,
    grid: Optional[SpatialGrid] = None,
    horizon: float = 1.0,
    n_nodes: int = 65,
    damping: Literal["mass", "gradient"] = "mass",
):
    """Linear damped wave with eigenmode initial data and exact solution.

    Psi = (nu/2)|v|_h^2 for mass damping (the default) or (nu/2)|Dv|_h^2
    for the gradient variant that the degenerate P2 reduction produces;
    E = 0.5 <K u, u>_h with the Dirichlet Laplacian; u0 is the first
    discrete eigenvector (h-normalized), v0 = 0, f = 0.  Returns
    (spec, exact_solution) with exact_solution(t) the modal ODE solution
    u(t) = c(t) * phi1, underdamped/critical/overdamped branches included.
    """
    if nu < 0:
        raise ConfigError("viscosity must be nonnegative")
    if grid is None:
        grid = _default_grid(n_nodes)
    m = grid.n_interior
    omega_sq, phi1 = first_eigenpair(laplacian_matrix(grid), grid.h)

    if damping == "mass":
        dissipation = DissipationSpec(
            kind="separable",
            state_dep=lambda state: (np.zeros(m), np.full(m, nu)),
            q=2.0,
            growth_c=0.5 * nu,
            growth_C=max(0.5 * nu, 1e-300),
        )
        nu_eff = nu
    elif damping == "gradient":
        dissipation = DissipationSpec(
            kind="grad_composite",
            state_dep=lambda state: (np.zeros(m + 1), np.zeros(m + 1)),
            q=2.0,
            visc=nu,
            growth_c=0.5 * nu,
            growth_C=max(0.5 * nu, 1e-300),
        )
        nu_eff = nu * omega_sq
    else:
        raise ConfigError(f"unknown damping kind {damping!r}")

    spec = ProblemSpec(
        grid=grid,
        energy=EnergySpec(quad_op=SymBand(laplacian_band(grid))),
        dissipation=dissipation,
        perturbation=PerturbationSpec(),
        force=None,
        horizon=horizon,
        u0=Field(phi1, grid),
        v0=Field(np.zeros(m), grid),
    )
    coeff = _modal_coefficient(nu_eff, omega_sq)

    def exact_solution(t: float) -> Field:
        return Field(coeff(t) * phi1, grid)

    return spec, exact_solution
