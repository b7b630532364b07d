"""Semi-implicit variational time stepping.

Each step minimizes

    Phi(u) = (1/(2 tau^2)) |u - 2v + w|_h^2 + tau Psi_state((u - v)/tau)
             + E_{t_n}(u) + <zeta, u>_h,        zeta = B(t_n, v, V_prev) - f_avg,

with the dissipation state and the perturbation frozen at the previous
step (v = U^{n-1}, w = U^{n-2}, synthesized as u0 - tau*v0 for n = 1).
Its stationarity reproduces the discrete inclusion

    (V^n - V^{n-1})/tau + dPsi_state(V^n) + DE_{t_n}(U^n) + B - f_avg  ∋ 0,

and the subgradient is recovered by rearrangement:
eta^n = f_avg - B - (V^n - V^{n-1})/tau - DE_{t_n}(U^n) = -grad(smooth Phi).
So eta^n, S^n = f_avg - B and V^n are functions of the stored U: a
Trajectory keeps U on its time grid, the reports (each with its tau_n) and
E_0(u0), which hold every term of the energy-dissipation inequality.  Both
dissipation kinds certify a step by one gap, Psi(V^n) + Psi*(eta^n) - <eta^n, V^n>_h.

E_{t_n} reaches the step only through `EnergySpec`'s exact decomposition:
A and quad_shift join the inertia in the banded Q (`step_operator`),
lin_part(t_n) joins the linear vector, and the site quartic joins the
per-site potential, so the step problem has no explicit smooth remainder.
E_t depends on t through lin_part only, so the ledger's integral of
dE_t(U^{n-1})/dt over a step is exactly <lin_part(t_n) - lin_part(t_{n-1}),
U^{n-1}>_h.

A step is well posed while the inertia outweighs the energy's convexity
defect lambda: `core.check_step` admits tau <= 1/(2 lambda) with Phi's
strong convexity 1/tau^2 - 2 lambda > 0, and `core.step_count` a tau
that divides the horizon.

Runs are sequential in n; distinct runs are independent, and the returned
Trajectory is immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import convex
from .core import (
    ProblemSpec,
    check_step,
    energy_grad,
    energy_total,
    step_count,
)
from .errors import ConfigError, EvalError, InnerSolverFailed, MaxIterExceeded
from .grid import Field, h_inner, h_norm

# 5-point Gauss-Legendre nodes and weights on [-1, 1].
_GAUSS_X = np.array(
    [
        -0.9061798459386640,
        -0.5384693101056831,
        0.0,
        0.5384693101056831,
        0.9061798459386640,
    ]
)
_GAUSS_W = np.array(
    [
        0.2369268850561891,
        0.4786286704993665,
        0.5688888888888889,
        0.4786286704993665,
        0.2369268850561891,
    ]
)

DEFAULT_INNER_TOL = 1e-9
DEFAULT_MAX_ITER = 50_000
_FY_FLOOR_ULPS = 4.0  # the FY gap's rounding floor, in ulp of its terms' sum
_STALL_TESTS = 2  # tests in a row at which a bound within its floor does not fall
_EPS = np.finfo(float).eps


def average_force(f: Callable, t_lo: float, t_hi: float) -> np.ndarray:
    """Interval average (1/(t_hi-t_lo)) * int f, by 5-point Gauss quadrature,
    of an ndarray-valued f (`ProblemSpec.force_values`).

    Exact for polynomial time dependence up to degree 9; in particular a
    constant force averages to itself.
    """
    if not t_hi > t_lo:
        raise ConfigError(f"need t_hi > t_lo, got [{t_lo}, {t_hi}]")
    mid = 0.5 * (t_lo + t_hi)
    half = 0.5 * (t_hi - t_lo)
    # The weights sum to 2.
    acc = 0.5 * sum(w * f(mid + half * x) for x, w in zip(_GAUSS_X, _GAUSS_W))
    if not np.all(np.isfinite(acc)):
        raise EvalError(f"force non-finite on [{t_lo}, {t_hi}]")
    return acc


@dataclass(frozen=True)
class StepInput:
    """Data of one incremental minimization.

    t_prev and t_next are the step's ends t_{n-1} and t_n, in a run the
    entries (n-1) tau and n tau of `Trajectory.times`; every term of the
    step is evaluated at them.  v = U^{n-1}, w = U^{n-1} - tau V^{n-1}
    (U^{n-2} on equal steps) and zeta = B(t_n, U^{n-1}, V^{n-1}) - f_avg^n
    are arrays of the m interior values; v also freezes the dissipation state.
    """

    tau: float
    t_prev: float
    t_next: float
    v: np.ndarray
    w: np.ndarray
    zeta: np.ndarray

    def __post_init__(self):
        if not (self.tau > 0 and self.t_next > self.t_prev):
            raise ConfigError("a step needs tau > 0 and t_next > t_prev")


@dataclass(frozen=True)
class StepReport:
    """Solver telemetry and the energy-dissipation terms of step n:
    tau = tau_n, the step's length; psi = Psi_{U^{n-1}}(V^n), psi_star =
    <eta^n, V^n>_h - psi + fy_gap, energy_rate = int dE_t(U^{n-1})/dt over
    the step (exact), work = tau_n <S^n, V^n>_h; penalty is the composite
    solver's final penalty beta, None for separable and closed-form steps.
    """

    tau: float
    fy_gap: float
    el_residual: float
    inner_iters: int
    energy_after: float
    kinetic_after: float
    psi: float
    psi_star: float
    energy_rate: float
    work: float
    penalty: Optional[float]


@dataclass(frozen=True)
class Trajectory:
    """Per-step records of a run on its time grid; the reports carry the
    energy ledger.

    times and U (one Field per node) have N+1 entries, the initial data
    included; reports has N, for steps 1..N, report n with the length tau_n
    of the step from times[n-1] to times[n]; energy0 is E_0(u0).  V^0 =
    spec.v0 and V^n = (U[n] - U[n-1])/tau_n, bit for bit the step's V^n; it
    is not stored, nor are eta^n and S^n (see the module docstring).
    """

    spec: ProblemSpec
    times: np.ndarray
    U: tuple
    reports: tuple
    energy0: float

    @property
    def n_steps(self) -> int:
        return len(self.U) - 1


def step_operator(spec: ProblemSpec, tau: float) -> convex.SymBand:
    """Quadratic block Q = A + I/tau^2 (+ quad_shift) of Phi, in band form.

    It holds the inertia, the energy operator and E2's matrix piece; it
    depends on tau only, so a run builds it once, from A's band, the
    inertia diagonal and quad_shift's band.
    """
    en = spec.energy
    parts = [np.full((1, spec.grid.n_interior), 1.0 / tau**2)]
    if en.quad_shift is not None:
        parts.append(en.quad_shift.band)
    return en.quad_op.plus(*parts)


def incremental_minimize(
    spec: ProblemSpec,
    inp: StepInput,
    q_op: convex.SymBand,
    warm: Optional[np.ndarray] = None,
    dual_warm: Optional[tuple] = None,
    *,
    inner_tol: float = DEFAULT_INNER_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
):
    """One incremental minimization step: returns (U^n, eta^n, StepReport,
    carry), U^n and eta^n arrays.

    q_op is step_operator(spec, inp.tau); warm starts the inner solve
    (U^{n-1} if None).  For composite dissipation, carry is the solver's
    final (multiplier, penalty beta) and dual_warm the previous step's carry;
    for separable dissipation carry is None.  The step is one
    convex.StepProblem: Q = q_op, whose linear vector takes E2's linear
    part, and whose site potential is the tau-scaled copy of
    Psi_{U^{n-1}}'s, shifted by v (nodes) or Dv (edges), plus E2's site
    quartic; the h factor of the dissipation integral cancels against the
    h-pairing except in the quartic energy coefficient, which carries it
    explicitly.  eta^n is the rearrangement of the discrete inclusion (it
    satisfies the equation identically); the Fenchel-Young gap measures
    its distance from an exact subgradient, with Psi*(eta^n) in closed form
    per node and, on edges, bounded from above in closed form from the
    solver's multiplier (`convex.composite_conjugate`); where that is
    infinite, the gap is resid^2/(2 m_psi) (m_psi Psi's strong convexity),
    or |<eta^n, V^n>_h| if m_psi = 0.  The inner solver runs once, and
    stops at the first point whose own gap is at most inner_tol and whose
    Fenchel-Young gap is at most 9 inner_tol; that point's certificate is
    the reported one.
    Raises StepSizeTooLarge if tau breaks `core.check_step`'s rule and
    InnerSolverFailed (carrying the best iterate) if the inner solve
    stalls, if the gap is above 10 inner_tol or not finite, or as soon as
    a gap above 9 inner_tol stops falling within its rounding floor,
    _FY_FLOOR_ULPS ulp of |Psi| + |Psi*| + |<eta, V>_h|, for _STALL_TESTS
    tests in a row.
    """
    tau = inp.tau
    gamma = check_step(spec, tau)

    h = spec.grid.h
    t_next = inp.t_next
    en = spec.energy
    b = inp.zeta - (2.0 * inp.v - inp.w) / tau**2
    energy_rate = 0.0
    if en.lin_part is not None:
        # t_{n-1} first: lin_part keeps one value, the previous step's t_n.
        lin_prev = en.lin_part(inp.t_prev)
        lin_next = en.lin_part(t_next)
        b = b + lin_next
        energy_rate = h_inner(lin_next - lin_prev, inp.v, h)
    separable = spec.site_op is None
    psi_pot = spec.dissipation.potential(Field(inp.v, spec.grid))
    pot = psi_pot.step_copy(tau, spec.sites(inp.v), en.site_quartic)
    # Certified strong convexity of Psi_state in |.|_h, 0 if none: the site
    # potential carries Psi's quadratic weights over tau, and on edges
    # |Dv|_h^2 >= lap_min_eig |v|_h^2.
    m_psi = tau * pot.strong_modulus()
    if not separable:
        m_psi *= spec.ops.lap_min_eig

    def certify(u_vals, p, r_h):
        """(eta^n, V^n, Psi(V^n), <eta^n, V^n>_h, FY gap, its rounding floor)
        at a candidate U^n with the solver's multiplier p and residual r_h;
        eta^n = -grad(smooth Phi).  On edges Psi*(eta^n) is bounded from p
        less the quartic's gradient.  Zero dissipation (Psi* the indicator
        of {0}) has the gap |pairing|; the floor is 0 where the gap is not
        the sum psi + conj - pairing."""
        eta = -((u_vals - 2.0 * inp.v + inp.w) / tau**2 + energy_grad(spec, t_next, u_vals)
                + inp.zeta)
        v_vel = (u_vals - inp.v) / tau
        psi = h * psi_pot.value(spec.sites(v_vel))
        pairing = h_inner(eta, v_vel, h)
        if pot.is_zero:
            return eta, v_vel, psi, pairing, abs(pairing), 0.0
        if separable:
            conj = h * psi_pot.conjugate_sum(eta)
        else:
            lam = p - 4.0 * pot.k4 * spec.sites(u_vals) ** 3
            conj = convex.composite_conjugate(psi_pot, h, eta, lam)
        fy = psi + conj - pairing
        floor = _FY_FLOOR_ULPS * _EPS * (abs(psi) + abs(conj) + abs(pairing))
        if not np.isfinite(fy):
            # Psi* is infinite at eta^n (dry friction alone, |eta| > a):
            # charge the gap to the strong convexity, or to the pairing.
            fy, floor = (r_h**2 / (2.0 * m_psi) if m_psi > 0.0 else abs(pairing)), 0.0
        return eta, v_vel, psi, pairing, fy, floor

    # A NaN bound stops the solve too, and fails the step below.  The
    # accepted point's certificate is the step's.  A converging bound
    # crosses its rounding floor on its way down, in steps of its rounding,
    # so it may hold its value at one test; one that stops falling there
    # for _STALL_TESTS tests in a row fails the step.
    accepted = {"stalls": 0}

    def accept(u_vals, p, r_h):
        last_fy = accepted["cert"][-2] if "cert" in accepted else np.inf
        accepted["u"], accepted["cert"] = u_vals, certify(u_vals, p, r_h)
        fy, floor = accepted["cert"][-2:]
        stalled = 9.0 * inner_tol < fy <= floor and fy >= last_fy
        accepted["stalls"] = accepted["stalls"] + 1 if stalled else 0
        if accepted["stalls"] >= _STALL_TESTS:
            raise InnerSolverFailed(
                f"Fenchel-Young gap {fy:.3e} above 9 inner_tol stalls within its rounding floor "
                f"{floor:.3e} ({_FY_FLOOR_ULPS:g} ulp of |Psi| + |Psi*| + |<eta, V>_h|)", best=u_vals)
        return not fy > 9.0 * inner_tol

    prob = convex.StepProblem(
        quad_op=q_op, lin=b, nonsmooth=pot, h=h, strong_convexity=gamma, lin_op=spec.site_op,
        op_norm=1.0 if separable else spec.ops.grad_norm, tol=inner_tol, max_iter=max_iter,
        accept=accept,
    )
    warm = inp.v if warm is None else warm
    p_hat, beta = dual_warm if dual_warm is not None else (None, None)
    try:
        if separable:
            u_vals, p_hat, rep = convex.solve_prox_gradient(prob, warm)
        else:
            u_vals, p_hat, rep = convex.solve_pd(prob, warm, p0=p_hat, beta=beta)
    except MaxIterExceeded as exc:
        raise InnerSolverFailed(str(exc), best=exc.best) from exc
    # A point that accept did not take is certified here: the closed-form
    # solve of a quadratic potential calls no accept, and its exact
    # multiplier certifies it with no root.
    cert = accepted["cert"] if accepted.get("u") is u_vals else certify(u_vals, p_hat, rep.resid_h)
    eta, v_vel, psi, pairing, fy, _ = cert
    if not fy <= 10.0 * inner_tol:
        raise InnerSolverFailed(
            f"Fenchel-Young gap {fy:.3e} above 10 inner_tol = {10.0 * inner_tol:.3e}",
            best=u_vals,
        )

    report = StepReport(
        tau=tau,
        fy_gap=fy,
        el_residual=rep.resid_h,
        inner_iters=rep.iterations,
        energy_after=energy_total(spec, t_next, u_vals),
        kinetic_after=0.5 * h_norm(v_vel, h) ** 2,
        psi=psi,
        psi_star=pairing - psi + fy,
        energy_rate=energy_rate,
        # S^n = f_avg^n - B^n = -zeta.
        work=tau * h_inner(-inp.zeta, v_vel, h),
        penalty=rep.beta,
    )
    carry = (p_hat, rep.beta) if not separable else None
    return u_vals, eta, report, carry


def run(
    spec: ProblemSpec,
    tau: float,
    *,
    inner_tol: float = DEFAULT_INNER_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> Trajectory:
    """March the scheme over [0, T] with equidistant steps.

    tau must divide the horizon (`core.step_count`) and pass
    `core.check_step`; the first step synthesizes U^{-1} = u0 - tau*v0 so
    that V^0 = v0.  Step n runs from times[n-1] to times[n], and E_0(u0) is
    evaluated once, before step 1, which then reuses lin_part(0).  Only U^n
    is wrapped, in a Field for the Trajectory.  Solver failures propagate
    with the step index attached.
    """
    n_steps = step_count(spec.horizon, tau)
    check_step(spec, tau)
    times = tau * np.arange(n_steps + 1)
    t = times.tolist()
    grid = spec.grid
    u_prev, v_prev = spec.u0.values, spec.v0.values
    u_prev2 = u_prev - tau * v_prev
    energy0 = energy_total(spec, t[0], u_prev)

    u_list, reports = [spec.u0], []
    q_op = step_operator(spec, tau)
    dual = None
    for n in range(1, n_steps + 1):
        f_avg = average_force(spec.force_values, t[n - 1], t[n]) if spec.force else np.zeros(grid.n_interior)
        zeta = spec.perturbation(t[n], u_prev, v_prev, grid) - f_avg
        inp = StepInput(tau=tau, t_prev=t[n - 1], t_next=t[n], v=u_prev, w=u_prev2, zeta=zeta)
        try:
            u_n, _, report, dual = incremental_minimize(
                spec, inp, q_op, u_prev, dual, inner_tol=inner_tol, max_iter=max_iter
            )
        except InnerSolverFailed as exc:
            raise InnerSolverFailed(
                f"step {n} (t = {t[n]:.6g}): {exc}", best=exc.best, step_index=n
            ) from exc
        u_list.append(Field(u_n, grid))
        reports.append(report)
        u_prev2, u_prev, v_prev = u_prev, u_n, (u_n - u_prev) / tau

    return Trajectory(spec=spec, times=times, U=tuple(u_list), reports=tuple(reports),
                      energy0=energy0)


def admissible_tau(spec: ProblemSpec, target: float) -> float:
    """Largest step <= target that divides the horizon exactly; ConfigError
    unless target > 0 and horizon/target is finite."""
    if not (target > 0.0 and np.isfinite(spec.horizon / target)):
        raise ConfigError(f"need a target step > 0 with a finite horizon/target, got {target}")
    n = max(1, int(np.ceil(spec.horizon / target - 1e-12)))
    return spec.horizon / n

