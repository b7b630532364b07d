"""Energy-dissipation bookkeeping, a priori monitors, and refinement studies.

The central check is the discrete energy-dissipation inequality: for each
step n,

    1/2 |V^n|_h^2 + E_{t_n}(U^n) + sum_k tau_k (Psi_k + Psi*_k)
      <= 1/2 |v0|_h^2 + E_0(u0) + sum_k int dE/dt + sum_k tau_k <S^k, V^k>_h
         + lambda * sum_k tau_k^2 |V^k|_h^2  (+ accumulated solver slack),

    S^k = f_avg^k - B(t_k, U^{k-1}, V^{k-1}),  tau_k the length of step k.

The stepper records each step's terms once, in its StepReport (tau_k
included), and E_0(u0) once, as Trajectory.energy0.  `edi_scan` is the one
pass that sums the reports; its records carry every running sum, and the
monitors (and the CLI's trajectory.csv) read them.  Psi*_k is the
Fenchel-Young identity at the step's subgradient, <eta^k, V^k>_h - Psi(V^k)
+ fy_gap_k, so no closed-form conjugate is needed; the inequality is exact
for exact minimizers, and the tolerance budget is the accumulated per-step
Fenchel-Young gaps plus a relative floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2, sqrt

import numpy as np

from .core import ProblemSpec
from .errors import ConfigError, IncompleteTrajectory
from .grid import h_norm, q_norm
from .stepper import Trajectory, run

EDI_FLOOR = 1e-8


@dataclass(frozen=True)
class EDIRecord:
    """Both sides of the discrete energy-dissipation inequality at step n.

    slack_h is the lambda sum_{k<=n} tau_k^2 |V^k|_h^2 term entering the
    right side; psi_accum and psi_star_accum are sum_{k<=n} tau_k Psi_k
    and sum_{k<=n} tau_k Psi*_k.
    """

    n: int
    lhs: float
    rhs: float
    residual: float
    tol: float
    slack_h: float
    psi_accum: float
    psi_star_accum: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


def _reports(traj: Trajectory) -> tuple:
    if len(traj.reports) != traj.n_steps:
        raise IncompleteTrajectory("trajectory lacks step reports")
    return traj.reports


def edi_scan(spec: ProblemSpec, traj: Trajectory) -> list[EDIRecord]:
    """Evaluate the discrete energy-dissipation inequality at every step.

    The per-record tolerance is the accumulated Fenchel-Young gaps plus a
    relative floor; the inequality direction is a theorem for exact
    minimizers, so all slack is attributable to the inner solver.
    """
    reports = _reports(traj)
    lam = spec.energy.lambda_conv
    base = 0.5 * h_norm(spec.v0.values, spec.grid.h) ** 2 + traj.energy0
    records = []
    dt_acc = work_acc = slack_acc = fy_acc = psi_acc = psi_star_acc = 0.0
    for k, rep in enumerate(reports, start=1):
        psi_acc += rep.tau * rep.psi
        psi_star_acc += rep.tau * rep.psi_star
        dt_acc += rep.energy_rate
        work_acc += rep.work
        # lambda tau_k^2 |V^k|_h^2, with kinetic_after = |V^k|_h^2 / 2.
        slack_acc += 2.0 * lam * rep.tau * rep.tau * rep.kinetic_after
        fy_acc += rep.fy_gap
        lhs = rep.kinetic_after + rep.energy_after + (psi_acc + psi_star_acc)
        rhs = base + dt_acc + work_acc + slack_acc
        tol = fy_acc + EDI_FLOOR * (1.0 + abs(rhs))
        records.append(EDIRecord(k, lhs, rhs, lhs - rhs, tol, slack_acc, psi_acc, psi_star_acc))
    return records


def energy_balance_residual(spec: ProblemSpec, traj: Trajectory, t: float) -> float:
    """|LHS - RHS| of the energy-dissipation balance at a grid node t.

    The limit object satisfies equality, so the absolute defect on the
    discrete trajectory (without the lambda tau_k^2 slack) is reported,
    not asserted; it shrinks as tau -> 0.
    """
    n = int(np.argmin(np.abs(traj.times - t)))
    if not abs(traj.times[n] - t) <= 1e-10 * max(1.0, traj.times[-1]):
        raise ConfigError(f"t = {t} is not a trajectory node")
    if n == 0:
        return 0.0
    rec = edi_scan(spec, traj)[n - 1]
    return abs(rec.residual + rec.slack_h)


@dataclass(frozen=True)
class BoundsReport:
    """A priori bound monitors of one trajectory."""

    sup_velocity: float
    sup_energy: float
    psi_accum: float
    psi_star_accum: float
    all_finite: bool


def apriori_monitor(traj: Trajectory, records: list[EDIRecord]) -> BoundsReport:
    """sup_n |V^n|_h, sup_n E_{t_n}(U^n), and both dissipation accumulators,
    read from the trajectory's ledger and its `edi_scan` records.

    |V^n|_h is sqrt(2 kinetic_after), which is exactly the h-norm the
    stepper squared.  Across a tau-halving family these stay bounded by a
    tau-independent constant; the family check lives with the caller
    (acceptance suite).
    """
    reports = _reports(traj)
    if len(records) != len(reports):
        raise IncompleteTrajectory("EDI records do not match the step reports")
    v0 = h_norm(traj.spec.v0.values, traj.spec.grid.h)
    bounds = (
        max([v0] + [sqrt(2.0 * r.kinetic_after) for r in reports]),
        max([traj.energy0] + [r.energy_after for r in reports]),
        records[-1].psi_accum,
        records[-1].psi_star_accum,
    )
    return BoundsReport(*bounds, all_finite=bool(np.isfinite(bounds).all()))


def deviation_norms(traj: Trajectory) -> tuple[float, float]:
    """Sup-in-time interpolant deviations (||U_hat - U_bar||, |V_hat - V_bar|_h).

    On (t_{n-1}, t_n] the gap U_hat - U_bar equals ((t_n - t)/tau_n)(U^{n-1} -
    U^n), so its supremum is the one-sided limit at the left endpoint and
    nodal differences give the exact value: max_n over step increments.
    The U-norm follows the dissipation kind (plain or gradient q-norm); the
    V-deviation uses the h-norm, which dominates the dual-space norm.
    V^n = (U^n - U^{n-1})/tau_n is derived from U, with V^0 = v0.
    """
    spec = traj.spec
    h = spec.grid.h
    q = spec.dissipation.q
    sup_u = sup_v = 0.0
    v_prev = spec.v0.values
    for n, rep in enumerate(_reports(traj), start=1):
        du = traj.U[n].values - traj.U[n - 1].values
        v_n = du / rep.tau
        sup_u = max(sup_u, q_norm(spec.sites(du), h, q))
        sup_v = max(sup_v, h_norm(v_n - v_prev, h))
        v_prev = v_n
    return sup_u, sup_v


@dataclass(frozen=True)
class ConvergenceTable:
    """Refinement-study results over a strictly halving step family."""

    taus: tuple
    sup_u_devs: tuple
    sup_v_devs: tuple
    cauchy: tuple
    rates: tuple


def convergence_study(
    base: Trajectory, halvings: int, *, inner_tol: float = 1e-9
) -> ConvergenceTable:
    """Refine a uniform run at tau0, its step length: run the scheme at
    tau0/2^k for k = 1..halvings and compare the family, base included.

    The Cauchy differences max_n |U_tau(t_n) - U_{tau/2}(t_n)|_h are taken
    on the coarse grid (fine index 2n matches exactly); observed rates are
    the log2 ratios of consecutive differences.
    """
    if halvings < 1:
        raise ConfigError("convergence study needs at least one halving")
    spec = base.spec
    h = spec.grid.h
    tau0 = _reports(base)[0].tau
    if any(rep.tau != tau0 for rep in base.reports):
        raise ConfigError("convergence study needs a run with equal steps")
    taus = [tau0 / 2**k for k in range(halvings + 1)]
    trajs = [base] + [run(spec, t, inner_tol=inner_tol) for t in taus[1:]]
    sup_u, sup_v = zip(*(deviation_norms(tr) for tr in trajs))
    cauchy = []
    for coarse, fine in zip(trajs, trajs[1:]):
        diff = max(
            h_norm(coarse.U[n].values - fine.U[2 * n].values, h)
            for n in range(coarse.n_steps + 1)
        )
        cauchy.append(diff)
    rates = [
        log2(c0 / c1) if c1 > 0 and c0 > 0 else float("nan")
        for c0, c1 in zip(cauchy, cauchy[1:])
    ]
    return ConvergenceTable(
        taus=tuple(taus),
        sup_u_devs=tuple(sup_u),
        sup_v_devs=tuple(sup_v),
        cauchy=tuple(cauchy),
        rates=tuple(rates),
    )
