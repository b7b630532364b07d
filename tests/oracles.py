"""Independent evaluators that the tests check the program against.

* `phi_value` evaluates the step functional Phi from the model's own
  dissipation and energy, with no solver splitting.
* `velocities`, `step_input` and `step_subgradient` rebuild the data of
  step n of a run from its stored U: the velocity V^n, the scheme's
  subgradient eta^n and forcing S^n are functions of U, so a trajectory
  does not store them.
* `scalar_potential` is a|s| + (g/q)|s|^q, elementwise, for grid-search
  oracles of the per-site kernel, and `conjugate_numeric` is such an
  oracle for the scalar conjugate.
* `objective` evaluates a `convex.StepProblem`'s objective
  0.5 u^T Q u + b^T u + sum_sites f((M u)_site), the primal value of a
  duality check.
* `prox_gradient_reference` is the fixed-step proximal gradient on a
  separable `convex.StepProblem`, the reference for
  `convex.solve_prox_gradient`.
* `DenseSiteOp` hands a dense matrix M to `convex.StepProblem` as its
  `lin_op`, with the band of M^T diag(w) M read from the matrix.
* `gradient_matrix` assembles the forward difference D entry by entry,
  the reference for `grid.ForwardDifference`.
* `admm_optimal_penalty` is Giselsson & Boyd's optimal ADMM penalty
  from the dense generalized eigenproblem, the reference for
  `convex.start_penalty`.
* `dense_of` unpacks a `convex.SymBand` into the full symmetric matrix,
  and `band_of` packs a dense reference matrix into one.
* `defect_shift` is the quad_shift that gives an energy
  0.5 <(A + shift) u, u>_h a chosen convexity defect.
* `biharmonic_clamped_dense` assembles the clamped fourth difference
  D2^T D2 entry by entry, the reference for `grid.biharmonic_band`.
* `gradient_consistency_error` checks `core.energy_grad` against central
  differences of `core.energy_total`.
* `p1_double_well` and `p3_smooth_energy` are p1's and p3's E2 in closed
  form, the references for the builders' decompositions, which drop the
  constant.
* `phase_indicator` is p1's lambda(e), whose slope
  `models.phase_indicator_slope` weights the plastic dissipation.
"""

import numpy as np
import scipy.linalg

from proxdyn.convex import PDReport, SymBand, _certificate
from proxdyn.core import energy_grad, energy_total
from proxdyn.errors import MaxIterExceeded
from proxdyn.grid import Field, h_inner, h_norm
from proxdyn.stepper import StepInput, average_force


class DenseSiteOp:
    """A dense site matrix M in the operator form `StepProblem.lin_op`
    takes: `@`, `.T @`, and `gram_band(w)`, the upper band form of
    M^T diag(w) M with the bandwidth that M's nonzero diagonals allow."""

    def __init__(self, mat):
        self.mat = np.asarray(mat, dtype=float)
        self.T = self.mat.T

    def __matmul__(self, u):
        return self.mat @ u

    def gram_band(self, w):
        rows, cols = np.nonzero(self.mat)
        m = self.mat.shape[1]
        bw = min(int(np.ptp(rows - cols)), m - 1) if rows.size else 0
        wd = np.asarray(w, dtype=float)[:, None] * self.mat
        return np.array([
            np.pad(np.einsum("ei,ei->i", self.mat[:, : m - k], wd[:, k:]), (k, 0))
            for k in range(bw, -1, -1)
        ])


def objective(prob, u):
    """0.5 u^T Q u + b^T u + sum_sites f((M u)_site) of a StepProblem."""
    return (
        0.5 * float(u @ (prob.quad_op @ u))
        + float(prob.lin @ u)
        + prob.nonsmooth.value(prob.sites(u))
    )


def prox_gradient_reference(prob, init):
    """Proximal gradient with the exact nodewise prox at the fixed step
    1/lambda_max(Q) on a separable StepProblem (lin_op None): every step
    decreases the objective, since lambda_max(Q) is the exact Lipschitz
    constant of the quadratic part's gradient.  It stops on the problem's
    own test (gap <= tol and `StepProblem.accept`) and returns (u, p_hat,
    PDReport), like the solver."""
    u = np.asarray(init, dtype=float).copy()
    pot = prob.nonsmooth
    s = 1.0 / prob.quad_op.max_eig
    grad = prob.smooth_full_grad(u)
    for k in range(1, prob.max_iter + 1):
        u = pot.prox(s, u - s * grad)
        grad = prob.smooth_full_grad(u)
        p_hat = pot.subgrad_project(u, -grad)
        gap, r_h = _certificate(prob, grad + p_hat)
        if gap <= prob.tol and prob.accept(u, p_hat, r_h):
            return u, p_hat, PDReport(k, gap, r_h)
    raise MaxIterExceeded(f"reference proximal gradient stalled (gap {gap:.3e})", best=u)


def dense_of(op):
    """The full symmetric matrix of a SymBand."""
    band, bw = op.band, op.bandwidth
    m = band.shape[1]
    out = np.diag(band[bw])
    for k in range(1, min(bw, m - 1) + 1):
        out += np.diag(band[bw - k, k:], k) + np.diag(band[bw - k, k:], -k)
    return out


def band_of(mat):
    """The SymBand of a square matrix's symmetric part (the matrix itself
    when it is symmetric), with the bandwidth taken from its nonzeros."""
    mat = np.asarray(mat, dtype=float)
    rows, cols = np.nonzero(mat)
    bw = int(np.max(np.abs(cols - rows), initial=0))
    return SymBand([
        np.pad(0.5 * (np.diagonal(mat, k) + np.diagonal(mat, -k)), (k, 0))
        for k in range(bw, -1, -1)
    ])


def defect_shift(quad, lam):
    """-(lambda_1(quad) + 2 lam) I as a SymBand: K = quad + shift has
    lambda_min(K) = -2 lam, so the energy's derived defect is lam."""
    return SymBand(np.full((1, quad.band.shape[1]), -(quad.eigenvalue(0) + 2.0 * lam)))


def gradient_matrix(grid):
    """Forward-difference operator D from interior nodes to the m+1 edges.

    Edge e sits between nodes e and e+1 of the padded vector, so the
    boundary zeros contribute to the first and last edge.
    """
    m = grid.n_interior
    d = np.zeros((m + 1, m))
    inv = 1.0 / grid.h
    for e in range(m + 1):
        if e - 1 >= 0:
            d[e, e - 1] -= inv
        if e < m:
            d[e, e] += inv
    return d


def admm_optimal_penalty(quad, mtm):
    """1/sqrt(lambda_min lambda_max) over the eigenvalues of Q^-1 M^T M, Q
    and M^T M dense, from scipy.linalg.eigh(M^T M, Q): the optimal penalty
    of Giselsson & Boyd, IEEE TAC 62 (2017) 532-544."""
    w = scipy.linalg.eigh(mtm, quad, eigvals_only=True)
    return float(1.0 / np.sqrt(w[0] * w[-1]))


def second_diff_clamped(grid):
    """Second-difference operator for clamped ends (u = u' = 0 at the boundary).

    Returns the (m+2) x m map from interior unknowns to second differences
    at every node; the zero boundary values and ghost reflection
    u_{-1} = u_1, u_{n} = u_{n-2} encode the clamping.
    """
    m = grid.n_interior
    n = m + 2
    d2 = np.zeros((n, m))
    inv2 = 1.0 / grid.h**2
    for i in range(n):
        for j, w in ((i - 1, 1.0), (i, -2.0), (i + 1, 1.0)):
            jj = j
            if jj == -1:
                jj = 1
            elif jj == n:
                jj = n - 2
            if 1 <= jj <= m:
                d2[i, jj - 1] += w * inv2
    return d2


def biharmonic_clamped_dense(grid):
    """Fourth-difference operator D2^T D2 for clamped boundary conditions."""
    d2 = second_diff_clamped(grid)
    return d2.T @ d2


def scalar_potential(a, g, q):
    """s -> a|s| + (g/q)|s|^q, elementwise."""

    def value(s):
        s = np.abs(np.asarray(s, dtype=float))
        return a * s + (g / q) * s**q

    return value


def conjugate_numeric(psi, xi, search_box: float, steps: int):
    """Grid-search lower bound of the scalar conjugate sup_s (xi*s - psi(s)).

    psi is applied elementwise over the search grid; xi may be a scalar or
    an array (coordinatewise sup).  Two-stage search: a coarse pass
    brackets the concave maximand, a fine pass resolves it at resolution
    2*search_box/steps, which is equivalent to the full fine grid because
    s -> xi*s - psi(s) is concave for convex psi.
    """
    arr = np.atleast_1d(np.asarray(getattr(xi, "values", xi), dtype=float))
    coarse_n = min(steps, 20001)
    # Scaled from [-1, 1]: the width 2*search_box overflows for boxes
    # above half the largest float.
    grid = search_box * np.linspace(-1.0, 1.0, coarse_n)
    vals = arr[:, None] * grid[None, :] - psi(grid)[None, :]
    best = np.argmax(vals, axis=1)
    out = np.empty(arr.shape)
    fine_res = 2.0 * (search_box / steps)
    for i, b in enumerate(best):
        lo = grid[max(b - 1, 0)]
        hi = grid[min(b + 1, coarse_n - 1)]
        n_fine = max(int(np.ceil((hi - lo) / fine_res)) + 1, 3)
        fine = np.linspace(lo, hi, n_fine)
        out[i] = np.max(arr[i] * fine - psi(fine))
    if np.isscalar(xi) or np.ndim(xi) == 0:
        return float(out[0])
    return out


def phi_value(spec, inp, u):
    """Phi of the step described by inp at a candidate u (an array)."""
    tau = inp.tau
    t_next = inp.t_next
    h = spec.grid.h
    inertia = 0.5 / tau**2 * h_norm(u - 2 * inp.v + inp.w, h) ** 2
    vel = (u - inp.v) / tau
    diss = tau * spec.psi_value(Field(inp.v, spec.grid), vel)
    return inertia + diss + energy_total(spec, t_next, u) + h_inner(inp.zeta, u, h)


def velocities(traj):
    """[V^0, ..., V^N] of a trajectory: V^0 = v0 and
    V^n = (U^n - U^{n-1})/tau_n, tau_n the step length of report n."""
    out = [traj.spec.v0.values]
    for n, rep in enumerate(traj.reports, start=1):
        out.append((traj.U[n].values - traj.U[n - 1].values) / rep.tau)
    return out


def step_input(traj, n):
    """The StepInput of step n of an equal-step run: v = U^{n-1},
    w = U^{n-2} (u0 - tau v0 for n = 1) and
    zeta = B(t_n, U^{n-1}, V^{n-1}) - f_avg^n."""
    spec, tau = traj.spec, traj.reports[n - 1].tau
    g = spec.grid
    t_prev, t_n = traj.times[n - 1], traj.times[n]
    u_prev = traj.U[n - 1].values
    v_prev = velocities(traj)[n - 1]
    w = traj.U[n - 2].values if n >= 2 else u_prev - tau * v_prev
    f_avg = average_force(spec.force_values, t_prev, t_n) if spec.force else np.zeros(g.n_interior)
    b = spec.perturbation(t_n, u_prev, v_prev, g)
    return StepInput(tau=tau, t_prev=t_prev, t_next=t_n, v=u_prev, w=w, zeta=b - f_avg)


def step_subgradient(traj, n):
    """(eta^n, S^n) of step n, from the discrete inclusion rearranged:
    S^n = f_avg^n - B^n and
    eta^n = S^n - (U^n - 2 U^{n-1} + U^{n-2})/tau^2 - DE_{t_n}(U^n)."""
    inp = step_input(traj, n)
    u = traj.U[n].values
    forcing = -inp.zeta
    accel = (u - 2.0 * inp.v + inp.w) / inp.tau**2
    eta = forcing - accel - energy_grad(traj.spec, inp.t_next, u)
    return eta, forcing


def gradient_consistency_error(spec, samples=5, seed=0, eps=1e-6):
    """Max relative error of D E_t (`energy_grad`) against central
    differences of E_t (`energy_total`)."""
    rng = np.random.default_rng(seed)
    grid = spec.grid
    m = grid.n_interior
    worst = 0.0
    for _ in range(samples):
        u = rng.standard_normal(m)
        t = rng.uniform(0.0, spec.horizon)
        g = energy_grad(spec, t, u)
        fd = np.zeros(m)
        for i in range(m):
            up = u.copy()
            dn = u.copy()
            up[i] += eps
            dn[i] -= eps
            fd[i] = (
                energy_total(spec, t, up) - energy_total(spec, t, dn)
            ) / (2 * eps * grid.h)
        scale = max(1.0, float(np.max(np.abs(g))))
        worst = max(worst, float(np.max(np.abs(g - fd))) / scale)
    return worst


def phase_indicator(alpha, e):
    """lambda(e) = alpha*(sqrt(1 + e^2) - 1), p1's phase indicator."""
    e = np.asarray(e, dtype=float)
    return alpha * (np.sqrt(1.0 + e**2) - 1.0)


def p1_double_well(params, grid, u):
    """p1's E2 in closed form, h/rho * sum_e (1 - (D u)_e^2)^2."""
    e = gradient_matrix(grid) @ u
    return grid.h / params.rho * float(np.sum((1.0 - e**2) ** 2))


def p3_smooth_energy(params, grid, t, u):
    """p3's E2_t in closed form, scale h sum_i (1 - u_i^2)^2 - <f(t), u>_h,
    with f = params.force or the default amp cos(om t) sin(pi x / L)."""
    if params.force is not None:
        f = np.asarray(params.force(t), dtype=float)
    else:
        profile = np.sin(np.pi * grid.interior_x / grid.length)
        f = params.force_amplitude * np.cos(params.force_frequency * t) * profile
    well = params.well_scale * grid.h * float(np.sum((1.0 - u**2) ** 2))
    return well - h_inner(f, u, grid.h)
