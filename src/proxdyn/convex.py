"""Nonsmooth convex toolbox.

A time step is one strongly convex problem, `StepProblem`:

    min_u 0.5 u^T Q u + b^T u + sum_sites f((M u)_site),

with Q a `SymBand` (symmetric, held only in LAPACK upper band form), f the
per-site kernel `SitePotential` (exact prox, and exact conjugate through
`edge_conjugate_pair`), and M the identity (sites are nodes, separable
dissipation) or the discrete gradient (sites are edges, gradient-composite
dissipation).  The smooth part is quadratic, so its gradient's Lipschitz
constant is exactly lambda_max(Q).  Two inner solvers take it:

* forward-backward splitting with exact nodewise prox at the step
  0.95/lambda_max(Q), accelerated by semismooth Newton steps whose
  Jacobian is Q's band plus a diagonal, globalised by a line search on the
  forward-backward envelope (sites are nodes),
* a primal-dual splitting with M as linear operator (either kind): an
  over-relaxed ADMM whose y-update is the exact per-site prox.

A non-finite iterate raises NonFiniteIterate.  When f is quadratic, both
solve it in closed form: one banded Cholesky solve of Q + M^T diag(w2) M.
Every banded Cholesky goes through LAPACK's dpbtrf (`SymBand.factor`) and
dpbtrs (`band_solve`), which check the result and raise typed errors.
Every solve certifies optimality through the stationarity residual
r = grad(smooth) + M^T p_hat, where p_hat is the dual iterate projected
onto the subdifferential of the nonsmooth part at the current point: for
a gamma-strongly convex objective, obj(u) - obj* <= |r|_h^2 / (2 gamma).
A solve stops where that gap is at most tol and `StepProblem.accept` takes
the point with its multiplier.

The kernel's scalar roots take one of two root finders, elementwise: the
power-law root w s + g s^(q-1) = t (`_power_solve`, the prox and the edge
conjugate) is convex in s^(q-1) for q < 2 and in s for q > 2, and a
monotone Newton from an upper bound, or from one Newton step off a guess
such as the ADMM's previous prox output, solves it without a bracket
(`_monotone_newton`); the two roots whose functions are not convex, the
quartic branch and the cokernel shift of the composite conjugate, take the
bracketed Newton-bisection (`_newton_bisect`).  Both raise MaxIterExceeded
at their cap.  The closed form (t/g)^(1/(q-1)) takes one Newton step with
the exact q - 1 (`_power_polish`).

Solvers work on plain ndarrays in the h-cancelled representation (the
h-weighted pairing makes plain transposes adjoint, so h never appears in
the iteration); reported norms and gaps are h-weighted energies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
import scipy.linalg
import scipy.linalg.blas
import scipy.linalg.lapack

from .errors import EvalError, MaxIterExceeded, NonFiniteIterate


class SymBand:
    """Symmetric matrix in LAPACK upper band form: products by dsbmv,
    eigenvalues and Cholesky factorizations in O(m b^2), b the bandwidth.
    It is symmetric by construction; there is no dense form."""

    def __init__(self, band):
        self.band = np.asarray(band, dtype=float)

    def __matmul__(self, x):
        return scipy.linalg.blas.dsbmv(self.bandwidth, 1.0, self.band, x)

    @property
    def bandwidth(self) -> int:
        return self.band.shape[0] - 1

    def eigenvalue(self, i: int) -> float:
        """The i-th smallest eigenvalue."""
        return float(scipy.linalg.eigvals_banded(self.band, select="i", select_range=(i, i))[0])

    @cached_property
    def min_eig(self) -> float:
        return self.eigenvalue(0)

    @cached_property
    def max_eig(self) -> float:
        return self.eigenvalue(self.band.shape[1] - 1)

    def plus(self, *extras) -> "SymBand":
        """self + E_1 + ..., each E_i symmetric and given in upper band
        form, summed in that order."""
        parts = (self.band, *extras)
        band = np.zeros((max(len(b) for b in parts), self.band.shape[1]))
        for b in parts:
            band[len(band) - len(b):] += b
        return SymBand(band)

    def factor(self) -> np.ndarray:
        """Upper banded Cholesky factor (LAPACK dpbtrf), for `band_solve`.
        EvalError unless positive definite, NonFiniteIterate if the factor
        is not finite (a non-finite band)."""
        fac, info = scipy.linalg.lapack.dpbtrf(self.band)
        if info != 0:
            raise EvalError(f"band matrix not positive definite (dpbtrf info {info})")
        if not np.isfinite(fac).all():
            raise NonFiniteIterate("non-finite banded Cholesky factor")
        return fac

    def factor_plus(self, *extras) -> np.ndarray:
        """Banded Cholesky factor of self.plus(*extras)."""
        return self.plus(*extras).factor()


def _all_finite(x: np.ndarray) -> bool:
    """Whether every entry of x is finite: a finite x.x proves it, so the
    elementwise test runs only where x.x overflows or is not finite."""
    return math.isfinite(np.vdot(x, x)) or bool(np.isfinite(x).all())


def band_solve(fac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with C^T C x = rhs for an upper banded Cholesky factor C from
    `SymBand.factor` (LAPACK dpbtrs); NonFiniteIterate if x is not finite
    (a non-finite rhs)."""
    x, info = scipy.linalg.lapack.dpbtrs(fac, rhs)
    if info != 0 or not _all_finite(x):
        raise NonFiniteIterate(f"banded Cholesky solve not finite (dpbtrs info {info})")
    return x


_ROOT_RTOL = 1e-15
_ROOT_MAX_ITER = 200
# A bracket this many ulp wide holds the root to rounding.
_BRACKET_ULPS = 4


def _newton_bisect(fun, lo, hi):
    """Root of an increasing function on a guaranteed bracket, elementwise,
    for functions that are not convex (`SitePotential._branch_root`,
    `composite_conjugate`).

    fun(x) returns (f(x), f'(x)) with f(lo) <= 0 <= f(hi).  Starting at hi,
    each iterate shrinks the bracket by the sign of f; the Newton step is
    taken when f' is finite, the step lands strictly inside the bracket and
    is at most half the step before the last (Press et al., Numerical
    Recipes, `rtsafe`, so Newton steps that bounce between the bracket ends
    bisect), the midpoint otherwise.  Every evaluated point becomes a
    bracket end, so a Newton step back to one (a 2-cycle of rounding near
    the root) bisects instead and no iterate repeats.  Stops
    when an update moves no entry by more than _ROOT_RTOL relative, leaves
    it in place (an entry at inf, where both bracket ends overflow, is a
    fixed point), or the bracket is at most _BRACKET_ULPS ulp wide.
    Non-finite values of f or f' (at a bracket end where a power overflows,
    or f' at a zero with q < 2) fall back to the midpoint.  MaxIterExceeded
    after _ROOT_MAX_ITER iterations.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    x = hi.copy()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        step = step_old = hi - lo
        for _ in range(_ROOT_MAX_ITER):
            f, df = fun(x)
            lo = np.where(f <= 0.0, x, lo)
            hi = np.where(f >= 0.0, x, hi)
            newton = x - f / df
            inside = (newton > lo) & (newton < hi) & (np.abs(newton - x) <= 0.5 * step_old)
            ok = np.isfinite(df) & (inside | (newton == x))
            x_new = np.where(ok, newton, 0.5 * (lo + hi))
            step, step_old = np.abs(x_new - x), step
            width = _BRACKET_ULPS * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
            close = np.abs(x_new - x) <= _ROOT_RTOL * np.abs(x_new)
            done = (x_new == x) | close | (hi - lo <= width)
            if np.all(done):
                return x_new
            x = x_new
    raise MaxIterExceeded(f"Newton-bisection stalled after {_ROOT_MAX_ITER} iterations", best=x)


def _monotone_newton(fun, x, c=math.inf, start=None):
    """Root of a convex increasing function on x > 0, elementwise, from a
    start x at or above it: fun(x) returns (f(x), f'(x)).

    From above the root Newton's iterates fall to it monotonically and need
    no bracket (Ortega & Rheinboldt, Iterative Solution of Nonlinear
    Equations in Several Variables, 1970, Sec. 13.3); x <- min(x, x - f/f')
    keeps rounding from lifting an iterate.  A guess start >= 0 (NaN where
    there is none), capped at x, takes one Newton step first, whose landing
    lies at or above the root by convexity and replaces x where it is
    lower.  Rounding can leave that landing a few ulp below the root, so
    the next step is not held down; a rise there stops the iteration.

    Stops when no entry falls by more than _ROOT_RTOL relative, or, given
    f''/f' <= c/x on the way, when Newton's quadratic error bound proves
    the next fall below that: a fall of rho x_new from x bounds the next
    one by (c/2) rho^2 (1 + rho)^c x_new (Taylor at x, then
    f'(xi)/f'(x_new) <= (xi/x_new)^c), so 2 c rho^2 <= _ROOT_RTOL with
    c rho <= 1/2 leaves it below 0.41 _ROOT_RTOL x_new, and x_new is the
    point the plain stop returns one evaluation later, to that fall.  Falls
    above half the point do not stop, so that the last step's own rounding
    stays a few ulp (c = 0, a linear function, stops on the first such
    fall).  Monotone iterates cannot cycle.  MaxIterExceeded after
    _ROOT_MAX_ITER iterations (a NaN never stops).
    """
    bound = math.sqrt(_ROOT_RTOL / (2.0 * c)) if c > 0.0 else math.inf
    tol = min(max(bound, _ROOT_RTOL), 0.5)
    held = start is None
    if not held:
        start = np.fmin(start, x)
        f, df = fun(start)
        x = np.fmin(x, start - f / df)
    for _ in range(_ROOT_MAX_ITER):
        f, df = fun(x)
        x_new = x - f / df
        if held:
            x_new = np.minimum(x, x_new)
        held = True
        if (x - x_new <= tol * x_new).all():
            return x_new
        x = x_new
    raise MaxIterExceeded(f"monotone Newton stalled after {_ROOT_MAX_ITER} iterations", best=x)


def _power_polish(k, g, q, t):
    """One Newton step on g s^(q-1) = t from s = k ~ (t/g)^(1/(q-1)),
    elementwise; k where the step is not finite.

    The power (t/g)^r carries the rounding of r = 1/(q-1) as a relative
    error of about |ln k| eps; the step uses the exact q - 1 instead, and
    forms g k^(q-1) as (g a) a with a = k^((q-1)/2), which neither
    overflows nor loses a subnormal g's digits where t/g overflows.
    """
    a = k ** (0.5 * (q - 1.0))
    e = (g * a) * a / t
    s = k - k * ((e - 1.0) / e) / (q - 1.0)
    return np.where(np.isfinite(s), s, k)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _power_solve(w, g, q, t, start=None):
    """Root s >= 0 of w s + g s^(q-1) = t for t > 0, elementwise; g and t
    are arrays of one shape, w is a scalar or an array of that shape, and
    start, if given, an array of that shape of guesses >= 0 (NaN or inf
    where there is none).

    Closed forms when g = 0 or w = 0 (infinite when both vanish).
    Otherwise `_monotone_newton` solves the equation in the variable in
    which it is convex: y = s^(q-1) for q < 2, where w y^r + g y = t with
    r = 1/(q-1) and s = y^r, and s itself for q > 2 (q = 2 never arrives:
    `SitePotential` folds g into w2).  It starts at the bound at which
    either term alone reaches t, min(t/w, k) with k = (t/g)^r, which in the
    convex variable is within a factor 2 of the root, or one Newton step
    from start where that lands lower; where the bound overflows the root
    is left at inf.  For q > 2, where t/g overflows (a subnormal g), k is
    taken from the exponents of t and g, and the root is k x, with x the
    root of (w k/t) x + x^(q-1) = 1.  Where k is the root (w = 0) or that
    unit, `_power_polish` refines it.  When every w and g is positive and
    t/w and, for q > 2, k are finite (the prox's call), every site takes
    the Newton root and none of these cases is looked for.
    """
    r = 1.0 / (q - 1.0)
    tw = t / w
    k = None if q < 2.0 else (t / g) ** r
    every = (
        (w > 0.0 if np.ndim(w) == 0 else (w > 0.0).all())
        and g.all() and _all_finite(tw) and (k is None or _all_finite(k))
    )
    if every:
        wb, gb, tb, twb, sb = w, g, t, tw, start
        if k is not None:
            s0 = np.minimum(tw, k)
    else:
        if k is None:
            k = (t / g) ** r
        polish = w == 0.0
        tiny = None
        if q > 2.0:
            over = np.isinf(k) & (g > 0.0)
            if over.any():
                # k = ((mt/mg) 2^(et-eg))^r from the mantissas and
                # exponents of t and g, so a subnormal g loses no digits and
                # the power of 2 overflows only with k.
                mt, et = np.frexp(t[over])
                mg, eg = np.frexp(g[over])
                x = (et - eg) * r
                xi = np.floor(x)
                k[over] = np.ldexp((mt / mg) ** r * 2.0 ** (x - xi), xi.astype(int))
                tiny = over
                polish = polish | over
        if np.any(polish):
            k = np.where(polish, _power_polish(k, g, q, t), k)
        s = np.minimum(tw, k)
        both = (w > 0.0) & (g > 0.0) & np.isfinite(s)
        if tiny is not None:
            # g s^(q-1) overflows near the root before g scales it down
            # unless w k/t does (then s < 1 at the root); solve in units of
            # k.
            c = w * (k / t)
            tiny &= both & np.isfinite(c)
            ones = np.ones(np.count_nonzero(tiny))
            s[tiny] = k[tiny] * _power_solve(c[tiny], ones, q, ones)
            both &= ~tiny
        if not both.any():
            return s
        wb = w[both] if np.ndim(w) else w
        gb, tb, twb = g[both], t[both], tw[both]
        sb = None if start is None else start[both]
        s0 = s[both]
    if q < 2.0:
        wr = wb * r

        def fun(y):
            p = y ** (r - 1.0)
            return wb * p * y + gb * y - tb, wr * p + gb

        y = _monotone_newton(
            fun, np.minimum(twb ** (q - 1.0), tb / gb), r - 1.0,
            None if sb is None else sb ** (q - 1.0),
        )
        # y^r carries r times the rounding of y.  Where the w-term holds at
        # least half of t, (t - g y)/w cancels at most one bit and is the
        # root to a few ulp.
        gy = gb * y
        s_w = (tb - gy) / wb
        root = np.where((gy <= 0.5 * tb) & np.isfinite(s_w), s_w, y**r)
    else:
        gq = gb * (q - 1.0)

        def fun(x):
            p = x ** (q - 2.0)
            return wb * x + gb * p * x - tb, wb + gq * p

        root = _monotone_newton(fun, s0, q - 2.0, sb)
    if every:
        return root
    s[both] = root
    return s


class SitePotential:
    """Per-site potential f(y) = k4 y^4 + a|y-c| + (g/q)|y-c|^q + (w2/2)(y-c)^2.

    Sites are nodes (separable dissipation) or edges (gradient-composite);
    coefficient arrays are per-site, k4 is a scalar.  The w2 quadratic
    absorbs exactly solvable curvature: viscosity, and the power weight g
    when q = 2, which construction moves into w2 (leaving g = 0), so no
    kernel below has a q = 2 case.  The unshifted quartic takes the convex
    part of double-well energies (`EnergySpec.site_quartic`).
    """

    def __init__(self, a, g, q, w2, shift, k4: float = 0.0):
        self.a = np.asarray(a, dtype=float)
        self.g = np.asarray(g, dtype=float)
        self.q = float(q)
        self.w2 = np.broadcast_to(np.asarray(w2, dtype=float), self.a.shape).copy()
        self.shift = np.asarray(shift, dtype=float)
        self.k4 = float(k4)
        # The negated forms reject a NaN weight, which every comparison fails.
        weights_ok = (self.a >= 0).all() and (self.g >= 0).all() and self.k4 >= 0
        if not weights_ok or not self.q > 1.0:
            raise EvalError("site potential needs a >= 0, g >= 0, q > 1, k4 >= 0")
        if self.q == 2.0:
            self.w2 = self.w2 + self.g
            self.g = np.zeros_like(self.g)
        self._no_power = bool(np.all(self.g == 0.0))
        self._sigma_memo = (None, None)
        if self.k4 > 0.0:
            # The cubic's sigma-free subexpressions, each evaluated as its
            # formula does (scalars as 0-d arrays, which numpy combines with
            # arrays without converting a Python float each time).
            c = self.shift
            self._a3 = np.array(4.0 * self.k4)
            self._k12 = np.array(12.0 * self.k4)
            self._off = 12.0 * self.k4 * c / (3.0 * self._a3)
            self._c3 = 4.0 * self.k4 * c**3
            self._k12c2 = 12.0 * self.k4 * c**2
            self._off3x2 = 2.0 * self._off**3

    @property
    def is_quadratic(self) -> bool:
        """True when f has no kink, no quartic, and no power part."""
        return bool(self.k4 == 0.0 and np.all(self.a == 0.0) and self._no_power)

    @property
    def is_zero(self) -> bool:
        return self.is_quadratic and bool(np.all(self.w2 == 0.0))

    def strong_modulus(self) -> float:
        """Certified strong convexity in y: the smallest quadratic weight."""
        return float(np.min(self.w2))

    def step_copy(self, tau: float, shift, k4: float = 0.0) -> "SitePotential":
        """Per-site potential of tau * f((y - shift)/tau) + k4 y^4 for an
        unshifted f: the 1-homogeneous weight survives the scaling, the
        power weight becomes g tau^(1-q) and the quadratic one w2/tau."""
        return SitePotential(
            self.a, self.g * tau ** (1.0 - self.q), self.q, self.w2 / tau, shift, k4
        )

    def value(self, y) -> float:
        y = np.asarray(y, dtype=float)
        d = np.abs(y - self.shift)
        # Each weight meets its power before the constant, so a subnormal
        # weight keeps its digits.  Without a power part that term is
        # exact zeros, or 0 * inf = nan where d**q overflows, so it is
        # left out.
        terms = self.a * d
        if not self._no_power:
            terms = terms + self.g * d**self.q / self.q
        out = float((terms + self.w2 * d**2 / 2.0).sum())
        if self.k4 > 0.0:
            out += self.k4 * float((y**4).sum())
        return out

    def prox(self, sigma: float, z, start=None):
        """argmin (1/(2 sigma))(y - z)^2 + f(y), elementwise exact.

        start, a guess of the output such as the previous prox output of an
        iteration, only speeds up the power-law root: |start - shift| starts
        it on the active sites (`_power_solve`), and the output does not
        depend on it beyond that root's stop.
        """
        z = np.asarray(z, dtype=float)
        if self.k4 == 0.0:
            den, sa, sg = self._power_consts(sigma)
            d_in = (z - self.shift) / den
            m = np.abs(d_in) - sa
            d = np.zeros_like(d_in)
            active = m > 0.0
            if active.any():
                guess = None if start is None else np.abs(start - self.shift)[active]
                d[active] = np.sign(d_in[active]) * _power_solve(
                    1.0, sg[active], self.q, m[active], guess
                )
            return self.shift + d
        return self._prox_quartic(sigma, z)

    def _branch_deriv(self, d, z, sigma, sgn):
        """Stationarity d/dd of the prox objective on the branch sign(d)=sgn."""
        y = self.shift + d
        return (
            (d - (z - self.shift)) / sigma
            + self.w2 * d
            + 4.0 * self.k4 * y**3
            + sgn * (self.a + self.g * np.abs(d) ** (self.q - 1.0))
        )

    def _prox_quartic(self, sigma: float, z):
        """Branch-wise monotone root find for the quartic-augmented prox;
        at most one branch is taken per site, so one root solve serves both."""
        zs = (z - self.shift) / sigma
        # The branch derivative at d = 0, where the power term vanishes, is
        # base + sgn * a, so the branch sgn = -sign(base) is taken where
        # |base| > a, and d = 0 elsewhere.
        base = self._c3 - zs
        sa = -np.copysign(self.a, base)
        if self._no_power:
            d = self._cubic_root(sigma, base + sa, sa - zs)
            # The closed form overflows to nan where k4 is tiny against
            # 1/sigma (k4 ~ 1e-300 and below); the root search takes those
            # sites.
            if not _all_finite(d):
                sgn = -np.copysign(1.0, base)
                d = np.where(np.isfinite(d), d, self._branch_root(sigma, z, sgn))
        else:
            d = self._branch_root(sigma, z, -np.copysign(1.0, base))
        return self.shift + np.where(np.abs(base) > self.a, d, 0.0)

    def _power_consts(self, sigma: float):
        """(1 + sigma w2, sigma_eff a, sigma_eff g), sigma_eff = sigma/(1 +
        sigma w2): the prox's per-penalty constants without a quartic, kept
        in the slot that `_cubic_consts` uses with one, and evaluated as
        the prox's formula does."""
        key, consts = self._sigma_memo
        if key is None or key != sigma:
            den = 1.0 + sigma * self.w2
            sig_eff = sigma / den
            consts = (den, sig_eff * self.a, sig_eff * self.g)
            self._sigma_memo = (sigma, consts)
        return consts

    def _cubic_consts(self, sigma: float):
        """(1/sigma + w2, the sigma part of the depressed constant term,
        -2 sqrt(p/3), p sqrt(p/3)), kept in one slot keyed on sigma, which
        the ADMM changes only when residual balancing rescales its
        penalty."""
        key, consts = self._sigma_memo
        if key is None or key != sigma:
            with np.errstate(over="ignore", invalid="ignore"):
                ws = 1.0 / sigma + self.w2
                a1 = ws + self._k12c2
                p = ws / self._a3
                sq = np.sqrt(p / 3.0)
                consts = (ws, self._off3x2 - a1 * self._off / self._a3, -2.0 * sq, p * sq)
            self._sigma_memo = (sigma, consts)
        return consts

    def _cubic_root(self, sigma: float, a0, c0):
        """Closed-form root of the g = 0 branch derivative (monotone cubic)
        ws d + 4 k4 (c + d)^3 + c0 on the branch sign(d) = sgn, given its
        value a0 = 4 k4 c^3 + c0 at d = 0, c0 = sgn a - (z - c)/sigma and
        ws = 1/sigma + w2, with sgn = +-1 per site.

        The cubic 4 k4 d^3 + 12 k4 c d^2 + (ws + 12 k4 c^2) d + a0 is
        strictly increasing, so its depressed form t^3 + p t + q has
        p = a1/a3 - 3 off^2 = ws/(4 k4) > 0 and the stable single-root
        hyperbolic formula applies; two Newton steps polish it.  Where k4
        is tiny against 1/sigma it overflows, by design, to nan, silently.
        """
        ws, q_sigma, m2sq, psq = self._cubic_consts(sigma)
        with np.errstate(over="ignore", invalid="ignore"):
            q = q_sigma + a0 / self._a3
            t = m2sq * np.sinh(np.arcsinh(1.5 * q / psq) / 3.0)
            d = t - self._off
            for _ in range(2):
                y = self.shift + d
                y2 = y * y
                d = d - (ws * d + self._a3 * y2 * y + c0) / (ws + self._k12 * y2)
        return d

    def _branch_root(self, sigma: float, z, sgn):
        """Root d of the branch derivative with sgn*d >= 0 (sgn = +-1 per
        site).

        In x = sgn*d the branch derivative times sgn increases from its
        value b0 at 0 with slope at least 1/sigma + w2, so the root lies in
        [0, hi], hi = max(-b0, 0) / (1/sigma + w2) (hi = 0 where the branch
        is not taken); the Newton-bisection solves on the bracket.
        """

        def branch(x):
            return sgn * self._branch_deriv(sgn * x, z, sigma, sgn)

        def fun(x):
            curv = (
                1.0 / sigma
                + self.w2
                + 12.0 * self.k4 * (self.shift + sgn * x) ** 2
                + self.g * (self.q - 1.0) * x ** (self.q - 2.0)
            )
            return branch(x), curv

        hi = np.maximum(-branch(np.zeros_like(z)), 0.0) / (1.0 / sigma + self.w2)
        return sgn * _newton_bisect(fun, np.zeros_like(z), hi)

    def curvature(self, y):
        """f''(y) = 12 k4 y^2 + w2 + g (q-1) |y-c|^(q-2) off the kink,
        elementwise (infinite at y = c when g > 0 and q < 2)."""
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            power = self.g * (self.q - 1.0) * np.abs(y - self.shift) ** (self.q - 2.0)
        return 12.0 * self.k4 * y**2 + self.w2 + np.where(self.g > 0.0, power, 0.0)

    def subgrad_project(self, y, p):
        """Project p onto the subdifferential of f at y, elementwise.

        Off the kink the subdifferential is a singleton; at y = shift it is
        the interval 4 k4 y^3 + [-a, a].  Relies on prox producing
        exact zeros for the kink case.
        """
        y = np.asarray(y, dtype=float)
        d = y - self.shift
        smooth = 4.0 * self.k4 * y**3 + self.w2 * d
        power = self.g * np.sign(d) * np.abs(d) ** (self.q - 1.0)
        at_kink = d == 0.0
        sel = smooth + power + self.a * np.sign(d)
        clipped = np.clip(np.asarray(p, dtype=float), smooth - self.a, smooth + self.a)
        return np.where(at_kink, clipped, sel)

    def conjugate_sum(self, p) -> float:
        """Sum of per-site conjugates f_e*(p_e); used for gap verification.

        Only valid without the quartic (k4 = 0); the shift c adds the linear
        term <p, c> by the conjugate shift rule.
        """
        if self.k4 != 0.0:
            raise EvalError("exact conjugate requires k4 = 0")
        p = np.asarray(p, dtype=float)
        val, _ = edge_conjugate_pair(self.a, self.w2, self.g, self.q, p)
        return float(np.sum(val + p * self.shift))


@dataclass
class PDReport:
    """Inner-solve summary: iteration count, certified optimality gap, and
    for the ADMM its final penalty beta."""

    iterations: int
    gap: float
    resid_h: float
    beta: Optional[float] = None


def edge_conjugate_pair(a, w2, g, q, lam):
    """Conjugate value and maximizer of psi(s) = a|s| + (w2/2)s^2 + (g/q)|s|^q.

    Returns (psi*(lam), s*(lam)) elementwise, the latter being the
    conjugate's derivative.  With t = |lam| - a > 0 the maximizer solves
    w2 s + g s^(q-1) = t (`_power_solve`): closed forms when g = 0 or
    w2 = 0, the monotone Newton otherwise; infinite where the potential is degenerate
    (a-only) and |lam| exceeds a.
    """
    lam = np.asarray(lam, dtype=float)
    a = np.broadcast_to(np.asarray(a, dtype=float), lam.shape)
    w2 = np.broadcast_to(np.asarray(w2, dtype=float), lam.shape)
    g = np.broadcast_to(np.asarray(g, dtype=float), lam.shape)
    t = np.maximum(np.abs(lam) - a, 0.0)
    s = np.zeros_like(lam)
    val = np.zeros_like(lam)
    active = t > 0.0
    if np.any(active):
        ta, wa, ga = t[active], w2[active], g[active]
        # psi* = t s - (w2/2) s^2 - (g/q) s^q; substituting t from the
        # stationarity equation leaves a sum without cancellation.  An
        # infinite maximizer (a-only potential) gives an infinite value.
        if ga.any():
            sa = _power_solve(wa, ga, q, ta)
            with np.errstate(over="ignore", invalid="ignore"):
                # g s^(q-1) overflows at a huge s before a subnormal g
                # scales it down; the stationarity equation gives t - w2 s.
                gs = ga * sa ** (q - 1.0)
                gs = np.where(np.isfinite(gs), gs, ta - wa * sa)
                va = sa * (wa * sa / 2.0 + gs * (1.0 - 1.0 / q))
        else:
            # g = 0: _power_solve's closed form, and no power term.
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                sa = ta / wa
                va = sa * (wa * sa / 2.0)
        va[np.isinf(sa)] = np.inf
        s[active] = np.sign(lam[active]) * sa
        val[active] = va
    return val, s


def feasible_multiplier(h: float, eta, lam):
    """The solution of D^T lam' = eta nearest to the edge field lam:
    lam' = lam0 + mean(lam - lam0), lam0 = (0, -cumsum(h eta)).  Every
    lam0 + t is feasible in `composite_conjugate`'s dual characterization,
    so h sum_e f_e*(lam'_e) bounds Psi*(eta) from above in closed form."""
    lam0 = np.concatenate([[0.0], -np.cumsum(h * eta)])
    return lam0 + np.mean(lam - lam0)


def composite_conjugate(pot: SitePotential, h: float, eta):
    """Exact conjugate of Psi(v) = h * sum_e f_e((Dv)_e) at a nodal eta, for
    an unshifted edge potential pot without quartic.

    Uses the dual characterization Psi*(eta) = h * min over edge fields
    lam with D^T lam = eta of sum f_e*(lam_e); in 1D the constraint set
    is a one-parameter family lam0 + t (ker D^T is the constants), so the
    minimization is a scalar convex problem.  Its derivative
    sum_e s*(lam0_e + t) increases in t, with slope sum_e 1/f_e''(s*_e)
    over the edges where |lam0_e + t| > a_e; every s* is <= 0 at
    t = min(-lam0 - a) and >= 0 at t = max(-lam0 + a), which brackets the
    root for the Newton-bisection.
    """
    lam0 = np.concatenate([[0.0], -np.cumsum(h * np.asarray(eta, dtype=float))])

    def slope(t):
        lam = lam0 + t
        _, s = edge_conjugate_pair(pot.a, pot.w2, pot.g, pot.q, lam)
        curv = pot.w2 + pot.g * (pot.q - 1.0) * np.abs(s) ** (pot.q - 2.0)
        return np.sum(s), np.sum(np.where(np.abs(lam) > pot.a, 1.0 / curv, 0.0))

    t_star = _newton_bisect(slope, np.min(-lam0 - pot.a), np.max(-lam0 + pot.a))
    val, _ = edge_conjugate_pair(pot.a, pot.w2, pot.g, pot.q, lam0 + t_star)
    return h * float(np.sum(val))


@dataclass
class StepProblem:
    """Strongly convex problem min_u G(u) + sum_sites f((M u)_site), with
    G(u) = 0.5 u^T Q u + b^T u.

    Sites are nodes (M the identity) when lin_op is None and the rows of
    lin_op, with operator norm op_norm, otherwise.  lin_op is an operator,
    not a matrix: `lin_op @ u` gives M u, `lin_op.T @ p` gives M^T p, and
    `lin_op.gram_band(w)` the upper band form of M^T diag(w) M (the
    discrete gradient `grid.ForwardDifference` in the stepper).  A solve
    stops at the first point u, with multiplier p and stationarity residual
    |r|_h, whose certified gap is at most tol and that accept(u, p, |r|_h)
    takes (the stepper's: the step's Fenchel-Young gap, bounded from p, at
    most 9 inner_tol).  max_iter caps the iterations: Newton steps for
    nodal sites, splitting steps otherwise.
    """

    quad_op: SymBand
    lin: np.ndarray
    nonsmooth: SitePotential
    h: float
    strong_convexity: float
    lin_op: Optional[object] = None
    op_norm: float = 1.0
    tol: float = 1e-9
    max_iter: int = 50_000
    accept: Callable[[np.ndarray, np.ndarray, float], bool] = lambda u, p, r_h: True

    def sites(self, u):
        """M u."""
        return u if self.lin_op is None else self.lin_op @ u

    def adjoint(self, p):
        """M^T p."""
        return p if self.lin_op is None else self.lin_op.T @ p

    def gram(self, w):
        """M^T diag(w) M in upper band form."""
        return w[None, :] if self.lin_op is None else self.lin_op.gram_band(w)

    def smooth_full_grad(self, u):
        return self.quad_op @ u + self.lin


def _certificate(prob: StepProblem, r, breg: float = 0.0):
    """(gap, |r|_h) for the stationarity residual r = grad G(u) + M^T p:
    obj(u) - obj* <= |r|_h^2/(2 gamma) + h*breg, with breg the splitting's
    Bregman term (0 when p is a subgradient of F at M u)."""
    rr = float(r @ r)
    gap = prob.h * rr / (2.0 * prob.strong_convexity) + prob.h * max(breg, 0.0)
    return gap, float(np.sqrt(prob.h * rr))


def _certify_admm(prob: StepProblem, u, mu, y, p, mu_y):
    """Certificate at (u, y, p), mu = M u and mu_y = mu - y, with p in
    dF(y) exactly: the Bregman term F(Mu) - F(y) - <p, Mu - y> is
    nonnegative by convexity and vanishes with the splitting feasibility
    gap Mu - y."""
    breg = prob.nonsmooth.value(mu) - prob.nonsmooth.value(y) - float(p @ mu_y)
    return _certificate(prob, prob.smooth_full_grad(u) + prob.adjoint(p), breg)


def _solve_quadratic(prob: StepProblem):
    """The minimizer when f is quadratic: one banded Cholesky solve of
    Q + M^T diag(w2) M, with the exact subgradient p = w2 (M u - shift)."""
    pot = prob.nonsmooth
    rhs = -prob.lin + prob.adjoint(pot.w2 * pot.shift)
    u = band_solve(prob.quad_op.factor_plus(prob.gram(pot.w2)), rhs)
    p = pot.w2 * (prob.sites(u) - pot.shift)
    gap, r_h = _certificate(prob, prob.smooth_full_grad(u) + prob.adjoint(p))
    return u, p, PDReport(1, gap, r_h)


_CHECK_EVERY = 4
# The ADMM's over-relaxation factor alpha in (0, 2), the mid-range value of
# Boyd et al., Found. Trends Mach. Learn. 3(1) (2011), Sec. 3.4.3.
_RELAX = 1.6


def start_penalty(prob: StepProblem, mtm: np.ndarray) -> float:
    """The ADMM's first penalty, sqrt(lambda_min(Q) lambda_max(Q) /
    (lambda_min(M^T M) lambda_max(M^T M))), mtm the band of M^T M and
    lambda_max(M^T M) = op_norm^2.  Where Q and M^T M commute (p2: Q =
    I/tau^2 + D^T D) it is the optimum 1/sqrt(lambda_min lambda_max) of
    Q^-1 M^T M of Giselsson & Boyd, IEEE TAC 62 (2017) 532-544; elsewhere
    it is the product of the eigenvalue bounds.  M must be injective, as
    the Dirichlet gradient is."""
    quad = prob.quad_op
    mtm_bounds = SymBand(mtm).eigenvalue(0) * prob.op_norm**2
    return float(np.sqrt(quad.min_eig * quad.max_eig / mtm_bounds))


def solve_pd(prob: StepProblem, init, p0=None, beta=None):
    """Primal-dual splitting, meant for gradient-composite dissipation.

    Douglas-Rachford / ADMM form on min_u G(u) + F(y), Mu = y: the u-update
    is a banded Cholesky solve of Q + beta M^T M, factored once per
    penalty, the y-update the exact per-site prox (so kinks are hit
    exactly), and the scaled multiplier p = beta*lam is an exact
    subgradient of F at y.  The y- and multiplier updates take the
    over-relaxed mu_r = alpha Mu + (1 - alpha) y in place of Mu, alpha =
    _RELAX (Eckstein & Bertsekas, Math. Program. 55 (1992) 293-318); since
    y = prox(mu_r + lam), p stays an exact subgradient of F at y, and the
    certificate still charges the true Mu.  A cold start takes beta =
    start_penalty(prob, band of M^T M); residual balancing adapts beta, and
    a warm-started solve passes the previous solve's final beta
    (PDReport.beta) with its multiplier p0.  The stop test (StepProblem)
    runs every _CHECK_EVERY iterations.  Returns (u, p, PDReport).
    """
    u = np.array(init, dtype=float)
    pot = prob.nonsmooth
    if pot.is_quadratic:
        return _solve_quadratic(prob)

    mu = prob.sites(u)
    mtm = prob.gram(np.ones(mu.shape))
    if beta is None:
        beta = start_penalty(prob, mtm)

    lam = np.zeros(mu.shape) if p0 is None else np.asarray(p0, dtype=float) / beta
    y = pot.prox(1.0 / beta, mu + lam)
    p = beta * (mu + lam - y)
    gap, r_h = _certify_admm(prob, u, mu, y, p, mu - y)
    if gap <= prob.tol and prob.accept(u, p, r_h):
        return u, p, PDReport(0, gap, r_h, beta=beta)
    lam = lam + mu - y
    fac = prob.quad_op.factor_plus(beta * mtm)
    neg_lin = -prob.lin
    for k in range(1, prob.max_iter + 1):
        u = band_solve(fac, neg_lin + beta * prob.adjoint(y - lam))
        mu = prob.sites(u)
        y_old = y
        mu_r = _RELAX * mu + (1.0 - _RELAX) * y_old
        y = pot.prox(1.0 / beta, mu_r + lam, start=y_old)
        lam = lam + mu_r - y

        if k % _CHECK_EVERY == 0 or k == prob.max_iter:
            p = beta * lam
            mu_y = mu - y
            gap, r_h = _certify_admm(prob, u, mu, y, p, mu_y)
            if gap <= prob.tol and prob.accept(u, p, r_h):
                return u, p, PDReport(k, gap, r_h, beta=beta)
            # Residual balancing keeps primal and dual progress comparable.
            r_prim = math.sqrt(float(mu_y @ mu_y))
            r_dual = beta * float(np.linalg.norm(prob.adjoint(y - y_old)))
            if r_prim > 10.0 * r_dual and beta < 1e12:
                beta *= 2.0
                lam /= 2.0
                fac = prob.quad_op.factor_plus(beta * mtm)
            elif r_dual > 10.0 * r_prim and beta > 1e-12:
                beta /= 2.0
                lam *= 2.0
                fac = prob.quad_op.factor_plus(beta * mtm)

    gap = _certify_admm(prob, u, mu, y, beta * lam, mu - y)[0]
    raise MaxIterExceeded(
        f"primal-dual solve stalled after {prob.max_iter} iterations "
        f"(gap {gap:.3e}, target {prob.tol:.3e})",
        best=u,
    )


# A Newton trial must reach this fraction of the forward-backward
# envelope decrease that the plain forward-backward step guarantees, within
# this many halvings of its step; the plain step is the fallback.
_FBE_FRACTION = 0.5
_FBE_HALVINGS = 10
# sigma lambda_max(Q): the plain step decreases the envelope by
# (1 - _STEP_RATIO)/(2 sigma) |u - T(u)|^2.
_STEP_RATIO = 0.95


def _newton_direction(prob: StepProblem, sigma: float, y, r):
    """Semismooth Newton direction d of the residual F(u) = u - T(u) at a
    point with T(u) = y and F(u) = r: J d = -r for the generalised Jacobian
    J = I - D (I - sigma Q), D = diag(prox'), which is 0 where the prox is
    stuck at the shift and 1/(1 + sigma f''(y)) elsewhere.

    On stuck sites d = -r; on the others J d = -r reduces to
    (Q + diag f'') d = -r (1 + sigma f'')/sigma with the stuck entries of d
    moved to the right-hand side, so stuck rows and columns of the band
    become identity and one banded Cholesky solve gives d.
    """
    pot = prob.nonsmooth
    stuck = y == pot.shift
    curv = np.where(stuck, 0.0, pot.curvature(y))
    band = prob.quad_op.plus(curv[None, :]).band
    bw = len(band) - 1
    for k in range(1, bw + 1):
        band[bw - k, k:][stuck[k:] | stuck[:-k]] = 0.0
    band[bw, stuck] = 1.0
    d_stuck = np.where(stuck, -r, 0.0)
    rhs = np.where(stuck, -r, -r * (1.0 + sigma * curv) / sigma - prob.quad_op @ d_stuck)
    return band_solve(SymBand(band).factor(), rhs)


def solve_prox_gradient(prob: StepProblem, init):
    """Forward-backward splitting with semismooth Newton steps, for sites
    that are nodes (lin_op None).

    T(u) = prox_{sigma f}(u - sigma (Q u + b)) is the forward-backward
    (FB) step at sigma = 0.95/lambda_max(Q), and the minimizer is the root
    of F(u) = u - T(u).  Each iteration certifies the FB point T(u) (the
    prox hits the kinks exactly there), then moves u along
    (1 - t) T(u) + t (u + d), d the semismooth Newton direction of F
    (Hintermueller, Ito & Kunisch 2002), taking t = 1, 1/2, ... while the
    forward-backward envelope
    phi(u) = G(u) - <grad G(u), F(u)> + |F(u)|^2/(2 sigma) + f(T(u))
    decreases by too little (Stella, Themelis & Patrinos 2017), and t = 0,
    the plain FB step, whose decrease is guaranteed, after the last
    halving.  Each Newton step is one banded Cholesky solve with Q's band.
    The stop test (StepProblem) runs at each FB point, with multiplier p_hat.
    """
    if prob.lin_op is not None:
        raise EvalError("the forward-backward solver needs nodal sites (lin_op None)")
    u = np.array(init, dtype=float)
    pot = prob.nonsmooth
    if pot.is_quadratic:
        return _solve_quadratic(prob)

    sigma = _STEP_RATIO / prob.quad_op.max_eig
    decrease = _FBE_FRACTION * (1.0 - _STEP_RATIO) / (2.0 * sigma)

    def forward_backward(u):
        """(T(u), F(u), phi(u))."""
        grad = prob.smooth_full_grad(u)
        y = pot.prox(sigma, u - sigma * grad)
        r = u - y
        fbe = 0.5 * float(u @ (grad + prob.lin)) - float(grad @ r) + float(r @ r) / (2.0 * sigma)
        return y, r, fbe + pot.value(y)

    y, r, fbe = forward_backward(u)
    for k in range(1, prob.max_iter + 1):
        if not np.all(np.isfinite(y)):
            raise NonFiniteIterate(f"non-finite iterate at inner iteration {k}")
        grad = prob.smooth_full_grad(y)
        p_hat = pot.subgrad_project(y, -grad)
        gap, r_h = _certificate(prob, grad + p_hat)
        if gap <= prob.tol and prob.accept(y, p_hat, r_h):
            return y, p_hat, PDReport(k, gap, r_h)

        step = r + _newton_direction(prob, sigma, y, r)
        target = fbe - decrease * float(r @ r)
        for i in range(_FBE_HALVINGS):
            trial = forward_backward(y + 0.5**i * step)
            if trial[2] <= target:
                break
        else:
            trial = forward_backward(y)
        y, r, fbe = trial

    raise MaxIterExceeded(
        f"forward-backward Newton solve stalled after {prob.max_iter} iterations "
        f"(gap {gap:.3e})",
        best=y,
    )
