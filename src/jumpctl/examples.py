"""Benchmark problems with closed-form solutions.

Two control problems whose optimal payoffs are known in closed form, used as
ground truth for the general grid solver:

* the convex-cost jump-to-origin problem: the controller picks a jump measure
  of total rate at most one (with drift tied to the jump mean, so the
  compensator cancels), unit diffusion, and pays a symmetric convex polynomial
  running cost.  The optimal payoff is ``V = psi + psi(0)/q`` where ``psi``
  solves the linear resolvent equation ``(1/2) psi'' - (q+1) psi + f = 0``
  with polynomial growth, and the optimal control jumps the state to the
  origin at maximal rate.  On a d-axis grid the cost is separable,
  ``f(x) = sum_i p(x_i)``, and so is ``psi``.

* the threshold (free-boundary) variant, in one dimension: jumping costs an
  extra lump ``kappa`` per unit of jump rate, and the optimal control jumps
  at full rate exactly on ``{|x| >= b_hat}``.  For each candidate threshold
  ``b`` the payoff ``phi_b`` solves a two-region linear ODE system, matched
  C^1 at ``b``; the optimal threshold is the root of
  ``phi_b(b) - phi_b(0) - kappa``.

Both solutions take the polynomially growing branch by construction: the
exponential homogeneous modes ``exp(+-sqrt(2(q+1)) x)`` are never included.
For the jump-to-origin problem ``psi`` is the polynomial particular solution
itself, evaluated at the grid's nodes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .hjb import Grid, ValueField

__all__ = [
    "BoundaryError",
    "BracketError",
    "Example2Solution",
    "example1_psi",
    "example1_value",
    "example2_phi_b",
    "example2_free_boundary",
]

log = logging.getLogger(__name__)

_BRACKET_CAP = float(2 ** 20)


class BoundaryError(ValueError):
    """The threshold solution's boundary layer reaches the grid's tail band;
    ``sides`` names the grid ends, "lo" and/or "hi", whose band it reaches."""

    def __init__(self, message, sides=()):
        super().__init__(message)
        self.sides = tuple(sides)


class BracketError(RuntimeError):
    """The free-boundary search bracket never produced a sign change."""

    def __init__(self, message, samples=None):
        super().__init__(message)
        self.samples = tuple(samples or ())


# ---------------------------------------------------------------------------
# cost polynomials
# ---------------------------------------------------------------------------

def _as_poly_coeffs(f) -> np.ndarray:
    """Normalize a cost input to ascending polynomial coefficients."""
    if isinstance(f, npoly.Polynomial):
        coeffs = np.asarray(f.coef, dtype=float)
    else:
        coeffs = np.atleast_1d(np.asarray(f, dtype=float))
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise TypeError("cost must be a 1-D coefficient array (ascending powers)")
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("cost coefficients must be finite")
    coeffs = npoly.polytrim(coeffs, tol=0.0)
    return np.asarray(coeffs, dtype=float)


def _validate_cost(coeffs: np.ndarray) -> None:
    """Reject costs that are not symmetric, nonnegative and convex.

    The checks run on a probe lattice rather than symbolically so that
    near-zero stray coefficients from upstream arithmetic do not cause
    spurious rejections.  A probe value must be finite (an overflow's NaN
    passes every check) and at most 1e300, so the solvers' products stay finite.
    """
    probe = np.linspace(-5.0, 5.0, 201)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf difference fails its check
        vals = npoly.polyval(probe, coeffs)
        if not np.all(np.isfinite(vals)):
            raise ValueError("cost must evaluate finite on [-5, 5]")
        scale = max(1.0, float(np.max(np.abs(vals))))
        if np.max(np.abs(vals - vals[::-1])) > 1e-9 * scale:
            raise ValueError("cost must be symmetric: f(x) == f(-x)")
        if np.min(vals) < -1e-9 * scale:
            raise ValueError("cost must be nonnegative")
        if coeffs.size > 2 and np.min(np.diff(vals, 2)) < -1e-9 * scale:
            raise ValueError("cost must be convex")
        if scale > 1e300:
            raise ValueError("cost must stay within 1e300 on [-5, 5]")


def _particular_coeffs(fc: np.ndarray, decay: float) -> np.ndarray:
    """Polynomial solution of ``(1/2) p'' - decay * p + f = 0``.

    Undetermined coefficients, filled from the top degree down; this is the
    unique polynomially growing solution of the resolvent equation.
    """
    deg = fc.size - 1
    out = np.zeros(deg + 1)
    for k in range(deg, -1, -1):
        carry = 0.5 * (k + 2) * (k + 1) * out[k + 2] if k + 2 <= deg else 0.0
        out[k] = (fc[k] + carry) / decay
    return out


# ---------------------------------------------------------------------------
# jump-to-origin benchmark
# ---------------------------------------------------------------------------

def example1_psi(f, q: float, grid: Grid) -> ValueField:
    """``psi`` solving ``(1/2) Laplacian psi - (q+1) psi + f = 0`` with polynomial growth.

    For the polynomial ``p`` given by ``f`` the state cost is
    ``sum_i p(x_i)`` over the grid's axes, and ``psi(x) = sum_i P(x_i)``
    with ``P`` the unique polynomial solution of the one-dimensional
    equation, evaluated exactly at the nodes.
    """
    if not (np.isfinite(q) and q > 0.0):
        raise ValueError("discount rate q must be positive")
    coeffs = _as_poly_coeffs(f)
    _validate_cost(coeffs)
    P = _particular_coeffs(coeffs, q + 1.0)
    vals = sum(npoly.polyval(x, P) for x in np.meshgrid(*grid.axes, indexing="ij", sparse=True))
    return ValueField(grid, vals, q_growth=max(2, coeffs.size - 1), nonneg=True)


def example1_value(psi: ValueField, q: float) -> ValueField:
    """Optimal payoff ``V = psi + psi(0)/q`` of the jump-to-origin problem.

    The optimal control is unit diffusion and a unit-rate jump straight to
    the origin, ``Action(1, RelocationKernel(1, 1.0), 0)`` (the jump measure
    is the point mass at ``-x`` when the state is ``x``).
    """
    if not (np.isfinite(q) and q > 0.0):
        raise ValueError("discount rate q must be positive")
    origin = np.zeros(psi.grid.dim) if psi.grid.dim > 1 else 0.0
    shift = float(psi.value(origin)) / q
    return ValueField(
        psi.grid, psi.values + shift, q_growth=psi.q_growth, nonneg=True
    )


# ---------------------------------------------------------------------------
# threshold benchmark
# ---------------------------------------------------------------------------

def _sech(z: float) -> float:
    e = np.exp(-abs(z))
    return 2.0 * e / (1.0 + e * e)


def _tanh(z: float) -> float:
    return float(np.tanh(z))


@dataclass(frozen=True)
class _ThresholdClosedForm:
    """Exact two-region solution for a fixed threshold ``b``.

    Inner region (|x| <= b, uncontrolled): ``P1(x) + amp1 * cosh(w1 x) /
    cosh(w1 b)`` with ``w1 = sqrt(2 q)``.  Outer region (|x| >= b, jumping at
    unit rate): ``P2(x) + (kappa + c)/(q+1) + amp2 * exp(-w2 (|x| - b))``
    with ``w2 = sqrt(2 (q+1))`` and ``c = phi(0)``.  Mode amplitudes are
    measured at ``|x| = b`` so every stored quantity stays bounded for
    arbitrarily large thresholds.
    """

    q: float
    kappa: float
    b: float
    p1: np.ndarray
    p2: np.ndarray
    amp1: float
    amp2: float
    c: float

    @property
    def w1(self) -> float:
        return float(np.sqrt(2.0 * self.q))

    @property
    def w2(self) -> float:
        return float(np.sqrt(2.0 * (self.q + 1.0)))

    def _mode1(self, t: np.ndarray) -> np.ndarray:
        # cosh(w1 t)/cosh(w1 b), evaluated without large intermediates
        w, b = self.w1, self.b
        return np.exp(w * (t - b)) * (1.0 + np.exp(-2.0 * w * t)) / (
            1.0 + np.exp(-2.0 * w * b)
        )

    def _mode1_deriv(self, t: np.ndarray) -> np.ndarray:
        w, b = self.w1, self.b
        return w * np.exp(w * (t - b)) * (1.0 - np.exp(-2.0 * w * t)) / (
            1.0 + np.exp(-2.0 * w * b)
        )

    def _eval(self, x, order: int):
        t = np.abs(np.asarray(x, dtype=float))
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        inner = t <= self.b
        out = np.empty_like(t)
        shift = (self.kappa + self.c) / (self.q + 1.0)
        ti, to = t[inner], t[~inner]
        if order == 0:
            out[inner] = npoly.polyval(ti, self.p1) + self.amp1 * self._mode1(ti)
            out[~inner] = (
                npoly.polyval(to, self.p2)
                + shift
                + self.amp2 * np.exp(-self.w2 * (to - self.b))
            )
        elif order == 1:
            d1 = npoly.polyder(self.p1)
            d2 = npoly.polyder(self.p2)
            out[inner] = npoly.polyval(ti, d1) + self.amp1 * self._mode1_deriv(ti)
            out[~inner] = npoly.polyval(to, d2) - self.w2 * self.amp2 * np.exp(
                -self.w2 * (to - self.b)
            )
            out = out * np.sign(np.asarray(x, dtype=float))
        else:
            dd1 = npoly.polyder(self.p1, 2)
            dd2 = npoly.polyder(self.p2, 2)
            out[inner] = npoly.polyval(ti, dd1) + self.amp1 * self.w1 ** 2 * self._mode1(ti)
            out[~inner] = npoly.polyval(to, dd2) + self.amp2 * self.w2 ** 2 * np.exp(
                -self.w2 * (to - self.b)
            )
        return float(out[0]) if scalar else out

    def value(self, x):
        return self._eval(x, 0)

    def deriv(self, x):
        return self._eval(x, 1)

    def second(self, x):
        return self._eval(x, 2)

    def gap(self) -> float:
        """Matching defect ``phi(b) - phi(0) - kappa`` at this threshold."""
        inner_at_b = float(npoly.polyval(self.b, self.p1)) + self.amp1
        return inner_at_b - self.c - self.kappa

    def c1_gap(self) -> float:
        d1 = npoly.polyder(self.p1)
        d2 = npoly.polyder(self.p2)
        mode_slope = float(self._mode1_deriv(np.asarray(self.b)))
        left = float(npoly.polyval(self.b, d1)) + self.amp1 * mode_slope
        right = float(npoly.polyval(self.b, d2)) - self.w2 * self.amp2
        return abs(left - right)

    def c2_gap(self) -> float:
        dd1 = npoly.polyder(self.p1, 2)
        dd2 = npoly.polyder(self.p2, 2)
        left = float(npoly.polyval(self.b, dd1)) + self.amp1 * self.w1 ** 2
        right = float(npoly.polyval(self.b, dd2)) + self.amp2 * self.w2 ** 2
        return abs(left - right)


def _solve_threshold(coeffs: np.ndarray, q: float, kappa: float, b: float) -> _ThresholdClosedForm:
    """Match the two regions at ``b`` and pin ``c = phi(0)``.

    Three linear conditions in (amp1, amp2, c): value and derivative
    continuity at ``b`` and the definition of ``c`` as the value at the
    origin.  The system is exact for the affine dependence of the outer
    equation on ``phi(0)``.
    """
    p1 = _particular_coeffs(coeffs, q)
    p2 = _particular_coeffs(coeffs, q + 1.0)
    w1 = np.sqrt(2.0 * q)
    w2 = np.sqrt(2.0 * (q + 1.0))
    d1 = npoly.polyder(p1)
    d2 = npoly.polyder(p2)
    p1_b = float(npoly.polyval(b, p1))
    p2_b = float(npoly.polyval(b, p2))
    dp1_b = float(npoly.polyval(b, d1))
    dp2_b = float(npoly.polyval(b, d2))

    mat = np.array(
        [
            [1.0, -1.0, -1.0 / (q + 1.0)],
            [w1 * _tanh(w1 * b), w2, 0.0],
            [_sech(w1 * b), 0.0, -1.0],
        ]
    )
    rhs = np.array(
        [
            p2_b + kappa / (q + 1.0) - p1_b,
            dp2_b - dp1_b,
            -float(npoly.polyval(0.0, p1)),
        ]
    )
    amp1, amp2, c = np.linalg.solve(mat, rhs)
    return _ThresholdClosedForm(
        q=float(q), kappa=float(kappa), b=float(b),
        p1=p1, p2=p2, amp1=float(amp1), amp2=float(amp2), c=float(c),
    )


def _field_from_closed_form(closed: _ThresholdClosedForm, grid: Grid, coeffs: np.ndarray) -> ValueField:
    vals = closed.value(grid.axes[0])
    out = ValueField(grid, vals, q_growth=max(2, coeffs.size - 1), nonneg=True)
    scale = max(1.0, float(np.max(np.abs(vals))))
    if out.tail_residual > 1e-6 * scale:
        sides = [end for side, end in enumerate(("lo", "hi"))
                 if out._tails.residual(vals, [(0, side)]) > 1e-6 * scale]
        raise BoundaryError(
            f"grid tail band at the {' and '.join(sides)} end contaminated by the threshold "
            f"boundary layer (fit residual {out.tail_residual:.3e}); enlarge the domain past "
            f"b = {closed.b:.6g}", sides=sides,
        )
    return out


def example2_phi_b(f, q: float, kappa: float, b: float, grid: Grid) -> ValueField:
    """Payoff of the fixed-threshold policy: jump at unit rate on |x| >= b.

    Solves the matched two-region ODE system exactly (closed form in each
    region, three-equation linear matching) and samples it on the grid.
    ``kappa`` may be zero here; the free-boundary search requires it positive.
    """
    if grid.dim != 1:
        raise ValueError("the benchmark problems are one-dimensional")
    if not (np.isfinite(q) and q > 0.0):
        raise ValueError("discount rate q must be positive")
    if not (np.isfinite(kappa) and kappa >= 0.0):
        raise ValueError("jump charge kappa must be nonnegative")
    if not (np.isfinite(b) and b >= 0.0):
        raise ValueError("threshold b must be nonnegative")
    coeffs = _as_poly_coeffs(f)
    _validate_cost(coeffs)
    closed = _solve_threshold(coeffs, q, kappa, b)
    return _field_from_closed_form(closed, grid, coeffs)


@dataclass(frozen=True)
class Example2Solution:
    """Free-boundary solution bundle for the threshold benchmark."""

    b_hat: float
    phi: ValueField
    phi0: float
    kappa: float
    q: float
    matching_gap: float
    c1_gap: float
    c2_gap: float
    increasing: bool
    closed_form: _ThresholdClosedForm = field(repr=False)

    def __post_init__(self):
        if not (np.isfinite(self.b_hat) and self.b_hat >= 0.0):
            raise ValueError("free boundary must be nonnegative")


def example2_free_boundary(f, q: float, kappa: float, grid: Grid, tol: float = 1e-8) -> Example2Solution:
    """Find the optimal jump threshold ``b_hat``.

    Root of ``g(b) = phi_b(b) - phi_b(0) - kappa``: starts from
    ``g(0) = -kappa < 0`` and doubles the upper bracket until the sign
    changes (``g`` grows without bound in ``b``), then polishes with a
    bracketing root solve.  The returned bundle carries the C^1 and C^2
    matching diagnostics at ``b_hat`` and a monotonicity flag for ``phi``
    on the positive half-grid.
    """
    from scipy.optimize import brentq

    if grid.dim != 1:
        raise ValueError("the benchmark problems are one-dimensional")
    if not (np.isfinite(q) and q > 0.0):
        raise ValueError("discount rate q must be positive")
    if not (np.isfinite(kappa) and kappa > 0.0):
        raise ValueError("jump charge kappa must be positive")
    coeffs = _as_poly_coeffs(f)
    _validate_cost(coeffs)

    def gap_at(b: float) -> float:
        return _solve_threshold(coeffs, q, kappa, b).gap()

    samples = [(0.0, -kappa)]
    lo, hi = 0.0, 1.0
    g_hi = gap_at(hi)
    samples.append((hi, g_hi))
    while g_hi <= 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > _BRACKET_CAP:
            raise BracketError(
                f"no sign change of the matching defect up to b={_BRACKET_CAP:g}",
                samples=samples,
            )
        g_hi = gap_at(hi)
        samples.append((hi, g_hi))

    b_hat = float(brentq(gap_at, lo, hi, xtol=1e-13, rtol=4 * np.finfo(float).eps, maxiter=200))
    closed = _solve_threshold(coeffs, q, kappa, b_hat)
    defect = abs(closed.gap())
    if defect > tol:
        raise BracketError(
            f"matching defect {defect:.3e} at b={b_hat:.12g} exceeds {tol:.1e}",
            samples=samples,
        )

    phi = _field_from_closed_form(closed, grid, coeffs)
    x_max = float(grid.axes[0][-1])
    probes = np.linspace(0.0, max(x_max, b_hat + 1.0), 2049)
    slopes = closed.deriv(probes)
    slope_scale = max(1.0, float(np.max(np.abs(slopes))))
    increasing = bool(np.min(slopes) >= -1e-9 * slope_scale)

    log.info(
        "free boundary b=%.12g, defect %.2e, C1 gap %.2e, C2 gap %.2e",
        b_hat, defect, closed.c1_gap(), closed.c2_gap(),
    )
    return Example2Solution(
        b_hat=b_hat,
        phi=phi,
        phi0=closed.c,
        kappa=float(kappa),
        q=float(q),
        matching_gap=defect,
        c1_gap=closed.c1_gap(),
        c2_gap=closed.c2_gap(),
        increasing=increasing,
        closed_form=closed,
    )
