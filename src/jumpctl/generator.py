"""Pointwise evaluation of the controlled nonlocal generator.

For an action a = (sigma, nu, mu) and a fixed ambient vector u the operator
acts on a C^2 function g as

    L^a g(x) = (u + mu) . grad g(x)
             + (1/2) tr(sigma^T Hess g(x) sigma)
             + integral of [g(x+y) - g(x) - y . grad g(x)] nu(dy).

Scalar fields are either analytic callables (optionally with closed-form
gradient/Hessian; central finite differences otherwise) or grid-backed value
fields from the PDE solver, which evaluate through interpolation inside
their box and a fitted polynomial tail outside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import Action, JumpMeasure, ZeroMeasure, _check_support, _support_points

__all__ = [
    "AnalyticField",
    "GeneratorScheme",
    "DomainError",
    "GrowthError",
    "local_term",
    "jump_term",
    "apply_generator",
    "hjb_integrand",
]


class DomainError(ValueError):
    """Evaluation requested outside a field's declared domain box."""


class GrowthError(ValueError):
    """Field growth degree exceeds the ambient moment order of the measure."""


@dataclass
class GeneratorScheme:
    """Numerical knobs for generator evaluation.

    fd_step: finite-difference step; None applies max(1e-5, 1e-7 |x_i|)
        componentwise, the usual truncation/rounding balance, for analytic
        fields and the grid spacing per axis for grid fields (a smaller step
        would difference the interpolant across its kink at a node).
    small_jump_split: radius below which the jump integrand is replaced by
        its exact second-order Taylor surrogate (1/2) y^T Hess g y, avoiding
        cancellation for tiny jumps. None disables the split for analytic
        fields and uses twice the grid spacing for grid fields.
    ambient_p: moment order of the surrounding problem; used to reject grid
        fields whose certified growth exceeds it.
    """

    fd_step: float | None = None
    small_jump_split: float | None = None
    ambient_p: float | None = None


_DEFAULT_SCHEME = GeneratorScheme()


class AnalyticField:
    """Callable scalar field with optional analytic derivatives.

    fn, grad, hess each accept a point of shape (n,) or a batch (m, n);
    values come back as scalar/(m,), (n,)/(m, n) and (n, n)/(m, n, n).
    A domain box (lo, hi) makes out-of-box evaluation a DomainError.
    """

    def __init__(self, fn, grad=None, hess=None, domain=None, q_growth=None):
        self.fn = fn
        self.grad = grad
        self.hess = hess
        self.domain = None if domain is None else (
            np.atleast_1d(np.asarray(domain[0], float)),
            np.atleast_1d(np.asarray(domain[1], float)),
        )
        if q_growth is not None:
            self.q_growth = q_growth

    def _guard(self, x):
        if self.domain is not None:
            lo, hi = self.domain
            if np.any(x < lo) or np.any(x > hi):
                raise DomainError(f"evaluation outside domain box at {x}")

    def value(self, x):
        x = np.asarray(x, float)
        for row in np.atleast_2d(x):
            self._guard(row)
        return self.fn(x)


def _scalar(v) -> float:
    """The one value of a scalar or size-1 result (a 1-D grid field returns shape (1,))."""
    return float(np.asarray(v, float).reshape(()))


def _field_value(g, x):
    """Evaluate a field at (n,) or batch (m, n) points, tolerating scalar-only fns."""
    x = np.asarray(x, float)
    if x.ndim <= 1:
        return _scalar(g.value(x))
    try:
        vals = np.asarray(g.value(x), float)
        if vals.shape == (x.shape[0],):
            return vals
    except Exception:
        pass
    return np.array([_scalar(g.value(row)) for row in x])


def _fd_steps(g, x, scheme):
    if scheme.fd_step is not None:
        return np.full(x.shape, scheme.fd_step)
    grid = getattr(g, "grid", None)
    if grid is not None:
        return np.asarray(grid.h, float)
    return np.maximum(1e-5, 1e-7 * np.abs(x))


def _gradient(g, x, scheme):
    grad = getattr(g, "grad", None)
    if callable(grad):
        return np.atleast_1d(np.asarray(grad(x), float))
    h = _fd_steps(g, x, scheme)
    n = x.shape[0]
    pts = np.repeat(x[None, :], 2 * n, axis=0)
    for i in range(n):
        pts[2 * i, i] += h[i]
        pts[2 * i + 1, i] -= h[i]
    vals = _field_value(g, pts)
    return (vals[0::2] - vals[1::2]) / (2.0 * h)


def _hessian(g, x, scheme):
    hess = getattr(g, "hess", None)
    if callable(hess):
        return np.atleast_2d(np.asarray(hess(x), float))
    h = _fd_steps(g, x, scheme)
    n = x.shape[0]
    out = np.empty((n, n))
    f0 = _field_value(g, x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h[i]
        out[i, i] = (
            _field_value(g, x + ei) - 2.0 * f0 + _field_value(g, x - ei)
        ) / h[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h[j]
            out[i, j] = out[j, i] = (
                _field_value(g, x + ei + ej)
                - _field_value(g, x + ei - ej)
                - _field_value(g, x - ei + ej)
                + _field_value(g, x - ei - ej)
            ) / (4.0 * h[i] * h[j])
    return out


def _as_point(x, n=None):
    x = np.atleast_1d(np.asarray(x, float))
    if n is not None and x.shape != (n,):
        raise ValueError(f"point shape {x.shape} does not match dimension {n}")
    return x


def local_term(mu, sigma, g, x, u=None, scheme=None) -> float:
    """(u + mu) . grad g(x) + (1/2) tr(sigma^T Hess g(x) sigma)."""
    scheme = scheme or _DEFAULT_SCHEME
    x = _as_point(x)
    n = x.shape[0]
    mu = _as_point(mu, n)
    u = np.zeros(n) if u is None else _as_point(u, n)
    sigma = np.asarray(sigma, float)
    if sigma.ndim == 0:
        sigma = sigma.reshape(1, 1)
    grad = _gradient(g, x, scheme)
    hess = _hessian(g, x, scheme)
    return float((u + mu) @ grad + 0.5 * np.trace(sigma.T @ hess @ sigma))


def _effective_split(g, scheme):
    if scheme.small_jump_split is not None:
        return scheme.small_jump_split
    grid = getattr(g, "grid", None)
    if grid is not None:
        return 2.0 * float(np.max(grid.h))
    return 0.0


def jump_term(nu: JumpMeasure, g, x, scheme=None) -> float:
    """integral of [g(x+y) - g(x) - y . grad g(x)] nu(dy).

    Exact for atomic measures (finite sum); midpoint quadrature for density
    measures. Jumps with |y| below the small-jump split use the Taylor
    surrogate (1/2) y^T Hess g(x) y instead of the raw difference.
    """
    scheme = scheme or _DEFAULT_SCHEME
    x = _as_point(x)
    if isinstance(nu, ZeroMeasure):
        return 0.0
    _check_support(nu)
    q_growth = getattr(g, "q_growth", None)
    if (
        scheme.ambient_p is not None
        and q_growth is not None
        and q_growth > scheme.ambient_p
    ):
        raise GrowthError(
            f"field growth degree {q_growth} exceeds ambient moment order {scheme.ambient_p}"
        )
    pts, w = _support_points(nu)
    grad = _gradient(g, x, scheme)
    delta = _effective_split(g, scheme)
    norms = np.linalg.norm(pts, axis=1)
    far = norms > delta
    total = 0.0
    if np.any(far):
        yf, wf = pts[far], w[far]
        vals = _field_value(g, x[None, :] + yf)
        g0 = _field_value(g, x)
        total += float(np.sum(wf * (vals - g0 - yf @ grad)))
    if np.any(~far):
        yn, wn = pts[~far], w[~far]
        hess = _hessian(g, x, scheme)
        quad = 0.5 * np.einsum("ki,ij,kj->k", yn, hess, yn)
        total += float(np.sum(wn * quad))
    if not np.isfinite(total):
        raise ArithmeticError("jump integral did not evaluate finite")
    return total


def apply_generator(a: Action, g, x, u=None, scheme=None) -> float:
    """L^a g(x): local transport/diffusion part plus the compensated jump part."""
    return local_term(a.mu, a.sigma, g, x, u=u, scheme=scheme) + jump_term(
        a.nu, g, x, scheme=scheme
    )


def hjb_integrand(a: Action, phi, x, f_val: float, q_val: float, u=None, scheme=None) -> float:
    """L^a phi(x) - q(x, a) phi(x) + f(x, a), the quantity minimised over actions."""
    x = _as_point(x)
    return apply_generator(a, phi, x, u=u, scheme=scheme) - q_val * _field_value(
        phi, x
    ) + f_val
