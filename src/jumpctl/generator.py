"""Evaluation of the controlled nonlocal generator at a point or on a state batch.

For an action a = (sigma, nu, mu) and a fixed ambient vector u the operator
acts on a C^2 function g as

    L^a g(x) = (u + mu) . grad g(x) + (1/2) tr(C Hess g(x))
             + integral of [g(x+y) - g(x) - y . grad g(x)] nu(dy),

with C = sigma sigma^T + Sigma_eps as ``measures._covariance`` forms it.

A relocation kernel, rate delta_{target - x} at x, adds its mean to mu; its
integral is rate [g(target) - g(x) - (target - x) . grad g(x)].

The public functions take a point of shape (n,) (a scalar in one
dimension) and return a float, or a batch of shape (m, n) and return (m,).
A point is evaluated as a batch of one row, and every sum runs within a row
in a fixed order, so row i of a batch result is bit for bit the call at
that row's point. The field's values, gradient and Hessian are computed
once per call and shared by the local and the jump part.

Scalar fields are either analytic callables (optionally with closed-form
gradient/Hessian; central finite differences on one stencil per row
otherwise) or grid-backed value fields from the PDE solver, which evaluate
through interpolation inside their box and a fitted polynomial tail
outside. ``_field_value`` is the one rule for reading a field on a batch of
states; the verifiers and ``dynamics.bellman_series`` read fields through
it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import Action, JumpMeasure, RelocationKernel, ZeroMeasure, _covariance, _support_points

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
        would difference the interpolant across its kink at a node). The
        step is set per row of a batch.
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

    def value(self, x):
        x = np.asarray(x, float)
        if self.domain is not None:
            lo, hi = self.domain
            out = np.any((x < lo) | (x > hi), axis=-1)
            if np.any(out):
                bad = np.atleast_2d(x)[np.argmax(out)]
                raise DomainError(f"evaluation outside domain box at {bad}")
        return self.fn(x)


def _rows(fn, X, shape=()):
    """fn on the rows of X as an (m, *shape) array: one call on the whole batch
    when it succeeds with m * prod(shape) elements, else one call per row (a
    function of one point at a time fails or misshapes on a batch)."""
    m = X.shape[0]
    try:
        out = np.asarray(fn(X), float)
        if out.size == m * math.prod(shape):
            return out.reshape((m,) + shape)
    except DomainError:
        raise
    except (TypeError, ValueError, IndexError):
        pass
    return np.array([np.asarray(fn(row), float).reshape(shape) for row in X]).reshape((m,) + shape)


def _field_value(g, X):
    """A field on the rows of an (m, n) batch, as (m,): ``g.value`` if present,
    else ``g.fn``, else g itself."""
    read = getattr(g, "value", None) or getattr(g, "fn", None) or g
    return _rows(read, np.asarray(X, float))


def _fd_steps(g, X, scheme):
    if scheme.fd_step is not None:
        return np.full(X.shape, scheme.fd_step)
    grid = getattr(g, "grid", None)
    if grid is not None:
        return np.broadcast_to(np.asarray(grid.h, float), X.shape)
    return np.maximum(1e-5, 1e-7 * np.abs(X))


def _derivatives(g, X, scheme):
    """g, grad g and Hess g on the rows of X: (m,), (m, n), (m, n, n).

    Analytic derivatives where g has them; otherwise central differences on
    one stencil per row (x +- h_i e_i, then x +- h_i e_i +- h_j e_j for i < j).
    """
    m, n = X.shape
    g0 = _field_value(g, X)
    grad, hess = getattr(g, "grad", None), getattr(g, "hess", None)
    grad = _rows(grad, X, (n,)) if callable(grad) else None
    hess = _rows(hess, X, (n, n)) if callable(hess) else None
    if grad is not None and hess is not None:
        return g0, grad, hess
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    signs = np.zeros((2 * n + 4 * len(pairs), n))
    for i in range(n):
        signs[2 * i : 2 * i + 2, i] = (1.0, -1.0)
    for k, (i, j) in enumerate(pairs):
        signs[2 * n + 4 * k : 2 * n + 4 * k + 4, [i, j]] = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    h = _fd_steps(g, X, scheme)
    v = _field_value(g, (X[:, None, :] + signs * h[:, None, :]).reshape(-1, n)).reshape(m, -1)
    if grad is None:
        grad = (v[:, 0 : 2 * n : 2] - v[:, 1 : 2 * n : 2]) / (2.0 * h)
    if hess is None:
        hess = np.empty((m, n, n))
        for i in range(n):
            hess[:, i, i] = (v[:, 2 * i] - 2.0 * g0 + v[:, 2 * i + 1]) / h[:, i] ** 2
        for k, (i, j) in enumerate(pairs):
            pp, pm, mp, mm = v[:, 2 * n + 4 * k : 2 * n + 4 * k + 4].T
            hess[:, i, j] = hess[:, j, i] = (pp - pm - mp + mm) / (4.0 * h[:, i] * h[:, j])
    return g0, grad, hess


def _as_point(x, n):
    x = np.atleast_1d(np.asarray(x, float))
    if x.shape != (n,):
        raise ValueError(f"point shape {x.shape} does not match dimension {n}")
    return x


def _lsum(P):
    """P summed over its last axis from left to right: each row rounds alike in
    every batch, which matmul, einsum and .sum do not promise."""
    return sum((P[..., i] for i in range(1, P.shape[-1])), P[..., 0])


def _local(mu, C, u, grad, hess):
    m, n = grad.shape
    mu = np.asarray(mu, float)
    mu = mu if mu.shape == (m, n) else _as_point(mu, n)  # one drift per row, or one for all
    u = np.zeros(n) if u is None else _as_point(u, n)
    # tr(C H) is the sum of the entries of H * C, C symmetric
    return _lsum(grad * (u + mu)) + 0.5 * _lsum((hess * C).reshape(m, -1))


def _effective_split(g, scheme):
    if scheme.small_jump_split is not None:
        return scheme.small_jump_split
    grid = getattr(g, "grid", None)
    if grid is not None:
        return 2.0 * float(np.max(grid.h))
    return 0.0


def _jump_law(nu: JumpMeasure, g, scheme):
    """Validated support points and weights of nu (a relocation kernel as it is)
    once its growth check passes; None for no jumps."""
    if nu is None or isinstance(nu, ZeroMeasure):
        return None
    law = nu if isinstance(nu, RelocationKernel) else _support_points(nu)
    q_growth = getattr(g, "q_growth", None)
    if scheme.ambient_p is not None and q_growth is not None and q_growth > scheme.ambient_p:
        raise GrowthError(
            f"field growth degree {q_growth} exceeds ambient moment order {scheme.ambient_p}"
        )
    return law


def _generator(g, X, scheme, local=None, nu=None, u=None):
    """g on the batch X, and the sum of the local part (local = (mu, sigma),
    with nu's C) and of each jump's term, added left to right in support order.

    Jumps with |y| above the small-jump split use the raw difference
    g(x+y) - g(x) - y . grad g(x), the others the Taylor surrogate
    (1/2) y^T Hess g(x) y; a relocation kernel's jump, and so the split, is per row.
    """
    law = _jump_law(nu, g, scheme)
    g0, grad, hess = _derivatives(g, X, scheme)
    out = np.zeros(len(X)) if local is None else _local(
        local[0], _covariance(np.atleast_2d(np.asarray(local[1], float)), nu)[0], u, grad, hess)
    if law is None:
        return g0, out
    m, n = X.shape
    if isinstance(law, RelocationKernel):  # one jump per row, to the target
        mass, y = law.at(X)
        if local is not None:  # the kernel's mean is part of the drift applied
            out = out + _lsum(grad * (mass[:, None] * y))
        far = np.linalg.norm(y, axis=1) > _effective_split(g, scheme)
        jump = _field_value(g, law.target[None, :])[0] - g0 - _lsum(grad * y)
        quad = 0.5 * _lsum((hess * (y[:, :, None] * y[:, None, :])).reshape(m, -1))
        terms = (mass * np.where(far, jump, quad))[:, None]
    else:
        pts, w = law
        far = np.linalg.norm(pts, axis=1) > _effective_split(g, scheme)
        terms = np.empty((m, len(w)))
        yf, yn = pts[far], pts[~far]
        if len(yf):
            vals = _field_value(g, (X[:, None, :] + yf).reshape(-1, n)).reshape(m, -1)
            terms[:, far] = w[far] * (vals - g0[:, None] - _lsum(grad[:, None, :] * yf))
        if len(yn):
            quad = _lsum((hess[:, None] * (yn[:, :, None] * yn[:, None, :])).reshape(m, len(yn), -1))
            terms[:, ~far] = w[~far] * (0.5 * quad)
    if not np.isfinite(terms).all():
        raise ArithmeticError("jump integral did not evaluate finite")
    for k in range(terms.shape[1]):
        out = out + terms[:, k]
    return g0, out


def _batch(x):
    """x as an (m, n) batch, and whether it was one point."""
    x = np.asarray(x, float)
    return np.atleast_2d(x), x.ndim < 2


def _result(out, point):
    return float(out[0]) if point else out


def local_term(mu, sigma, g, x, u=None, scheme=None):
    """(u + mu) . grad g(x) + (1/2) tr(sigma^T Hess g(x) sigma); with no measure
    it has no Sigma_eps, which :func:`apply_generator` adds through C."""
    X, point = _batch(x)
    return _result(_generator(g, X, scheme or _DEFAULT_SCHEME, (mu, sigma), u=u)[1], point)


def jump_term(nu: JumpMeasure, g, x, scheme=None):
    """integral of [g(x+y) - g(x) - y . grad g(x)] nu(dy) over nu's support;
    a density's Sigma_eps is left to :func:`apply_generator`'s C.

    Exact for atomic measures (finite sum); midpoint quadrature for density
    measures. Jumps with |y| below the small-jump split use the Taylor
    surrogate (1/2) y^T Hess g(x) y instead of the raw difference.
    """
    X, point = _batch(x)
    if isinstance(nu, ZeroMeasure):
        return _result(np.zeros(len(X)), point)
    return _result(_generator(g, X, scheme or _DEFAULT_SCHEME, nu=nu)[1], point)


def apply_generator(a: Action, g, x, u=None, scheme=None):
    """L^a g(x): local transport/diffusion part plus the compensated jump part."""
    X, point = _batch(x)
    return _result(_generator(g, X, scheme or _DEFAULT_SCHEME, (a.mu, a.sigma), a.nu, u)[1], point)


def hjb_integrand(a: Action, phi, x, f_val, q_val, u=None, scheme=None):
    """L^a phi(x) - q(x, a) phi(x) + f(x, a), the quantity minimised over actions."""
    X, point = _batch(x)
    g0, gen = _generator(phi, X, scheme or _DEFAULT_SCHEME, (a.mu, a.sigma), a.nu, u)
    return _result(gen - q_val * g0 + f_val, point)
