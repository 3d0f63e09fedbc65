"""Evaluation of the controlled nonlocal generator at a point or on a state batch.

For an action a = (sigma, nu, mu) and a fixed ambient vector u the operator
acts on a C^2 function g as

    L^a g(x) = (u + mu) . grad g(x) + (1/2) tr(C Hess g(x))
             + integral of [g(x+y) - g(x) - y . grad g(x)] nu(dy),

with C = sigma sigma^T + Sigma_eps as ``measures._covariance`` forms it.

A relocation kernel, rate delta_{target - x} at x, adds its mean to mu; its
integral is rate [g(target) - g(x) - (target - x) . grad g(x)].

``apply_generator`` takes a point of shape (n,) (a scalar in one
dimension) and returns a float, or a batch of shape (m, n) and returns
(m,). A point is evaluated as a batch of one row, and every sum runs within
a row in a fixed order, so row i of a batch result is bit for bit the call
at that row's point. The field's values, gradient and Hessian are computed
once per call and shared by the local and the jump part.

Scalar fields are either analytic callables (optionally with closed-form
gradient/Hessian; central finite differences on one stencil per row
otherwise) or grid-backed value fields from the PDE solver, which evaluate
through interpolation inside their box and a fitted polynomial tail
outside. Two rules fix the numerics:

* the difference step is a grid field's spacing, else max(1e-5, 1e-7 |x_i|);
* jumps with |y| at most twice a grid field's largest spacing use the exact
  second-order Taylor surrogate (1/2) y^T Hess g y; an analytic field uses
  the raw difference for every jump.

``_field_value`` is the one rule for reading a field on a batch of states;
the verifiers and ``dynamics.bellman_series`` read fields through it too.
"""

from __future__ import annotations

import math

import numpy as np

from .measures import Action, RelocationKernel, ZeroMeasure, _covariance, _support_points

__all__ = ["AnalyticField", "DomainError", "apply_generator"]


class DomainError(ValueError):
    """Evaluation requested outside a field's declared domain box."""


class AnalyticField:
    """Callable scalar field with optional analytic derivatives.

    fn, grad, hess each accept a point of shape (n,) or a batch (m, n);
    values come back as scalar/(m,), (n,)/(m, n) and (n, n)/(m, n, n).
    A domain box (lo, hi) makes out-of-box evaluation a DomainError.
    """

    def __init__(self, fn, grad=None, hess=None, domain=None):
        self.fn = fn
        self.grad = grad
        self.hess = hess
        self.domain = None if domain is None else (
            np.atleast_1d(np.asarray(domain[0], float)),
            np.atleast_1d(np.asarray(domain[1], float)),
        )

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


def _fd_steps(g, X):
    """The difference step per row and axis: a grid field's spacing (a smaller
    step would difference its interpolant across the kink at a node), else
    max(1e-5, 1e-7 |x_i|), the usual truncation/rounding balance."""
    grid = getattr(g, "grid", None)
    if grid is not None:
        return np.broadcast_to(np.asarray(grid.h, float), X.shape)
    return np.maximum(1e-5, 1e-7 * np.abs(X))


def _derivatives(g, X):
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
    h = _fd_steps(g, X)
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


def _split(g):
    """The small-jump split: twice a grid field's largest spacing, else 0 (no
    jump uses the Taylor surrogate)."""
    grid = getattr(g, "grid", None)
    return 0.0 if grid is None else 2.0 * float(np.max(grid.h))


def _generator(g, X, local, nu, u=None):
    """g on the batch X, and the sum of the local part (local = (mu, sigma),
    with nu's C) and of each jump's term, added left to right in support order.

    Jumps with |y| above the small-jump split use the raw difference
    g(x+y) - g(x) - y . grad g(x), the others the Taylor surrogate
    (1/2) y^T Hess g(x) y; a relocation kernel's jump, and so the split, is per row.
    """
    law = None if isinstance(nu, ZeroMeasure) else (
        nu if isinstance(nu, RelocationKernel) else _support_points(nu))
    g0, grad, hess = _derivatives(g, X)
    C = _covariance(np.atleast_2d(np.asarray(local[1], float)), nu)[0]
    out = _local(local[0], C, u, grad, hess)
    if law is None:
        return g0, out
    m, n = X.shape
    if isinstance(law, RelocationKernel):  # one jump per row, to the target
        mass, y = law.at(X)
        out = out + _lsum(grad * (mass[:, None] * y))  # the kernel's mean is part of the drift
        far = np.linalg.norm(y, axis=1) > _split(g)
        jump = _field_value(g, law.target[None, :])[0] - g0 - _lsum(grad * y)
        quad = 0.5 * _lsum((hess * (y[:, :, None] * y[:, None, :])).reshape(m, -1))
        terms = (mass * np.where(far, jump, quad))[:, None]
    else:
        pts, w = law
        far = np.linalg.norm(pts, axis=1) > _split(g)
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


def apply_generator(a: Action, g, x, u=None):
    """L^a g(x) at a point (n,), a float, or on a batch (m, n), an (m,) array."""
    X = np.asarray(x, float)
    out = _generator(g, np.atleast_2d(X), (a.mu, a.sigma), a.nu, u)[1]
    return float(out[0]) if X.ndim < 2 else out
