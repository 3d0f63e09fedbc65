"""Closed-form quadratic control: Riccati equation, dispersion selection,
linear feedback, and the explicit quadratic value function.

Running cost f(x, a) = x^T Lam x + mu^T Theta mu with Lam, Theta symmetric
positive definite and discount q > 0. The value function is
V(x) = x^T B x + c . x + d where B solves

    B^T Theta^-1 B + q B - Lam = 0

and the optimal drift is the linear feedback mu(x) = -Q x + v with
Q = Theta^-1 B. The dispersion/jump pair is whichever candidate minimises
tr(sigma^T B sigma) + integral of y^T B y nu(dy). scipy.linalg is imported in
the Riccati solve's Newton step only, so importing the module loads numpy alone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .measures import JumpMeasure, _moments, _small_cov, validate_Mp

__all__ = [
    "LQSpec",
    "LQSolution",
    "RiccatiSolveError",
    "solve_riccati",
    "minimal_dispersion",
    "lq_assemble",
    "optimal_feedback",
    "riccati_residual",
    "solve_lq",
]

log = logging.getLogger("jumpctl.lq")


class RiccatiSolveError(np.linalg.LinAlgError):
    """No symmetric positive definite solution emerged from the eigen basis."""


def _check_spd(m, name):
    m = np.atleast_2d(np.asarray(m, float))
    if not np.allclose(m, m.T, atol=1e-12 * max(1.0, np.abs(m).max())):
        raise ValueError(f"{name} must be symmetric")
    if np.linalg.eigvalsh(m).min() <= 0.0:
        raise ValueError(f"{name} must be positive definite")
    return m


@dataclass(frozen=True, eq=False)
class LQSpec:
    """Problem data for the quadratic-cost control problem."""

    lam: np.ndarray
    theta: np.ndarray
    q: float
    u: np.ndarray = None
    dispersion_candidates: tuple = ()  # pairs (sigma, nu)

    def __post_init__(self):
        lam = _check_spd(self.lam, "lam")
        theta = _check_spd(self.theta, "theta")
        if self.q <= 0.0:
            raise ValueError("discount q must be > 0")
        n = lam.shape[0]
        u = np.zeros(n) if self.u is None else np.atleast_1d(np.asarray(self.u, float))
        if u.shape != (n,):
            raise ValueError("u has wrong dimension")
        cands = []
        for sigma, nu in self.dispersion_candidates:
            sigma = np.atleast_2d(np.asarray(sigma, float))
            if sigma.shape != (n, n):
                raise ValueError("dispersion candidate sigma has wrong shape")
            if not validate_Mp(nu, 2.0):
                raise ValueError("dispersion candidate measure fails the p=2 moment check")
            cands.append((sigma, nu))
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "dispersion_candidates", tuple(cands))

    @property
    def dim(self) -> int:
        return self.lam.shape[0]


def _quadratic_rows(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Row-wise x' M x as the left-to-right sum of (x_i M_ij) x_j over (i, j) in
    row-major order, so a row rounds alike in every batch; np.einsum groups the
    terms differently for one- and two-row batches."""
    terms = ((X[:, i] * M[i, j]) * X[:, j] for i in range(M.shape[0]) for j in range(M.shape[1]))
    first = next(terms)
    return sum(terms, first)


@dataclass(frozen=True, eq=False)
class LQSolution:
    """Assembled closed form: V(x) = x^T B x + c . x + d, feedback -Q x + v."""

    B: np.ndarray
    c: np.ndarray
    d: float
    Q: np.ndarray
    v: np.ndarray
    P: np.ndarray
    delta_hat: float
    sigma_hat: np.ndarray = None
    nu_hat: JumpMeasure = None

    def value(self, x) -> np.ndarray:
        x = np.asarray(x, float)
        single = x.ndim <= 1
        pts = np.atleast_2d(x)
        out = _quadratic_rows(pts, self.B) + (pts * self.c).sum(axis=1) + self.d
        return float(out[0]) if single else out


def riccati_residual(B, lam, theta, q) -> np.ndarray:
    return B.T @ np.linalg.solve(theta, B) + q * B - lam


def solve_riccati(lam, theta, q, tol=1e-12, max_newton=30) -> np.ndarray:
    """Symmetric PD solution of B^T Theta^-1 B + q B - Lam = 0.

    Stable-subspace eigenvector construction on the 2n x 2n block matrix
    [[-q/2 I, -Theta^-1], [-Lam, q/2 I]] followed by Newton (Kleinman-style)
    refinement down to ``tol`` on the residual norm.
    """
    lam = _check_spd(lam, "lam")
    theta = _check_spd(theta, "theta")
    if q <= 0.0:
        raise ValueError("discount q must be > 0")
    n = lam.shape[0]
    theta_inv = np.linalg.solve(theta, np.eye(n))
    ham = np.block(
        [
            [-0.5 * q * np.eye(n), -theta_inv],
            [-lam, 0.5 * q * np.eye(n)],
        ]
    )
    eigvals, eigvecs = np.linalg.eig(ham)
    stable = np.real(eigvals) < -1e-12
    if stable.sum() != n:
        raise RiccatiSolveError(
            f"expected {n} stable eigenvalues, found {stable.sum()}; spectrum {np.sort_complex(eigvals)}"
        )
    basis = eigvecs[:, stable]
    X, Y = basis[:n, :], basis[n:, :]
    try:
        B = np.real(Y @ np.linalg.inv(X))
    except np.linalg.LinAlgError as exc:
        raise RiccatiSolveError(f"stable subspace is degenerate: {exc}") from exc
    B = 0.5 * (B + B.T)

    for it in range(max_newton):
        res = riccati_residual(B, lam, theta, q)
        nrm = np.abs(res).max()
        if nrm <= tol:
            break
        from scipy.linalg import solve_sylvester
        # Frechet derivative: dR[D] = A^T D + D A with A = Theta^-1 B + q/2 I
        A = theta_inv @ B + 0.5 * q * np.eye(n)
        try:
            D = solve_sylvester(A.T, A, -res)
        except np.linalg.LinAlgError as exc:
            raise RiccatiSolveError(f"Newton refinement stalled: {exc}") from exc
        B = 0.5 * ((B + D) + (B + D).T)
    log.debug("riccati refined in %d Newton steps, residual %.3e", it, nrm)

    final = np.abs(riccati_residual(B, lam, theta, q)).max()
    eigs = np.linalg.eigvalsh(B)
    if final > 1e-10 or eigs.min() <= 1e-12 * max(1.0, eigs.max()):
        raise RiccatiSolveError(
            f"refined solution rejected: residual {final:.3e}, spectrum {eigs}"
        )
    return B


def minimal_dispersion(candidates, B):
    """argmin over (sigma, nu) pairs of tr(sigma^T B sigma) + integral y^T B y nu(dy),
    Sigma_eps's share sum(B * Sigma_eps) included when the measure sets it.

    Returns (delta_hat, sigma_hat, nu_hat); ties resolve to the earliest
    candidate in list order.
    """
    if len(candidates) == 0:
        raise ValueError("empty dispersion candidate list")
    B = np.atleast_2d(np.asarray(B, float))
    values, normed = [], [(np.atleast_2d(np.asarray(sigma, float)), nu) for sigma, nu in candidates]
    for sigma, nu in normed:
        values.append(float(np.trace(sigma.T @ B @ sigma)) + float(np.sum(B * _moments(nu).m2)))
        if _small_cov(nu) is not None:
            values[-1] += float(np.sum(B * _small_cov(nu)))
    k = int(np.argmin(values))
    return values[k], *normed[k]


def lq_assemble(spec: LQSpec, B, delta_hat, sigma_hat=None, nu_hat=None) -> LQSolution:
    """Assemble the value-function coefficients and the feedback data.

    P = B Lam^-1 B, c = 2 P^T u, d = (2 u^T P^T u + delta_hat
    - u^T P Theta^-1 P^T u) / q, Q = Theta^-1 B, v = -Theta^-1 P u.
    """
    B = np.atleast_2d(np.asarray(B, float))
    n = spec.dim
    P = B @ np.linalg.solve(spec.lam, B)
    theta_inv = np.linalg.solve(spec.theta, np.eye(n))
    u = spec.u
    c = 2.0 * P.T @ u
    d = (2.0 * u @ P.T @ u + delta_hat - u @ P @ theta_inv @ P.T @ u) / spec.q
    Q = theta_inv @ B
    v = -theta_inv @ P @ u
    return LQSolution(
        B=B, c=c, d=float(d), Q=Q, v=v, P=P,
        delta_hat=float(delta_hat), sigma_hat=sigma_hat, nu_hat=nu_hat,
    )


def optimal_feedback(x, sol: LQSolution) -> np.ndarray:
    """Drift feedback -Q x + v; the argmin of the quadratic inner problem."""
    x = np.asarray(x, float)
    if x.ndim <= 1:
        return -sol.Q @ np.atleast_1d(x) + sol.v
    return -x @ sol.Q.T + sol.v


def solve_lq(spec: LQSpec) -> LQSolution:
    """Riccati solve, dispersion selection, coefficient assembly in one call."""
    B = solve_riccati(spec.lam, spec.theta, spec.q)
    if spec.dispersion_candidates:
        delta, sig, nu = minimal_dispersion(spec.dispersion_candidates, B)
    else:
        delta, sig, nu = 0.0, np.zeros((spec.dim, spec.dim)), None
    return lq_assemble(spec, B, delta, sigma_hat=sig, nu_hat=nu)
