"""Jump intensity measures and their moment functionals.

A jump measure nu lives on R^n minus the origin. Three fixed forms are
supported: the zero measure, finitely many weighted atoms, and a density
sampled on a tensor-product lattice (midpoint quadrature, optionally with a
ball of radius eps excluded around the origin); the relocation kernel, which
jumps to a fixed target, depends on the state. Membership in the moment
class of order p means the functional

    integral of |y|^2 v |y|^p  nu(dy)

is finite; that functional, the second-moment matrix, the total mass and a
sampler are the primitives every other module consumes.

Each reads the measure through :func:`_support_points`, the one place that
checks a support: the first read validates it and keeps it on the measure,
whose arrays are read-only copies; a malformed one raises on every read.
A (sigma, nu) pair's characteristics are read here too: the record of moments
kept on the measure (:func:`_moments`) and C = sigma sigma^T + Sigma_eps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "JumpMeasure",
    "ZeroMeasure",
    "AtomicMeasure",
    "DensityGridMeasure",
    "RelocationKernel",
    "Action",
    "MeasureSupportError",
    "DivergenceError",
    "UnsupportedMeasureError",
    "validate_Mp",
    "moment_functional",
    "second_moment_matrix",
    "total_mass",
    "tail_moment",
    "sample_jumps",
]


class MeasureSupportError(ValueError):
    """Structurally invalid support (atom at the origin, negative mass, ...).

    Distinct from a clean ``False`` out of :func:`validate_Mp`, which means
    "well-formed but the moment integral diverges".
    """


class DivergenceError(ArithmeticError):
    """A moment integral failed to accumulate to a finite value."""


class UnsupportedMeasureError(ValueError):
    """The operation needs a finite, strictly positive total mass."""


@dataclass(frozen=True, eq=False)
class JumpMeasure:
    """Base type; use one of the concrete subclasses."""

    dim: int


@dataclass(frozen=True, eq=False)
class ZeroMeasure(JumpMeasure):
    """The measure with no jumps at all. Always a valid member of every M_p."""

    dim: int = 1


@dataclass(frozen=True, eq=False)
class AtomicMeasure(JumpMeasure):
    """Finitely many atoms: sum of mass_k * delta at location y_k.

    locations has shape (k, dim), masses shape (k,). Moment integrals are
    exact sums. Construction copies the arrays read-only, but defers the
    support check to its first read so a malformed object can be inspected.
    """

    locations: np.ndarray = field(default=None)
    masses: np.ndarray = field(default=None)

    def __post_init__(self):
        locs = np.array(self.locations, dtype=float, ndmin=2)
        if locs.shape[0] == 1 and locs.shape[1] != self.dim and locs.size % self.dim == 0:
            locs = locs.reshape(-1, self.dim)
        masses = np.array(self.masses, dtype=float, ndmin=1)
        locs.flags.writeable = masses.flags.writeable = False
        if locs.shape != (masses.shape[0], self.dim):
            raise ValueError(
                f"atomic measure shapes inconsistent: locations {locs.shape}, "
                f"masses {masses.shape}, dim {self.dim}"
            )
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "masses", masses)


@dataclass(frozen=True, eq=False)
class DensityGridMeasure(JumpMeasure):
    """Density values on a tensor lattice over a box, midpoint quadrature.

    ``values`` holds the density at cell midpoints, shape equal to ``shape``.
    Cells whose midpoint lies inside the excluded ball |y| <= eps carry no
    mass. ``small_jump_cov`` optionally supplies the symmetric positive
    semidefinite matrix Sigma_eps = integral_{|y|<=eps} y y^T nu(dy) of the
    truncated small jumps, read as a Brownian part (see :func:`_covariance`).
    """

    lo: np.ndarray = field(default=None)
    hi: np.ndarray = field(default=None)
    shape: tuple = field(default=None)
    values: np.ndarray = field(default=None)
    eps: float = 0.0
    small_jump_cov: np.ndarray | None = None

    def __post_init__(self):
        lo, hi = np.array(self.lo, dtype=float, ndmin=1), np.array(self.hi, dtype=float, ndmin=1)
        shape = tuple(int(s) for s in np.atleast_1d(self.shape))
        vals = np.array(self.values, dtype=float).reshape(shape)
        lo.flags.writeable = hi.flags.writeable = vals.flags.writeable = False
        if lo.shape != (self.dim,) or hi.shape != (self.dim,) or len(shape) != self.dim:
            raise ValueError("density grid box/shape inconsistent with dim")
        if np.any(hi <= lo):
            raise ValueError("density grid needs lo < hi per axis")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "values", vals)
        if self.small_jump_cov is not None:
            cov = np.array(self.small_jump_cov, dtype=float, ndmin=2)
            if not (cov.shape == (self.dim, self.dim) and np.isfinite(cov).all() and np.array_equal(
                    cov, cov.T) and np.linalg.eigvalsh(cov)[0] >= -1e-12 * np.abs(cov).max()):
                raise ValueError(f"small_jump_cov must be a finite symmetric positive semidefinite "
                                 f"{self.dim}x{self.dim} matrix")
            cov.flags.writeable = False
            object.__setattr__(self, "small_jump_cov", cov)

    def cell_midpoints(self) -> np.ndarray:
        axes = [
            self.lo[d] + (np.arange(self.shape[d]) + 0.5) * (self.hi[d] - self.lo[d]) / self.shape[d]
            for d in range(self.dim)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def cell_volume(self) -> float:
        return float(np.prod((self.hi - self.lo) / np.asarray(self.shape, dtype=float)))


@dataclass(frozen=True, eq=False)
class RelocationKernel(JumpMeasure):
    """Jump straight to ``target`` (the origin by default) at ``rate``.

    At state x the measure is rate * delta_{target - x}, zero within 1e-12 of
    the target; it is read per row of a state batch through :meth:`at`, and
    :func:`total_mass` gives the rate. It brings its own compensating drift:
    ``Action(sigma, kernel, mu)`` applies mu plus the kernel's mean
    rate (target - x), so between jumps the state moves by u + mu. Arrivals
    within one step coalesce, as the state after a jump is the target.
    """

    rate: float = 0.0
    target: np.ndarray = None

    def __post_init__(self):
        target = np.array(np.zeros(self.dim) if self.target is None else self.target, float, ndmin=1)
        if target.shape != (self.dim,) or not np.isfinite(target).all() or not 0 <= self.rate < np.inf:
            raise ValueError(f"relocation needs a rate >= 0 and a finite {self.dim}-vector target")
        target.flags.writeable = False
        object.__setattr__(self, "target", target)

    def at(self, X):
        """(mass (m,), jump target - x (m, dim)) at the rows of a state batch."""
        y = self.target - np.asarray(X, dtype=float)
        return np.where(np.sqrt(_row_sq(y)) < 1e-12, 0.0, self.rate), y


def _row_sq(y):
    """|y|^2 per row, the squared columns added left to right: the bits of the
    slow np.add.reduce(y * y, axis=1), whose root np.linalg.norm takes."""
    sq = y * y
    return sum((sq[:, k] for k in range(1, sq.shape[1])), sq[:, 0])


def _support_points(nu: JumpMeasure):
    """Return the validated (points (k, n), weights (k,)) of the discrete representation.

    The first read checks the support and keeps it, read-only, on the measure
    for later reads; a malformed one is not kept and raises on every read.
    """
    if getattr(nu, "_support", None) is not None:
        return nu._support
    if isinstance(nu, ZeroMeasure):
        pts, w = np.zeros((0, nu.dim)), np.zeros(0)
    elif isinstance(nu, AtomicMeasure):
        pts, w = nu.locations, nu.masses
    elif isinstance(nu, DensityGridMeasure):
        pts = nu.cell_midpoints()
        w = nu.values.ravel() * nu.cell_volume()
        if nu.eps > 0.0:
            keep = np.linalg.norm(pts, axis=1) > nu.eps
            pts, w = pts[keep], w[keep]
        pts.flags.writeable = w.flags.writeable = False
    else:  # a relocation kernel too: it has no support apart from a state
        raise TypeError(f"no fixed support to read: {type(nu).__name__}")
    if not np.isfinite(pts).all():
        raise MeasureSupportError("measure support contains non-finite points")
    if not ((0.0 <= w) & (w < np.inf)).all():
        raise MeasureSupportError("masses/density values must be finite and >= 0")
    # np.linalg.norm(y) is 0 exactly where every y_i * y_i is
    if not (pts * pts).any(axis=1).all():
        raise MeasureSupportError("measure support must exclude the origin (atom or cell midpoint at 0)")
    object.__setattr__(nu, "_support", (pts, w))
    return nu._support


def _integrate(nu: JumpMeasure, integrand) -> np.ndarray:
    """Sum integrand(points) against the measure's weights.

    integrand maps (k, n) points to (k,) or (k, ...) values; the result is
    the weighted sum over k. Zero measure integrates to zero, with the
    scalar/array shape inferred from a probe evaluation.
    """
    pts, w = _support_points(nu)
    if pts.shape[0] == 0:
        probe = np.asarray(integrand(np.zeros((1, nu.dim))))
        return np.zeros(probe.shape[1:])
    vals = np.asarray(integrand(pts))
    return np.tensordot(w, vals, axes=(0, 0))


def validate_Mp(nu: JumpMeasure, p: float) -> bool:
    """True iff the order-p moment functional evaluates finite.

    The functional reads the support, so a malformed one raises
    MeasureSupportError; that is not the same as returning False. p below 2
    is rejected outright.
    """
    if p < 2.0:
        raise ValueError(f"moment order p must be >= 2, got {p}")
    try:
        moment_functional(nu, p)
    except DivergenceError:
        return False
    return True


def moment_functional(nu: JumpMeasure, p: float) -> float:
    """integral of max(|y|^2, |y|^p) nu(dy), exact for atoms, quadrature for densities."""
    with np.errstate(over="ignore"):
        out = _integrate(
            nu,
            lambda pts: np.maximum(
                np.linalg.norm(pts, axis=1) ** 2, np.linalg.norm(pts, axis=1) ** p
            ),
        )
    out = float(out)
    if not np.isfinite(out):
        raise DivergenceError(f"moment functional of order {p} did not evaluate finite")
    return out


def second_moment_matrix(nu: JumpMeasure) -> np.ndarray:
    """Matrix with entries integral of y_i y_j nu(dy); symmetric PSD."""
    with np.errstate(over="ignore"):  # a finite m can overflow in m + m.T
        m = _integrate(nu, lambda pts: pts[:, :, None] * pts[:, None, :])
        m = 0.5 * (m + m.T)
    if not np.all(np.isfinite(m)):
        raise DivergenceError("second moment matrix did not evaluate finite")
    return m


def tail_moment(nu: JumpMeasure, p: float) -> float:
    """integral over |y| > 1 of |y|^p nu(dy): the big-jump moment of order p."""

    def f(pts):
        r = np.linalg.norm(pts, axis=1)
        return np.where(r > 1.0, r**p, 0.0)

    return float(_integrate(nu, f))


def total_mass(nu: JumpMeasure) -> float:
    """nu of the whole punctured space; quadrature value for densities.

    A density grid with eps == 0 whose box touches the origin may hide an
    integrable or non-integrable singularity between midpoints; the
    quadrature value is returned with a warning in that case. A relocation
    kernel gives its rate, its mass off the target.
    """
    if isinstance(nu, DensityGridMeasure) and nu.eps == 0.0:
        if np.all(nu.lo <= 0.0) and np.all(nu.hi >= 0.0):
            warnings.warn(
                "density box contains the origin with eps=0; total mass is the "
                "midpoint-quadrature value and may misrepresent a singularity",
                RuntimeWarning,
                stacklevel=2,
            )
    return nu.rate if isinstance(nu, RelocationKernel) else float(np.sum(_support_points(nu)[1]))


def sample_jumps(nu: JumpMeasure, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` jumps, shape (size, dim). Categorical over atoms or cells.

    Density cells get a uniform jitter inside the cell so the samples do not
    collapse onto the lattice.
    """
    law = _moments(nu).law
    if law is None:
        raise UnsupportedMeasureError(
            f"sampling needs a fixed measure of positive mass: {type(nu).__name__}")
    return _draw_jumps(law, rng, size)


class _Moments:
    """A measure's record (see :func:`_moments`): mass, m1 = int y nu(dy), big_mean =
    int_{|y|>1} y nu(dy) (what h(y) = y 1_{|y|<=1} truncates), the sampling law
    (points, cdf, jitter half-widths or None; None without mass) and m2 = int y y^T
    nu(dy), formed on its first read so that an overflowing m2 raises only there."""

    def __init__(self, nu: JumpMeasure, mass: float, m1, big_mean, law):
        self.nu, self.mass, self.m1, self.big_mean, self.law = nu, mass, m1, big_mean, law

    @cached_property
    def m2(self) -> np.ndarray:
        m2 = np.zeros((self.nu.dim,) * 2) if self.law is None else second_moment_matrix(self.nu)
        m2.flags.writeable = False
        return m2


def _moments(nu: JumpMeasure) -> _Moments:
    """The :class:`_Moments` of ``nu``, checked on the first read and kept on the measure
    as :func:`_support_points` keeps the support. Without mass every moment is zero; a
    relocation kernel's record is its rate and zeros, its jumps being read per row. The
    cdf is normalised as ``Generator.choice`` normalises ``p``."""
    if getattr(nu, "_record", None) is not None:
        return nu._record
    m1, big, law = np.zeros(nu.dim), np.zeros(nu.dim), None
    if isinstance(nu, RelocationKernel):
        mass = nu.rate
    else:
        pts, w = _support_points(nu)
        mass = float(np.sum(w))
        if not mass < np.inf:
            raise UnsupportedMeasureError(f"a measure needs finite total mass, got {mass}")
        if mass > 0.0:
            half = 0.5 * (nu.hi - nu.lo) / nu.shape if isinstance(nu, DensityGridMeasure) else None
            cdf = (w / w.sum()).cumsum()
            cdf /= cdf[-1]
            law = pts, cdf, half
            m1 = _integrate(nu, lambda y: y)
            big = _integrate(nu, lambda y: y * (np.linalg.norm(y, axis=1) > 1.0)[:, None])
    m1.flags.writeable = big.flags.writeable = False
    object.__setattr__(nu, "_record", _Moments(nu, mass, m1, big, law))
    return nu._record


def _small_cov(nu: JumpMeasure | None) -> np.ndarray | None:
    """Sigma_eps of a density measure that sets one, else None."""
    return getattr(nu, "small_jump_cov", None)


def _covariance(sigma: np.ndarray, nu: JumpMeasure | None = None):
    """(C, F) of a (sigma, nu) pair: C = sigma sigma^T + Sigma_eps and the factor F F^T = C
    the simulator steps with, sigma itself without Sigma_eps and else the lower
    Cholesky factor of C (V sqrt(Lambda) if C is singular)."""
    small = _small_cov(nu)
    if small is None:
        return sigma @ sigma.T, sigma
    C = sigma @ sigma.T + small
    try:
        return C, np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        lam, V = np.linalg.eigh(C)
        return C, V * np.sqrt(np.maximum(lam, 0.0))


def _draw_jumps(law, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw from a sampling law (see :class:`_Moments`): one categorical draw, then the jitter.

    The categorical draw is bitwise ``rng.choice(len(pts), size, p=prob)``,
    with the same uniforms consumed, minus the cdf that call rebuilds.
    """
    pts, cdf, half = law
    out = pts[cdf.searchsorted(rng.random(size), side="right")]
    if half is not None:
        out += rng.uniform(-1.0, 1.0, size=out.shape) * half
    return out


@dataclass(frozen=True, eq=False)
class Action:
    """Control triplet: dispersion matrix, jump measure, drift vector (a
    :class:`RelocationKernel` adds its mean to the drift applied)."""

    sigma: np.ndarray
    nu: JumpMeasure
    mu: np.ndarray

    def __post_init__(self):
        sig = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        n = mu.shape[0]
        if sig.shape != (n, n):
            raise ValueError(f"sigma shape {sig.shape} does not match drift dim {n}")
        if self.nu.dim != n:
            raise ValueError(f"measure dim {self.nu.dim} does not match drift dim {n}")
        object.__setattr__(self, "sigma", sig)
        object.__setattr__(self, "mu", mu)

    @property
    def dim(self) -> int:
        return self.mu.shape[0]
