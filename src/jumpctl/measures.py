"""Jump intensity measures and their moment functionals.

A jump measure nu lives on R^n minus the origin. Three concrete forms are
supported: the zero measure, finitely many weighted atoms, and a density
sampled on a tensor-product lattice (midpoint quadrature, optionally with a
ball of radius eps excluded around the origin). Membership in the moment
class of order p means the functional

    integral of |y|^2 v |y|^p  nu(dy)

is finite; that functional, the second-moment matrix, the total mass and a
sampler are the primitives every other module consumes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "JumpMeasure",
    "ZeroMeasure",
    "AtomicMeasure",
    "DensityGridMeasure",
    "Action",
    "MeasureSupportError",
    "DivergenceError",
    "UnsupportedMeasureError",
    "validate_Mp",
    "moment_functional",
    "second_moment_matrix",
    "total_mass",
    "first_moment",
    "tail_moment",
    "big_jump_mean",
    "sample_jump",
    "sample_jumps",
    "validate_action",
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

    @property
    def kind(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class ZeroMeasure(JumpMeasure):
    """The measure with no jumps at all. Always a valid member of every M_p."""

    dim: int = 1

    @property
    def kind(self) -> str:
        return "zero"


@dataclass(frozen=True, eq=False)
class AtomicMeasure(JumpMeasure):
    """Finitely many atoms: sum of mass_k * delta at location y_k.

    locations has shape (k, dim), masses shape (k,). Moment integrals are
    exact sums. Construction normalises shapes but defers support checks to
    the operations so that a malformed object can still be inspected.
    """

    locations: np.ndarray = field(default=None)
    masses: np.ndarray = field(default=None)

    def __post_init__(self):
        locs = np.atleast_2d(np.asarray(self.locations, dtype=float))
        if locs.shape[0] == 1 and locs.shape[1] != self.dim and locs.size % self.dim == 0:
            locs = locs.reshape(-1, self.dim)
        masses = np.atleast_1d(np.asarray(self.masses, dtype=float))
        if locs.shape != (masses.shape[0], self.dim):
            raise ValueError(
                f"atomic measure shapes inconsistent: locations {locs.shape}, "
                f"masses {masses.shape}, dim {self.dim}"
            )
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "masses", masses)

    @property
    def kind(self) -> str:
        return "atomic"


@dataclass(frozen=True, eq=False)
class DensityGridMeasure(JumpMeasure):
    """Density values on a tensor lattice over a box, midpoint quadrature.

    ``values`` holds the density at cell midpoints, shape equal to ``shape``.
    Cells whose midpoint lies inside the excluded ball |y| <= eps carry no
    mass. ``small_jump_cov`` optionally supplies the matrix
    integral_{|y|<=eps} y y^T nu(dy) for diffusion substitution of the
    truncated small jumps.
    """

    lo: np.ndarray = field(default=None)
    hi: np.ndarray = field(default=None)
    shape: tuple = field(default=None)
    values: np.ndarray = field(default=None)
    eps: float = 0.0
    small_jump_cov: np.ndarray | None = None

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        shape = tuple(int(s) for s in np.atleast_1d(self.shape))
        vals = np.asarray(self.values, dtype=float).reshape(shape)
        if lo.shape != (self.dim,) or hi.shape != (self.dim,) or len(shape) != self.dim:
            raise ValueError("density grid box/shape inconsistent with dim")
        if np.any(hi <= lo):
            raise ValueError("density grid needs lo < hi per axis")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "values", vals)

    @property
    def kind(self) -> str:
        return "density"

    def cell_midpoints(self) -> np.ndarray:
        axes = [
            self.lo[d] + (np.arange(self.shape[d]) + 0.5) * (self.hi[d] - self.lo[d]) / self.shape[d]
            for d in range(self.dim)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def cell_volume(self) -> float:
        return float(np.prod((self.hi - self.lo) / np.asarray(self.shape, dtype=float)))


def _support_points(nu: JumpMeasure):
    """Return (points (k, n), weights (k,)) of the discrete representation."""
    if isinstance(nu, ZeroMeasure):
        return np.zeros((0, nu.dim)), np.zeros(0)
    if isinstance(nu, AtomicMeasure):
        return nu.locations, nu.masses
    if isinstance(nu, DensityGridMeasure):
        pts = nu.cell_midpoints()
        w = nu.values.ravel() * nu.cell_volume()
        if nu.eps > 0.0:
            keep = np.linalg.norm(pts, axis=1) > nu.eps
            pts, w = pts[keep], w[keep]
        return pts, w
    raise TypeError(f"not a JumpMeasure: {type(nu).__name__}")


def _check_support(nu: JumpMeasure) -> None:
    pts, w = _support_points(nu)
    if not np.all(np.isfinite(pts)):
        raise MeasureSupportError("measure support contains non-finite points")
    if np.any(~np.isfinite(w)) or np.any(w < 0.0):
        raise MeasureSupportError("masses/density values must be finite and >= 0")
    if pts.shape[0]:
        norms = np.linalg.norm(pts, axis=1)
        if np.any(norms == 0.0):
            raise MeasureSupportError(
                "measure support must exclude the origin (atom or cell midpoint at 0)"
            )


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

    Raises MeasureSupportError for malformed support; that is not the same
    as returning False. p below 2 is rejected outright.
    """
    if p < 2.0:
        raise ValueError(f"moment order p must be >= 2, got {p}")
    _check_support(nu)
    if isinstance(nu, ZeroMeasure):
        return True
    try:
        return bool(np.isfinite(moment_functional(nu, p)))
    except DivergenceError:
        return False


def moment_functional(nu: JumpMeasure, p: float) -> float:
    """integral of max(|y|^2, |y|^p) nu(dy), exact for atoms, quadrature for densities."""
    _check_support(nu)
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
    _check_support(nu)
    m = _integrate(nu, lambda pts: pts[:, :, None] * pts[:, None, :])
    if not np.all(np.isfinite(m)):
        raise DivergenceError("second moment matrix did not evaluate finite")
    return 0.5 * (m + m.T)


def first_moment(nu: JumpMeasure) -> np.ndarray:
    """integral of y nu(dy); the compensator drift of the fully compensated form."""
    _check_support(nu)
    return _integrate(nu, lambda pts: pts)


def tail_moment(nu: JumpMeasure, p: float, radius: float = 1.0) -> float:
    """integral over |y| > radius of |y|^p nu(dy)."""
    _check_support(nu)

    def f(pts):
        r = np.linalg.norm(pts, axis=1)
        return np.where(r > radius, r**p, 0.0)

    return float(_integrate(nu, f))


def big_jump_mean(nu: JumpMeasure, radius: float = 1.0) -> np.ndarray:
    """integral over |y| > radius of y nu(dy), i.e. the mean lost to truncation."""
    _check_support(nu)

    def f(pts):
        r = np.linalg.norm(pts, axis=1)
        return pts * (r > radius)[:, None]

    return _integrate(nu, f)


def total_mass(nu: JumpMeasure) -> float:
    """nu of the whole punctured space; quadrature value for densities.

    A density grid with eps == 0 whose box touches the origin may hide an
    integrable or non-integrable singularity between midpoints; the
    quadrature value is returned with a warning in that case.
    """
    if isinstance(nu, ZeroMeasure):
        return 0.0
    if isinstance(nu, DensityGridMeasure) and nu.eps == 0.0:
        if np.all(nu.lo <= 0.0) and np.all(nu.hi >= 0.0):
            warnings.warn(
                "density box contains the origin with eps=0; total mass is the "
                "midpoint-quadrature value and may misrepresent a singularity",
                RuntimeWarning,
                stacklevel=2,
            )
    _, w = _support_points(nu)
    return float(np.sum(w))


def sample_jump(nu: JumpMeasure, rng: np.random.Generator) -> np.ndarray:
    """Draw one jump with law nu normalised by its total mass."""
    return sample_jumps(nu, rng, 1)[0]


def sample_jumps(nu: JumpMeasure, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` jumps, shape (size, dim). Categorical over atoms or cells.

    Density cells get a uniform jitter inside the cell so the samples do not
    collapse onto the lattice.
    """
    return _draw_jumps(_sampling_law(nu), rng, size)


def _sampling_law(nu: JumpMeasure):
    """Validate ``nu`` and normalise it for sampling, once per measure.

    Returns (points, probabilities, jitter half-widths or None); callers that
    draw repeatedly from one measure pass the result to :func:`_draw_jumps`.
    """
    _check_support(nu)
    m0 = total_mass(nu)
    if not np.isfinite(m0) or m0 <= 0.0:
        raise UnsupportedMeasureError(
            f"sampling needs finite positive total mass, got {m0}"
        )
    pts, w = _support_points(nu)
    half = None
    if isinstance(nu, DensityGridMeasure):
        half = 0.5 * (nu.hi - nu.lo) / np.asarray(nu.shape, dtype=float)
    return pts, w / w.sum(), half


def _draw_jumps(law, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw from a :func:`_sampling_law`: one categorical draw, then the jitter."""
    pts, prob, half = law
    out = pts[rng.choice(pts.shape[0], size=size, p=prob)]
    if half is not None:
        out += rng.uniform(-1.0, 1.0, size=out.shape) * half
    return out


@dataclass(frozen=True, eq=False)
class Action:
    """Control triplet: dispersion matrix, jump measure, drift vector."""

    sigma: np.ndarray
    nu: JumpMeasure
    mu: np.ndarray

    def __post_init__(self):
        sig = np.asarray(self.sigma, dtype=float)
        if sig.ndim == 0:
            sig = sig.reshape(1, 1)
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


def validate_action(a: Action, p: float) -> bool:
    """Finite entries plus measure membership in the ambient moment class."""
    if not (np.all(np.isfinite(a.sigma)) and np.all(np.isfinite(a.mu))):
        return False
    return validate_Mp(a.nu, p)
