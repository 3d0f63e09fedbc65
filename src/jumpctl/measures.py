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
    "RelocationKernel",
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
    "jump_to_origin_action",
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

    @property
    def kind(self) -> str:
        return "relocation"

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
    m = _integrate(nu, lambda pts: pts[:, :, None] * pts[:, None, :])
    if not np.all(np.isfinite(m)):
        raise DivergenceError("second moment matrix did not evaluate finite")
    return 0.5 * (m + m.T)


def first_moment(nu: JumpMeasure) -> np.ndarray:
    """integral of y nu(dy); the compensator drift of the fully compensated form."""
    return _integrate(nu, lambda pts: pts)


def tail_moment(nu: JumpMeasure, p: float, radius: float = 1.0) -> float:
    """integral over |y| > radius of |y|^p nu(dy)."""

    def f(pts):
        r = np.linalg.norm(pts, axis=1)
        return np.where(r > radius, r**p, 0.0)

    return float(_integrate(nu, f))


def big_jump_mean(nu: JumpMeasure, radius: float = 1.0) -> np.ndarray:
    """integral over |y| > radius of y nu(dy), i.e. the mean lost to truncation."""

    def f(pts):
        r = np.linalg.norm(pts, axis=1)
        return pts * (r > radius)[:, None]

    return _integrate(nu, f)


def total_mass(nu: JumpMeasure) -> float:
    """nu of the whole punctured space; quadrature value for densities.

    A density grid with eps == 0 whose box touches the origin may hide an
    integrable or non-integrable singularity between midpoints; the
    quadrature value is returned with a warning in that case. A relocation
    kernel gives its rate, its mass off the target.
    """
    if isinstance(nu, RelocationKernel):
        return nu.rate
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
    """Normalise ``nu`` for sampling, once per measure.

    Returns (points, cdf, jitter half-widths or None); callers that draw
    repeatedly from one measure pass the result to :func:`_draw_jumps`.  The
    cdf is normalised as ``Generator.choice`` normalises ``p``.
    """
    m0 = total_mass(nu)
    if not np.isfinite(m0) or m0 <= 0.0:
        raise UnsupportedMeasureError(
            f"sampling needs finite positive total mass, got {m0}"
        )
    pts, w = _support_points(nu)
    half = 0.5 * (nu.hi - nu.lo) / nu.shape if isinstance(nu, DensityGridMeasure) else None
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    return pts, cdf, half


def _draw_jumps(law, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw from a :func:`_sampling_law`: one categorical draw, then the jitter.

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
    finite = bool(np.all(np.isfinite(a.sigma)) and np.all(np.isfinite(a.mu)))
    return finite and validate_Mp(a.nu, p)


def jump_to_origin_action(x, rate: float, sigma) -> Action:
    """Jump straight to the origin from state ``x`` at ``rate``, the per-state
    form of ``Action(sigma, RelocationKernel(dim, rate), 0)``.

    The jump measure is ``rate * delta_{-x}`` and the drift ``-rate * x``
    equals its mean, so drift and compensator cancel.  At the origin
    (|x| < 1e-12) and at rate zero the measure and the drift are zero.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    dim = x.size
    if rate == 0.0 or np.linalg.norm(x) < 1e-12:
        return Action(sigma, ZeroMeasure(dim), np.zeros(dim))
    nu = AtomicMeasure(dim, locations=-x[None, :], masses=[rate])
    return Action(sigma, nu, -rate * x)
