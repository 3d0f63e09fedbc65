"""Policy iteration on 1-D/2-D grids for stationary and finite-horizon
dynamic-programming equations driven by jump-diffusion generators.

The discrete operator mirrors the continuous one term by term: upwind first
differences keyed to the sign of the total first-order coefficient (drift
net of the jump compensator), central second differences, and the nonlocal
part assembled from measure atoms, quadrature cells or a relocation
kernel's target through multilinear interpolation. Values requested outside
the box come from per-axis polynomial tail extensions, the natural boundary
treatment for value functions of polynomial growth; the same extension
weights serve both the matrix assembly and point evaluation, so the solve
and the readout agree.

Each candidate's operator is built once per solve as sparse matrices,
shared by policy evaluation and improvement, and placed once on one CSC
layout. A policy's generator is the candidate rows it selects scattered onto
that layout plus the row-scaled one-sided differences, the sparse sum of those
matrices bit for bit. The linear system of a policy, q - L for evaluation
and I - dt L for an implicit time step, shares the index arrays of its
sparsity pattern's canonical CSC matrix and holds the bits scipy's sparse
difference and CSC conversion would give. q and f are evaluated once per
chosen (node, action): improvement hands its values at the chosen actions to
the evaluation of that policy. In product mode they are row-batched per
(sigma, nu) pair, one call per block of drift-lattice columns and one for the
refined drifts; a block's q/f are tabulated on first use, within 2**21
entries per solve, for every later sweep or time step. The drift term is
formed per lattice axis, and a block's integrands in place in one lattice
array, scanned by a plain argmin. Every linear system is solved by one
sparse LU factorisation (``scipy.sparse.linalg.splu``) with a residual check;
COLAMD's column order is computed once per sparsity pattern, and a later
system on that pattern is factorised with its columns gathered into that
order, with the same factors bit for bit. scipy is imported only where a
matrix is built or factorised, so a run that solves nothing (``simulate``,
``--version``) loads numpy alone. No Monte Carlo runs here: ``verify`` holds
the simulated check of a solved field.
"""

from __future__ import annotations

import copy
import logging
import warnings
from dataclasses import dataclass, field

import numpy as np

from .measures import Action, RelocationKernel, _covariance, _moments, _support_points, validate_Mp

__all__ = [
    "Grid",
    "ValueField",
    "HJBProblem",
    "PolicyTable",
    "ConvergenceReport",
    "FiniteHorizonSolution",
    "SolverError",
    "SchemeWarning",
    "policy_evaluation",
    "policy_improvement",
    "solve_stationary",
    "solve_finite_horizon",
    "interior_mask",
]

log = logging.getLogger("jumpctl.hjb")
_TABLE_BUDGET = 2**21  # drift-lattice q/f table entries one solve keeps: 16 MB


class SolverError(RuntimeError):
    """Linear system singular, or its solution misses the residual bound."""


class SchemeWarning(UserWarning):
    """The assembled stencil has monotonicity-violating off-diagonal signs."""


# ---------------------------------------------------------------------------
# grid


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform tensor grid in one or two dimensions."""

    lo: tuple
    hi: tuple
    num: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(np.asarray(self.lo, float)))
        hi = tuple(float(v) for v in np.atleast_1d(np.asarray(self.hi, float)))
        num = tuple(int(v) for v in np.atleast_1d(np.asarray(self.num)))
        if not len(lo) == len(hi) == len(num):
            raise ValueError("lo/hi/num must agree in length")
        if len(lo) not in (1, 2):
            raise ValueError("only 1-D and 2-D grids are supported")
        for a, b, n in zip(lo, hi, num):
            if not a < b:
                raise ValueError("every axis needs lo < hi")
            if n < 16:
                raise ValueError("every axis needs at least 16 nodes")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "num", num)
        object.__setattr__(
            self, "axes", tuple(np.linspace(a, b, n) for a, b, n in zip(lo, hi, num))
        )
        object.__setattr__(
            self, "h", tuple((b - a) / (n - 1) for a, b, n in zip(lo, hi, num))
        )
        object.__setattr__(self, "n_nodes", int(np.prod(num)))

    @classmethod
    def regular(cls, lo, hi, num) -> "Grid":
        return cls(lo=lo, hi=hi, num=num)

    @property
    def dim(self) -> int:
        return len(self.num)

    @property
    def shape(self) -> tuple:
        return self.num

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape (n_nodes, dim), C order."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        ok = np.ones(pts.shape[0], dtype=bool)
        for k in range(self.dim):
            ok &= (pts[:, k] >= self.lo[k]) & (pts[:, k] <= self.hi[k])
        return ok

    def matches(self, other: "Grid") -> bool:
        return self.lo == other.lo and self.hi == other.hi and self.num == other.num


def interior_mask(grid: Grid) -> np.ndarray:
    """Boolean mask (flat) of the nodes off the boundary layer."""
    mask = np.zeros(grid.shape, dtype=bool)
    mask[(slice(1, -1),) * grid.dim] = True
    return mask.ravel()


def _interp_inside(grid: Grid, pts: np.ndarray):
    """Multilinear weights for in-box points: (cols (m, 2^dim), wts)."""
    m = pts.shape[0]
    cols, wts = np.zeros((m, 1), dtype=int), np.ones((m, 1))
    for k in range(grid.dim):
        t = (pts[:, k] - grid.lo[k]) / grid.h[k]
        i0 = np.clip(np.floor(t).astype(int), 0, grid.num[k] - 2)
        frac = np.clip(t - i0, 0.0, 1.0)
        stride = int(np.prod(grid.num[k + 1 :]))
        corner = stride * (i0[:, None] + np.array([0, 1]))
        lin = np.stack([1.0 - frac, frac], axis=1)
        cols = (cols[:, :, None] + corner[:, None, :]).reshape(m, 2 * cols.shape[1])
        wts = (wts[:, :, None] * lin[:, None, :]).reshape(m, 2 * wts.shape[1])
    return cols, wts


class _TailBasis:
    """Per-(axis, side) polynomial least-squares extension of the outer bands.

    The band holds max(q_growth + 1, 10% of the axis) nodes; the fit degree
    is capped by q_growth. weights() turns an off-grid coordinate into value
    weights over the band nodes, reused verbatim by assembly ghost rows and
    by ValueField evaluation.
    """

    def __init__(self, grid: Grid, q_growth: int):
        if q_growth < 0:
            raise ValueError("q_growth must be a nonnegative integer")
        self.grid = grid
        self.q_growth = int(q_growth)
        self.band, self.center, self.halfw = {}, {}, {}
        self.pinv, self.vander, self.degree = {}, {}, {}
        self._corner_warned = False
        for axis in range(grid.dim):
            n = grid.num[axis]
            m = min(n, max(self.q_growth + 1, int(np.ceil(0.10 * n))))
            for side in (0, 1):
                key = (axis, side)
                sel = np.arange(m) if side == 0 else np.arange(n - m, n)
                t = grid.axes[axis][sel]
                tc = float(t.mean())
                tw = max(float(t.max() - tc), grid.h[axis])
                d = min(self.q_growth, m - 1)
                V = np.polynomial.polynomial.polyvander((t - tc) / tw, d)
                self.band[key] = sel
                self.center[key], self.halfw[key] = tc, tw
                self.vander[key] = V
                self.pinv[key] = np.linalg.pinv(V)
                self.degree[key] = d

    def weights(self, axis: int, side: int, coords) -> np.ndarray:
        """(k, band) value weights at off-grid axis coordinates."""
        key = (axis, side)
        s = (np.atleast_1d(np.asarray(coords, float)) - self.center[key]) / self.halfw[key]
        V = np.polynomial.polynomial.polyvander(s, self.degree[key])
        return V @ self.pinv[key]

    def residual(self, values: np.ndarray, keys=None) -> float:
        vals = np.asarray(values, float).reshape(self.grid.shape)
        worst = 0.0
        for key in self.band if keys is None else keys:  # (axis, side) bands, all by default
            (axis, _), sel = key, self.band[key]
            band_vals = np.moveaxis(np.take(vals, sel, axis=axis), axis, 0)
            flat = band_vals.reshape(len(sel), -1)
            fit = self.vander[key] @ (self.pinv[key] @ flat)
            worst = max(worst, float(np.abs(fit - flat).max()))
        return worst

    def value_weights(self, pts: np.ndarray):
        """Value weights at points (m, dim) as flat (src, cols, wts): multilinear
        inside the box, the tail extension outside (see exterior_weights)."""
        inside = self.grid.contains(pts)
        cols, wts = _interp_inside(self.grid, pts[inside])
        parts = [(np.repeat(np.nonzero(inside)[0], cols.shape[1]), cols.ravel(), wts.ravel())]
        out = np.nonzero(~inside)[0]
        if out.size:
            src, cols, wts = self.exterior_weights(pts[out])
            parts.append((out[src], cols, wts))
        return tuple(np.concatenate(p) for p in zip(*parts))

    def exterior_weights(self, pts: np.ndarray):
        """Value weights for out-of-box points (m, dim), as flat (src, cols, wts).

        The value at pts[s] is the sum of wts * values[cols] over the entries
        with src == s: the tail fit along the axis of largest excess, and in
        2-D linear interpolation across it.
        """
        grid = self.grid
        lo, hi, h = (np.asarray(v) for v in (grid.lo, grid.hi, grid.h))
        excess = np.where(pts < lo, (lo - pts) / h, np.where(pts > hi, (pts - hi) / h, 0.0))
        if not np.all(excess.max(axis=1) > 0):
            raise ValueError("point is inside the box")
        axis = np.argmax(excess, axis=1)
        side = (pts[np.arange(len(pts)), axis] >= lo[axis]).astype(int)
        strides = [int(np.prod(grid.num[k + 1 :])) for k in range(grid.dim)]
        srcs, cols, wts = [], [], []
        for (k, sd), sel in self.band.items():
            g = np.nonzero((axis == k) & (side == sd))[0]
            if g.size == 0:
                continue
            w_axis = self.weights(k, sd, pts[g, k])
            across = [(np.zeros(g.size, dtype=int), np.ones(g.size))]
            if grid.dim == 2:
                tr = 1 - k
                tz = np.clip(pts[g, tr], lo[tr], hi[tr])
                if np.any(tz != pts[g, tr]) and not self._corner_warned:
                    self._corner_warned = True
                    warnings.warn(
                        "corner extrapolation clamps the transverse coordinate",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                t = (tz - lo[tr]) / h[tr]
                j0 = np.clip(np.floor(t), 0, grid.num[tr] - 2).astype(int)
                th = np.clip(t - j0, 0.0, 1.0)
                across = [(j0 * strides[tr], 1.0 - th), ((j0 + 1) * strides[tr], th)]
            for off, wj in across:
                srcs.append(np.repeat(g, len(sel)))
                cols.append((sel[None, :] * strides[k] + off[:, None]).ravel())
                wts.append((w_axis * wj[:, None]).ravel())
        return np.concatenate(srcs), np.concatenate(cols), np.concatenate(wts)


# ---------------------------------------------------------------------------
# fields


@dataclass(frozen=True, eq=False)
class ValueField:
    """Node values plus a polynomial tail extension of declared degree.

    Evaluation inside the box is multilinear; outside, the per-axis tail
    fit extrapolates. ``tail_residual`` reports how well the outer bands
    are described by the degree-``q_growth`` fit.
    """

    grid: Grid
    values: np.ndarray
    q_growth: int = 2
    nonneg: bool = False

    def __post_init__(self):
        vals = np.asarray(self.values, float).reshape(self.grid.shape)
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        scale = max(1.0, float(np.abs(vals).max()))
        if self.nonneg and float(vals.min()) < -1e-8 * scale:
            raise ValueError("field flagged nonnegative has negative entries")
        object.__setattr__(self, "values", vals)
        tails = _TailBasis(self.grid, int(self.q_growth))
        object.__setattr__(self, "_tails", tails)
        object.__setattr__(self, "tail_residual", tails.residual(vals))

    def _as_points(self, x):
        x = np.asarray(x, float)
        if self.grid.dim == 1:
            if x.ndim == 0:
                return x.reshape(1, 1), True
            return x.reshape(-1, 1), False
        if x.ndim == 1:
            return x.reshape(1, 2), True
        return x.reshape(-1, 2), False

    def value(self, x):
        """Evaluate at point(s); scalar in, scalar out."""
        pts, single = self._as_points(x)
        src, cols, wts = self._tails.value_weights(pts)
        out = np.bincount(src, weights=self.values.ravel()[cols] * wts, minlength=len(pts))
        return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# problems and policies


@dataclass(frozen=True, eq=False)
class HJBProblem:
    """Discounted control problem over a declared finite action family.

    Exactly one of two action descriptions must be given: ``actions``, a
    list whose entries are Action instances or callables x -> Action, or a
    product family ``sigma_nu_pairs`` x ``mu_lattice`` (per-axis uniform
    drift lattices, refined locally by a quadratic fit during improvement).

    ``f(x, a)`` and ``q(x, a)`` receive x as an (m,) array in 1-D or an
    (m, 2) array in 2-D and must broadcast to (m,); constants are accepted.
    A cost may also offer ``.rows(x, sigma, nu, mu)``, mu of shape (m, dim),
    returning (m,) with row i equal to ``f(x[i], Action(sigma, nu, mu[i]))``;
    it is then called once per entry's Action and per pair and block of rows,
    where a plain callable is called once per distinct drift.
    ``delta_q``/``b_q`` are the declared discount bounds, enforced on every
    evaluation. An entry with a relocation kernel is one candidate over all
    nodes; its costs get the Action as declared (see ``RelocationKernel``).
    """

    f: object
    q: object
    delta_q: float
    b_q: float
    actions: tuple = ()
    sigma_nu_pairs: tuple = ()
    mu_lattice: object = None
    u: object = None
    p: float = 2.0
    q_growth: int = 2

    def __post_init__(self):
        if not 0.0 < self.delta_q <= self.b_q:
            raise ValueError("need 0 < delta_q <= b_q")
        has_list = len(self.actions) > 0
        has_family = len(self.sigma_nu_pairs) > 0 or self.mu_lattice is not None
        if has_list == has_family:
            raise ValueError(
                "provide either an action list or a (sigma, nu) family with a drift lattice"
            )
        if has_family:
            if len(self.sigma_nu_pairs) == 0 or self.mu_lattice is None:
                raise ValueError("product mode needs sigma_nu_pairs and mu_lattice")
            pairs = []
            for sigma, nu in self.sigma_nu_pairs:
                sigma = np.atleast_2d(np.asarray(sigma, float))
                if not validate_Mp(nu, max(2.0, self.p)):
                    raise ValueError("family measure fails the declared moment order")
                pairs.append((sigma, nu))
            lat = self.mu_lattice
            if isinstance(lat, np.ndarray) or np.isscalar(lat[0]):
                lat = (np.asarray(lat, float),)
            lat = tuple(np.asarray(ax, float) for ax in lat)
            for ax in lat:
                if ax.ndim != 1 or ax.size < 2:
                    raise ValueError("each drift lattice axis needs >= 2 points")
                d = np.diff(ax)
                if not np.allclose(d, d[0], rtol=1e-10, atol=1e-12 * max(1.0, np.abs(ax).max())):
                    raise ValueError("drift lattice axes must be uniformly spaced")
            object.__setattr__(self, "sigma_nu_pairs", tuple(pairs))
            object.__setattr__(self, "mu_lattice", lat)
        else:
            for entry in self.actions:
                if not (isinstance(entry, Action) or callable(entry)):
                    raise TypeError("action entries must be Action instances or callables")
            object.__setattr__(self, "actions", tuple(self.actions))

    @property
    def mode(self) -> str:
        return "list" if len(self.actions) > 0 else "product"

    @property
    def n_candidates(self) -> int:
        if self.mode == "list":
            return len(self.actions)
        return len(self.sigma_nu_pairs)


@dataclass(frozen=True, eq=False)
class PolicyTable:
    """Per-node chosen candidate index, plus the refined drift in product mode."""

    grid: Grid
    action_index: np.ndarray
    mu: np.ndarray = None

    def __post_init__(self):
        idx = np.asarray(self.action_index, dtype=int).reshape(-1)
        if idx.shape[0] != self.grid.n_nodes:
            raise ValueError("action_index length must equal the node count")
        if np.any(idx < 0):
            raise ValueError("action indices must be nonnegative")
        object.__setattr__(self, "action_index", idx)
        if self.mu is not None:
            mu = np.asarray(self.mu, float).reshape(self.grid.n_nodes, self.grid.dim)
            object.__setattr__(self, "mu", mu)

    def same_as(self, other) -> bool:
        if other is None or not np.array_equal(self.action_index, other.action_index):
            return False
        if (self.mu is None) != (other.mu is None):
            return False
        return self.mu is None or bool(np.abs(self.mu - other.mu).max() <= 1e-13)


@dataclass
class ConvergenceReport:
    iterations: int
    deltas: list
    residual: float
    max_pointwise_increase: float
    converged: bool
    messages: list = field(default_factory=list)


@dataclass(frozen=True, eq=False)
class FiniteHorizonSolution:
    """Backward-in-time value slices; times[0] = 0, times[-1] = T."""

    times: np.ndarray
    values: np.ndarray
    grid: Grid
    q_growth: int

    def field(self, k: int) -> ValueField:
        return ValueField(grid=self.grid, values=self.values[k], q_growth=self.q_growth)

    @property
    def initial(self) -> ValueField:
        return self.field(0)


# ---------------------------------------------------------------------------
# evaluation helpers


def _x_for_eval(grid: Grid, pts: np.ndarray):
    return pts[:, 0] if grid.dim == 1 else pts


def _row_costs(fn):
    """q or f as rows (x, sigma, nu, mu) -> (m,), mu of shape (m, dim): a constant
    fills, ``fn.rows`` is used as is, a plain f(x, a) is called per distinct drift
    (a scalar result fills its rows). The one way q and f are evaluated."""
    if not callable(fn):
        return lambda x, sigma, nu, mu: np.full(len(mu), float(fn))

    def rows(x, sigma, nu, mu):
        out, order = np.empty(len(mu)), np.lexsort(mu.T[::-1])
        srt = mu[order]
        heads = np.flatnonzero(np.any(srt[1:] != srt[:-1], axis=1)) + 1
        for part in np.split(order, heads) if len(mu) else ():
            out[part] = np.ravel(fn(x[part], Action(sigma=sigma, nu=nu, mu=mu[part[0]])))
        return out

    return getattr(fn, "rows", rows)


def _upwind(b: np.ndarray) -> list:
    """[b_0+, b_0-, b_1+, ...]: the positive and negative parts of b (..., dim) per axis."""
    return [clip(b[..., k], 0.0) for k in range(b.shape[-1]) for clip in (np.maximum, np.minimum)]


def _lattice_combos(lat: tuple):
    mesh = np.meshgrid(*lat, indexing="ij")
    combos = np.stack([m.ravel() for m in mesh], axis=1)
    shape = tuple(len(ax) for ax in lat)
    return combos, shape


def _lattice_origin(lat: tuple) -> np.ndarray:
    """The drift-lattice point nearest zero, where product-mode iteration starts."""
    combos, _ = _lattice_combos(lat)
    return combos[int(np.argmin(np.linalg.norm(combos, axis=1)))]


# ---------------------------------------------------------------------------
# the discrete generator


def _neighbour_matrix(grid: Grid, tails: _TailBasis, k: int, step: int) -> sp.csr_matrix:
    """The sparse map phi -> phi(x + step h_k e_k) on the nodes.

    Rows of boundary nodes hold the tail-extension weights of the ghost node.
    """
    import scipy.sparse as sp
    n, nk = grid.n_nodes, grid.num[k]
    idx = np.arange(n).reshape(grid.shape)
    inner = np.take(idx, np.arange(nk - 1) + (step < 0), axis=k).ravel()
    edge = np.take(idx, nk - 1 if step > 0 else 0, axis=k).ravel()
    ghost = grid.nodes()[edge]
    ghost[:, k] += step * grid.h[k]
    src, cols, wts = tails.exterior_weights(ghost)
    rows = np.concatenate([inner, edge[src]])
    cols = np.concatenate([inner + step * int(np.prod(grid.num[k + 1 :])), cols])
    vals = np.concatenate([np.ones(inner.size), wts])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


@dataclass
class _Candidate:
    """One list entry or (sigma, nu) pair, resolved at every node."""

    K: sp.csr_matrix  # diffusion, cross-derivative and jump rows
    mu: np.ndarray  # (n, dim) drift applied; zero for product pairs, whose drift the policy sets
    m1: np.ndarray  # (n, dim) jump compensator, the first moment of nu
    cross: np.ndarray  # (n,) rows carrying the mixed-sign cross-derivative stencil
    q: np.ndarray  # discount and running cost; list entries only
    f: np.ndarray


class _Generator:
    """The discrete generator of one problem on one grid, built once per solve.

    Built once per solve: one-sided differences D+_k, D-_k and second
    differences S_k; per candidate one sparse K of its diffusion,
    cross-derivative and jump parts (callable list entries are called once per
    node here); one CSC layout (``indices``, ``indptr``) with a place for every
    K and D+-_k entry and the diagonal (``pos``, ``diag``); the upwind parts
    of each list entry's drift, and of each pair's drift lattice per axis k,
    (len(ax_k), n), since column c's drift on axis k reads ax_k[i_k(c)] only
    (``upwind``); lattice blocks' q/f per (pair, first column) within
    ``_TABLE_BUDGET`` entries (``tables``); and per sparsity pattern its first
    system matrix, whose index arrays the later ones share, and COLAMD's
    column order for it. Per step, only what the policy sets: ``operator``
    scatters each row's entries of its candidate's K and adds the row-scaled
    D+_k and D-_k entries axis by axis, the additions scipy's sparse sum
    makes; ``system`` forms diag(a) - c L on its pattern's index arrays,
    which ``factorise`` factorises in that pattern's column order. Improvement
    applies the same matrices to phi and returns q/f at the actions it chose,
    which the evaluation of that policy takes instead of calling q and f
    again. Costs are resolved once into row functions (see ``_row_costs``),
    called per list Action on its nodes and per pair on (node, drift) rows.
    """

    def __init__(self, prob: HJBProblem, grid: Grid):
        import scipy.sparse as sp
        self.prob, self.grid = prob, grid
        self.tails = _TailBasis(grid, prob.q_growth)
        self.pts = grid.nodes()
        self.x = _x_for_eval(grid, self.pts)
        self.u = np.zeros(grid.dim) if prob.u is None else np.atleast_1d(np.asarray(prob.u, float))
        if self.u.shape != (grid.dim,):
            raise ValueError("u has wrong dimension for this grid")
        eye = sp.identity(grid.n_nodes, format="csr")
        self.Dp, self.Dm, self.S = [], [], []
        for k, h in enumerate(grid.h):
            Gp, Gm = (_neighbour_matrix(grid, self.tails, k, step) for step in (1, -1))
            self.Dp.append((Gp - eye) / h)
            self.Dm.append((eye - Gm) / h)
            self.S.append((Gp - 2.0 * eye + Gm) / h**2)
        every = np.arange(grid.n_nodes)
        self.q_rows, self.f_rows = _row_costs(prob.q), _row_costs(prob.f)
        if prob.mode == "product":
            if len(prob.mu_lattice) != grid.dim:
                raise ValueError(f"drift lattice has {len(prob.mu_lattice)} axes, grid {grid.dim}")
            self.combos, self.lshape = _lattice_combos(prob.mu_lattice)
            self.cols = np.unravel_index(np.arange(len(self.combos)), self.lshape)
            self.strides = [int(np.prod(self.lshape[r + 1 :])) for r in range(grid.dim)]
            zero = np.zeros(grid.dim)
            self.cands = [
                self._candidate([(every, Action(sigma=sigma, nu=nu, mu=zero))], costs=False)
                for sigma, nu in prob.sigma_nu_pairs
            ]
        else:
            self.cands = []
            for entry in prob.actions:
                if isinstance(entry, Action):
                    groups = [(every, entry)]
                else:
                    groups = [
                        (every[i : i + 1], entry(float(x[0]) if grid.dim == 1 else x.copy()))
                        for i, x in enumerate(self.pts)
                    ]
                    if not all(isinstance(a, Action) for _, a in groups):
                        raise TypeError("action callables must return an Action")
                self.cands.append(self._candidate(groups, costs=True))
        # one CSC layout holding every K and D+-_k entry and the diagonal, and where
        # each matrix's entries land in it, read in stored order: K is never sorted
        # in place, since its (unsorted, in 2-D) order is the summation order of K @ phi
        n = grid.n_nodes
        self.scatter = [c.K for c in self.cands] + [D for pm in zip(self.Dp, self.Dm) for D in pm]
        node, wide = np.arange(n, dtype=np.int32), np.int32 if n * n < 2**31 else np.int64
        row_of = [np.repeat(node, np.diff(A.indptr)) for A in self.scatter]
        keys = [A.indices.astype(wide) * n + r for A, r in zip(self.scatter, row_of)]
        diag = node.astype(wide) * (n + 1)
        flat = np.unique(np.concatenate(keys + [diag]))  # column * n + row, in CSC order
        self.indices = (flat % n).astype(np.int32)
        self.indptr = np.searchsorted(flat, np.arange(n + 1) * n).astype(np.int32)
        # positions are np.intp, as are the D+-_k rows a step reads (numpy converts others per use)
        self.diag, self.pos = np.searchsorted(flat, diag), [np.searchsorted(flat, k) for k in keys]
        self.row_of = [r.astype(np.intp) for r in row_of[len(self.cands):]]
        self.q_const = None if callable(prob.q) else float(prob.q)
        self.tables, self.kept, self.every = {}, 0, every
        self.upwind = {} if prob.mode == "product" else {
            j: _upwind(self.u + c.mu - c.m1) for j, c in enumerate(self.cands)}
        self.pattern, self.order, self.orderings, self.factorisations = None, None, 0, 0

    def _candidate(self, groups, costs: bool) -> _Candidate:
        """Assemble K (and q, f if asked) from (node indices, Action) groups covering every node."""
        import scipy.sparse as sp
        grid, n, dim = self.grid, self.grid.n_nodes, self.grid.dim
        c2, c12, mass = np.zeros((n, dim)), np.zeros(n), np.zeros(n)
        mu, m1 = np.zeros((n, dim)), np.zeros((n, dim))
        qvec, fvec = (np.empty(n), np.empty(n)) if costs else (None, None)
        rows, dest, coef = [np.zeros(0, int)], [np.zeros((0, dim))], [np.zeros(0)]
        for idx, a in groups:
            D = _covariance(a.sigma, a.nu)[0]
            c2[idx] = 0.5 * np.diag(D)
            if dim == 2:
                c12[idx] = D[0, 1] / (4.0 * grid.h[0] * grid.h[1])
            mu[idx] = a.mu
            if costs:
                at = self.x[idx], a.sigma, a.nu, np.broadcast_to(a.mu, (len(idx), dim))
                qvec[idx], fvec[idx] = self.q_rows(*at), self.f_rows(*at)
            if isinstance(a.nu, RelocationKernel):
                # every row off the target jumps to it: one destination, and the
                # kernel's mean joins the drift its Action applies
                w, y = a.nu.at(self.pts[idx])
                mass[idx], m1[idx] = w, w[:, None] * y
                mu[idx] += m1[idx]
                rows.append(idx[w > 0.0])
                dest.append(np.broadcast_to(a.nu.target, (rows[-1].size, dim)))
                coef.append(w[w > 0.0])
                continue
            rec, (y, w) = _moments(a.nu), _support_points(a.nu)
            mass[idx], m1[idx] = rec.mass, rec.m1
            y, w = y[w > 0.0], w[w > 0.0]
            rows.append(np.repeat(idx, len(w)))
            dest.append((self.pts[idx, None, :] + y[None, :, :]).reshape(-1, dim))
            coef.append(np.tile(w, len(idx)))
        cross = c12 != 0.0
        rc = np.nonzero(cross)[0]
        for s0, s1 in ((1, 1), (-1, -1), (1, -1), (-1, 1)) if rc.size else ():
            rows.append(rc)
            dest.append(self.pts[rc] + np.array([s0 * grid.h[0], s1 * grid.h[1]]))
            coef.append(c12[rc] if s0 == s1 else -c12[rc])
        # jump and cross-derivative destinations, read through the field's value weights
        src, cols, wts = self.tails.value_weights(np.concatenate(dest))
        vals = np.concatenate(coef)[src] * wts
        keep = vals != 0.0
        rows = np.concatenate(rows)[src][keep]
        K = sp.csr_matrix((vals[keep], (rows, cols[keep])), shape=(n, n)) - sp.diags(mass)
        for k in range(dim):
            K = K + sp.diags(c2[:, k]) @ self.S[k]
        return _Candidate(K=K.tocsr(), mu=mu, m1=m1, cross=cross, q=qvec, f=fvec)

    def _drift_terms(self, parts, dp, dm, out=None):
        """b+_k D+_k phi + b-_k D-_k phi per axis k, whose sum is the drift term, from
        the upwind parts of b and the applied differences; axis 0's goes to ``out``."""
        T = [np.multiply(parts[2 * k], dp[k], out=out if k == 0 else None) for k in range(len(dp))]
        return [np.add(t, parts[2 * k + 1] * dm[k], out=t) for k, t in enumerate(T)]

    def _pair_costs(self, s: int, mu: np.ndarray, nodes: np.ndarray):
        """q and f under pair s at rows (nodes[i], mu[i]), one row-function call each."""
        sigma, nu = self.prob.sigma_nu_pairs[s]
        x = self.x[nodes]
        return self.q_rows(x, sigma, nu, mu), self.f_rows(x, sigma, nu, mu)

    def _lattice_block(self, s: int, c0: int, mus: np.ndarray):
        """q and f under pair s on the (len(mus), n) block of drift-lattice columns
        c0, c0 + 1, ... (mus); q is None when constant. Tabulated on first use per
        (pair, c0) while ``kept`` stays within ``_TABLE_BUDGET`` entries."""
        qv, fv = self.tables.get((s, c0), (None, None))
        if fv is None:
            n = self.grid.n_nodes
            costs = self._pair_costs(s, np.repeat(mus, n, axis=0), np.tile(np.arange(n), len(mus)))
            qv, fv = (v.reshape(len(mus), n) for v in costs)
            qv = qv if self.q_const is None else None
            size = fv.size if qv is None else 2 * fv.size
            if self.kept + size <= _TABLE_BUDGET:
                self.kept += size
                self.tables[s, c0] = qv, fv
        return qv, fv

    def operator(self, pol: PolicyTable, costs=None):
        """Generator entries l for a fixed policy on the CSC layout, each row's
        entries of its candidate's K plus its drift's D+-_k ones, and discount/cost vectors.

        ``costs``, the (q, f) that improvement returned with ``pol``, stands in
        for evaluating q and f again; the bounds checks run either way.
        """
        if not pol.grid.matches(self.grid):
            raise ValueError("policy and grid do not match")
        idx = pol.action_index
        if idx.max() >= len(self.cands):
            raise ValueError("policy index outside the declared action set")
        product = self.prob.mode == "product"
        n, dim = self.grid.n_nodes, self.grid.dim
        l = np.zeros(self.indices.size)
        mu, m1, cross = np.zeros((n, dim)), np.zeros((n, dim)), np.zeros(n, dtype=bool)
        qvec, fvec = (np.empty(n), np.empty(n)) if costs is None else costs
        for j, cand in enumerate(self.cands):
            rows = idx == j
            whole = rows.all()  # one candidate on every node selects no rows
            sel = slice(None) if whole else np.repeat(rows, np.diff(cand.K.indptr))  # K is CSR
            l[self.pos[j][sel]] += cand.K.data[sel]
            r = slice(None) if whole else np.nonzero(rows)[0]
            mu[r], m1[r], cross[r] = pol.mu[r] if product else cand.mu[r], cand.m1[r], cand.cross[r]
            if costs is None and product:
                qvec[r], fvec[r] = self._pair_costs(j, mu[r], r)
            elif costs is None:
                qvec[r], fvec[r] = cand.q[r], cand.f[r]
        prob = self.prob
        if fvec.min() < -1e-12 * max(1.0, np.abs(fvec).max()):
            raise ValueError("running cost must be nonnegative")
        if qvec.min() < prob.delta_q - 1e-9 or qvec.max() > prob.b_q + 1e-9:
            raise ValueError(
                f"discount left its declared bounds: range [{qvec.min():.6g}, "
                f"{qvec.max():.6g}] vs [{prob.delta_q:.6g}, {prob.b_q:.6g}]"
            )
        b = self.u + mu - m1
        j = len(self.cands)
        for D, pos, row, bk in zip(self.scatter[j:], self.pos[j:], self.row_of, _upwind(b)):
            l[pos] += bk[row] * D.data
        if cross.any():
            warnings.warn(
                f"{int(cross.sum())} rows carry the mixed-sign cross-derivative stencil "
                "(non-monotone discretization)",
                SchemeWarning,
                stacklevel=3,
            )
        return l, qvec, fvec

    def system(self, l: np.ndarray, a, c: float) -> sp.csc_matrix:
        """diag(a) - c L for the generator entries l, as canonical CSC: the entries,
        order and bits of scipy's ``(sp.diags(a) - c * L).tocsc()``.

        Each entry is a - c l on the diagonal and 0.0 - c l elsewhere; entries
        that come out exactly zero are dropped, as scipy's sparse difference does.
        A pattern's first system is built as a matrix; each later one is a shallow
        copy of it that owns its data, so an earlier one and its solve stay intact.
        """
        v = 0.0 - c * l
        v[self.diag] = a - c * l[self.diag]
        keep = v != 0.0
        if self.pattern is None or not np.array_equal(keep, self.pattern[0]):
            import scipy.sparse as sp
            indices, indptr = self.indices, self.indptr
            if not keep.all():
                kept = np.concatenate((np.zeros(1, np.int32), np.cumsum(keep, dtype=np.int32)))
                indices, indptr = indices[keep], kept[indptr]
            n = self.grid.n_nodes
            self.pattern = keep, sp.csc_matrix((v[keep], indices, indptr), shape=(n, n))
            return self.pattern[1]
        M = copy.copy(self.pattern[1])  # shares the pattern's index arrays, owns its data
        M.data = v if len(M.indices) == len(v) else v[keep]  # v itself when nothing drops
        return M

    def evaluate(self, pol: PolicyTable, tol: float, costs=None) -> ValueField:
        """Solve (q - L) phi = f for the policy's rows."""
        l, qvec, fvec = self.operator(pol, costs)
        phi = self.factorise(self.system(l, qvec, 1.0), tol)(fvec)
        return ValueField(
            grid=self.grid, values=phi.reshape(self.grid.shape), q_growth=self.prob.q_growth
        )

    def factorise(self, M: sp.csc_matrix, tol: float):
        """``_factorise(M, tol)`` with COLAMD's column order reused. The order
        depends on M's pattern only, known by the index arrays that ``system``
        shares among a pattern's systems: the first system of a pattern is
        factorised by ``splu(M)``, a later one on it as M[:, p] in natural order,
        gathered from M's data; its factors are splu(M)'s bit for bit. An M with
        other index arrays is ordered afresh."""
        self.factorisations += 1
        o = self.order
        if o and M.indptr is o[0] and M.indices is o[1]:
            perm_c, gather, Mp = o[2:]
            np.take(M.data, gather, out=Mp.data)
            return _factorise(M, tol, Mp, perm_c)
        self.orderings += 1
        solve = _factorise(M, tol)
        perm_c = solve.perm_c.copy()  # the view would keep the whole factor alive
        p = np.argsort(perm_c)
        counts = np.diff(M.indptr)[p]
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
        gather = np.repeat(M.indptr[p] - indptr[:-1], counts) + np.arange(indptr[-1])
        Mp = type(M)((M.data[gather], M.indices[gather], indptr), shape=M.shape)
        self.order = M.indptr, M.indices, perm_c, gather, Mp
        return solve

    def improve(self, phi: np.ndarray):
        """Per-node argmin of L^a phi - q phi + f over the family; ties go to the lowest index.

        Returns (best integrand values, PolicyTable, (q, f) at the chosen actions);
        q/f stay NaN at nodes where no candidate gave a finite integrand.
        """
        n, dim, product = self.grid.n_nodes, self.grid.dim, self.prob.mode == "product"
        dp = [D @ phi for D in self.Dp]
        dm = [D @ phi for D in self.Dm]
        best, best_idx, best_mu = np.full(n, np.inf), np.zeros(n, dtype=int), np.zeros((n, dim))
        best_q, best_f = np.full(n, np.nan), np.full(n, np.nan)
        for j, cand in enumerate(self.cands):
            if product:
                mu, I, q, f = self._best_drift(j, phi, dp, dm)
            else:
                mu, q, f = cand.mu, cand.q, cand.f
                drift = sum(self._drift_terms(self.upwind[j], dp, dm))
                I = cand.K @ phi + drift - q * phi + f
            upd = I < best
            for dst, src in ((best, I), (best_idx, j), (best_q, q), (best_f, f)):
                np.copyto(dst, src, where=upd)
            np.copyto(best_mu, mu, where=upd[:, None])
        pol = PolicyTable(grid=self.grid, action_index=best_idx, mu=best_mu if product else None)
        return best, pol, (best_q, best_f)

    def _best_drift(self, s: int, phi, dp, dm):
        """Drift, integrand, q and f per node for pair s: the lattice argmin, then one
        per-axis quadratic pass kept where the exact integrand agrees it is better."""
        cand, n, every = self.cands[s], self.grid.n_nodes, self.every
        lat, combos, strides = self.prob.mu_lattice, self.combos, self.strides
        base = cand.K @ phi + 0.0  # -0.0 to +0.0: base + T then equals base + sum(T)
        if s not in self.upwind:  # column c's drift on axis k reads ax_k[cols[k][c]] only
            b = [self.u[k] + ax[:, None] - cand.m1[:, k] for k, ax in enumerate(lat)]
            self.upwind[s] = [clip(bk, 0.0) for bk in b for clip in (np.maximum, np.minimum)]
        Iall = np.empty((combos.shape[0], n))  # 1-D: the drift term is Iall's rows
        T = self._drift_terms(self.upwind[s], dp, dm, Iall if len(lat) == 1 else None)
        # blocks of lattice columns, about 2^15 rows each, keep the temporaries small
        width = max(1, 2**15 // n)
        for c0 in range(0, combos.shape[0], width):
            at = slice(c0, c0 + width)
            qv, fv = self._lattice_block(s, c0, combos[at])
            qphi = self.q_const * phi if qv is None else qv * phi
            I = Iall[at]  # base + drift - q phi + f, formed in place
            if len(lat) > 1:
                np.add(T[0][self.cols[0][at]], T[1][self.cols[1][at]], out=I)
            np.add(base, I, out=I)
            np.subtract(I, qphi, out=I)
            np.add(I, fv, out=I)
            # running argmin: column 0 seeds it, the first minimum wins and a NaN never
            # replaces (a NaN in column 0 sticks); q/f ride along. argmin returns a
            # column's first NaN, so only then is it masked.
            j = I.argmin(0)
            Ij = I.ravel()[j * n + every]
            if np.isnan(Ij).any():
                j = np.argmin(np.where(np.isnan(I), np.inf, I), axis=0)
                j[np.isnan(I[0]) & (c0 == 0)] = 0
                Ij = I.ravel()[j * n + every]
            fj, qj = (None if v is None else v.ravel()[j * n + every] for v in (fv, qv))
            if c0 == 0:
                I_best, best_flat, f_best = Ij, j, fj
                q_best = np.full(n, self.q_const) if qv is None else qj
                continue
            r = np.flatnonzero(Ij < I_best)
            I_best[r], best_flat[r], f_best[r] = Ij[r], c0 + j[r], fj[r]
            if qv is not None:
                q_best[r] = qj[r]
        cmulti = (best_flat,) if len(lat) == 1 else np.unravel_index(best_flat, self.lshape)
        mu0, Iv = combos[best_flat], Iall.ravel()
        mu_ref = mu0.copy()
        for r, ax in enumerate(lat):
            j = cmulti[r]
            rows = np.nonzero((j > 0) & (j < len(ax) - 1))[0]
            flat0 = best_flat[rows] * n + rows  # (lattice column, node) in Iall, flat
            I_m, I_0, I_p = Iv[flat0 - strides[r] * n], I_best[rows], Iv[flat0 + strides[r] * n]
            denom = I_p - 2.0 * I_0 + I_m
            step = ax[1] - ax[0]
            ok = denom > 1e-300
            off = np.zeros(len(rows))
            off[ok] = np.clip(0.5 * (I_m[ok] - I_p[ok]) / denom[ok] * step, -step, step)
            use = ok & (off != 0.0)
            mu_ref[rows[use], r] += off[use]
        moved = mu_ref != mu0  # rows an offset rounds back onto the lattice keep their values
        i = np.flatnonzero(moved if len(lat) == 1 else moved.any(1))
        dp, dm = [d[i] for d in dp], [d[i] for d in dm]
        drift = sum(self._drift_terms(_upwind(self.u + mu_ref[i] - cand.m1[i]), dp, dm))
        qv, fv = self._pair_costs(s, mu_ref[i], i)
        val = base[i] + drift - qv * phi[i] + fv
        better = val <= I_best[i]
        b = i[better]
        I_best[b], q_best[b], f_best[b] = val[better], qv[better], fv[better]
        mu_ref[i[~better]] = mu0[i[~better]]
        return mu_ref, I_best, q_best, f_best


def _factorise(M: sp.csc_matrix, tol: float, Mp=None, perm_c=None):
    """Sparse LU of the CSC matrix M; returns solve(rhs), which checks the
    residual of M against tol, with the factor's column order as ``solve.perm_c``.
    Given Mp = M[:, p], p = argsort(perm_c), Mp is factorised in natural order
    instead and its solution y read back as x[p] = y, that is x = y[perm_c]."""
    from scipy.sparse.linalg import splu
    try:
        lu = splu(M) if Mp is None else splu(Mp, permc_spec="NATURAL")
    except RuntimeError as exc:
        raise SolverError(f"singular system: {exc}") from exc

    def solve(rhs: np.ndarray) -> np.ndarray:
        phi = lu.solve(rhs) if perm_c is None else lu.solve(rhs)[perm_c]
        resid = float(np.abs(M @ phi - rhs).max())
        scale = max(1.0, float(np.abs(rhs).max()))
        if not np.isfinite(resid) or resid > max(tol, 1e-9) * scale:
            raise SolverError(f"sparse LU solve missed the residual bound: residual {resid:.3e}")
        log.debug("sparse LU solve: %d unknowns, residual %.3e", len(rhs), resid)
        return phi

    solve.perm_c = lu.perm_c
    return solve


def policy_evaluation(pol: PolicyTable, prob: HJBProblem, grid: Grid, tol: float = 1e-8) -> ValueField:
    """Solve the linear system of the fixed policy, (q - L) phi = f, by sparse LU."""
    return _Generator(prob, grid).evaluate(pol, tol)


def policy_improvement(phi: ValueField, prob: HJBProblem, grid: Grid) -> PolicyTable:
    """Pointwise argmin of the discrete integrand; ties go to the lowest index."""
    if not phi.grid.matches(grid):
        raise ValueError("field and grid do not match")
    return _Generator(prob, grid).improve(phi.values.ravel())[1]


# ---------------------------------------------------------------------------
# solvers


def solve_stationary(prob: HJBProblem, grid: Grid, tol: float = 1e-8, max_iters: int = 60):
    """Policy iteration until the value update or the policy stalls.

    Returns (ValueField, PolicyTable, ConvergenceReport); non-convergence is
    reported, not raised, so partial results stay inspectable.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    gen = _Generator(prob, grid)
    n = grid.n_nodes
    mu0 = None if prob.mode == "list" else np.tile(_lattice_origin(prob.mu_lattice), (n, 1))
    pol = PolicyTable(grid=grid, action_index=np.zeros(n, dtype=int), mu=mu0)
    deltas = []
    max_increase = 0.0
    phi_prev = None
    converged = False
    messages = []
    it = 0
    phi = best = costs = None
    for it in range(1, max_iters + 1):
        phi = gen.evaluate(pol, tol=min(tol, 1e-8), costs=costs)
        best = None
        if phi_prev is not None:
            diff = phi.values - phi_prev.values
            deltas.append(float(np.abs(diff).max()))
            max_increase = max(max_increase, float(diff.max()))
            if deltas[-1] <= tol:
                converged = True
                break
        best, pol_new, costs = gen.improve(phi.values.ravel())
        converged = pol_new.same_as(pol)
        pol = pol_new
        if converged:
            break
        phi_prev = phi
    if not converged:
        messages.append(f"policy iteration did not converge in {max_iters} sweeps")
        log.warning("%s", messages[-1])
    if best is None:
        best, pol, _ = gen.improve(phi.values.ravel())
    inner = interior_mask(grid)
    residual = float(np.abs(best[inner]).max()) if inner.any() else float(np.abs(best).max())
    report = ConvergenceReport(
        iterations=it,
        deltas=deltas,
        residual=residual,
        max_pointwise_increase=max_increase,
        converged=converged,
        messages=messages,
    )
    log.info(
        "stationary solve: %d sweeps, interior residual %.3e, converged=%s",
        it,
        residual,
        converged,
    )
    return phi, pol, report


def _terminal_values(h, grid: Grid) -> np.ndarray:
    if isinstance(h, ValueField):
        if not h.grid.matches(grid):
            raise ValueError("terminal field lives on a different grid")
        vals = h.values.copy()
    elif callable(h):
        vals = np.asarray(h(_x_for_eval(grid, grid.nodes())), float).reshape(grid.shape)
    else:
        arr = np.asarray(h, float)
        vals = np.full(grid.shape, float(arr)) if arr.ndim == 0 else arr.reshape(grid.shape)
    if not np.all(np.isfinite(vals)):
        raise ValueError("terminal payoff must be finite")
    if vals.min() < -1e-12 * max(1.0, float(np.abs(vals).max())):
        raise ValueError("terminal payoff must be nonnegative")
    return vals


def solve_finite_horizon(
    prob: HJBProblem, h, T: float, n_steps: int, grid: Grid, tol: float = 1e-10
) -> FiniteHorizonSolution:
    """Backward steps of the discounted implicit scheme.

    Each step improves the policy on the next slice, then solves
    (I - dt L) phi_m = e^{-q dt} phi_{m+1} + (1 - e^{-q dt})/q f, which
    resolves the discount factor exactly (constants and pure discounting
    are reproduced to solver precision, uniformly in dt).
    """
    if T <= 0.0 or n_steps < 1:
        raise ValueError("need T > 0 and n_steps >= 1")
    dt = T / n_steps
    values = np.empty((n_steps + 1,) + grid.shape)
    values[n_steps] = _terminal_values(h, grid)
    gen = _Generator(prob, grid)
    pol_prev = None
    for m in range(n_steps - 1, -1, -1):
        _, pol, costs = gen.improve(values[m + 1].ravel())
        if not pol.same_as(pol_prev):
            l, qvec, fvec = gen.operator(pol, costs)
            solve = gen.factorise(gen.system(l, 1.0, dt), tol)
            if pol_prev is None or gen.q_const is None:  # a constant q gives the same E and W
                E = np.exp(-qvec * dt)
                W = (1.0 - E) / qvec
            pol_prev = pol
        values[m] = solve(E * values[m + 1].ravel() + W * fvec).reshape(grid.shape)
    times = np.linspace(0.0, T, n_steps + 1)
    return FiniteHorizonSolution(times=times, values=values, grid=grid, q_growth=prob.q_growth)
