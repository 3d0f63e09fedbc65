"""Path simulation for controlled jump diffusions.

Simulates the fully compensated canonical form

    X_{k+1} = X_k + (u + mu_k - m1(nu_k)) dt + sigma_k sqrt(dt) xi_k + jumps_k

under stationary Markov policy fields.  Jumps arrive by thinning a Poisson
clock whose rate dominates every jump measure's total mass; each accepted
arrival draws its size from the current measure, and the ``- m1 dt`` term is
the compensator drift that makes the jump part a martingale.

Alongside the states the bundle records, per path and on a configurable
storage lattice, the semimartingale characteristics (truncated drift B^h
with h(y) = y 1_{|y| <= 1}, continuous covariance C = int (sigma sigma^T + Sigma_eps) ds,
and the full jump history), the discount integral gamma_t = int q ds, the
running discounted cost, the running suprema of the continuous and
compensated-jump martingale parts, and the quadratic jump functional
G_T = int int |y|^2 nu_s(dy) ds.  The verification module consumes these.

One path steps every policy shape -- constant actions, linear drift
feedback with constant (sigma, nu), and row groups (a batched query giving
each state its drift and the index of its (sigma, nu) pair, which is how
solved policy tables and ``x -> Action`` callables step) -- reading each
row's characteristics through :meth:`PolicyFieldSpec.coefficients`.  A pair
whose measure is a :class:`~jumpctl.measures.RelocationKernel` (jump to the
origin is a constant action with one) is read per row, and its jumps
relocate the path to the kernel's target.  :class:`PolicyFieldSpec` is the
one interface to all shapes: the verifiers and the command line ask it for
``coefficients``, ``coefficient_norms`` (|mu|, ||F||_F with F F^T =
sigma sigma^T + Sigma_eps, and the jump moment per state), ``growth_left``,
``growth_ratio`` and ``rate_cap`` instead of branching on the shape.  A growth
claim (K, p) holds at the states whose ``growth_ratio`` is at most 1 + 1e-12;
the simulator's spot check and the verifiers compare with that one bound.

Shared (sigma, nu) pairs and jump laws are resolved once per run (per step
for row groups), and every step writes into buffers kept across steps, bit
for bit equal to the plain left-to-right update.  The per-step draws come in
a fixed order -- ``standard_normal((n, dim))``, the thinning clock's counts
(numpy's Poisson counts, read from a block of uniforms when lam dt < 0.08),
``binomial`` only when some row's jump rate is below the clock's, then the
jump sizes (sigma, nu) group by group in :func:`_groups` order (a cdf
search on uniforms, plus a ``uniform`` jitter for density cells).  That
order is part of the frozen-seed contract: a given seed reproduces every
bundle array and artifact bit for bit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .generator import _field_value
from .measures import (
    Action,
    JumpMeasure,
    RelocationKernel,
    ZeroMeasure,
    _covariance,
    _draw_jumps,
    _moments,
    _row_sq,
    _support_points,
    moment_functional,
    total_mass,
)

__all__ = [
    "AdmissibilityError",
    "PolicyFieldSpec",
    "SimConfig",
    "PathBundle",
    "PayoffEstimate",
    "CharacteristicsReport",
    "simulate",
    "payoff_estimate",
    "bellman_series",
    "characteristics_report",
]

log = logging.getLogger(__name__)

_BLOWUP_LIMIT = 1e9
_GROWTH_TOL = 1e-12  # a growth claim holds where growth_ratio <= 1 + _GROWTH_TOL
_GROUP_0 = np.zeros(1, dtype=np.intp)
_GROUP_0.flags.writeable = False


class AdmissibilityError(RuntimeError):
    """A simulated policy left its declared admissibility class."""


def _as_matrix(sigma, dim: int) -> np.ndarray:
    s = np.asarray(sigma, dtype=float)
    if s.ndim == 0:
        return float(s) * np.eye(dim)
    if s.shape != (dim, dim):
        raise ValueError(f"sigma must be scalar or ({dim}, {dim}), got {s.shape}")
    return s


def _group_0(m: int) -> np.ndarray:
    """Group 0 for each of m rows: a read-only zero-stride view, nothing allocated."""
    return np.ndarray((m,), np.intp, _GROUP_0, strides=(0,))


def _relocations(X, group, pairs):
    """(on, mass, y) of the rows whose (sigma, nu) pair has a relocation kernel:
    ``on`` marks them, and mass and the jump y = target - x are the kernel's
    there and zero elsewhere; None when no pair has a kernel."""
    kernels = [(g, nu) for g, (_, nu) in enumerate(pairs) if isinstance(nu, RelocationKernel)]
    if not kernels:
        return None
    if len(pairs) == 1:  # every row is on the kernel: no masks
        return np.ones(len(X), dtype=bool), *kernels[0][1].at(X)
    on, mass, y = np.zeros(len(X), dtype=bool), np.zeros(len(X)), np.zeros(X.shape)
    for g, nu in kernels:
        sel = group == g
        on[sel] = True
        mass[sel], y[sel] = nu.at(X[sel])
    return on, mass, y


def _groups(group, pairs):
    """(rows, sigma, nu) per (sigma, nu) pair of a ``coefficients`` query, pairs and
    rows ascending; one pair covers the batch, with rows ``slice(None)``."""
    if len(pairs) == 1:
        return [(slice(None), *pairs[0])]
    order = np.argsort(group, kind="stable")
    parts = np.split(order, np.flatnonzero(np.diff(group[order])) + 1)
    return [(part, *pairs[group[part[0]]]) for part in parts if len(part)]


def _grouped(acts, dim: int):
    """(mu, group, pairs) of per-row Actions; rows holding one Action object share a group."""
    first = {}
    group = np.array([first.setdefault(id(a), (len(first), a))[0] for a in acts], dtype=np.intp)
    mu = np.array([a.mu for a in acts], dtype=float).reshape(len(acts), dim)
    return mu, group, [(a.sigma, a.nu) for _, a in first.values()]


@dataclass(frozen=True, eq=False)
class PolicyFieldSpec:
    """A stationary Markov policy field x -> action.

    Construct through the classmethods.  This class is the one place that
    knows the three policy shapes; everything else asks it batched queries
    on (m, dim) state arrays:

    * :meth:`coefficients` -- each row's Action drift and the index of its
      (sigma, nu) pair;
    * :meth:`coefficient_norms` -- |mu(x)|, ||F(x)||_F and
      int |y|^2 v |y|^p nu_x(dy) per row, the terms of the admissibility
      and growth conditions;
    * :meth:`growth_left` -- the left side of the growth condition, and
      :meth:`growth_ratio` -- its ratio to a claim's right side;
    * :meth:`rate_cap` -- a known bound on the jump rate.

    ``sigma`` and ``nu`` are set for every shape but row groups
    (``kind="callable"``, whose ``query`` answers :meth:`coefficients`).
    ``kind`` labels the shape.
    ``growth_K``/``growth_p`` form an optional growth certificate (claim of
    membership in the polynomial-growth Markov class); when present the
    simulator spot-checks it along paths and raises
    :class:`AdmissibilityError` on violation.
    """

    kind: str
    action: Optional[Action] = None
    gain: Optional[np.ndarray] = None
    offset: Optional[np.ndarray] = None
    sigma: Optional[np.ndarray] = None
    nu: Optional[JumpMeasure] = None
    query: Optional[Callable] = None
    rate_bound: Optional[float] = None
    growth_K: Optional[float] = None
    growth_p: Optional[float] = None
    name: str = ""

    # ------------------------------------------------------------- builders
    @classmethod
    def constant(cls, action: Action, growth_K=None, growth_p=None, name=""):
        if not isinstance(action, Action):
            raise TypeError("constant policy needs an Action")
        return cls(
            kind="constant", action=action, sigma=action.sigma, nu=action.nu,
            growth_K=growth_K, growth_p=growth_p, name=name or "constant",
        )

    @classmethod
    def linear_feedback(cls, gain, offset, sigma, nu=None, growth_K=None,
                        growth_p=None, name=""):
        """Drift feedback mu(x) = offset - gain @ x with constant sigma, nu."""
        gain = np.atleast_2d(np.asarray(gain, dtype=float))
        dim = gain.shape[0]
        if gain.shape != (dim, dim):
            raise ValueError("gain must be square")
        offset = np.broadcast_to(np.asarray(offset, dtype=float).ravel(), (dim,)).copy()
        if isinstance(nu, RelocationKernel):
            raise TypeError("a relocation kernel steps in a constant policy or a row group")
        return cls(
            kind="linear", gain=gain, offset=offset,
            sigma=_as_matrix(sigma, dim), nu=nu if nu is not None else ZeroMeasure(dim),
            growth_K=growth_K, growth_p=growth_p, name=name or "linear-feedback",
        )

    @classmethod
    def jump_to_origin(cls, rate=1.0, sigma=1.0, dim=1, growth_K=None,
                       growth_p=None, name=""):
        """Jump straight to the origin at a constant rate: the constant action
        ``Action(sigma, RelocationKernel(dim, rate), 0)``.

        The jump measure at state x is ``rate * delta_{-x}`` and the drift
        the action applies is its mean, so drift and compensator cancel
        exactly.  Several arrivals within one Euler step coalesce into a
        single relocation.
        """
        action = Action(_as_matrix(sigma, dim), RelocationKernel(dim, rate), np.zeros(dim))
        return cls.constant(action, growth_K, growth_p, name or "jump-to-origin")

    @classmethod
    def from_action_callable(cls, fn, rate_bound=None, growth_K=None,
                             growth_p=None, name=""):
        """Wrap an arbitrary x -> Action map, called once per state row.

        Rows that got the same Action object share a row group; every other
        row is its own group.
        """
        def query(X):
            return _grouped([fn(x[0] if len(x) == 1 else x.copy()) for x in X], X.shape[1])

        return cls(
            kind="callable", query=query, rate_bound=rate_bound, growth_K=growth_K,
            growth_p=growth_p, name=name or "callable",
        )

    @classmethod
    def from_policy_table(cls, table, prob, name=""):
        """Nearest-node lookup (per axis ``rint``, clipped) into a solved table.

        The row groups are the table's candidates, with the table's drift in
        product mode; a callable list entry makes each row on it a group.
        """
        grid, entries = table.grid, prob.actions
        lo, h, top = np.array(grid.lo), np.array(grid.h), np.array(grid.shape) - 1

        def query(X):
            idx = np.clip(np.rint((X - lo) / h), 0, top).astype(np.intp)
            flat = np.ravel_multi_index(tuple(idx.T), grid.shape)
            cand = table.action_index[flat]
            if prob.mode == "product":
                return table.mu[flat], cand, prob.sigma_nu_pairs
            xs = X[:, 0] if grid.dim == 1 else X.copy()
            return _grouped([entries[c] if isinstance(entries[c], Action) else entries[c](x)
                             for c, x in zip(cand, xs)], grid.dim)

        # a rate bound is known unless a callable entry sets the measure
        fixed = [nu for _, nu in prob.sigma_nu_pairs] + [e.nu for e in entries if isinstance(e, Action)]
        bound = max(map(total_mass, fixed)) if len(fixed) == prob.n_candidates else None
        return cls(kind="callable", query=query, rate_bound=bound, name=name or "policy-table")

    # ------------------------------------------------------------- queries
    def coefficients(self, X, out=None):
        """(mu (m, dim), group (m,), pairs) on a state batch of shape (m, dim):
        row i has the Action drift ``mu[i]`` and the (sigma, nu) pair
        ``pairs[group[i]]``.  Linear feedback writes mu into ``out`` when one
        is given; a constant action's mu is a read-only zero-stride view."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.kind == "callable":
            return self.query(X)
        if self.kind == "constant":
            mu = np.broadcast_to(self.action.mu, (len(X), self.action.mu.size))
        else:
            mu = _matmul_into(X, self.gain.T, np.empty(X.shape) if out is None else out)
            np.subtract(self.offset, mu, out=mu)
        return mu, _group_0(len(X)), [(self.sigma, self.nu)]

    def coefficient_norms(self, X, p: float):
        """(|mu(x)|, ||F(x)||_F, int |y|^2 v |y|^p nu_x(dy)) per row, with mu(x) the
        drift applied and F F^T = sigma sigma^T + Sigma_eps (F = sigma without Sigma_eps).

        The three terms of the admissibility and growth conditions on a
        state batch of shape (m, dim), each an (m,) array.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        mu, group, pairs = self.coefficients(X)
        s = np.array([np.linalg.norm(_covariance(sigma, nu)[1]) for sigma, nu in pairs])[group]
        j = np.array([0.0 if isinstance(nu, RelocationKernel) else moment_functional(nu, p)
                      for _, nu in pairs])[group]
        kern = _relocations(X, group, pairs)
        if kern is not None:  # mass and y are zero off the kernel rows
            _, mass, y = kern
            r = np.sqrt(_row_sq(y))  # the bits of np.linalg.norm(y, axis=1), as below
            j = j + mass * np.maximum(r**2, r**p)
            return np.sqrt(_row_sq(mu + mass[:, None] * y)), s, j
        if self.kind == "constant":  # the bits of a 1-D norm, which the row-wise norm can miss
            return np.full(len(X), float(np.linalg.norm(self.action.mu))), s, j
        return np.linalg.norm(mu, axis=1), s, j

    def growth_left(self, X, p: float) -> np.ndarray:
        """Vectorized left side of the growth condition on a state batch."""
        d, s, j = self.coefficient_norms(X, p)
        return d**p + s**p + j

    def growth_ratio(self, X, K=None, p=None) -> np.ndarray:
        """growth_left(X, p) / (K (1 + |x|^p)) per row, with the policy's own
        claim (growth_K, growth_p) where K and p are not given; the claim holds
        where the ratio is at most 1 + 1e-12."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        K = self.growth_K if K is None else K
        p = self.growth_p if p is None else p
        return self.growth_left(X, p) / (K * (1.0 + np.linalg.norm(X, axis=1) ** p))

    def rate_cap(self) -> Optional[float]:
        """A known upper bound on the jump rate, if any."""
        return total_mass(self.nu) if self.nu is not None else self.rate_bound

    def describe(self) -> str:
        return f"{self.name}[{self.kind}]"


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Simulation run parameters.

    ``lambda_max`` bounds the thinning clock; when omitted it is inferred
    from the policy's known rate cap (callable policies without a declared
    bound fall back to a per-step adaptive bound, which is still exact
    thinning).  ``store_every`` controls the snapshot lattice: state,
    characteristics, and integrals are recorded every that many Euler steps
    (the integrals themselves are accumulated at full step resolution).
    """

    x0: np.ndarray
    T: float
    dt: float
    n_paths: int
    seed: int
    lambda_max: Optional[float] = None
    store_every: int = 1
    u: Optional[np.ndarray] = None

    def __post_init__(self):
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if x0.ndim != 1:
            raise ValueError("x0 must be a vector")
        object.__setattr__(self, "x0", x0)
        if not (np.isfinite(self.T) and self.T > 0.0):
            raise ValueError("horizon T must be positive")
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError("step dt must be positive")
        steps = self.T / self.dt
        if not (np.isfinite(steps) and round(steps) <= 2**31 - 1):
            raise ValueError("T / dt must round to at most 2^31 - 1 Euler steps")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if self.store_every < 1:
            raise ValueError("store_every must be at least 1")
        if self.lambda_max is not None and not (
            np.isfinite(self.lambda_max) and self.lambda_max > 0.0
        ):
            raise ValueError("lambda_max must be positive and finite")
        if self.u is not None:
            u = np.broadcast_to(np.asarray(self.u, dtype=float).ravel(), x0.shape).copy()
            object.__setattr__(self, "u", u)


@dataclass(eq=False)
class PathBundle:
    """Recorded ensemble of controlled paths on the snapshot lattice.

    ``states``/``gamma``/``cost_run``/``Bh`` have the path axis first and
    the time axis second; ``C`` is shared across paths
    (shape (K, dim, dim)) unless the policy stepped as row groups, whose
    sigma varies by row: then it is per path, shape (n, K, dim, dim), and
    :attr:`c_per_path` is set.  ``sup_xc``/``sup_xd`` track the running
    suprema of the continuous and compensated-jump martingale parts at full
    step resolution, and ``G_int`` is the terminal quadratic jump functional
    int_0^T int |y|^2 nu_s(dy) ds per path.  ``marks`` maps each mark time
    given to :func:`simulate` to its snapshot index and the suprema and
    ``G_int`` kept there, which :meth:`until` reads.  The jump history
    (``jump_sizes``/``jump_paths``/``jump_times``, one row per jump in time
    order) is the one record of jumps; :attr:`jump_counts` is derived from it.
    """

    times: np.ndarray
    states: np.ndarray
    gamma: np.ndarray
    cost_run: np.ndarray
    Bh: np.ndarray
    C: np.ndarray
    jump_sizes: np.ndarray
    jump_paths: np.ndarray
    jump_times: np.ndarray
    sup_xc: np.ndarray
    sup_xd: np.ndarray
    G_int: np.ndarray
    policy: PolicyFieldSpec
    cfg: SimConfig
    u: np.ndarray
    dt_eff: float
    marks: dict = field(default_factory=dict)

    @property
    def cost_disc(self) -> np.ndarray:
        """Discounted running cost accumulated over the whole horizon."""
        return self.cost_run[:, -1]

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def c_per_path(self) -> bool:
        return self.C.ndim == 4

    @property
    def dim(self) -> int:
        return self.states.shape[2]

    @property
    def jump_counts(self) -> np.ndarray:
        """Jumps of each path up to each snapshot time, shape (n, K).

        A jump's time is a step time, so it falls in the snapshot interval
        that ``searchsorted`` gives and counts from that snapshot on.
        """
        n, K = self.n_paths, len(self.times)
        snap = np.searchsorted(self.times, self.jump_times)
        per_snap = np.bincount(self.jump_paths * K + snap, minlength=n * K).reshape(n, K)
        return np.cumsum(per_snap, axis=1)

    def until(self, t: float) -> "PathBundle":
        """The run up to ``t``, a mark of :func:`simulate` or ``cfg.T``.

        Every draw is made step by step in a fixed order, so when a run to
        ``t`` at the same seed has this run's step size, this is its bundle
        bit for bit.  Otherwise ``t`` stands for the nearest step of this run
        and ``times[-1]`` is that step's time.
        """
        if t == self.cfg.T:
            j, sup_xc, sup_xd, G_int = len(self.times) - 1, self.sup_xc, self.sup_xd, self.G_int
        elif t in self.marks:
            j, sup_xc, sup_xd, G_int = self.marks[t]
        else:
            raise ValueError(f"t={t:g} is neither a mark of this run nor its horizon")
        upto = lambda a: np.ascontiguousarray(a[:, : j + 1])
        nj = int(np.searchsorted(self.jump_times, self.times[j], side="right"))
        return PathBundle(
            times=self.times[: j + 1],
            states=upto(self.states),
            gamma=upto(self.gamma),
            cost_run=upto(self.cost_run),
            Bh=upto(self.Bh),
            C=upto(self.C) if self.c_per_path else self.C[: j + 1],
            jump_sizes=self.jump_sizes[:nj],
            jump_paths=self.jump_paths[:nj],
            jump_times=self.jump_times[:nj],
            sup_xc=sup_xc,
            sup_xd=sup_xd,
            G_int=G_int,
            policy=self.policy,
            cfg=replace(self.cfg, T=t),
            u=self.u,
            dt_eff=self.dt_eff,
            marks={s: m for s, m in self.marks.items() if s <= t},
        )

    def summary(self) -> dict:
        xT = self.states[:, -1, :]
        return {
            "n_paths": int(self.n_paths),
            "dim": int(self.dim),
            "T": float(self.times[-1]),
            "dt": float(self.dt_eff),
            "policy": self.policy.describe(),
            "mean_xT": [float(v) for v in xT.mean(axis=0)],
            "mean_gamma_T": float(self.gamma[:, -1].mean()),
            "mean_cost": float(self.cost_disc.mean()),
            "total_jumps": int(self.jump_sizes.shape[0]),
        }


def _state_fn(fn):
    """Normalize a state-cost input to a batched (m, dim) -> (m,) callable."""
    if fn is None:
        return lambda X: np.zeros(len(X))
    if np.isscalar(fn) or isinstance(fn, (int, float)):
        val = float(fn)
        return lambda X: np.full(len(X), val)

    def wrapped(X):
        out = np.asarray(fn(X), dtype=float)
        if out.shape != (len(X),):
            out = np.broadcast_to(out, (len(X),)).copy()
        return out

    return wrapped


def _bh_rate(policy: PolicyFieldSpec, u: np.ndarray, X: np.ndarray) -> np.ndarray:
    """u + mu(x) - int_{|y| > 1} y nu_x(dy) on a state batch, mu(x) the drift
    applied: the truncated-drift density B^h grows at, formed as a step forms it."""
    model = _StepModel(policy, X[0], u, 1.0, None)
    model._resolve(X)
    return model.bh_dt


def _matmul_into(A: np.ndarray, BT: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = A @ BT``, bit for bit.

    With one column, matmul sums a single product onto 0.0, so it equals
    ``A * b + 0.0`` (the addition turns a -0.0 product into 0.0); that form
    is about ten times faster for a (n, 1) batch.
    """
    if BT.shape == (1, 1):
        np.multiply(A, BT[0, 0], out=out)
        out += 0.0
        return out
    return np.matmul(A, BT, out=out)


def _chains(u: np.ndarray, floor: float):
    """The nonzero draws of the multiplication method in a block of uniforms.

    A draw reads uniforms until their running product is <= ``floor``
    (e^{-lam}); ``u[0]`` starts one.  A uniform <= ``floor`` ends its draw,
    so a draw with arrivals starts at a uniform above it, a candidate, and a
    candidate whose next uniform is not one has exactly one arrival (the
    product is at most that next uniform).  Only runs of adjacent candidates
    are walked one product at a time.  Returns ``(starts, counts, end)``:
    the block positions and counts of the draws with arrivals that end in
    the block, and the position where an unfinished draw starts (``u.size``
    when none is left open).
    """
    m = end = u.size
    idx = (u > floor).nonzero()[0]
    adj = idx[1:] - idx[:-1] == 1  # idx[k] and idx[k + 1] are neighbours
    if not adj.any():
        if idx.size and idx[-1] == m - 1:
            end, idx = m - 1, idx[:-1]
        return idx, np.ones(idx.size, dtype=np.int64), end
    after = np.zeros(idx.size + 1, dtype=bool)
    after[1:-1] = adj
    left, right = after[:-1], after[1:]  # idx[k] has a candidate before it / after it
    starts = idx[~(left | right)]
    if starts.size and starts[-1] == m - 1:
        end, starts = m - 1, starts[:-1]
    walked, walked_counts = [], []
    for s, stop in zip(idx[right & ~left].tolist(), (idx[left & ~right] + 1).tolist()):
        base = s
        seg = u[base:stop + 1].tolist()
        while s < stop:
            prod, j = seg[s - base], s + 1
            while j < m:
                prod *= seg[j - base]
                if prod <= floor:
                    break
                j += 1
            if j == m:
                end = s
                break
            walked.append(s)
            walked_counts.append(j - s)
            s = j + 1
    counts = np.concatenate([np.ones(starts.size, dtype=np.int64), walked_counts]).astype(np.int64)
    starts = np.concatenate([starts, walked]).astype(np.intp)
    order = np.argsort(starts)
    return starts[order], counts[order], end


def _arrivals(rng: np.random.Generator, lam: float, n: int):
    """``(rows, counts)`` of the nonzero entries of ``rng.poisson(lam, n)``, lam > 0.

    ``rng`` is left in the state that call leaves it in.  Below lam = 10
    numpy draws each count by the multiplication method (Knuth, TAOCP vol. 2
    3.4.1), so below lam = 0.08, where most counts are zero, they are read
    from one block of ``rng.random`` draws, bit for bit, in less time than
    ``rng.poisson`` takes on a large batch; from lam = 0.08 on ``rng.poisson``
    itself is called, which is faster there.  When the block runs short, each
    unfinished draw needs at least one more uniform, so exactly that many are
    drawn and the generator never runs ahead of ``rng.poisson``.
    """
    if lam >= 0.08:
        counts = rng.poisson(lam, n)
        rows = np.flatnonzero(counts)
        return rows, counts[rows]
    floor = math.exp(-lam)
    rows, counts = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.int64)]
    u, done = rng.random(n), 0  # u[0] starts the draw of path `done`
    while True:
        starts, cnt, end = _chains(u, floor)
        if cnt.size:
            # a draw with c arrivals reads c uniforms after its first, so a
            # start's path is its position less the arrivals before it
            arrived = cnt.cumsum()
            rows.append(starts + done - (arrived - cnt))
            counts.append(cnt)
            done -= int(arrived[-1])
        done += end
        if done == n:
            return np.concatenate(rows), np.concatenate(counts)
        u = np.concatenate([u[end:], rng.random(n - done)])


class _StepModel:
    """Per-run kinematics of a policy field: one stepping path for every shape.

    :meth:`_resolve` reads each row's drift and (sigma, nu) pair through
    :meth:`PolicyFieldSpec.coefficients`, each pair's terms (``measures._moments``
    and ``_covariance``) and the thinning clock, which runs when some row's
    pair has mass, at the declared bound if that is larger.
    :meth:`_increments` forms the drift, B^h, compensator and G increments,
    a relocation kernel's rows included.  The policy's kind tells only
    whether the pairs vary by row (row groups: resolved every step, with a
    per-row sigma and so a per-path C) and whether the drift is fixed (a
    constant action).  Shared pairs are resolved once, on the start, where a
    constant action's increments are formed on one row and broadcast; linear
    feedback and kernel rows form theirs every step.  The update is bit for
    bit ``X = X + drift * dt + dW + disp`` evaluated left to right: where the
    form differs (the one-column matmul, a skipped ``- 0.0``) the two are
    identities, noted where they are used.  The clock's counts come from one
    block of uniforms (see :func:`_arrivals`), and thinning and the jump
    bookkeeping touch only the rows that had arrivals.
    """

    def __init__(self, policy: PolicyFieldSpec, x0: np.ndarray, u: np.ndarray, dt: float,
                 declared: Optional[float]):
        self.policy, self.u, self.dt, self.declared = policy, u, dt, declared
        self.dim, self.sqdt, self.scratch = x0.size, np.sqrt(dt), {}
        self.per_row, self.fixed = policy.kind == "callable", policy.kind == "constant"
        if not self.per_row:
            self._resolve(x0[None])

    def _resolve(self, X):
        """Each row's pair, the clock, and the increments at X."""
        mu, self.group, self.pairs = self.policy.coefficients(X)
        terms = []
        for sigma, nu in self.pairs:
            if sigma.shape != (self.dim, self.dim):
                raise ValueError(
                    f"policy sigma shape {sigma.shape} does not match state dim {self.dim}")
            # the record reads the support, so a malformed one raises here, before any draw
            rec, (C, F) = _moments(nu), _covariance(sigma, nu)
            terms.append((rec.mass, rec.m1, rec.big_mean, rec.m1 * self.dt,
                          np.trace(rec.m2) * self.dt, F.T, C * self.dt))
        terms = [np.array(t)[self.group] for t in zip(*terms)] if self.per_row else terms[0]
        mass, self.m1, self.big, self.pair_m1_dt, self.pair_g_dt, self.sigT, self.cov_dt = terms
        self.kernel = any(isinstance(nu, RelocationKernel) for _, nu in self.pairs)
        self.compensated = any(_moments(nu).law is not None for _, nu in self.pairs)
        top = float(np.max(mass))
        if self.declared is not None and top > self.declared * (1.0 + 1e-9):
            raise AdmissibilityError(
                f"jump rate {top:g} exceeded the declared thinning bound {self.declared:g}")
        self.jumps = top > 0.0
        if self.jumps:
            lam = max(self.declared or 0.0, top)
            self.lam_dt, self.p_acc = lam * self.dt, mass / lam
            self.thin = bool(np.any(self.p_acc < 1.0 - 1e-15))
        self.mu = mu
        self._increments(X, mu)

    def _increments(self, X, mu):
        """The step's drift, B^h, compensator (m1 dt) and G increments at X.

        A relocation kernel's rows add its mean to the compensator, the part
        of it from jumps up to size 1 to B^h and rate |y|^2 dt to G; the drift
        applied holds the same mean, so the drift increment is u + mu less
        the pairs' m1 alone.  Without a jump law every m1 and big-jump mean
        is +0.0, and x - 0.0 == x, so the subtractions are skipped and drift
        and B^h are one array until a kernel's part joins B^h.
        """
        out, shape = self._out, mu.shape
        umu = np.add(self.u, mu, out=out("umu", shape))
        drift, bh = umu, umu
        if self.compensated:
            drift = np.subtract(umu, self.m1, out=out("drift", shape))
            bh = np.subtract(umu, self.big, out=out("bh", shape))
        self.m1_dt, self.g_dt, self.reloc = self.pair_m1_dt, self.pair_g_dt, None
        if self.kernel:
            self.reloc = _relocations(X, self.group, self.pairs)
            _, mass, y = self.reloc
            mean, sq = mass[:, None] * y, _row_sq(y)
            bh = bh + mean * (np.sqrt(sq) <= 1.0)[:, None]
            self.m1_dt = self.m1_dt + mean * self.dt
            self.g_dt = self.g_dt + mass * sq * self.dt
        drift *= self.dt
        if bh is not drift:
            bh *= self.dt
        self.drift_dt, self.bh_dt = drift, bh

    def _out(self, name, shape):
        """The scratch array ``name`` of ``shape``, kept from step to step: a
        fresh path-sized array at every step costs page faults."""
        buf = self.scratch.get(name)
        if buf is None or buf.shape != shape:
            buf = self.scratch[name] = np.empty(shape)
        return buf

    def step(self, X, Wc, Xd, Bh, G_int, rng):
        """Advance every path by one Euler step in place.

        Returns (sizes, paths) for the jumps taken in this step, each jump's
        size and path, or None when there were none.
        """
        if self.per_row:
            self._resolve(X)
        elif self.kernel or not self.fixed:
            # linear feedback's drift lands in the buffer u + mu is formed in
            mu = self.mu if self.fixed else self.policy.coefficients(X, self._out("umu", X.shape))[0]
            self._increments(X, mu)

        xi = rng.standard_normal(out=self._out("xi", X.shape))
        dWc = self._out("dWc", X.shape)
        if self.per_row:
            np.einsum("ij,ijk->ik", xi, self.sigT, out=dWc)
        else:
            _matmul_into(xi, self.sigT, dWc)
        dWc *= self.sqdt

        jumps = None
        if self.jumps:
            rows, counts = _arrivals(rng, self.lam_dt, X.shape[0])
            if self.thin:
                # binomial draws nothing for a zero count, so thinning only the
                # arrival rows keeps the bits of thinning every row
                p = self.p_acc if np.ndim(self.p_acc) == 0 else self.p_acc[rows]
                counts = rng.binomial(counts, p)
                kept = counts > 0
                rows, counts = rows[kept], counts[kept]
            G_int += self.g_dt
            jumps = self._draw(rows, counts, rng)

        disp = 0.0  # without jumps; adding it still turns -0.0 into 0.0
        if jumps is not None:
            disp = self._out("disp", X.shape)
            disp.fill(0.0)
            np.add.at(disp, jumps[1], jumps[0])
        X += self.drift_dt
        X += dWc
        X += disp
        Wc += dWc
        if self.jumps:
            Xd += np.subtract(disp, self.m1_dt, out=None if jumps is None else disp)
        Bh += self.bh_dt
        return jumps

    def _draw(self, rows, counts, rng):
        """Jump sizes for ``counts`` jumps on each of ``rows`` (ascending), in
        row order, drawn group by group in group order.  A relocation draws
        nothing: a kernel row's arrivals in one step coalesce into one jump to
        its target, and a row on its target does not jump.  A massless pair's
        rows never jump, so a pair without a sampling law here is a kernel."""
        if self.reloc is not None:
            on, mass, _ = self.reloc
            counts = np.where(on[rows], mass[rows] > 0.0, counts)
            rows, counts = rows[counts > 0], counts[counts > 0]
        if not rows.size:
            return None
        paths = np.repeat(rows, counts)
        sizes = np.empty((paths.size, self.dim))
        # a shared pair's group is resolved on x0 alone, one row
        for sel, _, nu in _groups(self.group[paths] if len(self.pairs) > 1 else None, self.pairs):
            law, at = _moments(nu).law, paths[sel]
            sizes[sel] = self.reloc[2][at] if law is None else _draw_jumps(law, rng, at.size)
        return sizes, paths


def _path_major(a: np.ndarray) -> np.ndarray:
    """A (K, n, ...) snapshot store as the C-contiguous (n, K, ...) bundle array."""
    return np.ascontiguousarray(np.swapaxes(a, 0, 1))


def _snapshot_lattice(cfg: SimConfig, marks=()):
    """(n_steps, dt, mark_step, store_idx) of a run: the Euler step count and
    length, each mark's step, and the steps whose snapshots it keeps, in order.
    ``cfg.T``, ``cfg.dt``, ``cfg.store_every`` and the marks fix them before
    any path runs; snapshot j lies at time store_idx[j] * dt."""
    n_steps = max(1, int(round(cfg.T / cfg.dt)))
    dt = cfg.T / n_steps
    mark_step = {}
    for t in map(float, marks):
        if not 0.0 < t <= cfg.T:
            raise ValueError(f"mark {t:g} must lie in (0, T]")
        mark_step[t] = min(n_steps, max(1, int(round(t / dt))))
    store_idx = sorted({*range(0, n_steps + 1, cfg.store_every), n_steps, *mark_step.values()})
    return n_steps, dt, mark_step, store_idx


def simulate(policy: PolicyFieldSpec, cfg: SimConfig, f=None, q=None, marks=()) -> PathBundle:
    """Run the Euler thinning scheme and record the path bundle.

    ``f`` and ``q`` are state-batch callables (m, dim) -> (m,) (or scalars)
    giving the running cost and discount rate along the chosen policy; both
    default to zero.  The discount integral uses the trapezoid rule at full
    step resolution, as does the discounted-cost integral.  ``marks`` are
    times in (0, T] at which the running suprema and ``G_int`` are kept too;
    each stands for the nearest Euler step, which joins the snapshot
    lattice, and :meth:`PathBundle.until` reads the run up to it.
    """
    x0, n = cfg.x0, cfg.n_paths
    dim = x0.size
    u = cfg.u if cfg.u is not None else np.zeros(dim)

    n_steps, dt, mark_step, store_idx = _snapshot_lattice(cfg, marks)
    store_pos = {s: j for j, s in enumerate(store_idx)}
    K = len(store_idx)

    declared = cfg.lambda_max
    cap = policy.rate_cap()
    if declared is not None and cap is not None and cap > declared * (1.0 + 1e-9):
        raise AdmissibilityError(
            f"policy jump rate {cap:g} exceeds the declared thinning bound {declared:g}"
        )
    model = _StepModel(policy, x0, u, dt, declared)

    # C is per path when sigma varies by row
    C_shape = (n, dim, dim) if model.per_row else (dim, dim)
    est_bytes = 8 * n * K * (2 * dim + 3 + (dim * dim if model.per_row else 0))
    if est_bytes > 4e9:
        raise ValueError(
            f"snapshot storage would need ~{est_bytes / 1e9:.1f} GB; "
            "increase store_every or reduce n_paths"
        )

    # with neither f nor q, gamma, the discount and the cost stay exactly
    # 0, 1 and 0, and the trapezoid steps are skipped
    costs = f is not None or q is not None
    f_fn, q_fn = _state_fn(f), _state_fn(q)

    rng = np.random.default_rng(cfg.seed)
    X = np.tile(x0, (n, 1))
    gamma, cost, G_int = np.zeros(n), np.zeros(n), np.zeros(n)
    Wc, Xd, Bh = np.zeros((n, dim)), np.zeros((n, dim)), np.zeros((n, dim))
    sup_xc, sup_xd = np.zeros(n), np.zeros(n)  # squared until the loop ends (see running_sup)
    sq, norm = np.empty((n, dim)), np.empty(n)

    # snapshots are stored time-major, so each one is a contiguous copy;
    # the bundle gets them path-major (see _path_major)
    states_st = np.empty((K, n, dim))
    gamma_st = np.empty((K, n))
    cost_st = np.empty((K, n))
    bh_st = np.empty((K, n, dim))
    size_rows, path_rows, time_rows = [], [], []
    kept = {s: None for s in mark_step.values()}  # step -> (sup_xc, sup_xd, G_int) there

    C_cum = np.zeros(C_shape)
    C_st = np.zeros((K,) + C_shape)

    q_cur, f_cur = q_fn(X), f_fn(X)
    disc_cur, disc_new, trap = np.ones(n), np.empty(n), np.empty(n)

    def snapshot(j):
        states_st[j] = X
        gamma_st[j] = gamma
        cost_st[j] = cost
        bh_st[j] = Bh
        C_st[j] = C_cum

    def running_sup(sup_sq, V):
        """sup_sq = max(sup_sq, |V|^2 row-wise).

        |V|^2 is the sum of squares np.linalg.norm(V, axis=1) takes the root
        of; the root is taken once at the end, which gives the same bits
        because a correctly rounded sqrt is monotone.  A row reduction of two
        columns is the sum of the columns, bit for bit, and many times faster.
        """
        np.multiply(V, V, out=sq)
        if dim == 1:
            np.maximum(sup_sq, sq[:, 0], out=sup_sq)
        else:
            np.add(sq[:, 0], sq[:, 1], out=norm) if dim == 2 else np.add.reduce(sq, axis=1, out=norm)
            np.maximum(sup_sq, norm, out=sup_sq)

    snapshot(0)
    check_every = max(1, n_steps // 64)

    for k in range(n_steps):
        t_next = (k + 1) * dt
        jumps = model.step(X, Wc, Xd, Bh, G_int, rng)
        if jumps is not None:
            sizes, paths = jumps
            size_rows.append(sizes)
            path_rows.append(paths)
            time_rows.append(np.full(paths.size, t_next))
        C_cum += model.cov_dt
        if model.jumps:
            running_sup(sup_xd, Xd)
        running_sup(sup_xc, Wc)

        if costs:
            q_new = q_fn(X)
            f_new = f_fn(X)
            np.add(q_cur, q_new, out=trap)
            trap *= 0.5
            trap *= dt
            gamma += trap
            np.negative(gamma, out=disc_new)
            np.exp(disc_new, out=disc_new)
            np.multiply(disc_cur, f_cur, out=trap)
            trap += disc_new * f_new
            trap *= 0.5
            trap *= dt
            cost += trap
            q_cur, f_cur = q_new, f_new
            disc_cur, disc_new = disc_new, disc_cur

        if (k + 1) % check_every == 0 or k + 1 == n_steps:
            amax = float(np.max(np.abs(X)))
            if not np.isfinite(amax) or amax > _BLOWUP_LIMIT:
                raise AdmissibilityError(f"state blow-up at t={t_next:.6g} (|x| ~ {amax:.3e})")
            if policy.growth_K is not None and policy.growth_p is not None:
                ratio = policy.growth_ratio(X)
                if not np.all(ratio <= 1.0 + _GROWTH_TOL):
                    raise AdmissibilityError(f"growth certificate violated at t={t_next:.6g}: "
                                             f"max lhs/rhs = {float(np.max(ratio)):.3g}")

        if (k + 1) in store_pos:
            snapshot(store_pos[k + 1])
            if (k + 1) in kept:
                kept[k + 1] = (sup_xc.copy(), sup_xd.copy(), G_int.copy())

    # one store at a time, so at most one extra store is alive
    states_st = _path_major(states_st)
    gamma_st = _path_major(gamma_st)
    cost_st = _path_major(cost_st)
    bh_st = _path_major(bh_st)
    if C_st.ndim == 4:
        C_st = _path_major(C_st)
    for sup in [sup_xc, sup_xd] + [a for xc, xd, _ in kept.values() for a in (xc, xd)]:
        np.sqrt(sup, out=sup)
    times = np.asarray(store_idx, dtype=float) * dt
    jump_sizes = np.concatenate(size_rows or [np.zeros((0, dim))], axis=0)
    jump_paths = np.concatenate(path_rows or [np.zeros(0)]).astype(np.int64)
    jump_times = np.concatenate(time_rows or [np.zeros(0)])

    log.debug("simulated %d paths x %d steps (%s), %d jumps",
              n, n_steps, policy.describe(), jump_sizes.shape[0])
    return PathBundle(
        times=times,
        states=states_st,
        gamma=gamma_st,
        cost_run=cost_st,
        Bh=bh_st,
        C=C_st,
        jump_sizes=jump_sizes,
        jump_paths=jump_paths,
        jump_times=jump_times,
        sup_xc=sup_xc,
        sup_xd=sup_xd,
        G_int=G_int,
        policy=policy,
        cfg=cfg,
        u=u,
        dt_eff=dt,
        marks={t: (store_pos[s], *kept[s]) for t, s in mark_step.items()},
    )


class PayoffEstimate(NamedTuple):
    estimate: float
    std_error: float
    tail_bound: float


def payoff_estimate(
    policy: PolicyFieldSpec,
    cfg: SimConfig,
    f,
    q,
    tail_mode: str = "growth",
    f_growth=None,
    delta_q: Optional[float] = None,
) -> PayoffEstimate:
    """Monte Carlo estimate of the infinite-horizon discounted cost.

    The integral is truncated at ``cfg.T``; in ``growth`` mode the reported
    tail bound is ``mean(e^{-gamma_T}) * c_f * (1 + mean|X_T|^p) / delta_q``
    for a declared cost envelope ``|f| <= c_f (1 + |x|^p)`` given as
    ``f_growth = (c_f, p)``.  The bound treats the terminal moment as a
    proxy for the future supremum, which is adequate for the mean-reverting
    policies the batteries use; ``tail_mode="none"`` skips it.
    """
    if tail_mode not in ("growth", "none"):
        raise ValueError("tail_mode must be 'growth' or 'none'")
    bundle = simulate(policy, cfg, f=f, q=q)
    samples = bundle.cost_disc
    est = float(samples.mean())
    se = float(samples.std(ddof=1) / np.sqrt(len(samples))) if len(samples) > 1 else 0.0
    tail = 0.0
    if tail_mode == "growth":
        if f_growth is None or delta_q is None:
            raise ValueError("growth tail mode needs f_growth=(c_f, p) and delta_q")
        c_f, p_exp = float(f_growth[0]), float(f_growth[1])
        if delta_q <= 0.0:
            raise ValueError("delta_q must be positive")
        xT = np.linalg.norm(bundle.states[:, -1, :], axis=1)
        disc = float(np.exp(-bundle.gamma[:, -1]).mean())
        tail = disc * c_f * (1.0 + float(np.mean(xT ** p_exp))) / delta_q
    return PayoffEstimate(est, se, float(tail))


def bellman_series(phi, bundle: PathBundle) -> np.ndarray:
    """Accumulated discounted cost plus discounted phi along recorded paths.

    Returns S of shape (n_paths, K) on the bundle's snapshot lattice:
    S_t = int_0^t e^{-gamma} f ds + e^{-gamma_t} phi(X_t), where the cost
    integral and gamma are the ones :func:`simulate` recorded at full step
    resolution.  A series for another cost reads another run: no draw
    depends on ``f`` or ``q``, so a run at the same seed with other costs
    has these paths bit for bit.
    """
    n, K, dim = bundle.states.shape
    vals = _field_value(phi, bundle.states.reshape(n * K, dim)).reshape(n, K)
    if not np.all(np.isfinite(vals)):
        raise ValueError("phi evaluated non-finite along recorded paths")
    return bundle.cost_run + np.exp(-bundle.gamma) * vals


@dataclass
class CharacteristicsReport:
    """Consistency summary of the recorded characteristics triplet."""

    bh_gap: float
    c_gap: Optional[float]
    c_total: np.ndarray
    n_jumps: int
    jump_rate_observed: float
    jump_rate_expected: Optional[float]
    hist_edges: Optional[np.ndarray]
    hist_counts: Optional[np.ndarray]
    hist_expected: Optional[np.ndarray]
    max_z: Optional[float]
    messages: tuple = ()


def characteristics_report(bundle: PathBundle, n_bins: int = 20) -> CharacteristicsReport:
    """Compare recorded characteristics with their predicted forms.

    For constant actions with a fixed measure the truncated drift and
    covariance admit exact closed forms, and the empirical jump-size
    histogram is compared with the compensator prediction bin by bin
    (Poisson standard errors); a 1-D density cell's mass is spread over the
    bins as its jittered draws are, uniformly across the cell.  For
    state-dependent policies, a relocation kernel's included, the drift
    comparison uses a trapezoid reconstruction on the snapshot lattice and no
    histogram prediction is made, nor for a density measure in dim >= 2.
    """
    policy = bundle.policy
    times = bundle.times
    T = float(times[-1])
    n = bundle.n_paths
    messages = []
    nu = None if isinstance(policy.nu, RelocationKernel) else policy.nu

    if policy.kind == "constant" and nu is not None:
        rate_vec = bundle.u + policy.action.mu - _moments(policy.nu).big_mean
        pred = times[None, :, None] * rate_vec[None, None, :]
        bh_gap = float(np.max(np.abs(bundle.Bh - pred)))
    else:
        rates = np.stack([_bh_rate(policy, bundle.u, X) for X in np.swapaxes(bundle.states, 0, 1)],
                         axis=1)
        mids = np.zeros_like(bundle.Bh)
        mids[:, 1:, :] = np.cumsum(
            0.5 * (rates[:, :-1, :] + rates[:, 1:, :]) * np.diff(times)[None, :, None], axis=1)
        bh_gap = float(np.max(np.abs(bundle.Bh - mids)))
        messages.append("state-dependent drift: comparison uses snapshot-lattice trapezoid")

    c_total = bundle.C[:, -1] if bundle.c_per_path else bundle.C[-1]
    c_gap = None if policy.sigma is None else float(
        np.max(np.abs(c_total - _covariance(policy.sigma, policy.nu)[0] * T)))

    n_jumps = int(bundle.jump_sizes.shape[0])
    rate_obs = n_jumps / (n * T)
    rate_exp = None
    hist_edges = hist_counts = hist_expected = None
    max_z = None
    if nu is not None:
        rate_exp = mass = total_mass(nu)
        half = _moments(nu).law[2] if mass > 0 else None  # a density cell's jitter
        if half is not None and nu.dim > 1:
            messages.append("jittered density cells in dim >= 2: histogram prediction skipped")
        elif n_jumps and mass > 0:
            mags = np.linalg.norm(bundle.jump_sizes, axis=1)
            lo, hi = float(mags.min()), float(mags.max())
            pad = max(1e-9, 0.05 * max(hi - lo, 1e-9))
            hist_edges = np.linspace(lo - pad, hi + pad, n_bins + 1)
            hist_counts, _ = np.histogram(mags, bins=hist_edges)
            pts, w = _support_points(nu)
            if half is None:
                hist_expected = np.zeros(n_bins)
                for m, wt in zip(np.linalg.norm(pts, axis=1), w):
                    j = np.searchsorted(hist_edges, m, side="right") - 1
                    if 0 <= j < n_bins:
                        hist_expected[j] += wt * n * T
            else:
                # a 1-D cell's draws are uniform on [c - h, c + h], so its share with
                # |y| <= e is that interval's overlap with [-e, e], over 2h
                c, h, e = pts, half[0], np.maximum(hist_edges, 0.0)
                inside = np.clip(np.minimum(c + h, e) - np.maximum(c - h, -e), 0.0, None)
                hist_expected = (w * n * T) @ np.diff(inside / (2.0 * h), axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                z = np.where(
                    hist_expected > 0,
                    (hist_counts - hist_expected) / np.sqrt(np.maximum(hist_expected, 1e-12)),
                    np.where(hist_counts > 0, np.inf, 0.0),
                )
            max_z = float(np.max(np.abs(z))) if z.size else 0.0
    else:
        messages.append("state-dependent jump measure: histogram prediction skipped")

    return CharacteristicsReport(
        bh_gap=bh_gap,
        c_gap=c_gap,
        c_total=np.asarray(c_total),
        n_jumps=n_jumps,
        jump_rate_observed=rate_obs,
        jump_rate_expected=rate_exp,
        hist_edges=hist_edges,
        hist_counts=hist_counts,
        hist_expected=hist_expected,
        max_z=max_z,
        messages=tuple(messages),
    )
