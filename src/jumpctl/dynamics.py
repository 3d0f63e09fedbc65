"""Path simulation for controlled jump diffusions.

Simulates the fully compensated canonical form

    X_{k+1} = X_k + (u + mu_k - m1(nu_k)) dt + sigma_k sqrt(dt) xi_k + jumps_k

under stationary Markov policy fields.  Jumps arrive by thinning a Poisson
clock whose rate dominates every jump measure's total mass; each accepted
arrival draws its size from the current measure, and the ``- m1 dt`` term is
the compensator drift that makes the jump part a martingale.

Alongside the states the bundle records, per path and on a configurable
storage lattice, the semimartingale characteristics (truncated drift B^h
with h(y) = y 1_{|y| <= 1}, continuous covariance C = int sigma sigma^T ds,
and the full jump history), the discount integral gamma_t = int q ds, the
running discounted cost, the running suprema of the continuous and
compensated-jump martingale parts, and the quadratic jump functional
G_T = int int |y|^2 nu_s(dy) ds.  The verification module consumes these.

Four policy shapes are supported, all stepped vectorised across paths by
one engine: constant actions, linear drift feedback with constant
(sigma, nu), jump to origin, and row groups -- a batched query giving each
state its drift and the index of its (sigma, nu) pair, which is how solved
policy tables and ``x -> Action`` callables step.  :class:`PolicyFieldSpec`
is the one interface to all four: the verifiers and the command line ask it
for ``coefficients``, ``drift``, ``coefficient_norms`` (|mu|, ||sigma||_F
and the jump moment per state), ``growth_left`` and ``rate_cap`` instead
of branching on the shape.

State-independent terms and jump laws are resolved once per run (per step
and pair for row groups), and every step writes into preallocated buffers,
bit for bit equal to the plain left-to-right update.  The per-step draws
come in a fixed order -- ``standard_normal((n, dim))``, ``poisson`` for the
thinning clock, ``binomial`` only when some row's jump rate is below the
clock's, then the jump sizes (a categorical ``choice``, plus a ``uniform``
jitter for density cells; pair by pair in group order for row groups).
That order is part of the frozen-seed contract: a given seed reproduces
every bundle array and artifact bit for bit.
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
    ZeroMeasure,
    _draw_jumps,
    _sampling_law,
    _support_points,
    big_jump_mean,
    first_moment,
    jump_to_origin_action,
    moment_functional,
    second_moment_matrix,
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
    "gm_left_side",
]

log = logging.getLogger(__name__)

_BLOWUP_LIMIT = 1e9


class AdmissibilityError(RuntimeError):
    """A simulated policy left its declared admissibility class."""


def _as_matrix(sigma, dim: int) -> np.ndarray:
    s = np.asarray(sigma, dtype=float)
    if s.ndim == 0:
        return float(s) * np.eye(dim)
    if s.shape != (dim, dim):
        raise ValueError(f"sigma must be scalar or ({dim}, {dim}), got {s.shape}")
    return s


def gm_left_side(a: Action, p: float) -> float:
    """Left side of the Markov growth condition for a single action.

    ``|mu|^p + ||sigma||^p + int |z|^2 v |z|^p nu(dz)`` with the Frobenius
    matrix norm.
    """
    mu_term = float(np.linalg.norm(a.mu)) ** p
    sig_term = float(np.linalg.norm(a.sigma)) ** p
    return mu_term + sig_term + moment_functional(a.nu, p)


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
    knows the four policy shapes; everything else asks it batched queries
    on (m, dim) state arrays:

    * :meth:`coefficients` -- each row's drift and the index of its
      (sigma, nu) pair;
    * :meth:`drift` -- mu(x) as an (m, dim) array;
    * :meth:`coefficient_norms` -- |mu(x)|, ||sigma(x)||_F and
      int |y|^2 v |y|^p nu_x(dy) per row, the terms of the admissibility
      and growth conditions;
    * :meth:`growth_left` -- the left side of the growth condition;
    * :meth:`rate_cap` -- a known bound on the jump rate.

    ``sigma`` is set for every shape but row groups (``kind="callable"``,
    whose ``query`` answers :meth:`coefficients`), and ``nu`` for constant
    and linear.  ``kind`` labels the shape.
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
    rate: float = 0.0
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
        return cls(
            kind="linear", gain=gain, offset=offset,
            sigma=_as_matrix(sigma, dim), nu=nu if nu is not None else ZeroMeasure(dim),
            growth_K=growth_K, growth_p=growth_p, name=name or "linear-feedback",
        )

    @classmethod
    def jump_to_origin(cls, rate=1.0, sigma=1.0, dim=1, growth_K=None,
                       growth_p=None, name=""):
        """Jump straight to the origin at a constant rate.

        The jump measure at state x is ``rate * delta_{-x}`` and the drift
        equals its mean, so drift and compensator cancel exactly.  Several
        arrivals within one Euler step coalesce into a single relocation.
        """
        if rate < 0.0:
            raise ValueError("rate must be nonnegative")
        return cls(
            kind="jump_origin", rate=float(rate), rate_bound=float(rate),
            sigma=_as_matrix(sigma, dim), growth_K=growth_K, growth_p=growth_p,
            name=name or "jump-to-origin",
        )

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
    def coefficients(self, X):
        """(mu (m, dim), group (m,), pairs) on a state batch of shape (m, dim):
        row i has drift ``mu[i]`` and the (sigma, nu) pair ``pairs[group[i]]``."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.kind == "callable":
            return self.query(X)
        if self.kind == "jump_origin":
            acts = [jump_to_origin_action(row, self.rate, self.sigma) for row in X]
            return _grouped(acts, X.shape[1])
        return self.drift(X), np.zeros(len(X), dtype=np.intp), [(self.sigma, self.nu)]

    def drift(self, X) -> np.ndarray:
        """mu(x) on a state batch of shape (m, dim), as an (m, dim) array."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.kind == "constant":
            return np.tile(self.action.mu, (len(X), 1))
        if self.kind == "linear":
            return self.offset - _matmul_into(X, self.gain.T, np.empty(X.shape))
        if self.kind == "jump_origin":
            return -self.rate * X
        return self.query(X)[0]

    def coefficient_norms(self, X, p: float):
        """(|mu(x)|, ||sigma(x)||_F, int |y|^2 v |y|^p nu_x(dy)) per row.

        The three terms of the admissibility and growth conditions on a
        state batch of shape (m, dim), each an (m,) array.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.kind == "jump_origin":
            r = np.linalg.norm(X, axis=1)
            s = np.full(len(X), float(np.linalg.norm(self.sigma)))
            return self.rate * r, s, self.rate * np.maximum(r**2, r**p)
        mu, group, pairs = self.coefficients(X)
        s = np.array([np.linalg.norm(sigma) for sigma, _ in pairs])[group]
        j = np.array([moment_functional(nu, p) for _, nu in pairs])[group]
        if self.kind == "constant":  # the bits of a 1-D norm, which the row-wise norm can miss
            return np.full(len(X), float(np.linalg.norm(self.action.mu))), s, j
        return np.linalg.norm(mu, axis=1), s, j

    def growth_left(self, X, p: float) -> np.ndarray:
        """Vectorized left side of the growth condition on a state batch."""
        d, s, j = self.coefficient_norms(X, p)
        return d**p + s**p + j

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
            u = np.broadcast_to(
                np.asarray(self.u, dtype=float).ravel(), x0.shape
            ).copy()
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
    """u + mu - big_jump_mean(nu) on a state batch, the truncated-drift
    density of linear feedback and jump to origin."""
    if policy.kind == "linear":
        return u + policy.drift(X) - big_jump_mean(policy.nu)
    small = (np.linalg.norm(X, axis=1) <= 1.0)[:, None]
    return u - policy.rate * X * small


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
    3.4.1), so the counts are read from one block of ``rng.random`` draws,
    bit for bit; from lam = 10 on it uses PTRS, and ``rng.poisson`` itself
    is called.  When the block runs short, each unfinished draw needs at
    least one more uniform, so exactly that many are drawn and the
    generator never runs ahead of ``rng.poisson``.
    """
    if lam >= 10.0:
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


class _Pair:
    """A (sigma, nu) pair resolved for stepping; it holds the pair, so the ids keying it stay taken."""

    def __init__(self, sigma, nu, dim: int, dt: float):
        if sigma.shape != (dim, dim):
            raise ValueError(f"policy sigma shape {sigma.shape} does not match state dim {dim}")
        # total_mass reads the support, so a malformed one raises here, before any draw
        self.sigma, self.nu, self.mass = sigma, nu, total_mass(nu)
        jumps = self.mass > 0
        self.law = _sampling_law(nu) if jumps else None
        self.m1 = first_moment(nu) if jumps else np.zeros(dim)
        self.big_mean = big_jump_mean(nu) if jumps else np.zeros(dim)
        self.m2_dt = (float(np.trace(second_moment_matrix(nu))) if jumps else 0.0) * dt
        self.sigT, self.cov_dt = sigma.T, (sigma @ sigma.T) * dt


class _StepModel:
    """Per-run kinematics of a policy shape, stepped in place.

    Everything that does not depend on the state (``sigma^T``, ``sigma
    sigma^T dt``, ``m1 dt``, ``m2 dt``, the thinning clock, the validated jump
    law and, for constant actions, the drift and B^h increments) is resolved
    once per run; :meth:`step` then advances the ensemble in preallocated
    buffers.  The result is bit for bit that of the plain update
    ``X = X + drift * dt + dW + disp`` evaluated left to right: where the
    form differs (the one-column matmul, a skipped ``- 0.0``) the two are
    identities, noted where they are used.  Row groups make one
    :meth:`PolicyFieldSpec.coefficients` query per step; a :class:`_Pair`
    seen in the previous step is not resolved again.  The draws per step are
    ``standard_normal((n, dim))``, ``poisson`` for the clock, ``binomial``
    (only when some row's jump rate is below the clock), then the jump
    sizes.  The clock's counts come from one block of uniforms (see
    :func:`_arrivals`) and are bitwise ``Generator.poisson`` for
    lambda dt < 10; thinning and the jump bookkeeping touch only the rows
    that had arrivals.
    """

    def __init__(self, policy: PolicyFieldSpec, dim: int, n: int, u: np.ndarray,
                 dt: float, declared: Optional[float]):
        self.policy, self.dim, self.u, self.dt = policy, dim, u, dt
        self.kind = kind = policy.kind
        self.sqdt = np.sqrt(dt)
        self.xi, self.dWc, self.disp = np.empty((n, dim)), np.empty((n, dim)), np.empty((n, dim))
        if kind == "callable":
            self.declared, self.seen = declared, {}
            self.cov_dt = np.zeros((n, dim, dim))
            return
        pair = _Pair(policy.sigma, policy.nu or ZeroMeasure(dim), dim, dt)
        self.sigT, self.cov_dt = pair.sigT, pair.cov_dt
        if kind == "jump_origin":
            self.mass = policy.rate
        else:
            self.mass, self.m1, self.big_mean, self.law = pair.mass, pair.m1, pair.big_mean, pair.law
            self.m1_dt, self.m2_dt = self.m1 * dt, pair.m2_dt
        self.jumps = self.mass > 0.0
        if self.jumps:
            lam = max(declared or 0.0, self.mass)
            self.lam_dt = lam * dt
            self.p_acc = self.mass / lam
            self.thin = self.p_acc < 1.0 - 1e-15
        if kind == "constant":
            mu = policy.action.mu
            self.drift_dt = (u + mu - self.m1) * dt
            self.bh_dt = (u + mu - self.big_mean) * dt
        elif kind == "linear":
            self.gainT = policy.gain.T
            self.umu = np.empty((n, dim))
            self.drift_dt = np.empty((n, dim))
            self.bh_dt = np.empty((n, dim)) if self.jumps else self.drift_dt
        else:
            self.bh_dt = np.empty((n, dim))
            self.drift_dt = u * dt
            self.m1_dt = np.empty((n, dim))
            self.rsq, self.r, self.g_inc = np.empty(n), np.empty(n), np.empty(n)

    def _resolve(self, X):
        """Row groups: each row's increments, covariance and clock from its pair."""
        mu, self.group, pairs = self.policy.coefficients(X)
        keys = [(id(sigma), id(nu)) for sigma, nu in pairs]
        seen, self.seen = self.seen, {}
        for key, (sigma, nu) in zip(keys, pairs):
            self.seen[key] = self.seen.get(key) or seen.get(key) or _Pair(sigma, nu, self.dim, self.dt)
        self.pairs = [self.seen[key] for key in keys]
        rows = lambda name: np.array([getattr(p, name) for p in self.pairs])[self.group]
        mass, m1, big, self.m2_dt, self.sigT, self.cov_dt = map(
            rows, ("mass", "m1", "big_mean", "m2_dt", "sigT", "cov_dt"))
        top = float(mass.max())
        if self.declared is not None and top > self.declared * (1.0 + 1e-9):
            raise AdmissibilityError(
                f"jump rate {top:g} exceeded the declared thinning bound {self.declared:g}")
        lam = max(self.declared or 0.0, top)
        self.jumps, self.lam_dt, self.p_acc = lam > 0.0, lam * self.dt, mass / (lam or 1.0)
        self.thin = bool(np.any(self.p_acc < 1.0 - 1e-15))
        self.m1_dt = m1 * self.dt
        self.drift_dt = (self.u + mu - m1) * self.dt
        self.bh_dt = (self.u + mu - big) * self.dt

    def step(self, X, Wc, Xd, Bh, G_int, rng):
        """Advance every path by one Euler step in place.

        Returns (sizes, paths) for the jumps taken in this step, each jump's
        size and path, or None when there were none.
        """
        if self.kind == "linear":
            # u + mu(x) once per step; drift and B^h differ only by their means
            _matmul_into(X, self.gainT, self.umu)
            np.subtract(self.policy.offset, self.umu, out=self.umu)
            np.add(self.u, self.umu, out=self.umu)
            if self.jumps:
                np.subtract(self.umu, self.m1, out=self.drift_dt)
                self.drift_dt *= self.dt
                np.subtract(self.umu, self.big_mean, out=self.bh_dt)
                self.bh_dt *= self.dt
            else:
                # m1 and the big-jump mean are +0.0 and x - 0.0 == x, so the
                # drift and B^h increments are one and the same array
                np.multiply(self.umu, self.dt, out=self.drift_dt)
        elif self.kind == "jump_origin":
            np.multiply(X, X, out=self.disp)
            if self.dim == 1:
                self.rsq[:] = self.disp[:, 0]
            else:
                np.add.reduce(self.disp, axis=1, out=self.rsq)
            np.sqrt(self.rsq, out=self.r)
            rate = self.policy.rate
            np.multiply(X, rate, out=self.bh_dt)
            self.bh_dt *= (self.r <= 1.0)[:, None]
            np.subtract(self.u, self.bh_dt, out=self.bh_dt)
            self.bh_dt *= self.dt
        elif self.kind == "callable":
            self._resolve(X)

        rng.standard_normal(out=self.xi)
        dWc = self.dWc
        if self.kind == "callable":
            np.einsum("ij,ijk->ik", self.xi, self.sigT, out=dWc)
        else:
            _matmul_into(self.xi, self.sigT, dWc)
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
            if self.kind == "jump_origin":
                jumps = self._relocate(X, rows, G_int)
            else:
                G_int += self.m2_dt
                jumps = self._draw(rows, counts, rng)

        X += self.drift_dt
        X += dWc
        # without jumps disp is 0.0, and adding it still turns -0.0 into 0.0
        X += self.disp if jumps is not None else 0.0
        Wc += dWc
        if jumps is not None:
            self.disp -= self.m1_dt
            Xd += self.disp
        elif self.jumps:
            Xd += 0.0 - self.m1_dt
        Bh += self.bh_dt
        return jumps

    def _draw(self, rows, counts, rng):
        """Jump sizes for ``counts`` jumps on each of ``rows`` (ascending), in
        row order; row groups draw pair by pair in group order."""
        if not rows.size:
            return None
        paths = np.repeat(rows, counts)
        if self.kind == "callable":
            sizes, of = np.empty((paths.size, self.dim)), self.group[paths]
            for g in np.unique(of):
                sel = of == g
                sizes[sel] = _draw_jumps(self.pairs[g].law, rng, int(np.count_nonzero(sel)))
        else:
            sizes = _draw_jumps(self.law, rng, paths.size)
        self.disp.fill(0.0)
        np.add.at(self.disp, paths, sizes)
        return sizes, paths

    def _relocate(self, X, rows, G_int):
        """Jump-to-origin arrivals on ``rows``, compensator and G increment (before X moves)."""
        rate, dt = self.policy.rate, self.dt
        np.multiply(X, -rate, out=self.m1_dt)
        self.m1_dt *= dt
        np.multiply(self.rsq, rate, out=self.g_inc)
        self.g_inc *= dt
        G_int += self.g_inc
        # at the origin the jump measure is zero; nothing to relocate
        rows = rows[self.r[rows] > 0.0]
        if not rows.size:
            return None
        sizes = -X[rows]
        self.disp.fill(0.0)
        self.disp[rows] = sizes
        # arrivals within one step coalesce into one relocation
        return sizes, rows


def _path_major(a: np.ndarray) -> np.ndarray:
    """A (K, n, ...) snapshot store as the C-contiguous (n, K, ...) bundle array."""
    return np.ascontiguousarray(np.swapaxes(a, 0, 1))


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

    n_steps = max(1, int(round(cfg.T / cfg.dt)))
    dt = cfg.T / n_steps
    mark_step = {}
    for t in map(float, marks):
        if not 0.0 < t <= cfg.T:
            raise ValueError(f"mark {t:g} must lie in (0, T]")
        mark_step[t] = min(n_steps, max(1, int(round(t / dt))))
    store_idx = sorted({*range(0, n_steps + 1, cfg.store_every), n_steps, *mark_step.values()})
    store_pos = {s: j for j, s in enumerate(store_idx)}
    K = len(store_idx)

    # C is per path for row groups
    est_bytes = 8 * n * K * (2 * dim + 3 + (dim * dim if policy.kind == "callable" else 0))
    if est_bytes > 4e9:
        raise ValueError(
            f"snapshot storage would need ~{est_bytes / 1e9:.1f} GB; "
            "increase store_every or reduce n_paths"
        )

    # with neither f nor q, gamma, the discount and the cost stay exactly
    # 0, 1 and 0, and the trapezoid steps are skipped
    costs = f is not None or q is not None
    f_fn, q_fn = _state_fn(f), _state_fn(q)

    declared = cfg.lambda_max
    cap = policy.rate_cap()
    if declared is not None and cap is not None and cap > declared * (1.0 + 1e-9):
        raise AdmissibilityError(
            f"policy jump rate {cap:g} exceeds the declared thinning bound {declared:g}"
        )

    model = _StepModel(policy, dim, n, u, dt, declared)
    rng = np.random.default_rng(cfg.seed)
    X = np.tile(x0, (n, 1))
    gamma = np.zeros(n)
    cost = np.zeros(n)
    Wc = np.zeros((n, dim))
    Xd = np.zeros((n, dim))
    Bh = np.zeros((n, dim))
    sup_xc = np.zeros(n)  # squared until the loop ends (see running_sup)
    sup_xd = np.zeros(n)
    G_int = np.zeros(n)
    sq = np.empty((n, dim))
    norm = np.empty(n)

    # snapshots are stored time-major, so each one is a contiguous copy;
    # the bundle gets them path-major (see _path_major)
    states_st = np.empty((K, n, dim))
    gamma_st = np.empty((K, n))
    cost_st = np.empty((K, n))
    bh_st = np.empty((K, n, dim))
    size_rows, path_rows, time_rows = [], [], []
    kept = {s: None for s in mark_step.values()}  # step -> (sup_xc, sup_xd, G_int) there

    C_cum = np.zeros_like(model.cov_dt)
    C_st = np.zeros((K,) + C_cum.shape)

    q_cur = q_fn(X)
    f_cur = f_fn(X)
    disc_cur = np.ones(n)
    disc_new = np.empty(n)
    trap = np.empty(n)

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
        because a correctly rounded sqrt is monotone.
        """
        np.multiply(V, V, out=sq)
        if dim == 1:
            np.maximum(sup_sq, sq[:, 0], out=sup_sq)
        else:
            np.add.reduce(sq, axis=1, out=norm)
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
                raise AdmissibilityError(
                    f"state blow-up at t={t_next:.6g} (|x| ~ {amax:.3e})"
                )
            if policy.growth_K is not None and policy.growth_p is not None:
                lhs = policy.growth_left(X, policy.growth_p)
                rhs = policy.growth_K * (
                    1.0 + np.linalg.norm(X, axis=1) ** policy.growth_p
                )
                if np.any(lhs > rhs * (1.0 + 1e-9)):
                    raise AdmissibilityError(
                        "growth certificate violated at "
                        f"t={t_next:.6g}: max lhs/rhs = "
                        f"{float(np.max(lhs / rhs)):.3g}"
                    )

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

    log.debug(
        "simulated %d paths x %d steps (%s), %d jumps",
        n, n_steps, policy.describe(), jump_sizes.shape[0],
    )
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


def bellman_series(phi, bundle: PathBundle, f=None, q=None) -> np.ndarray:
    """Accumulated discounted cost plus discounted phi along recorded paths.

    Returns S of shape (n_paths, K) on the bundle's snapshot lattice:
    S_t = int_0^t e^{-gamma} f ds + e^{-gamma_t} phi(X_t).  With ``f`` and
    ``q`` omitted the integrals recorded at full step resolution are used;
    passing them recomputes both by trapezoid on the (coarser) snapshot
    lattice, which is only appropriate for store_every == 1.
    """
    n, K, dim = bundle.states.shape
    flat = bundle.states.reshape(n * K, dim)
    vals = _field_value(phi, flat).reshape(n, K)
    if not np.all(np.isfinite(vals)):
        raise ValueError("phi evaluated non-finite along recorded paths")

    if f is None and q is None:
        gamma = bundle.gamma
        cost = bundle.cost_run
    else:
        f_fn, q_fn = _state_fn(f), _state_fn(q)
        qv = np.empty((n, K))
        fv = np.empty((n, K))
        for j in range(K):
            qv[:, j] = q_fn(bundle.states[:, j, :])
            fv[:, j] = f_fn(bundle.states[:, j, :])
        dts = np.diff(bundle.times)
        gamma = np.zeros((n, K))
        gamma[:, 1:] = np.cumsum(0.5 * (qv[:, :-1] + qv[:, 1:]) * dts, axis=1)
        disc = np.exp(-gamma)
        cost = np.zeros((n, K))
        cost[:, 1:] = np.cumsum(
            0.5 * (disc[:, :-1] * fv[:, :-1] + disc[:, 1:] * fv[:, 1:]) * dts, axis=1
        )
    return cost + np.exp(-gamma) * vals


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

    For constant policies the truncated drift and covariance admit exact
    closed forms, and the empirical jump-size histogram is compared with
    the compensator prediction bin by bin (Poisson standard errors).  For
    state-dependent policies the drift comparison uses a trapezoid
    reconstruction on the snapshot lattice and no histogram prediction is
    made.
    """
    policy = bundle.policy
    times = bundle.times
    T = float(times[-1])
    n = bundle.n_paths
    messages = []

    if policy.kind == "constant":
        rate_vec = bundle.u + policy.action.mu - big_jump_mean(policy.nu)
        pred = times[None, :, None] * rate_vec[None, None, :]
        bh_gap = float(np.max(np.abs(bundle.Bh - pred)))
    elif policy.kind == "callable":
        bh_gap = float("nan")
        messages.append("callable policy: no drift reconstruction")
    else:
        rates = np.stack(
            [_bh_rate(policy, bundle.u, bundle.states[:, j, :]) for j in range(len(times))],
            axis=1,
        )
        mids = np.zeros_like(bundle.Bh)
        mids[:, 1:, :] = np.cumsum(
            0.5 * (rates[:, :-1, :] + rates[:, 1:, :]) * np.diff(times)[None, :, None], axis=1
        )
        bh_gap = float(np.max(np.abs(bundle.Bh - mids)))
        messages.append(
            "state-dependent drift: comparison uses snapshot-lattice trapezoid"
        )

    c_total = bundle.C[:, -1] if bundle.c_per_path else bundle.C[-1]
    c_gap = None if policy.sigma is None else float(
        np.max(np.abs(c_total - policy.sigma @ policy.sigma.T * T)))

    n_jumps = int(bundle.jump_sizes.shape[0])
    rate_obs = n_jumps / (n * T)
    rate_exp = None
    hist_edges = hist_counts = hist_expected = None
    max_z = None
    nu = policy.nu
    if nu is not None:
        mass = total_mass(nu)
        rate_exp = mass
        if n_jumps and mass > 0:
            mags = np.linalg.norm(bundle.jump_sizes, axis=1)
            lo, hi = float(mags.min()), float(mags.max())
            pad = max(1e-9, 0.05 * max(hi - lo, 1e-9))
            hist_edges = np.linspace(lo - pad, hi + pad, n_bins + 1)
            hist_counts, _ = np.histogram(mags, bins=hist_edges)
            pts, w = _support_points(nu)
            pmag = np.linalg.norm(pts, axis=1)
            hist_expected = np.zeros(n_bins)
            for m, wt in zip(pmag, w):
                j = np.searchsorted(hist_edges, m, side="right") - 1
                if 0 <= j < n_bins:
                    hist_expected[j] += wt * n * T
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
