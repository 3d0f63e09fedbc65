"""Path simulation for controlled jump diffusions.

Simulates the fully compensated canonical form

    X_{k+1} = X_k + (u + mu_k - m1(nu_k)) dt + sigma_k sqrt(dt) xi_k + jumps_k

under stationary Markov policy fields.  Jumps arrive by thinning a Poisson
clock whose rate dominates every jump measure's total mass; each accepted
arrival draws its size from the current measure, and the ``- m1 dt`` term is
the compensator drift that makes the jump part a martingale.

Alongside the states the bundle records, per path and on a configurable
storage lattice, the semimartingale characteristics (truncated drift B^h
with h(y) = y 1_{|y| <= 1}, continuous covariance C = int sigma^T sigma ds,
and the full jump history), the discount integral gamma_t = int q ds, the
running discounted cost, the running suprema of the continuous and
compensated-jump martingale parts, and the quadratic jump functional
G_T = int int |y|^2 nu_s(dy) ds.  The verification module consumes these.

Four policy shapes are supported.  Constant actions, linear drift feedback
with constant (sigma, nu), and jump-to-origin policies are simulated fully
vectorized across paths; arbitrary ``x -> Action`` callables fall back to a
per-path loop and are only suitable for small ensembles.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .measures import (
    Action,
    AtomicMeasure,
    JumpMeasure,
    ZeroMeasure,
    _support_points,
    big_jump_mean,
    first_moment,
    moment_functional,
    sample_jumps,
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
    jump_term = 0.0 if isinstance(a.nu, ZeroMeasure) else moment_functional(a.nu, p)
    return mu_term + sig_term + jump_term


@dataclass(frozen=True, eq=False)
class PolicyFieldSpec:
    """A stationary Markov policy field x -> action.

    Construct through the classmethods; ``kind`` selects the simulation
    path.  ``growth_K``/``growth_p`` form an optional growth certificate
    (claim of membership in the polynomial-growth Markov class); when
    present the simulator spot-checks it along paths and raises
    :class:`AdmissibilityError` on violation.
    """

    kind: str
    action: Optional[Action] = None
    gain: Optional[np.ndarray] = None
    offset: Optional[np.ndarray] = None
    sigma: Optional[np.ndarray] = None
    nu: Optional[JumpMeasure] = None
    rate: float = 0.0
    fn: Optional[Callable] = None
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
            kind="constant", action=action, growth_K=growth_K,
            growth_p=growth_p, name=name or "constant",
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
            kind="jump_origin", rate=float(rate), sigma=_as_matrix(sigma, dim),
            growth_K=growth_K, growth_p=growth_p, name=name or "jump-to-origin",
        )

    @classmethod
    def from_action_callable(cls, fn, rate_bound=None, growth_K=None,
                             growth_p=None, name=""):
        """Wrap an arbitrary x -> Action map (per-path loop; small runs only)."""
        return cls(
            kind="callable", fn=fn, rate_bound=rate_bound, growth_K=growth_K,
            growth_p=growth_p, name=name or "callable",
        )

    @classmethod
    def from_policy_table(cls, table, prob, name=""):
        """Nearest-node lookup into a solved policy table."""
        grid = table.grid

        def lookup(x):
            pt = np.atleast_1d(np.asarray(x, dtype=float))
            idx = []
            for k, ax in enumerate(grid.axes):
                j = int(np.clip(np.rint((pt[k] - ax[0]) / grid.h[k]), 0, ax.size - 1))
                idx.append(j)
            flat = idx[0] if grid.dim == 1 else idx[0] * grid.shape[1] + idx[1]
            if prob.mode == "list":
                entry = prob.actions[table.action_index[flat]]
                if isinstance(entry, Action):
                    return entry
                return entry(pt[0] if grid.dim == 1 else pt.copy())
            sigma, nu = prob.sigma_nu_pairs[table.action_index[flat]]
            return Action(sigma=sigma, nu=nu, mu=table.mu[flat])

        bound = None
        if prob.mode == "product":
            bound = max(total_mass(nu) for _, nu in prob.sigma_nu_pairs)
        elif all(isinstance(e, Action) for e in prob.actions):
            bound = max(total_mass(e.nu) for e in prob.actions)
        return cls(
            kind="callable", fn=lookup, rate_bound=bound,
            name=name or "policy-table",
        )

    # ------------------------------------------------------------- queries
    def action_at(self, X):
        """Resolve the policy on a state batch of shape (m, dim).

        Returns the single Action for constant policies and a list of
        per-row Actions otherwise.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.kind == "constant":
            return self.action
        if self.kind == "linear":
            mus = self.offset - X @ self.gain.T
            return [Action(self.sigma, self.nu, mus[i]) for i in range(len(X))]
        if self.kind == "jump_origin":
            out = []
            dim = X.shape[1]
            for row in X:
                if np.linalg.norm(row) < 1e-12 or self.rate == 0.0:
                    out.append(Action(self.sigma, ZeroMeasure(dim), np.zeros(dim)))
                else:
                    nu = AtomicMeasure(dim, locations=[-row], masses=[self.rate])
                    out.append(Action(self.sigma, nu, -self.rate * row))
            return out
        return [
            self.fn(X[i, 0] if X.shape[1] == 1 else X[i].copy())
            for i in range(len(X))
        ]

    def rate_cap(self) -> Optional[float]:
        """A known upper bound on the jump rate, if any."""
        if self.kind == "constant":
            return total_mass(self.action.nu)
        if self.kind == "linear":
            return total_mass(self.nu)
        if self.kind == "jump_origin":
            return self.rate
        return self.rate_bound

    def describe(self) -> str:
        return f"{self.name}[{self.kind}]"

    def growth_left(self, X, p: float) -> np.ndarray:
        """Vectorized left side of the growth condition on a state batch."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        r = np.linalg.norm(X, axis=1)
        if self.kind == "constant":
            return np.full(len(X), gm_left_side(self.action, p))
        if self.kind == "linear":
            mus = self.offset - X @ self.gain.T
            base = float(np.linalg.norm(self.sigma)) ** p
            if not isinstance(self.nu, ZeroMeasure):
                base += moment_functional(self.nu, p)
            return np.linalg.norm(mus, axis=1) ** p + base
        if self.kind == "jump_origin":
            sig = float(np.linalg.norm(self.sigma)) ** p
            jump = self.rate * np.maximum(r ** 2, r ** p)
            return (self.rate * r) ** p + sig + jump
        acts = self.action_at(X)
        return np.array([gm_left_side(a, p) for a in acts])


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
    record_characteristics: bool = True
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

    ``states``/``gamma``/``cost_run``/``Bh``/``jump_counts`` have the path
    axis first and the time axis second; ``C`` is shared across paths
    (shape (K, dim, dim)) unless the policy was a raw callable, in which
    case it is per path.  ``sup_xc``/``sup_xd`` track the running suprema
    of the continuous and compensated-jump martingale parts at full step
    resolution, and ``G_int`` is the terminal quadratic jump functional
    int_0^T int |y|^2 nu_s(dy) ds per path.
    """

    times: np.ndarray
    states: np.ndarray
    gamma: np.ndarray
    cost_run: np.ndarray
    Bh: np.ndarray
    C: np.ndarray
    c_per_path: bool
    jump_counts: np.ndarray
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

    @property
    def cost_disc(self) -> np.ndarray:
        """Discounted running cost accumulated over the whole horizon."""
        return self.cost_run[:, -1]

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[2]

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


def _state_fn(fn, n: int):
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


class _StepModel:
    """Per-step kinematics resolved from the policy, vectorized over paths."""

    def __init__(self, policy: PolicyFieldSpec, dim: int, n: int, u: np.ndarray):
        self.policy = policy
        self.dim = dim
        self.n = n
        self.u = u
        kind = policy.kind
        if kind in ("constant", "linear"):
            if kind == "constant":
                a = policy.action
                self.sigma = np.asarray(a.sigma, dtype=float)
                self.nu = a.nu
                self.mu_const = np.asarray(a.mu, dtype=float)
            else:
                self.sigma = policy.sigma
                self.nu = policy.nu
                self.mu_const = None
            if self.sigma.shape != (dim, dim):
                raise ValueError(
                    f"policy sigma shape {self.sigma.shape} does not match state dim {dim}"
                )
            self.mass = total_mass(self.nu)
            self.m1 = first_moment(self.nu) if self.mass > 0 else np.zeros(dim)
            self.big_mean = big_jump_mean(self.nu) if self.mass > 0 else np.zeros(dim)
            self.m2 = (
                float(np.trace(second_moment_matrix(self.nu))) if self.mass > 0 else 0.0
            )
        elif kind == "jump_origin":
            self.sigma = policy.sigma
            if self.sigma.shape != (dim, dim):
                raise ValueError("jump-to-origin sigma does not match state dim")
            self.mass = policy.rate
        else:
            self.sigma = None
            self.mass = None  # state dependent; resolved per step

    def drift_eff(self, X):
        """u + mu - m1(nu) on the batch (the compensated total drift)."""
        if self.policy.kind == "constant":
            return self.u + self.mu_const - self.m1
        if self.policy.kind == "linear":
            mus = self.policy.offset - X @ self.policy.gain.T
            return self.u + mus - self.m1
        if self.policy.kind == "jump_origin":
            # mu = -rate x equals the compensator; they cancel exactly
            return np.broadcast_to(self.u, X.shape)
        raise RuntimeError("callable policies use the slow path")

    def bh_rate(self, X):
        """u + mu - big_jump_mean(nu): the truncated-drift density."""
        if self.policy.kind == "constant":
            return np.broadcast_to(self.u + self.mu_const - self.big_mean, X.shape)
        if self.policy.kind == "linear":
            mus = self.policy.offset - X @ self.policy.gain.T
            return self.u + mus - self.big_mean
        if self.policy.kind == "jump_origin":
            r = np.linalg.norm(X, axis=1)
            small = (r <= 1.0)[:, None]
            return self.u - self.policy.rate * X * small
        raise RuntimeError("callable policies use the slow path")


def simulate(policy: PolicyFieldSpec, cfg: SimConfig, f=None, q=None) -> PathBundle:
    """Run the Euler thinning scheme and record the path bundle.

    ``f`` and ``q`` are state-batch callables (m, dim) -> (m,) (or scalars)
    giving the running cost and discount rate along the chosen policy; both
    default to zero.  The discount integral uses the trapezoid rule at full
    step resolution, as does the discounted-cost integral.
    """
    x0 = cfg.x0
    dim = x0.size
    n = cfg.n_paths
    u = cfg.u if cfg.u is not None else np.zeros(dim)

    n_steps = max(1, int(round(cfg.T / cfg.dt)))
    dt = cfg.T / n_steps
    sqdt = np.sqrt(dt)
    store_idx = list(range(0, n_steps + 1, cfg.store_every))
    if store_idx[-1] != n_steps:
        store_idx.append(n_steps)
    store_pos = {s: j for j, s in enumerate(store_idx)}
    K = len(store_idx)

    per_path_c = policy.kind == "callable"
    est_bytes = 8 * n * K * (2 * dim + 3 + (dim * dim if per_path_c else 0))
    if est_bytes > 4e9:
        raise ValueError(
            f"snapshot storage would need ~{est_bytes / 1e9:.1f} GB; "
            "increase store_every or reduce n_paths"
        )

    f_fn = _state_fn(f, n)
    q_fn = _state_fn(q, n)

    declared = cfg.lambda_max
    cap = policy.rate_cap()
    if declared is not None and cap is not None and cap > declared * (1.0 + 1e-9):
        raise AdmissibilityError(
            f"policy jump rate {cap:g} exceeds the declared thinning bound {declared:g}"
        )

    rng = np.random.default_rng(cfg.seed)
    X = np.tile(x0, (n, 1))
    gamma = np.zeros(n)
    cost = np.zeros(n)
    Wc = np.zeros((n, dim))
    Xd = np.zeros((n, dim))
    Bh = np.zeros((n, dim))
    sup_xc = np.zeros(n)
    sup_xd = np.zeros(n)
    G_int = np.zeros(n)
    jumps_cum = np.zeros(n, dtype=np.int64)

    states_st = np.empty((n, K, dim))
    gamma_st = np.empty((n, K))
    cost_st = np.empty((n, K))
    bh_st = np.empty((n, K, dim))
    counts_st = np.zeros((n, K), dtype=np.int64)
    size_rows, path_rows, time_rows = [], [], []

    if per_path_c:
        C_st = np.zeros((n, K, dim, dim))
        C_cum = np.zeros((n, dim, dim))
    else:
        C_st = np.zeros((K, dim, dim))
        C_cum = np.zeros((dim, dim))

    model = _StepModel(policy, dim, n, u) if not per_path_c else None

    q_cur = q_fn(X)
    f_cur = f_fn(X)
    disc_cur = np.ones(n)

    def snapshot(j):
        states_st[:, j, :] = X
        gamma_st[:, j] = gamma
        cost_st[:, j] = cost
        bh_st[:, j, :] = Bh
        counts_st[:, j] = jumps_cum
        if per_path_c:
            C_st[:, j] = C_cum
        else:
            C_st[j] = C_cum

    snapshot(0)
    check_every = max(1, n_steps // 64)

    for k in range(n_steps):
        if not per_path_c:
            drift = model.drift_eff(X)
            bh_inc = model.bh_rate(X) * dt
            sig = model.sigma
            xi = rng.standard_normal((n, dim))
            dWc = (xi @ sig.T) * sqdt
            disp = np.zeros((n, dim))
            m1_step = np.zeros((n, dim))
            if policy.kind in ("constant", "linear") and model.mass > 0.0:
                lam = max(declared or 0.0, model.mass)
                counts = rng.poisson(lam * dt, n)
                p_acc = model.mass / lam
                accepted = (
                    counts if p_acc >= 1.0 - 1e-15 else rng.binomial(counts, p_acc)
                )
                tot = int(accepted.sum())
                if tot:
                    sizes = sample_jumps(model.nu, rng, tot)
                    rows = np.repeat(np.arange(n), accepted)
                    np.add.at(disp, rows, sizes)
                    size_rows.append(sizes)
                    path_rows.append(rows)
                    time_rows.append(np.full(tot, (k + 1) * dt))
                    jumps_cum += accepted
                m1_step[:] = model.m1
                G_int += model.m2 * dt
            elif policy.kind == "jump_origin" and policy.rate > 0.0:
                lam = max(declared or 0.0, policy.rate)
                counts = rng.poisson(lam * dt, n)
                p_acc = policy.rate / lam
                accepted = (
                    counts if p_acc >= 1.0 - 1e-15 else rng.binomial(counts, p_acc)
                )
                # at the origin the jump measure is zero; nothing to relocate
                jumped = (accepted > 0) & (np.linalg.norm(X, axis=1) > 0.0)
                if jumped.any():
                    disp[jumped] = -X[jumped]
                    sizes = -X[jumped]
                    size_rows.append(sizes.copy())
                    path_rows.append(np.nonzero(jumped)[0])
                    time_rows.append(np.full(int(jumped.sum()), (k + 1) * dt))
                    jumps_cum += jumped
                m1_step = -policy.rate * X
                G_int += policy.rate * np.sum(X * X, axis=1) * dt
            C_cum = C_cum + (sig.T @ sig) * dt
        else:
            acts = policy.action_at(X)
            drift = np.empty((n, dim))
            bh_inc = np.empty((n, dim))
            dWc = np.empty((n, dim))
            disp = np.zeros((n, dim))
            m1_step = np.zeros((n, dim))
            masses = np.array([total_mass(a.nu) for a in acts])
            if declared is not None and masses.max(initial=0.0) > declared * (1.0 + 1e-9):
                raise AdmissibilityError(
                    "jump rate exceeded the declared thinning bound at "
                    f"t={k * dt:.6g}"
                )
            lam = max(declared or 0.0, float(masses.max(initial=0.0)))
            counts = rng.poisson(lam * dt, n) if lam > 0.0 else np.zeros(n, dtype=int)
            xi = rng.standard_normal((n, dim))
            for i, a in enumerate(acts):
                sig_i = np.asarray(a.sigma, dtype=float)
                mu_i = np.asarray(a.mu, dtype=float)
                m1_i = first_moment(a.nu) if masses[i] > 0 else np.zeros(dim)
                big_i = big_jump_mean(a.nu) if masses[i] > 0 else np.zeros(dim)
                drift[i] = u + mu_i - m1_i
                bh_inc[i] = (u + mu_i - big_i) * dt
                dWc[i] = sig_i @ xi[i] * sqdt
                m1_step[i] = m1_i
                C_cum[i] += (sig_i.T @ sig_i) * dt
                if masses[i] > 0:
                    G_int[i] += float(np.trace(second_moment_matrix(a.nu))) * dt
                    acc = 0
                    for _ in range(counts[i]):
                        if rng.random() <= masses[i] / lam:
                            acc += 1
                    if acc:
                        sizes = sample_jumps(a.nu, rng, acc)
                        disp[i] = sizes.sum(axis=0)
                        size_rows.append(sizes)
                        path_rows.append(np.full(acc, i))
                        time_rows.append(np.full(acc, (k + 1) * dt))
                        jumps_cum[i] += acc

        X = X + drift * dt + dWc + disp
        Wc += dWc
        Xd += disp - m1_step * dt
        Bh += bh_inc
        np.maximum(sup_xc, np.linalg.norm(Wc, axis=1), out=sup_xc)
        np.maximum(sup_xd, np.linalg.norm(Xd, axis=1), out=sup_xd)

        q_new = q_fn(X)
        f_new = f_fn(X)
        gamma = gamma + 0.5 * (q_cur + q_new) * dt
        disc_new = np.exp(-gamma)
        cost = cost + 0.5 * (disc_cur * f_cur + disc_new * f_new) * dt
        q_cur, f_cur, disc_cur = q_new, f_new, disc_new

        if (k + 1) % check_every == 0 or k + 1 == n_steps:
            amax = float(np.max(np.abs(X)))
            if not np.isfinite(amax) or amax > _BLOWUP_LIMIT:
                raise AdmissibilityError(
                    f"state blow-up at t={(k + 1) * dt:.6g} (|x| ~ {amax:.3e})"
                )
            if policy.growth_K is not None and policy.growth_p is not None:
                lhs = policy.growth_left(X, policy.growth_p)
                rhs = policy.growth_K * (
                    1.0 + np.linalg.norm(X, axis=1) ** policy.growth_p
                )
                if np.any(lhs > rhs * (1.0 + 1e-9)):
                    raise AdmissibilityError(
                        "growth certificate violated at "
                        f"t={(k + 1) * dt:.6g}: max lhs/rhs = "
                        f"{float(np.max(lhs / rhs)):.3g}"
                    )

        if (k + 1) in store_pos:
            snapshot(store_pos[k + 1])

    times = np.asarray(store_idx, dtype=float) * dt
    if size_rows:
        jump_sizes = np.concatenate(size_rows, axis=0)
        jump_paths = np.concatenate(path_rows).astype(np.int64)
        jump_times = np.concatenate(time_rows)
    else:
        jump_sizes = np.zeros((0, dim))
        jump_paths = np.zeros(0, dtype=np.int64)
        jump_times = np.zeros(0)

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
        c_per_path=per_path_c,
        jump_counts=counts_st,
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
    if hasattr(phi, "value"):
        vals = phi.value(flat[:, 0] if dim == 1 else flat)
    else:
        vals = np.asarray(phi(flat), dtype=float)
    vals = np.asarray(vals, dtype=float).reshape(n, K)
    if not np.all(np.isfinite(vals)):
        raise ValueError("phi evaluated non-finite along recorded paths")

    if f is None and q is None:
        gamma = bundle.gamma
        cost = bundle.cost_run
    else:
        f_fn = _state_fn(f, n)
        q_fn = _state_fn(q, n)
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
    if not bundle.cfg.record_characteristics:
        raise ValueError("characteristics were not recorded for this bundle")
    policy = bundle.policy
    times = bundle.times
    T = float(times[-1])
    n = bundle.n_paths
    messages = []

    if policy.kind == "constant":
        a = policy.action
        mass = total_mass(a.nu)
        rate_vec = bundle.u + np.asarray(a.mu, dtype=float) - (
            big_jump_mean(a.nu) if mass > 0 else 0.0
        )
        pred = times[None, :, None] * rate_vec[None, None, :]
        bh_gap = float(np.max(np.abs(bundle.Bh - pred)))
    else:
        mids = np.empty_like(bundle.Bh)
        mids[:, 0, :] = 0.0
        if policy.kind in ("linear", "jump_origin"):
            model = _StepModel(policy, bundle.dim, n, bundle.u)
            rates = np.stack(
                [model.bh_rate(bundle.states[:, j, :]) for j in range(len(times))],
                axis=1,
            )
            dts = np.diff(times)[None, :, None]
            mids[:, 1:, :] = np.cumsum(
                0.5 * (rates[:, :-1, :] + rates[:, 1:, :]) * dts, axis=1
            )
            bh_gap = float(np.max(np.abs(bundle.Bh - mids)))
            messages.append(
                "state-dependent drift: comparison uses snapshot-lattice trapezoid"
            )
        else:
            bh_gap = float("nan")
            messages.append("callable policy: no drift reconstruction")

    c_gap = None
    c_total = bundle.C[-1] if not bundle.c_per_path else bundle.C[:, -1]
    if policy.kind != "callable":
        sigma = (
            np.asarray(policy.action.sigma, dtype=float)
            if policy.kind == "constant"
            else policy.sigma
        )
        c_gap = float(np.max(np.abs(c_total - sigma.T @ sigma * T)))

    n_jumps = int(bundle.jump_sizes.shape[0])
    rate_obs = n_jumps / (n * T)
    rate_exp = None
    hist_edges = hist_counts = hist_expected = None
    max_z = None
    const_nu = policy.kind in ("constant", "linear")
    if const_nu:
        nu = policy.action.nu if policy.kind == "constant" else policy.nu
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
