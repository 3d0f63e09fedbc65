"""Statistical verifiers for simulated control policies.

Four families of checks, all reporting through :class:`TestReport` with
3-standard-error decision thresholds.  Every battery but the static audit
reads a recorded :class:`~jumpctl.dynamics.PathBundle`, so one simulated
ensemble can serve several of them:

* sub/martingale structure of an accumulated-cost-plus-value series,
  binned by the starting state so drift cannot hide in conditioning;
* transversality: the discounted value along the recorded paths must
  eventually decrease and fit a decaying exponential whose rate confidence
  band excludes zero (a sufficient surrogate for the limit condition, not
  an equivalent one; reports say so);
* pathwise integrability of Q_s = |mu_s| + tr C_s + int |y|^2 v |y|^p nu_s(dy),
  C = sigma sigma^T + Sigma_eps, the quantity whose finiteness admissibility
  requires, with the terms from
  :meth:`~jumpctl.dynamics.PolicyFieldSpec.coefficient_norms`;
* static growth-certificate audits of a policy field over a probe box.

There is also a Dynkin-formula battery for every policy shape (compensated
test functions must be centered), a moment-bound ratio report that tracks
E[sup |X^d|^q] against its predicted bound across horizons, and the Monte
Carlo dynamic-programming check of a solved value field (:func:`dpp_report`),
which compares the value at each probe state with the best trial policy's
estimate of the discounted running cost to a horizon plus the discounted
value there. A policy is read only through ``PolicyFieldSpec.coefficients``,
a cost along it only through :func:`costs_along` (the solver's
``hjb._row_costs`` per (sigma, nu) group), and a field through the generator
module's one rule for a state batch.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .dynamics import PathBundle, PolicyFieldSpec, SimConfig, simulate
from .generator import _field_value, _generator
from .hjb import Grid, HJBProblem, ValueField, _lattice_origin, _row_costs
from .measures import Action, RelocationKernel, tail_moment

__all__ = [
    "TestReport",
    "submartingale_test",
    "transversality_test",
    "h2_integrability_check",
    "growth_certificate_check",
    "dynkin_test",
    "moment_bound_report",
    "costs_along",
    "DppReport",
    "dpp_report",
]

log = logging.getLogger(__name__)

Z_THRESHOLD = 3.0
MIN_ENSEMBLE = 1000
# a decay-rate certificate is refused when one path carries more than this
# share of the estimator mass somewhere in the fit window: the plug-in SE
# of a mean that is dominated by single draws is anti-conservative
MAX_PATH_SHARE = 0.05


@dataclass
class TestReport:
    """Outcome of one verifier run.

    ``passed`` is always a pure function of ``statistics`` and
    ``thresholds``, so a report can be re-audited without re-running the
    simulation that produced it.
    """

    name: str
    passed: bool
    statistics: dict
    thresholds: dict
    n_samples: int
    messages: tuple = ()

    def to_json(self, indent=None) -> str:
        return json.dumps(
            {
                "name": self.name,
                "passed": bool(self.passed),
                "statistics": _jsonable(self.statistics),
                "thresholds": _jsonable(self.thresholds),
                "n_samples": int(self.n_samples),
                "messages": list(self.messages),
            },
            indent=indent,
        )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def _nearest_index(times: np.ndarray, t: float) -> int:
    return int(np.argmin(np.abs(times - t)))


def _groups(group, pairs):
    """(rows, sigma, nu) per (sigma, nu) pair of a ``coefficients`` query, rows in
    batch order; one pair covers the batch, with rows ``slice(None)``."""
    if len(pairs) == 1:
        return [(slice(None), *pairs[0])]
    order = np.argsort(group, kind="stable")
    parts = np.split(order, np.flatnonzero(np.diff(group[order])) + 1)
    return [(part, *pairs[group[part[0]]]) for part in parts if len(part)]


def costs_along(fn, policy: PolicyFieldSpec):
    """A cost or discount of the solver's form along a policy, as a map of (m, dim)
    state batches to (m,): one ``hjb._row_costs`` call per (sigma, nu) group of
    ``policy.coefficients``. A constant stays a float."""
    if not callable(fn):
        return float(fn)
    rows = _row_costs(fn)

    def at(X):
        mu, group, pairs = policy.coefficients(X)
        x, out = (X[:, 0] if X.shape[1] == 1 else X), np.empty(len(X))
        for part, sigma, nu in _groups(group, pairs):
            out[part] = rows(x[part], sigma, nu, mu[part])
        return out

    return at


# ---------------------------------------------------------------------------
# sub/martingale structure


def submartingale_test(
    S: np.ndarray,
    bundle: PathBundle,
    pairs: Sequence,
    n_bins: int = 8,
    mode: str = "sub",
    min_bin_count: int = 50,
) -> TestReport:
    """Binned conditional-increment sign test of an ensemble series.

    ``S`` has one row per path on the bundle's snapshot lattice; ``pairs``
    lists (s, t) times with s < t.  Paths are bucketed by the state at s
    (quantile bins), and within each sufficiently populated bin the mean
    of S_t - S_s must be >= -3 SE ("sub" mode) or within 3 SE of zero
    ("martingale" mode).  Undersampled bins are flagged and excluded.
    """
    S = np.asarray(S, dtype=float)
    n, K = S.shape
    if n < MIN_ENSEMBLE:
        raise ValueError(f"ensemble of {n} paths is below the minimum {MIN_ENSEMBLE}")
    if S.shape[1] != bundle.times.size:
        raise ValueError("series does not match the bundle's snapshot lattice")
    if mode not in ("sub", "martingale"):
        raise ValueError("mode must be 'sub' or 'martingale'")

    messages = []
    pair_stats = []
    all_ok = True
    any_included = False
    for s, t in pairs:
        si, ti = _nearest_index(bundle.times, s), _nearest_index(bundle.times, t)
        if si >= ti:
            raise ValueError(f"pair ({s}, {t}) does not resolve to increasing indices")
        xs = (
            bundle.states[:, si, 0]
            if bundle.dim == 1
            else np.linalg.norm(bundle.states[:, si, :], axis=1)
        )
        inc = S[:, ti] - S[:, si]
        edges = np.unique(np.quantile(xs, np.linspace(0.0, 1.0, n_bins + 1)))
        if edges.size < 2:
            assign = np.zeros(n, dtype=int)
            n_eff = 1
        else:
            assign = np.clip(np.searchsorted(edges, xs, side="right") - 1, 0, edges.size - 2)
            n_eff = edges.size - 1
        bins = []
        for b in range(n_eff):
            sel = assign == b
            m = int(sel.sum())
            if m < min_bin_count:
                bins.append({"bin": b, "count": m, "excluded": True})
                continue
            any_included = True
            mean = float(inc[sel].mean())
            se = float(inc[sel].std(ddof=1) / np.sqrt(m)) if m > 1 else 0.0
            if mode == "sub":
                ok = mean >= -Z_THRESHOLD * se
            else:
                ok = abs(mean) <= Z_THRESHOLD * se
            all_ok &= ok
            bins.append(
                {
                    "bin": b, "count": m, "mean": mean, "se": se,
                    "z": mean / se if se > 0 else 0.0, "ok": ok, "excluded": False,
                }
            )
        n_excl = sum(1 for b in bins if b["excluded"])
        if n_excl:
            messages.append(
                f"pair ({s:g}, {t:g}): {n_excl} undersampled bin(s) excluded"
            )
        pair_stats.append(
            {"s": float(bundle.times[si]), "t": float(bundle.times[ti]), "bins": bins}
        )
    if not any_included:
        all_ok = False
        messages.append("no bin reached the minimum population; nothing was tested")
    return TestReport(
        name="submartingale-binned" if mode == "sub" else "martingale-binned",
        passed=bool(all_ok),
        statistics={"pairs": pair_stats},
        thresholds={"z": Z_THRESHOLD, "min_bin_count": min_bin_count},
        n_samples=n,
        messages=tuple(messages),
    )


# ---------------------------------------------------------------------------
# transversality


def _wls_line(t: np.ndarray, y: np.ndarray, var: np.ndarray):
    """Weighted least squares fit y ~ a + b t; returns (b, var_b)."""
    w = 1.0 / np.maximum(var, 1e-30)
    tw = float((w * t).sum() / w.sum())
    yw = float((w * y).sum() / w.sum())
    s_tt = float((w * (t - tw) ** 2).sum())
    if s_tt <= 0.0:
        raise ValueError("degenerate time lattice for the rate fit")
    b = float((w * (t - tw) * (y - yw)).sum() / s_tt)
    return b, 1.0 / s_tt


def transversality_test(
    bundle: PathBundle,
    phi,
    t_lattice: Optional[np.ndarray] = None,
    window: float = 0.5,
) -> TestReport:
    """Decay test for m(t) = E[e^{-gamma_t} phi(X_t)] along a recorded bundle.

    The bundle's discount integral gamma is the one it was simulated with,
    so the discount rate q goes to :func:`~jumpctl.dynamics.simulate`.  Over
    the trailing ``window`` fraction of the lattice the test requires
    (a) no consecutive increment significantly positive and (b) a weighted
    log-linear fit m ~ A e^{-rt} whose rate is positive with the 3-SE band
    excluding zero.  This pair of checks is sufficient for the discounted
    value to vanish along the lattice, but not equivalent to the liminf
    statement it stands in for; the report says so.
    """
    times = bundle.times
    if t_lattice is not None:
        idx = sorted({_nearest_index(times, t) for t in np.asarray(t_lattice, float)})
        if len(idx) < 4:
            raise ValueError("time lattice resolves to fewer than 4 snapshot points")
    else:
        idx = list(range(times.size))
    tsel = times[idx]
    n = bundle.n_paths

    Y = np.empty((n, len(idx)))
    for j, k in enumerate(idx):
        vals = _field_value(phi, bundle.states[:, k, :])
        Y[:, j] = np.exp(-bundle.gamma[:, k]) * vals
    m = Y.mean(axis=0)
    se = Y.std(axis=0, ddof=1) / np.sqrt(n)

    w0 = np.searchsorted(tsel, (1.0 - window) * tsel[-1])
    w0 = min(max(w0, 0), len(tsel) - 3)
    win = slice(w0, len(tsel))
    messages = [
        "eventual-decay + positive-rate fit is sufficient for the limit "
        "condition, not equivalent",
        "rate CI treats lattice points as independent although paths are shared",
    ]

    dec_ok = True
    for j in range(w0, len(tsel) - 1):
        d = Y[:, j + 1] - Y[:, j]
        d_se = d.std(ddof=1) / np.sqrt(n)
        if d.mean() > Z_THRESHOLD * d_se:
            dec_ok = False
            messages.append(
                f"significant increase of m between t={tsel[j]:g} and t={tsel[j + 1]:g}"
            )
            break

    scale = float(np.max(np.abs(m))) if np.max(np.abs(m)) > 0 else 1.0
    mw, sew, tw = m[win], se[win], tsel[win]
    absY = np.abs(Y[:, win])
    mass = absY.sum(axis=0)
    share = float(np.max(absY.max(axis=0) / np.maximum(mass, 1e-300)))
    r_hat, r_se = np.nan, np.nan
    if np.all(np.abs(mw) <= 1e-12 * scale):
        rate_ok = True
        messages.append("tail is numerically zero; rate fit skipped")
    elif share > MAX_PATH_SHARE:
        rate_ok = False
        messages.append(
            f"a single path carries {share:.1%} of the estimator mass in the "
            "fit window; the rate CI is untrustworthy and no decay is certified"
        )
    elif np.any(mw <= 0.0):
        rate_ok = False
        messages.append("m(t) is not positive on the window; no exponential fit")
    else:
        y = np.log(mw)
        var_y = (np.maximum(sew, 1e-12 * np.abs(mw)) / mw) ** 2
        slope, var_b = _wls_line(tw, y, var_y)
        r_hat, r_se = -slope, float(np.sqrt(var_b))
        rate_ok = r_hat - Z_THRESHOLD * r_se > 0.0

    passed = bool(dec_ok and rate_ok)
    return TestReport(
        name="transversality",
        passed=passed,
        statistics={
            "times": tsel, "m": m, "se": se,
            "window_start": float(tsel[w0]), "rate": r_hat, "rate_se": r_se,
            "eventually_decreasing": dec_ok, "max_path_share": share,
        },
        thresholds={"z": Z_THRESHOLD},
        n_samples=n,
        messages=tuple(messages),
    )


# ---------------------------------------------------------------------------
# pathwise integrability


def h2_integrability_check(bundle: PathBundle, p: float) -> TestReport:
    """Pathwise integral of Q_s on the snapshot lattice, plus its moment.

    PASS needs the integral finite on every path, its empirical p/2-moment
    finite, and (when the policy declares a growth certificate) no
    violation of that certificate on any visited snapshot state.
    """
    if p < 2.0:
        raise ValueError("the moment order p must be at least 2")
    times = bundle.times
    n, K, dim = bundle.states.shape
    parts = [bundle.policy.coefficient_norms(bundle.states[:, j, :], p) for j in range(K)]
    drift, sig, jump = (np.stack(c, axis=1) for c in zip(*parts))
    diff = sig**2
    Q = drift + diff + jump
    dts = np.diff(times)
    integral = np.sum(0.5 * (Q[:, :-1] + Q[:, 1:]) * dts[None, :], axis=1)

    finite_ok = bool(np.all(np.isfinite(integral)))
    moment = float(np.mean(integral ** (p / 2.0))) if finite_ok else float("inf")
    moment_ok = bool(np.isfinite(moment))

    messages = []
    cert_ok = True
    if bundle.policy.growth_K is not None and bundle.policy.growth_p is not None:
        flat = bundle.states.reshape(n * K, dim)
        if len(flat) > 100_000:
            flat = flat[:: int(np.ceil(len(flat) / 100_000))]
        lhs = bundle.policy.growth_left(flat, bundle.policy.growth_p)
        rhs = bundle.policy.growth_K * (
            1.0 + np.linalg.norm(flat, axis=1) ** bundle.policy.growth_p
        )
        if np.any(lhs > rhs * (1.0 + 1e-9)):
            cert_ok = False
            messages.append("growth certificate violated on visited states")

    return TestReport(
        name="pathwise-integrability",
        passed=finite_ok and moment_ok and cert_ok,
        statistics={
            "integral_max": float(np.max(integral)),
            "integral_mean": float(np.mean(integral)),
            "moment_p_half": moment,
            "mean_drift_part": float(np.mean(np.sum(0.5 * (drift[:, :-1] + drift[:, 1:]) * dts, axis=1))),
            "mean_diffusion_part": float(np.mean(np.sum(0.5 * (diff[:, :-1] + diff[:, 1:]) * dts, axis=1))),
            "mean_jump_part": float(np.mean(np.sum(0.5 * (jump[:, :-1] + jump[:, 1:]) * dts, axis=1))),
        },
        thresholds={"p": p},
        n_samples=n,
        messages=tuple(messages),
    )


# ---------------------------------------------------------------------------
# growth certificate


def growth_certificate_check(
    policy: PolicyFieldSpec,
    box,
    K: float,
    p: float,
    n_per_axis: int = 41,
) -> TestReport:
    """Audit |mu|^p + ||sigma||^p + int |z|^2 v |z|^p nu <= K (1 + |x|^p).

    Evaluates the left side on a tensor lattice over ``box`` ((lo, hi)
    per axis, or scalars in one dimension) and reports the worst ratio.
    """
    lo, hi = box
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != hi.shape or np.any(hi <= lo):
        raise ValueError("box must satisfy lo < hi per axis")
    axes = [np.linspace(a, b, n_per_axis) for a, b in zip(lo, hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)

    lhs = policy.growth_left(pts, p)
    rhs = K * (1.0 + np.linalg.norm(pts, axis=1) ** p)
    ratio = lhs / rhs
    worst = int(np.argmax(ratio))
    passed = bool(np.all(lhs <= rhs * (1.0 + 1e-12)))
    return TestReport(
        name="growth-certificate",
        passed=passed,
        statistics={
            "worst_ratio": float(ratio[worst]),
            "worst_point": pts[worst],
            "K": float(K),
            "p": float(p),
        },
        thresholds={"ratio": 1.0},
        n_samples=len(pts),
        messages=(),
    )


# ---------------------------------------------------------------------------
# Dynkin battery


def dynkin_test(bundle: PathBundle, fields, t_points) -> TestReport:
    """Mean-zero check of g(X_t) - g(x0) - int_0^t L^{u(X_s)} g(X_s) ds.

    Any policy shape: each snapshot is read once through
    ``policy.coefficients``, and g and L g come from one generator evaluation
    per (sigma, nu) group on that group's rows and drifts (the whole batch for
    one pair), the one :func:`~jumpctl.generator.apply_generator` makes, so
    ``fields`` are any fields it reads.  For each test function and requested
    time the compensated value must be within 3 SE of zero.
    """
    n, K, _ = bundle.states.shape
    times = bundle.times
    dts = np.diff(times)
    snaps = []  # one coefficients query per snapshot, read by every field
    for X in bundle.states.transpose(1, 0, 2):
        mu, group, pairs = bundle.policy.coefficients(X)
        snaps.append((X, mu, _groups(group, pairs)))

    results = []
    all_ok = True
    for gi, g in enumerate(fields):
        # time-major (K, n), so each snapshot writes and each check reads one contiguous row
        vals = np.empty((K, n))
        gen = np.empty((K, n))
        for j, (X, mu, groups) in enumerate(snaps):
            for rows, sigma, nu in groups:
                vals[j, rows], gen[j, rows] = _generator(g, X[rows], (mu[rows], sigma), nu, bundle.u)
        integral = np.zeros((K, n))
        integral[1:] = np.cumsum(0.5 * (gen[:-1] + gen[1:]) * dts[:, None], axis=0)
        M = vals - vals[:1] - integral
        for t in t_points:
            j = _nearest_index(times, t)
            if j == 0:
                continue
            mean = float(M[j].mean())
            se = float(M[j].std(ddof=1) / np.sqrt(n))
            ok = abs(mean) <= Z_THRESHOLD * se if se > 0 else mean == 0.0
            all_ok &= ok
            results.append(
                {
                    "field": getattr(g, "name", f"g{gi}"),
                    "t": float(times[j]), "mean": mean, "se": se,
                    "z": mean / se if se > 0 else 0.0, "ok": ok,
                }
            )
    return TestReport(
        name="compensated-value",
        passed=bool(all_ok),
        statistics={"checks": results},
        thresholds={"z": Z_THRESHOLD},
        n_samples=n,
        messages=(),
    )


# ---------------------------------------------------------------------------
# jump moment bound across horizons


def moment_bound_report(bundles: Sequence[PathBundle], q: float) -> TestReport:
    """Ratio of E[sup |X^d|^q] to its predicted bound across horizons.

    Every bundle's policy must have one fixed measure on every path (not a
    relocation kernel), so that the big-jump functional has a closed form.
    The bound's denominator is E[G_T^{q/2}] + E[H_T]; the test checks the
    ratio stays within a factor 2 of the first bundle's value.
    ``n_samples`` counts (path, horizon) pairs, the paths of every bundle
    added up, whether or not the bundles are prefixes of one run.
    """
    if not bundles:
        raise ValueError("moment-bound tracking needs at least one bundle")
    if q < 2.0:
        raise ValueError("the moment order q must be at least 2")
    rows = []
    ratios = []
    for b in bundles:
        nu = b.policy.nu
        if nu is None or isinstance(nu, RelocationKernel):
            raise ValueError("moment-bound tracking needs one fixed measure on every path")
        T = float(b.times[-1])
        h_term = tail_moment(nu, q) * T
        num = float(np.mean(b.sup_xd**q))
        den = float(np.mean(b.G_int ** (q / 2.0))) + h_term
        if den <= 0.0:
            raise ValueError("bound denominator vanished; no jump activity at all")
        ratios.append(num / den)
        rows.append({"T": T, "numerator": num, "denominator": den, "ratio": num / den})
    base = ratios[0]
    rel = [r / base for r in ratios]
    passed = bool(all(0.5 <= x <= 2.0 for x in rel))
    return TestReport(
        name="jump-moment-bound",
        passed=passed,
        statistics={"rows": rows, "relative_to_first": rel},
        thresholds={"factor": 2.0},
        n_samples=sum(b.n_paths for b in bundles),
        messages=(),
    )


# ---------------------------------------------------------------------------
# dynamic-programming residual (Monte Carlo)


@dataclass
class DppReport:
    residual: float
    t: float
    per_probe: list = field(default_factory=list)


def _default_probes(grid: Grid):
    lo, hi = np.array(grid.lo), np.array(grid.hi)
    return [lo + f * (hi - lo) for f in (0.25, 0.5, 0.75)]


def _policy_specs(prob: HJBProblem):
    if prob.mode == "list":
        return [PolicyFieldSpec.constant(e) if isinstance(e, Action)
                else PolicyFieldSpec.from_action_callable(e) for e in prob.actions]
    mu0 = _lattice_origin(prob.mu_lattice)
    return [PolicyFieldSpec.constant(Action(sigma=sigma, nu=nu, mu=mu0))
            for sigma, nu in prob.sigma_nu_pairs]


def dpp_report(
    phi: ValueField,
    prob: HJBProblem,
    t: float,
    n_paths: int,
    seed: int,
    policies=None,
    probe_states=None,
    dt: float = 1e-2,
) -> DppReport:
    """Monte Carlo check of the programming principle at horizon t.

    For each probe state the best trial policy's estimate of
    E[int_0^t e^{-gamma} f ds + e^{-gamma_t} phi(X_t)] is compared with
    phi(x); the report aggregates the worst (sup) probe.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    grid = phi.grid
    probes = probe_states if probe_states is not None else _default_probes(grid)
    probes = [np.atleast_1d(np.asarray(p, float)) for p in probes]
    here = _field_value(phi, np.array(probes))
    if t == 0.0:
        per = [{"probe": p, "estimate": v, "se": 0.0, "policy": None, "gap": 0.0}
               for p, v in zip(probes, here)]
        return DppReport(residual=0.0, t=0.0, per_probe=per)
    specs = policies if policies is not None else _policy_specs(prob)
    if len(specs) == 0:
        raise ValueError("no trial policies")
    per = []
    worst = -np.inf
    for pi, (p, phi_here) in enumerate(zip(probes, here)):
        best = None
        for si, spec in enumerate(specs):
            cfg = SimConfig(x0=p, T=t, dt=dt, n_paths=n_paths, seed=seed + 7919 * pi + 104729 * si)
            bundle = simulate(spec, cfg, f=costs_along(prob.f, spec), q=costs_along(prob.q, spec))
            disc = np.exp(-bundle.gamma[:, -1])
            samples = bundle.cost_disc + disc * _field_value(phi, bundle.states[:, -1, :])
            est = float(samples.mean())
            se = float(samples.std(ddof=1) / np.sqrt(len(samples)))
            if best is None or est < best[0]:
                best = (est, se, si)
        gap = best[0] - phi_here
        per.append(
            {"probe": p, "estimate": best[0], "se": best[1], "policy": best[2], "gap": gap}
        )
        worst = max(worst, gap)
    return DppReport(residual=float(worst), t=float(t), per_probe=per)
