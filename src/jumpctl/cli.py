"""Command line front end: ``jumpctl <command> [flags]``.

Commands
--------
``solve``         stationary value/policy tables from a JSON problem config
``solve-finite``  backward-in-time value slices over a finite horizon
``simulate``      controlled path ensembles with recorded characteristics
``verify``        statistical test batteries against a declared policy
``example N``     benchmark problem N in {1, 2, 3} plus a solver cross-check

Shared flags: ``--config PATH`` (JSON; see ``configs/config.schema.json``
next to this module for the published format), ``--out DIR``, ``--seed U64``
(overrides the config seed), ``--threads N`` (global worker budget for the
linear-algebra backends, applied through threadpoolctl; without it a warning
says the budget had no effect), ``--tol REAL`` (overrides the config tolerance).
``JUMPCTL_LOG`` in {error, warn, info, debug} selects the log level.

Artifacts are deterministic: every file embeds the config digest, the
effective seed and the package version; no timestamps are written, floats
are rendered with 17 significant digits, and JSON keys are sorted, so a
rerun with identical inputs reproduces identical bytes.  CSV files carry a
single ``#``-prefixed JSON provenance line before the column header.

Exit codes (stable contract): 0 success, 1 input error (config parse or
schema violations are reported with a path to the offending field; an
output directory or artifact that cannot be written is reported as
``jumpctl: cannot write output: ...``),
2 numerical non-convergence (partial artifacts are still written),
3 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np
import numpy.polynomial.polynomial as npoly

from . import __version__
from . import dynamics as dyn
from . import examples as ex
from . import verify as ver
from .hjb import Grid, HJBProblem, SolverError, solve_finite_horizon, solve_stationary
from .lq import LQSpec, solve_lq
from .measures import (
    Action,
    AtomicMeasure,
    DensityGridMeasure,
    JumpMeasure,
    MeasureSupportError,
    ZeroMeasure,
    _check_support,
    jump_to_origin_action,
    total_mass,
)
from .verify import _jsonable

log = logging.getLogger(__name__)

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}

_U64_MAX = 2**64 - 1


# ---------------------------------------------------------------------------
# config access with field-level diagnostics


class ConfigError(ValueError):
    """Schema violation; ``path`` points at the offending config field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"config error at '{path}': {message}")
        self.path = path
        self.detail = message


_MISSING = object()


def _get(obj: dict, key: str, path: str, kinds=None, default=_MISSING):
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        if default is _MISSING:
            raise ConfigError(f"{path}.{key}", "required field is missing")
        return default
    val = obj[key]
    if kinds is not None and not isinstance(val, kinds):
        names = kinds.__name__ if isinstance(kinds, type) else "/".join(k.__name__ for k in kinds)
        raise ConfigError(f"{path}.{key}", f"expected {names}, got {type(val).__name__}")
    return val


def _number(obj, key, path, default=_MISSING, positive=False):
    val = _get(obj, key, path, (int, float), default)
    if val is default and default is not _MISSING:
        return val
    val = float(val)
    if not np.isfinite(val):
        raise ConfigError(f"{path}.{key}", "must be finite")
    if positive and val <= 0.0:
        raise ConfigError(f"{path}.{key}", "must be > 0")
    return val


def _vector(obj, key, path, default=_MISSING):
    raw = _get(obj, key, path, (list, int, float), default)
    if raw is default and default is not _MISSING:
        return raw
    try:
        arr = np.atleast_1d(np.asarray(raw, dtype=float))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}.{key}", f"not a numeric vector: {exc}") from None
    if arr.ndim != 1 or not np.all(np.isfinite(arr)):
        raise ConfigError(f"{path}.{key}", "must be a finite 1-D numeric array")
    return arr


def _matrix(obj, key, path, default=_MISSING):
    raw = _get(obj, key, path, (list, int, float), default)
    if raw is default and default is not _MISSING:
        return raw
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}.{key}", f"not a numeric matrix: {exc}") from None
    arr = np.atleast_2d(arr)
    if arr.ndim != 2 or not np.all(np.isfinite(arr)):
        raise ConfigError(f"{path}.{key}", "must be a finite matrix (nested row-major lists)")
    return arr


def _load_json(path: Path) -> tuple[dict, str]:
    """Parse a config file, returning (object, sha256 of the raw bytes)."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc.strerror or exc}") from None
    digest = hashlib.sha256(raw).hexdigest()
    try:
        obj = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(str(path), f"config is not valid UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            str(path), f"JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(obj, dict):
        raise ConfigError(str(path), "top-level config must be a JSON object")
    return obj, digest


def _bundled_config(name: str) -> tuple[dict, str]:
    ref = resources.files(__package__) / "configs" / name
    raw = ref.read_bytes()
    return json.loads(raw.decode("utf-8")), hashlib.sha256(raw).hexdigest()


# ---------------------------------------------------------------------------
# builders: measure / action / policy / grid / cost / phi


def _measure_from(obj, path: str, dim: int) -> JumpMeasure:
    kind = _get(obj, "kind", path, str)
    if kind == "zero":
        return ZeroMeasure(dim)
    if kind == "atomic":
        atoms = _get(obj, "atoms", path, list)
        if not atoms:
            raise ConfigError(f"{path}.atoms", "needs at least one [location, mass] pair")
        locs, masses = [], []
        for i, pair in enumerate(atoms):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ConfigError(f"{path}.atoms[{i}]", "expected a [location, mass] pair")
            loc = np.atleast_1d(np.asarray(pair[0], dtype=float))
            if loc.shape != (dim,):
                raise ConfigError(f"{path}.atoms[{i}]", f"location must have dimension {dim}")
            if not isinstance(pair[1], (int, float)) or not np.isfinite(pair[1]) or pair[1] < 0:
                raise ConfigError(f"{path}.atoms[{i}]", "mass must be a finite number >= 0")
            locs.append(loc)
            masses.append(float(pair[1]))
        nu = AtomicMeasure(dim, np.asarray(locs), np.asarray(masses))
    elif kind == "density":
        lo = _vector(obj, "lo", path)
        hi = _vector(obj, "hi", path)
        shape = _vector(obj, "shape", path).astype(int)
        values = _get(obj, "values", path, list)
        eps = _number(obj, "eps", path, default=0.0)
        cov = _matrix(obj, "small_jump_cov", path, default=None)
        try:
            nu = DensityGridMeasure(
                dim, lo, hi, tuple(shape), np.asarray(values, dtype=float),
                eps=eps, small_jump_cov=cov,
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(path, str(exc)) from None
    else:
        raise ConfigError(f"{path}.kind", f"unknown measure kind '{kind}' (zero/atomic/density)")
    try:
        _check_support(nu)
    except MeasureSupportError as exc:
        raise ConfigError(path, str(exc)) from None
    return nu


def _sigma_from(obj, key, path, dim, default=_MISSING) -> np.ndarray:
    sig = _matrix(obj, key, path, default)
    if sig is default and default is not _MISSING:
        return sig
    if sig.shape == (1, 1) and dim > 1:
        sig = sig[0, 0] * np.eye(dim)
    if sig.shape != (dim, dim):
        raise ConfigError(f"{path}.{key}", f"sigma must be {dim}x{dim}")
    return sig


def _action_from(obj, path: str, dim: int) -> Action:
    sigma = _sigma_from(obj, "sigma", path, dim, default=None)
    nu_cfg = _get(obj, "nu", path, dict, default=None)
    nu = _measure_from(nu_cfg, f"{path}.nu", dim) if nu_cfg is not None else ZeroMeasure(dim)
    mu = _vector(obj, "mu", path, default=None)
    if sigma is None:
        sigma = np.zeros((dim, dim))
    if mu is not None and mu.shape != (dim,):
        raise ConfigError(f"{path}.mu", f"drift must have dimension {dim}")
    try:
        return Action(sigma=sigma, nu=nu, mu=mu if mu is not None else np.zeros(dim))
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from None


def _policy_from(obj, path: str):
    """Build a simulator policy; returns (PolicyFieldSpec, LQSolution or None)."""
    kind = _get(obj, "kind", path, str)
    if kind == "constant":
        dim = int(_number(obj, "dim", path, default=1.0, positive=True))
        act = _action_from(obj, path, dim)
        return dyn.PolicyFieldSpec.constant(act, name=_get(obj, "name", path, str, "constant")), None
    if kind == "linear":
        gain = _matrix(obj, "gain", path)
        dim = gain.shape[0]
        if gain.shape != (dim, dim):
            raise ConfigError(f"{path}.gain", "gain must be a square matrix")
        offset = _vector(obj, "offset", path, default=np.zeros(dim))
        sigma = _sigma_from(obj, "sigma", path, dim, default=None)
        nu_cfg = _get(obj, "nu", path, dict, default=None)
        nu = _measure_from(nu_cfg, f"{path}.nu", dim) if nu_cfg is not None else None
        growth = _get(obj, "growth", path, dict, default=None)
        kw = {}
        if growth is not None:
            kw["growth_K"] = _number(growth, "K", f"{path}.growth", positive=True)
            kw["growth_p"] = _number(growth, "p", f"{path}.growth", positive=True)
        try:
            spec = dyn.PolicyFieldSpec.linear_feedback(
                gain, offset, sigma if sigma is not None else np.zeros((dim, dim)), nu=nu, **kw
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(path, str(exc)) from None
        return spec, None
    if kind == "jump_to_origin":
        rate = _number(obj, "rate", path, positive=True)
        dim = int(_number(obj, "dim", path, default=1.0, positive=True))
        sigma = _sigma_from(obj, "sigma", path, dim, default=np.zeros((dim, dim)))
        return dyn.PolicyFieldSpec.jump_to_origin(rate=rate, sigma=sigma, dim=dim), None
    if kind == "lq_optimal":
        sol = _lq_solution_from(obj, path)
        spec = dyn.PolicyFieldSpec.linear_feedback(
            sol.Q, sol.v, sol.sigma_hat, nu=sol.nu_hat, name="lq-optimal"
        )
        return spec, sol
    raise ConfigError(
        f"{path}.kind",
        f"unknown policy kind '{kind}' (constant/linear/jump_to_origin/lq_optimal)",
    )


def _lq_spec_from(obj, path: str) -> LQSpec:
    lam = _matrix(obj, "lam", path)
    theta = _matrix(obj, "theta", path)
    q = _number(obj, "q", path, positive=True)
    dim = lam.shape[0]
    u = _vector(obj, "u", path, default=None)
    cands = _get(obj, "candidates", path, list, default=[])
    pairs = []
    for i, entry in enumerate(cands):
        cpath = f"{path}.candidates[{i}]"
        sigma = _sigma_from(entry, "sigma", cpath, dim, default=np.zeros((dim, dim)))
        nu_cfg = _get(entry, "nu", cpath, dict, default=None)
        nu = _measure_from(nu_cfg, f"{cpath}.nu", dim) if nu_cfg is not None else ZeroMeasure(dim)
        pairs.append((sigma, nu))
    try:
        return LQSpec(lam=lam, theta=theta, q=q, u=u, dispersion_candidates=tuple(pairs))
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from None


def _lq_solution_from(obj, path: str):
    return solve_lq(_lq_spec_from(obj, path))


def _grid_from(obj, path: str) -> Grid:
    lo = _vector(obj, "lo", path)
    hi = _vector(obj, "hi", path)
    num = _vector(obj, "num", path).astype(int)
    try:
        return Grid(lo=tuple(lo), hi=tuple(hi), num=tuple(num))
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from None


def _sim_config_from(obj, path: str, seed_override) -> dyn.SimConfig:
    seed = obj.get("seed") if isinstance(obj, dict) else None
    if seed_override is not None:
        seed = seed_override
    if seed is None:
        raise ConfigError(f"{path}.seed", "a seed is required (config field or --seed)")
    if not isinstance(seed, int) or not 0 <= seed <= _U64_MAX:
        raise ConfigError(f"{path}.seed", "seed must be an unsigned 64-bit integer")
    try:
        return dyn.SimConfig(
            x0=_vector(obj, "x0", path),
            T=_number(obj, "T", path, positive=True),
            dt=_number(obj, "dt", path, positive=True),
            n_paths=int(_number(obj, "n_paths", path, positive=True)),
            seed=seed,
            lambda_max=_number(obj, "lambda_max", path, default=None),
            store_every=int(_number(obj, "store_every", path, default=1.0, positive=True)),
            u=_vector(obj, "u", path, default=None),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from None


def _quadratic_rows(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Row-wise x' M x as the left-to-right sum of (x_i M_ij) x_j over (i, j) in
    row-major order, so a row rounds alike in every batch; np.einsum groups the
    terms differently for one- and two-row batches."""
    terms = ((X[:, i] * M[i, j]) * X[:, j] for i in range(M.shape[0]) for j in range(M.shape[1]))
    first = next(terms)
    return sum(terms, first)


class _CostSpec:
    """Running-cost description shared by the solver and simulator commands.

    The solver evaluates f(x, a) with x in grid convention ((m,) in one
    dimension); in product mode it calls the same cost's ``rows(x, sigma, nu,
    mu)`` instead, with one drift per row, so a sweep makes one call per
    (sigma, nu) pair and block of lattice columns. The simulator wants a
    state-batch map on (m, dim) arrays and resolves any control penalty
    through the declared policy. Quadratic parts are summed row by row in a
    fixed order (``_quadratic_rows``), so a state's cost has the same bits in
    every batch and ``rows`` row i is ``f(x[i], a)`` exactly, for any matrix.
    """

    def __init__(self, obj, path: str):
        self.path = path
        if obj is None:
            self.kind = "zero"
            return
        self.kind = _get(obj, "kind", path, str)
        if self.kind == "zero":
            pass
        elif self.kind == "polynomial":
            self.coeffs = _vector(obj, "coeffs", path)
            if self.coeffs.size == 0:
                raise ConfigError(f"{path}.coeffs", "needs at least one coefficient")
        elif self.kind == "quadratic_form":
            self.matrix = _matrix(obj, "matrix", path)
        elif self.kind == "quadratic_control":
            self.lam = _matrix(obj, "lam", path)
            self.theta = _matrix(obj, "theta", path)
            if self.lam.shape != self.theta.shape or self.lam.shape[0] != self.lam.shape[1]:
                raise ConfigError(path, "lam and theta must be square matrices of equal size")
        else:
            raise ConfigError(
                f"{path}.kind",
                f"unknown cost kind '{self.kind}' "
                "(zero/polynomial/quadratic_form/quadratic_control)",
            )

    def _state_part(self, X2d: np.ndarray) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros(X2d.shape[0])
        if self.kind == "polynomial":
            if X2d.shape[1] != 1:
                raise ConfigError(self.path, "polynomial costs are one-dimensional")
            return npoly.polyval(X2d[:, 0], self.coeffs)
        M = self.lam if self.kind == "quadratic_control" else self.matrix
        if M.shape[0] != X2d.shape[1]:
            raise ConfigError(self.path, f"cost matrix size {M.shape[0]} != state dimension")
        return _quadratic_rows(X2d, M)

    def hjb_fn(self, dim: int):
        if self.kind == "zero":
            return 0.0

        def fn(x_batch, a):
            X = np.asarray(x_batch, float)
            X2d = X.reshape(-1, 1) if dim == 1 else X
            out = self._state_part(X2d)
            if self.kind == "quadratic_control":
                mu = np.zeros(dim) if a.mu is None else np.asarray(a.mu, float)
                out = out + float(mu @ self.theta @ mu)
            return out

        def rows(x_batch, sigma, nu, mu):
            X = np.asarray(x_batch, float)
            out = self._state_part(X.reshape(-1, 1) if dim == 1 else X)
            if self.kind == "quadratic_control":
                # vecdot of mu @ theta with mu rounds each row as fn's mu @ theta @ mu does
                out = out + np.vecdot(mu @ self.theta, mu)
            return out

        fn.rows = rows
        return fn

    def state_fn(self, policy_spec):
        """Map (m, dim) state batches to running cost along ``policy_spec``."""
        if self.kind == "zero":
            return None
        if self.kind != "quadratic_control":
            return self._state_part

        def fn(X):
            mu = policy_spec.drift(X)
            return self._state_part(X) + _quadratic_rows(mu, self.theta)

        return fn

    def describe(self) -> dict:
        out = {"kind": self.kind}
        if self.kind == "polynomial":
            out["coeffs"] = list(self.coeffs)
        elif self.kind == "quadratic_form":
            out["matrix"] = self.matrix.tolist()
        elif self.kind == "quadratic_control":
            out["lam"] = self.lam.tolist()
            out["theta"] = self.theta.tolist()
        return out


def _phi_from(obj, path: str, dim: int, lq_sol=None):
    """Test-function builder for the verification batteries.

    Returns a callable mapping (m, dim) state batches to values, which is
    the convention both ``bellman_series`` and the verifier accept.
    """
    kind = _get(obj, "kind", path, str)
    if kind == "polynomial":
        coeffs = _vector(obj, "coeffs", path)
        if dim != 1:
            raise ConfigError(path, "polynomial test functions are one-dimensional")
        return lambda X: npoly.polyval(np.asarray(X, float).reshape(-1, 1)[:, 0], coeffs)
    if kind == "poly_plus_exp":
        coeffs = _vector(obj, "coeffs", path)
        a = _number(obj, "exp_coef", path)
        r = _number(obj, "exp_rate", path)
        if dim != 1:
            raise ConfigError(path, "poly_plus_exp test functions are one-dimensional")

        def fn(X):
            x = np.asarray(X, float).reshape(-1, 1)[:, 0]
            return npoly.polyval(x, coeffs) + a * np.exp(r * x)

        return fn
    if kind == "lq_value":
        if lq_sol is None:
            raise ConfigError(path, "phi kind 'lq_value' requires an 'lq_optimal' policy")
        return lambda X: lq_sol.value(np.asarray(X, float).reshape(-1, dim))
    raise ConfigError(f"{path}.kind", f"unknown phi kind '{kind}' (polynomial/poly_plus_exp/lq_value)")


# ---------------------------------------------------------------------------
# deterministic artifact writers


@dataclass(frozen=True)
class RunConfig:
    """Effective invocation: parsed config plus the flag overrides."""

    command: str
    config: dict
    config_sha256: str
    config_name: str
    out_dir: Path
    seed: int | None
    tol: float | None

    def provenance(self) -> dict:
        return {
            "command": self.command,
            "config": self.config_name,
            "config_sha256": self.config_sha256,
            "seed": self.seed,
            "version": __version__,
        }


_CSV_BLOCK_ROWS = 1 << 14


def _csv_cells(block: np.ndarray, spec: str):
    """One column block as (row-format field, values for it).

    A block whose values repeat (path ids, snapshot times, a discount
    integral shared by all paths) formats each distinct bit pattern once and
    hands the rows strings; otherwise the values go to ``spec`` directly.
    """
    keys, inverse = np.unique(block.view(f"u{block.itemsize}"), return_inverse=True)
    if 2 * keys.size > block.size:
        return spec, block.tolist()
    cells = np.array([spec % v for v in keys.view(block.dtype).tolist()], dtype=object)
    return "%s", cells[inverse].tolist()


def _write_csv(path: Path, provenance: dict, columns: list) -> None:
    """``columns`` is a list of (name, 1-D array) pairs of equal length.

    Integer columns render as ``%d`` and every other column (floats, and
    booleans as 1/0) as ``%.17g``, which round-trips doubles exactly.  Rows
    are formatted and written in blocks, so the file never exists as one
    string in memory.
    """
    names = [name for name, _ in columns]
    header = dict(provenance)
    header["columns"] = names
    arrays = [np.asarray(col) for _, col in columns]
    specs = ["%d" if a.dtype.kind in "iu" else "%.17g" for a in arrays]
    m = arrays[0].shape[0]
    with path.open("w", encoding="utf-8") as fh:
        fh.write("# " + json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        fh.write(",".join(names) + "\n")
        for lo in range(0, m, _CSV_BLOCK_ROWS):
            fields, values = zip(*(_csv_cells(a[lo:lo + _CSV_BLOCK_ROWS], spec)
                                   for a, spec in zip(arrays, specs)))
            row_fmt = ",".join(fields) + "\n"
            fh.write("".join([row_fmt % row for row in zip(*values)]))
    log.info("wrote %s (%d rows)", path, m)


def _write_json(path: Path, provenance: dict, payload: dict) -> None:
    body = dict(_jsonable(payload))
    body["provenance"] = provenance
    path.write_text(json.dumps(body, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    log.info("wrote %s", path)


def _node_columns(grid: Grid) -> list:
    if grid.dim == 1:
        return [("x", grid.axes[0])]
    mesh = np.meshgrid(*grid.axes, indexing="ij")
    return [("x0", mesh[0].ravel()), ("x1", mesh[1].ravel())]


# ---------------------------------------------------------------------------
# solve / solve-finite


def _problem_from(cfg: dict, path: str) -> tuple[HJBProblem, Grid, _CostSpec]:
    pc = _get(cfg, "problem", path, dict)
    ppath = f"{path}.problem"
    grid = _grid_from(_get(pc, "grid", ppath, dict), f"{ppath}.grid")
    dim = grid.dim
    q = _number(pc, "q", ppath, positive=True)
    bounds = _vector(pc, "q_bounds", ppath, default=np.array([q, q]))
    if bounds.shape != (2,):
        raise ConfigError(f"{ppath}.q_bounds", "expected [delta_q, b_q]")
    cost = _CostSpec(_get(pc, "cost", ppath, dict, default=None), f"{ppath}.cost")
    u = _vector(pc, "u", ppath, default=None)
    p = _number(pc, "p", ppath, default=2.0, positive=True)
    q_growth = int(_number(pc, "q_growth", ppath, default=2.0, positive=True))

    ac = _get(pc, "actions", ppath, dict)
    apath = f"{ppath}.actions"
    mode = _get(ac, "mode", apath, str)
    kwargs = {}
    if mode == "product":
        pairs = []
        for i, entry in enumerate(_get(ac, "pairs", apath, list)):
            epath = f"{apath}.pairs[{i}]"
            sigma = _sigma_from(entry, "sigma", epath, dim, default=np.zeros((dim, dim)))
            nu_cfg = _get(entry, "nu", epath, dict, default=None)
            nu = _measure_from(nu_cfg, f"{epath}.nu", dim) if nu_cfg is not None else ZeroMeasure(dim)
            pairs.append((sigma, nu))
        if not pairs:
            raise ConfigError(f"{apath}.pairs", "needs at least one (sigma, nu) entry")
        lat_cfg = _get(ac, "mu_lattice", apath, dict)
        lo = _vector(lat_cfg, "lo", f"{apath}.mu_lattice")
        hi = _vector(lat_cfg, "hi", f"{apath}.mu_lattice")
        num = _vector(lat_cfg, "num", f"{apath}.mu_lattice").astype(int)
        if not (lo.size == hi.size == num.size):
            raise ConfigError(f"{apath}.mu_lattice", "lo/hi/num must agree in length")
        if lo.size == 1 and dim > 1:
            lo, hi, num = np.repeat(lo, dim), np.repeat(hi, dim), np.repeat(num, dim)
        lattice = tuple(np.linspace(a, b, int(n)) for a, b, n in zip(lo, hi, num))
        kwargs.update(sigma_nu_pairs=tuple(pairs), mu_lattice=lattice)
    elif mode == "list":
        entries = []
        for i, entry in enumerate(_get(ac, "entries", apath, list)):
            epath = f"{apath}.entries[{i}]"
            builtin = _get(entry, "builtin", epath, str, default=None)
            if builtin is None:
                entries.append(_action_from(entry, epath, dim))
            elif builtin == "jump_to_origin":
                rate = _number(entry, "rate", epath, default=1.0, positive=True)
                sigma = _sigma_from(entry, "sigma", epath, dim, default=np.zeros((dim, dim)))
                entries.append(_jump_origin_entry(rate, sigma))
            else:
                raise ConfigError(f"{epath}.builtin", f"unknown builtin '{builtin}'")
        if not entries:
            raise ConfigError(f"{apath}.entries", "needs at least one action")
        kwargs.update(actions=tuple(entries))
    else:
        raise ConfigError(f"{apath}.mode", f"unknown action mode '{mode}' (product/list)")

    try:
        prob = HJBProblem(
            f=cost.hjb_fn(dim), q=q, delta_q=float(bounds[0]), b_q=float(bounds[1]),
            u=u, p=p, q_growth=q_growth, **kwargs,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(ppath, str(exc)) from None
    return prob, grid, cost


def _jump_origin_entry(rate: float, sigma: np.ndarray):
    """State-dependent relocation action for the list-mode solver."""
    return lambda x: jump_to_origin_action(x, rate, sigma)


def _solve_report(rep, phi, extra=None) -> dict:
    out = {
        "converged": rep.converged,
        "iterations": rep.iterations,
        "deltas": list(rep.deltas),
        "residual": rep.residual,
        "max_pointwise_increase": rep.max_pointwise_increase,
        "messages": list(rep.messages),
        "tail_residual": phi.tail_residual,
    }
    if extra:
        out.update(extra)
    return out


def cmd_solve(run: RunConfig) -> int:
    prob, grid, _ = _problem_from(run.config, "$")
    tol = run.tol if run.tol is not None else _number(run.config, "tol", "$", default=1e-8, positive=True)
    max_iters = int(_number(run.config, "max_iters", "$", default=60.0, positive=True))
    phi, pol, rep = solve_stationary(prob, grid, tol=tol, max_iters=max_iters)

    prov = run.provenance()
    nodes = _node_columns(grid)
    _write_csv(run.out_dir / "value.csv", prov, nodes + [("phi", phi.values.ravel())])
    pol_cols = nodes + [("action", pol.action_index)]
    if pol.mu is not None:
        pol_cols += [(f"mu_{d}", pol.mu[:, d]) for d in range(grid.dim)]
    _write_csv(run.out_dir / "policy.csv", prov, pol_cols)
    _write_json(
        run.out_dir / "report.json", prov,
        _solve_report(rep, phi, {"tol": tol, "max_iters": max_iters,
                                 "grid": {"lo": grid.lo, "hi": grid.hi, "num": grid.num}}),
    )
    if not rep.converged:
        log.error("solver did not converge in %d iterations (residual %.3e)",
                  rep.iterations, rep.residual)
        return 2
    return 0


def cmd_solve_finite(run: RunConfig) -> int:
    prob, grid, _ = _problem_from(run.config, "$")
    hz = _get(run.config, "horizon", "$", dict)
    T = _number(hz, "T", "$.horizon", positive=True)
    n_steps = int(_number(hz, "n_steps", "$.horizon", positive=True))
    terminal = _CostSpec(_get(hz, "terminal", "$.horizon", dict, default=None), "$.horizon.terminal")
    if terminal.kind == "quadratic_control":
        raise ConfigError("$.horizon.terminal.kind", "terminal payoffs depend on the state only")
    tol = run.tol if run.tol is not None else 1e-10
    h = terminal.hjb_fn(grid.dim)
    h_grid = 0.0 if not callable(h) else (lambda xb: h(xb, None))
    sol = solve_finite_horizon(prob, h_grid, T, n_steps, grid, tol=tol)

    prov = run.provenance()
    nodes = _node_columns(grid)
    _write_csv(run.out_dir / "value.csv", prov,
               nodes + [("phi", sol.values[0].ravel())])
    _write_json(
        run.out_dir / "report.json", prov,
        {
            "T": T,
            "n_steps": n_steps,
            "dt": T / n_steps,
            "terminal": terminal.describe(),
            "initial_tail_residual": sol.initial.tail_residual,
            "grid": {"lo": grid.lo, "hi": grid.hi, "num": grid.num},
        },
    )
    return 0


# ---------------------------------------------------------------------------
# simulate / verify


def cmd_simulate(run: RunConfig) -> int:
    cfg = run.config
    policy, lq_sol = _policy_from(_get(cfg, "policy", "$", dict), "$.policy")
    sim = _sim_config_from(_get(cfg, "sim", "$", dict), "$.sim", run.seed)
    cost = _CostSpec(_get(cfg, "cost", "$", dict, default=None), "$.cost")
    q = _number(cfg, "discount", "$", default=0.0)
    if q < 0.0:
        raise ConfigError("$.discount", "must be >= 0")

    bundle = dyn.simulate(policy, sim, f=cost.state_fn(policy), q=q if q > 0 else None)

    prov = dict(run.provenance())
    prov["seed"] = sim.seed
    n, K, dim = bundle.states.shape
    cols = [
        ("path", np.repeat(np.arange(n), K)),
        ("time", np.tile(bundle.times, n)),
    ]
    names = ["x"] if dim == 1 else [f"x{d}" for d in range(dim)]
    for d, nm in enumerate(names):
        cols.append((nm, bundle.states[:, :, d].ravel()))
    cols.append(("gamma", bundle.gamma.ravel()))
    cols.append(("cost", bundle.cost_run.ravel()))
    _write_csv(run.out_dir / "paths.csv", prov, cols)

    payload = {"summary": bundle.summary(), "policy": policy.describe(),
               "characteristics": vars(dyn.characteristics_report(bundle))}
    if lq_sol is not None:
        payload["lq"] = {"B": lq_sol.B, "c": lq_sol.c, "d": lq_sol.d,
                         "Q": lq_sol.Q, "v": lq_sol.v}
    _write_json(run.out_dir / "characteristics.json", prov, payload)
    return 0


def _verify_one(entry, i, policy, lq_sol, sim, q, shared) -> ver.TestReport:
    path = f"$.tests[{i}]"
    name = _get(entry, "name", path, str)
    dim = sim.x0.size
    if name == "martingale":
        phi = _phi_from(_get(entry, "phi", path, dict), f"{path}.phi", dim, lq_sol)
        mode = _get(entry, "mode", path, str, default="martingale")
        pairs_raw = _get(entry, "pairs", path, list)
        pairs = []
        for j, pr in enumerate(pairs_raw):
            if not (isinstance(pr, list) and len(pr) == 2):
                raise ConfigError(f"{path}.pairs[{j}]", "expected an [s, t] pair")
            pairs.append((float(pr[0]), float(pr[1])))
        n_bins = int(_number(entry, "n_bins", path, default=8.0, positive=True))
        bundle = shared["bundle"]
        own_cost = _get(entry, "cost", path, dict, default=None)
        if own_cost is not None:
            cost = _CostSpec(own_cost, f"{path}.cost")
            S = dyn.bellman_series(phi, bundle, f=cost.state_fn(policy), q=q)
        else:
            S = dyn.bellman_series(phi, bundle)
        rep = ver.submartingale_test(S, bundle, pairs, n_bins=n_bins, mode=mode)
    elif name == "transversality":
        phi = _phi_from(_get(entry, "phi", path, dict), f"{path}.phi", dim, lq_sol)
        window = _number(entry, "window", path, default=0.5, positive=True)
        rep = ver.transversality_test(shared["bundle"], phi, window=window)
    elif name == "integrability":
        p = _number(entry, "p", path, positive=True)
        rep = ver.h2_integrability_check(shared["bundle"], p)
    elif name == "growth":
        box_raw = _get(entry, "box", path, list)
        box = np.asarray(box_raw, dtype=float)
        if box.ndim == 1:
            box = box[None, :]
        if box.shape != (dim, 2):
            raise ConfigError(f"{path}.box", f"expected {dim} [lo, hi] pairs")
        K = _number(entry, "K", path, positive=True)
        p = _number(entry, "p", path, positive=True)
        rep = ver.growth_certificate_check(policy, (box[:, 0], box[:, 1]), K, p)
    elif name == "moment_ratio":
        qm = _number(entry, "q", path, positive=True)
        horizons = _vector(entry, "horizons", path, default=np.array([1.0, 2.0, 4.0]))
        bundles = [
            dyn.simulate(policy, replace(sim, T=float(h), seed=sim.seed + k))
            for k, h in enumerate(horizons)
        ]
        rep = ver.moment_bound_report(bundles, qm)
    else:
        raise ConfigError(
            f"{path}.name",
            f"unknown test '{name}' "
            "(martingale/transversality/integrability/growth/moment_ratio)",
        )
    return rep


def cmd_verify(run: RunConfig) -> int:
    cfg = run.config
    policy, lq_sol = _policy_from(_get(cfg, "policy", "$", dict), "$.policy")
    sim = _sim_config_from(_get(cfg, "sim", "$", dict), "$.sim", run.seed)
    cost = _CostSpec(_get(cfg, "cost", "$", dict, default=None), "$.cost")
    q = _number(cfg, "discount", "$", default=0.0)
    tests = _get(cfg, "tests", "$", list)
    if not tests:
        raise ConfigError("$.tests", "needs at least one test entry")

    # One shared ensemble serves every test that inspects recorded paths;
    # the moment-ratio test runs its own simulations across horizons.
    shared = {}
    if any(_get(t, "name", f"$.tests[{i}]", str)
           in ("martingale", "transversality", "integrability")
           for i, t in enumerate(tests)):
        shared["bundle"] = dyn.simulate(
            policy, sim, f=cost.state_fn(policy), q=q if q > 0 else None
        )

    reports = []
    for i, entry in enumerate(tests):
        rep = _verify_one(entry, i, policy, lq_sol, sim, q, shared)
        log.info("test %-16s %s", rep.name, "PASS" if rep.passed else "FAIL")
        reports.append(rep)

    prov = dict(run.provenance())
    prov["seed"] = sim.seed
    all_passed = all(r.passed for r in reports)
    _write_json(
        run.out_dir / "report.json", prov,
        {
            "all_passed": all_passed,
            "tests": [json.loads(r.to_json()) for r in reports],
            "policy": policy.describe(),
        },
    )
    if not all_passed:
        failed = ", ".join(r.name for r in reports if not r.passed)
        log.error("verification failed: %s", failed)
        return 3
    return 0


# ---------------------------------------------------------------------------
# benchmark examples with solver cross-checks


def _crosscheck_window(grid_axis, phi_vals, reference, window) -> float:
    mask = (grid_axis >= window[0]) & (grid_axis <= window[1])
    ref = reference[mask]
    scale = np.maximum(1.0, np.abs(ref))
    return float(np.max(np.abs(phi_vals[mask] - ref) / scale))


def cmd_example(run: RunConfig, which: int) -> int:
    cfg = run.config
    declared = cfg.get("which")
    if declared is not None and int(declared) != which:
        raise ConfigError("$.which", f"config is for example {declared}, requested {which}")
    if which == 1:
        return _example1(run)
    if which == 2:
        return _example2(run)
    return _example3(run)


def _example1(run: RunConfig) -> int:
    cfg = run.config
    cost = _CostSpec(_get(cfg, "cost", "$", dict, default={"kind": "polynomial", "coeffs": [0.0, 0.0, 1.0]}), "$.cost")
    if cost.kind != "polynomial":
        raise ConfigError("$.cost.kind", "example 1 takes a polynomial state cost")
    q = _number(cfg, "q", "$", default=1.0, positive=True)
    grid = _grid_from(_get(cfg, "grid", "$", dict, default={"lo": -6.0, "hi": 6.0, "num": 401}), "$.grid")

    psi = ex.example1_psi(cost.coeffs, q, grid)
    V = ex.example1_value(psi, q)
    prov = run.provenance()
    _write_csv(run.out_dir / "value.csv", prov,
               [("x", grid.axes[0]), ("psi", psi.values), ("value", V.values)])

    cc = _get(cfg, "crosscheck", "$", dict, default={})
    num = int(_number(cc, "num", "$.crosscheck", default=241.0, positive=True))
    tol_rel = _number(cc, "tol_rel", "$.crosscheck", default=2e-2, positive=True)
    cgrid = Grid.regular(grid.lo[0], grid.hi[0], num)
    prob = HJBProblem(
        f=cost.hjb_fn(1), q=q, delta_q=q, b_q=q,
        actions=(
            Action(sigma=np.eye(1), nu=ZeroMeasure(1), mu=np.zeros(1)),
            _jump_origin_entry(1.0, np.eye(1)),
        ),
        p=2.0, q_growth=max(2, cost.coeffs.size - 1),
    )
    gphi, gpol, grep = solve_stationary(prob, cgrid, tol=1e-6, max_iters=40)
    window = _vector(cc, "window", "$.crosscheck", default=np.array([-2.0, 2.0]))
    rel = _crosscheck_window(cgrid.axes[0], gphi.values, V.value(cgrid.axes[0]), window)

    report = {
        "q": q,
        "cost": cost.describe(),
        "psi0": float(psi.value(0.0)),
        "value0": float(V.value(0.0)),
        "crosscheck": {
            "max_rel_diff": rel, "tol_rel": tol_rel, "window": window,
            "num": num, "converged": grep.converged, "iterations": grep.iterations,
        },
    }
    _write_json(run.out_dir / "report.json", prov, report)
    if not grep.converged:
        log.error("cross-check solver did not converge")
        return 2
    if rel > tol_rel:
        log.error("cross-check disagreement %.3e exceeds %.1e", rel, tol_rel)
        return 3
    return 0


def _example2(run: RunConfig) -> int:
    cfg = run.config
    cost = _CostSpec(_get(cfg, "cost", "$", dict, default={"kind": "polynomial", "coeffs": [0.0, 0.0, 1.0]}), "$.cost")
    if cost.kind != "polynomial":
        raise ConfigError("$.cost.kind", "example 2 takes a polynomial state cost")
    q = _number(cfg, "q", "$", default=1.0, positive=True)
    kappa = _number(cfg, "kappa", "$", default=1.0, positive=True)
    grid = _grid_from(_get(cfg, "grid", "$", dict, default={"lo": -8.0, "hi": 8.0, "num": 481}), "$.grid")
    tol = run.tol if run.tol is not None else 1e-8

    sol = ex.example2_free_boundary(cost.coeffs, q, kappa, grid, tol=tol)
    prov = run.provenance()
    _write_csv(run.out_dir / "value.csv", prov,
               [("x", grid.axes[0]), ("phi", sol.phi.values)])

    cc = _get(cfg, "crosscheck", "$", dict, default={})
    num = int(_number(cc, "num", "$.crosscheck", default=241.0, positive=True))
    tol_rel = _number(cc, "tol_rel", "$.crosscheck", default=5e-2, positive=True)
    tol_cells = _number(cc, "tol_cells", "$.crosscheck", default=2.0, positive=True)
    cgrid = Grid.regular(grid.lo[0], grid.hi[0], num)
    coeffs = cost.coeffs

    def f_with_charge(x, a):
        return npoly.polyval(np.asarray(x, float), coeffs) + kappa * total_mass(a.nu)

    prob = HJBProblem(
        f=f_with_charge, q=q, delta_q=q, b_q=q,
        actions=(
            Action(sigma=np.eye(1), nu=ZeroMeasure(1), mu=np.zeros(1)),
            _jump_origin_entry(1.0, np.eye(1)),
        ),
        p=2.0, q_growth=max(2, coeffs.size - 1),
    )
    gphi, gpol, grep = solve_stationary(prob, cgrid, tol=1e-6, max_iters=40)
    axis = cgrid.axes[0]
    jumping = gpol.action_index.reshape(-1) == 1
    pos = axis > 0.0
    if np.any(jumping & pos):
        switch_x = float(axis[jumping & pos].min())
        gap_cells = abs(switch_x - sol.b_hat) / cgrid.h[0]
    else:
        switch_x, gap_cells = float("nan"), float("inf")
    window = _vector(cc, "window", "$.crosscheck", default=np.array([-2.0, 2.0]))
    rel = _crosscheck_window(axis, gphi.values, sol.phi.value(axis), window)

    report = {
        "b_hat": sol.b_hat,
        "phi0": sol.phi0,
        "kappa": kappa,
        "q": q,
        "matching_gap": sol.matching_gap,
        "c1_gap": sol.c1_gap,
        "c2_gap": sol.c2_gap,
        "increasing": sol.increasing,
        "crosscheck": {
            "max_rel_diff": rel, "tol_rel": tol_rel, "window": window, "num": num,
            "switch_x": switch_x, "gap_cells": gap_cells, "tol_cells": tol_cells,
            "converged": grep.converged, "iterations": grep.iterations,
        },
    }
    _write_json(run.out_dir / "report.json", prov, report)
    if not grep.converged:
        log.error("cross-check solver did not converge")
        return 2
    if rel > tol_rel or gap_cells > tol_cells:
        log.error("cross-check disagreement (rel %.3e, switch gap %.2f cells)", rel, gap_cells)
        return 3
    return 0


def _example3(run: RunConfig) -> int:
    cfg = run.config
    defaults = {"lam": [[1.0]], "theta": [[1.0]], "q": 3.0,
                "candidates": [{"sigma": [[1.0]], "nu": {"kind": "zero"}}]}
    merged = {**defaults, **{k: v for k, v in cfg.items() if k not in ("which",)}}
    spec = _lq_spec_from(merged, "$")
    sol = solve_lq(spec)
    dim = spec.lam.shape[0]

    prov = run.provenance()
    riccati_residual = float(np.linalg.norm(
        sol.B @ np.linalg.solve(spec.theta, sol.B) + spec.q * sol.B - spec.lam
    ))
    report = {
        "B": sol.B, "c": sol.c, "d": sol.d, "Q": sol.Q, "v": sol.v, "P": sol.P,
        "delta_hat": sol.delta_hat, "q": spec.q, "riccati_residual": riccati_residual,
        "feedback": "mu(x) = v - Q x",
    }

    rel = None
    grep = None
    if dim == 1:
        grid = _grid_from(
            _get(cfg, "grid", "$", dict, default={"lo": -6.0, "hi": 6.0, "num": 401}), "$.grid"
        )
        vals = sol.value(grid.axes[0].reshape(-1, 1))
        _write_csv(run.out_dir / "value.csv", prov, [("x", grid.axes[0]), ("value", vals)])

        cc = _get(cfg, "crosscheck", "$", dict, default={})
        tol_rel = _number(cc, "tol_rel", "$.crosscheck", default=2e-2, positive=True)
        lat_n = int(_number(cc, "lattice_num", "$.crosscheck", default=41.0, positive=True))
        cost = _CostSpec({"kind": "quadratic_control", "lam": spec.lam.tolist(),
                          "theta": spec.theta.tolist()}, "$.crosscheck")
        pairs = spec.dispersion_candidates or ((np.zeros((1, 1)), ZeroMeasure(1)),)
        prob = HJBProblem(
            f=cost.hjb_fn(1), q=spec.q, delta_q=spec.q, b_q=spec.q,
            sigma_nu_pairs=tuple(pairs),
            mu_lattice=(np.linspace(-4.0, 4.0, lat_n),),
            u=spec.u, p=2.0, q_growth=2,
        )
        gphi, gpol, grep = solve_stationary(prob, grid, tol=1e-8, max_iters=40)
        window = _vector(cc, "window", "$.crosscheck", default=np.array([-2.0, 2.0]))
        rel = _crosscheck_window(grid.axes[0], gphi.values, vals, window)
        report["crosscheck"] = {
            "max_rel_diff": rel, "tol_rel": tol_rel, "window": window,
            "converged": grep.converged, "iterations": grep.iterations,
        }
    _write_json(run.out_dir / "report.json", prov, report)
    if grep is not None and not grep.converged:
        log.error("cross-check solver did not converge")
        return 2
    if rel is not None and rel > report["crosscheck"]["tol_rel"]:
        log.error("cross-check disagreement %.3e", rel)
        return 3
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _apply_thread_budget(n: int):
    if n < 1:
        raise ConfigError("--threads", "must be >= 1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(n)
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        log.warning(
            "--threads %d not applied: threadpoolctl is not installed, and the BLAS "
            "numpy has already loaded keeps its own thread count", n
        )
        return None
    return threadpool_limits(limits=n)


def _configure_logging() -> None:
    raw = os.environ.get("JUMPCTL_LOG", "warn").strip().lower()
    if raw not in _LOG_LEVELS:
        raise ConfigError("JUMPCTL_LOG", f"unknown log level '{raw}' (error/warn/info/debug)")
    logging.basicConfig(
        level=_LOG_LEVELS[raw],
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None, help="JSON problem config")
    common.add_argument("--out", type=Path, default=Path("."), help="artifact directory")
    common.add_argument("--seed", type=int, default=None, help="unsigned 64-bit seed override")
    common.add_argument("--threads", type=int, default=None, help="global worker budget")
    common.add_argument("--tol", type=float, default=None, help="tolerance override")

    parser = argparse.ArgumentParser(
        prog="jumpctl",
        description="Solve, simulate and verify controlled jump-process models.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", parents=[common], help="stationary value and policy tables")
    sub.add_parser("solve-finite", parents=[common], help="finite-horizon value slices")
    sub.add_parser("simulate", parents=[common], help="controlled path ensembles")
    sub.add_parser("verify", parents=[common], help="statistical verification batteries")
    pex = sub.add_parser("example", parents=[common], help="benchmark problems 1-3")
    pex.add_argument("which", type=int, choices=(1, 2, 3), help="benchmark number")
    return parser


_NEEDS_CONFIG = {"solve", "solve-finite", "simulate", "verify"}


def _resolve_config(args) -> tuple[dict, str, str]:
    if args.config is not None:
        obj, digest = _load_json(args.config)
        return obj, digest, args.config.name
    if args.command == "example":
        name = f"example{args.which}.json"
        obj, digest = _bundled_config(name)
        return obj, digest, name
    raise ConfigError("--config", f"the '{args.command}' command requires a config file")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _configure_logging()
        if args.threads is not None:
            limits = _apply_thread_budget(args.threads)  # noqa: F841 (kept alive)
        if args.seed is not None and not 0 <= args.seed <= _U64_MAX:
            raise ConfigError("--seed", "seed must be an unsigned 64-bit integer")
        if args.tol is not None and not (np.isfinite(args.tol) and args.tol > 0.0):
            raise ConfigError("--tol", "tolerance must be a positive real")

        config, digest, cfg_name = _resolve_config(args)
        args.out.mkdir(parents=True, exist_ok=True)
        run = RunConfig(
            command=args.command, config=config, config_sha256=digest,
            config_name=cfg_name, out_dir=args.out, seed=args.seed, tol=args.tol,
        )
        if args.command == "solve":
            return cmd_solve(run)
        if args.command == "solve-finite":
            return cmd_solve_finite(run)
        if args.command == "simulate":
            return cmd_simulate(run)
        if args.command == "verify":
            return cmd_verify(run)
        return cmd_example(run, args.which)
    except ConfigError as exc:
        print(f"jumpctl: {exc}", file=sys.stderr)
        return 1
    except (MeasureSupportError, ValueError, TypeError, KeyError) as exc:
        print(f"jumpctl: input error: {exc}", file=sys.stderr)
        return 1
    except dyn.AdmissibilityError as exc:
        print(f"jumpctl: inadmissible model: {exc}", file=sys.stderr)
        return 1
    except (ex.BracketError, np.linalg.LinAlgError, SolverError) as exc:
        print(f"jumpctl: numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # config reads raise ConfigError, so this is --out or an artifact in it
        print(f"jumpctl: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
