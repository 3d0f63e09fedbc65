"""Command line front end: ``jumpctl <command> [flags]``.

Commands
--------
``solve``         stationary value/policy tables from a JSON problem config
``solve-finite``  backward-in-time value slices over a finite horizon
``simulate``      controlled path ensembles with recorded characteristics
``verify``        statistical test batteries against a declared policy
``example N``     benchmark problem N in {1, 2, 3} plus a solver cross-check

One builder reads each config shape (measure, (sigma, nu) pair, action,
policy, grid, cost, test function); ``simulate`` and ``verify`` share one
preamble; each ``example`` writes its closed form to ``value.csv`` and hands
one cross-check runner the problem to solve by policy iteration.

Every config value, list items included, goes through one typed reader,
``_get(obj, key, path, kind)``: ``kind`` is a JSON type or a numeric kind of
``_KINDS`` (number, positive, count, vector, counts, matrix, ...), which
holds each kind's rule and message. JSON booleans are never numbers, and a
count is a whole number from 1 to 2^31 - 1 (``2000.0`` reads as 2000). A
value that breaks its kind exits 1 naming its ``$.`` path; ``verify`` reads
all its tests before it simulates.

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
schema violations are reported with a path to the offending field; a jump
measure whose moments do not evaluate finite is an input error too; an
output directory or artifact that cannot be written is reported as
``jumpctl: cannot write output: ...``),
2 numerical failure or non-convergence (partial artifacts are still written),
3 verification failure (a failed battery test, or an example cross-check
beyond its tolerance).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from dataclasses import dataclass, replace
from functools import partial
from importlib import resources
from pathlib import Path

import numpy as np
import numpy.polynomial.polynomial as npoly

from . import __version__
from . import dynamics as dyn
from . import examples as ex
from . import verify as ver
from .hjb import Grid, HJBProblem, SolverError, solve_finite_horizon, solve_stationary
from .lq import LQSpec, _quadratic_rows, riccati_residual, solve_lq
from .measures import (
    Action,
    AtomicMeasure,
    DensityGridMeasure,
    DivergenceError,
    JumpMeasure,
    MeasureSupportError,
    RelocationKernel,
    ZeroMeasure,
    moment_functional,
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


def _whole(a):
    # at most 2^31 - 1, so a count never wraps when it becomes an int
    return (a >= 1.0) & (a <= 2**31 - 1) & (a == np.floor(a))


# numeric kinds: dimensions (None: any), the rule every entry keeps, and what
# a value must be; counts come back as ints, everything else as floats
_KINDS = {
    "number": (0, None, "a finite number"),
    "positive": (0, lambda a: a > 0.0, "a finite number > 0"),
    "nonnegative": (0, lambda a: a >= 0.0, "a finite number >= 0"),
    "count": (0, _whole, "a whole number from 1 to 2^31 - 1"),
    "vector": (1, None, "a non-empty finite 1-D numeric array"),
    "positives": (1, lambda a: a > 0.0, "a non-empty 1-D array of finite numbers > 0"),
    "counts": (1, _whole, "a non-empty 1-D array of whole numbers from 1 to 2^31 - 1"),
    "matrix": (2, None, "a non-empty finite matrix (nested row-major lists)"),
    "array": (None, None, "a non-empty finite numeric array"),
}


def _numeric_leaves(v) -> bool:
    # bool subclasses int, but JSON true/false is never a number here
    if isinstance(v, list):
        return all(map(_numeric_leaves, v))
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _read(val, where: str, kind):
    """The JSON value ``val`` at ``where``, read as ``kind``.

    ``kind`` is a type (``str``, ``dict``, ``list``, ``int``) the value must
    be an instance of, returned as it is, or a name in ``_KINDS``: a scalar
    kind gives a float (an int for ``count``), an array kind a float array
    (an int array for ``counts``). A scalar reads as a vector or matrix of
    one entry.
    """
    if isinstance(kind, type):
        if isinstance(val, kind) and not isinstance(val, bool):
            return val
        raise ConfigError(where, f"expected {kind.__name__}, got {type(val).__name__}")
    ndim, rule, what = _KINDS[kind]
    try:
        arr = np.asarray(val, dtype=float) if _numeric_leaves(val) else None
    except (ValueError, OverflowError):  # ragged lists, integers beyond a double
        arr = None
    if arr is not None and ndim:
        arr = np.atleast_1d(arr) if ndim == 1 else np.atleast_2d(arr)
    if arr is None or ndim not in (None, arr.ndim) or not arr.size \
            or not np.all(np.isfinite(arr)) or rule is not None and not np.all(rule(arr)):
        raise ConfigError(where, f"must be {what}")
    if rule is _whole:
        arr = arr.astype(int)
    return arr if arr.ndim else arr.item()


def _get(obj: dict, key: str, path: str, kind, default=_MISSING):
    """``obj[key]`` read as ``kind`` (see :func:`_read`), named ``path.key`` in
    errors. A missing key gives ``default``, read like a value unless None."""
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        if default is _MISSING:
            raise ConfigError(f"{path}.{key}", "required field is missing")
        if default is None:
            return None
    return _read(obj.get(key, default), f"{path}.{key}", kind)


def _build(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a TypeError or ValueError it raises becomes a
    ConfigError at ``path``."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from None


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
            where = f"{path}.atoms[{i}]"
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ConfigError(where, "expected a [location, mass] pair")
            locs.append(_read(pair[0], f"{where}[0]", "vector"))
            if locs[-1].shape != (dim,):
                raise ConfigError(f"{where}[0]", f"location must have dimension {dim}")
            masses.append(_read(pair[1], f"{where}[1]", "nonnegative"))
        nu = AtomicMeasure(dim, np.asarray(locs), np.asarray(masses))
    elif kind == "density":
        nu = _build(
            path, DensityGridMeasure, dim,
            lo=_get(obj, "lo", path, "vector"),
            hi=_get(obj, "hi", path, "vector"),
            shape=tuple(_get(obj, "shape", path, "counts")),
            values=_get(obj, "values", path, "array"),
            eps=_get(obj, "eps", path, "nonnegative", 0.0),
        )
        cov = _get(obj, "small_jump_cov", path, "matrix", None)
        if cov is not None:
            nu = _build(f"{path}.small_jump_cov", replace, nu, small_jump_cov=cov)
    else:
        raise ConfigError(f"{path}.kind", f"unknown measure kind '{kind}' (zero/atomic/density)")
    try:  # reads the support, and the second moments every consumer needs
        moment_functional(nu, 2.0)
    except (MeasureSupportError, DivergenceError) as exc:
        raise ConfigError(path, str(exc)) from None
    return nu


def _sigma_from(obj, path: str, dim: int) -> np.ndarray:
    """``sigma``, zero by default; a 1x1 matrix stands for a multiple of the identity."""
    sig = _get(obj, "sigma", path, "matrix", 0.0)
    if sig.shape == (1, 1) and dim > 1:
        sig = sig[0, 0] * np.eye(dim)
    if sig.shape != (dim, dim):
        raise ConfigError(f"{path}.sigma", f"sigma must be {dim}x{dim}")
    return sig


def _pair_from(obj, path: str, dim: int, nu_default):
    """(sigma, nu) of a config entry: sigma defaults to zero, an absent nu to ``nu_default``."""
    sigma = _sigma_from(obj, path, dim)
    nu_cfg = _get(obj, "nu", path, dict, None)
    return sigma, _measure_from(nu_cfg, f"{path}.nu", dim) if nu_cfg is not None else nu_default


def _action_from(obj, path: str, dim: int) -> Action:
    sigma, nu = _pair_from(obj, path, dim, ZeroMeasure(dim))
    mu = _get(obj, "mu", path, "vector", [0.0] * dim)
    if mu.shape != (dim,):
        raise ConfigError(f"{path}.mu", f"drift must have dimension {dim}")
    return _build(path, Action, sigma=sigma, nu=nu, mu=mu)


def _policy_from(obj, path: str):
    """Build a simulator policy; returns (PolicyFieldSpec, LQSolution or None)."""
    kind = _get(obj, "kind", path, str)
    if kind == "constant":
        act = _action_from(obj, path, _get(obj, "dim", path, "count", 1))
        return dyn.PolicyFieldSpec.constant(act, name=_get(obj, "name", path, str, "constant")), None
    if kind == "linear":
        gain = _get(obj, "gain", path, "matrix")
        dim = gain.shape[0]
        if gain.shape != (dim, dim):
            raise ConfigError(f"{path}.gain", "gain must be a square matrix")
        offset = _get(obj, "offset", path, "vector", 0.0)
        sigma, nu = _pair_from(obj, path, dim, None)
        growth = _get(obj, "growth", path, dict, None)
        kw = {} if growth is None else {
            f"growth_{k}": _get(growth, k, f"{path}.growth", "positive") for k in ("K", "p")}
        spec = _build(path, dyn.PolicyFieldSpec.linear_feedback, gain, offset, sigma, nu=nu, **kw)
        return spec, None
    if kind == "jump_to_origin":
        rate = _get(obj, "rate", path, "positive")
        dim = _get(obj, "dim", path, "count", 1)
        sigma = _sigma_from(obj, path, dim)
        return dyn.PolicyFieldSpec.jump_to_origin(rate=rate, sigma=sigma, dim=dim), None
    if kind == "lq_optimal":
        sol = solve_lq(_lq_spec_from(obj, path))
        spec = dyn.PolicyFieldSpec.linear_feedback(
            sol.Q, sol.v, sol.sigma_hat, nu=sol.nu_hat, name="lq-optimal"
        )
        return spec, sol
    raise ConfigError(
        f"{path}.kind",
        f"unknown policy kind '{kind}' (constant/linear/jump_to_origin/lq_optimal)",
    )


def _lq_spec_from(obj, path: str) -> LQSpec:
    lam = _get(obj, "lam", path, "matrix")
    theta = _get(obj, "theta", path, "matrix")
    q = _get(obj, "q", path, "positive")
    dim = lam.shape[0]
    u = _get(obj, "u", path, "vector", None)
    pairs = [
        _pair_from(entry, f"{path}.candidates[{i}]", dim, ZeroMeasure(dim))
        for i, entry in enumerate(_get(obj, "candidates", path, list, []))
    ]
    return _build(path, LQSpec, lam=lam, theta=theta, q=q, u=u, dispersion_candidates=tuple(pairs))


def _grid_from(obj, path: str) -> Grid:
    return _build(path, Grid, lo=tuple(_get(obj, "lo", path, "vector")),
                  hi=tuple(_get(obj, "hi", path, "vector")),
                  num=tuple(_get(obj, "num", path, "counts")))


def _sim_config_from(obj, path: str, seed_override) -> dyn.SimConfig:
    seed = seed_override if seed_override is not None else _get(obj, "seed", path, int, None)
    if seed is None:
        raise ConfigError(f"{path}.seed", "a seed is required (config field or --seed)")
    if not 0 <= seed <= _U64_MAX:
        raise ConfigError(f"{path}.seed", "seed must be an unsigned 64-bit integer")
    T, dt = _get(obj, "T", path, "positive"), _get(obj, "dt", path, "positive")
    if dt > T:
        raise ConfigError(f"{path}.dt", f"the step {dt:g} is longer than the horizon T = {T:g}")
    return _build(
        path, dyn.SimConfig, seed=seed, T=T, dt=dt,
        x0=_get(obj, "x0", path, "vector"),
        n_paths=_get(obj, "n_paths", path, "count"),
        lambda_max=_get(obj, "lambda_max", path, "positive", None),
        store_every=_get(obj, "store_every", path, "count", 1),
        u=_get(obj, "u", path, "vector", None),
    )


class _CostSpec:
    """Running-cost description shared by the solver and simulator commands.

    The solver evaluates f(x, a) with x in grid convention ((m,) in one
    dimension); in product mode it calls the same cost's ``rows(x, sigma, nu,
    mu)`` instead, with one drift per row, so a sweep makes one call per
    (sigma, nu) pair and block of lattice columns. The simulator reads the
    same ``rows`` along the declared policy (:meth:`along`), so a control
    penalty has one formula. Quadratic parts are summed row by row in a
    fixed order (``_quadratic_rows``), so a state's cost has the same bits in
    every batch and ``rows`` row i is ``f(x[i], a)`` exactly, for any matrix.
    """

    def __init__(self, obj, path: str):
        self.path = path
        if obj is None:
            self.kind = "zero"
            return
        self.kind = _get(obj, "kind", path, str)
        if self.kind == "polynomial":
            self.coeffs = _get(obj, "coeffs", path, "vector")
        elif self.kind == "quadratic_form":
            self.matrix = _get(obj, "matrix", path, "matrix")
            if self.matrix.shape[0] != self.matrix.shape[1]:
                raise ConfigError(f"{path}.matrix", "must be a square matrix")
        elif self.kind == "quadratic_control":
            self.lam = _get(obj, "lam", path, "matrix")
            self.theta = _get(obj, "theta", path, "matrix")
            if self.lam.shape != self.theta.shape or self.lam.shape[0] != self.lam.shape[1]:
                raise ConfigError(path, "lam and theta must be square matrices of equal size")
        elif self.kind != "zero":
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

        def rows(x_batch, sigma, nu, mu):
            X = np.asarray(x_batch, float).reshape(-1, dim)
            out = self._state_part(X)
            if self.kind == "quadratic_control":
                if isinstance(nu, RelocationKernel):  # the drift the action applies
                    mass, y = nu.at(X)
                    mu = mu + mass[:, None] * y
                # vecdot of mu @ theta with mu rounds each row as mu @ theta @ mu does;
                # over one column it is the product plus 0.0, several times faster
                mt = dyn._matmul_into(mu, self.theta, np.empty(mu.shape))
                out = out + (mt[:, 0] * mu[:, 0] + 0.0 if dim == 1 else np.vecdot(mt, mu))
            return out

        def fn(x_batch, a):
            n = np.size(x_batch) // dim
            return rows(x_batch, a.sigma, a.nu, np.broadcast_to(a.mu, (n, dim)))

        fn.rows = rows
        return fn

    def along(self, policy, dim: int):
        """The running cost along ``policy`` on (m, dim) state batches, the
        solver's cost read per row (``verify.costs_along``); None when zero."""
        return None if self.kind == "zero" else ver.costs_along(self.hjb_fn(dim), policy)

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
        coeffs = _get(obj, "coeffs", path, "vector")
        if dim != 1:
            raise ConfigError(path, "polynomial test functions are one-dimensional")
        return lambda X: npoly.polyval(np.asarray(X, float).reshape(-1, 1)[:, 0], coeffs)
    if kind == "poly_plus_exp":
        coeffs = _get(obj, "coeffs", path, "vector")
        a = _get(obj, "exp_coef", path, "number")
        r = _get(obj, "exp_rate", path, "number")
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
    q = _get(pc, "q", ppath, "positive")
    bounds = _get(pc, "q_bounds", ppath, "vector", [q, q])
    if bounds.shape != (2,):
        raise ConfigError(f"{ppath}.q_bounds", "expected [delta_q, b_q]")
    cost = _CostSpec(_get(pc, "cost", ppath, dict, None), f"{ppath}.cost")
    # the solver needs f >= 0 at every state and drift: x^T M x >= 0 for each matrix M
    matrices = {"quadratic_form": ("matrix",), "quadratic_control": ("lam", "theta")}
    for name in matrices.get(cost.kind, ()):
        M = getattr(cost, name)
        if np.linalg.eigvalsh(0.5 * (M + M.T))[0] < -1e-12 * np.abs(M).max():
            raise ConfigError(f"{ppath}.cost.{name}",
                              "symmetric part must be positive semidefinite")
    u = _get(pc, "u", ppath, "vector", None)
    p = _get(pc, "p", ppath, "positive", 2.0)
    q_growth = _get(pc, "q_growth", ppath, "count", 2)

    ac = _get(pc, "actions", ppath, dict)
    apath = f"{ppath}.actions"
    mode = _get(ac, "mode", apath, str)
    kwargs = {}
    if mode == "product":
        pairs = [
            _pair_from(entry, f"{apath}.pairs[{i}]", dim, ZeroMeasure(dim))
            for i, entry in enumerate(_get(ac, "pairs", apath, list))
        ]
        if not pairs:
            raise ConfigError(f"{apath}.pairs", "needs at least one (sigma, nu) entry")
        lat_cfg, lpath = _get(ac, "mu_lattice", apath, dict), f"{apath}.mu_lattice"
        lo, hi = _get(lat_cfg, "lo", lpath, "vector"), _get(lat_cfg, "hi", lpath, "vector")
        num = _get(lat_cfg, "num", lpath, "counts")
        if not (lo.size == hi.size == num.size) or lo.size not in (1, dim):
            raise ConfigError(lpath, f"lo/hi/num must have one length, 1 or {dim}")
        if lo.size == 1 and dim > 1:
            lo, hi, num = np.repeat(lo, dim), np.repeat(hi, dim), np.repeat(num, dim)
        lattice = tuple(np.linspace(a, b, n) for a, b, n in zip(lo, hi, num))
        kwargs.update(sigma_nu_pairs=tuple(pairs), mu_lattice=lattice)
    elif mode == "list":
        entries = []
        for i, entry in enumerate(_get(ac, "entries", apath, list)):
            epath = f"{apath}.entries[{i}]"
            builtin = _get(entry, "builtin", epath, str, None)
            if builtin is None:
                entries.append(_action_from(entry, epath, dim))
            elif builtin == "jump_to_origin":
                rate = _get(entry, "rate", epath, "positive", 1.0)
                entries.append(Action(_sigma_from(entry, epath, dim), RelocationKernel(dim, rate),
                                      np.zeros(dim)))
            else:
                raise ConfigError(f"{epath}.builtin", f"unknown builtin '{builtin}'")
        if not entries:
            raise ConfigError(f"{apath}.entries", "needs at least one action")
        kwargs.update(actions=tuple(entries))
    else:
        raise ConfigError(f"{apath}.mode", f"unknown action mode '{mode}' (product/list)")

    prob = _build(ppath, HJBProblem, f=cost.hjb_fn(dim), q=q, delta_q=float(bounds[0]),
                  b_q=float(bounds[1]), u=u, p=p, q_growth=q_growth, **kwargs)
    return prob, grid, cost


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
    tol = run.tol if run.tol is not None else _get(run.config, "tol", "$", "positive", 1e-8)
    max_iters = _get(run.config, "max_iters", "$", "count", 60)
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
    T = _get(hz, "T", "$.horizon", "positive")
    n_steps = _get(hz, "n_steps", "$.horizon", "count")
    terminal = _CostSpec(_get(hz, "terminal", "$.horizon", dict, None), "$.horizon.terminal")
    if terminal.kind == "quadratic_control":
        raise ConfigError("$.horizon.terminal.kind", "terminal payoffs depend on the state only")
    tol = run.tol if run.tol is not None else 1e-10
    h_grid = 0.0 if terminal.kind == "zero" else (
        lambda xb: terminal._state_part(np.reshape(xb, (-1, grid.dim))))
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


def _simulation_from(run: RunConfig):
    """What simulate and verify both read: the policy, its LQ solution, the sim
    config, the running cost along the policy and the discount (>= 0), plus
    the artifacts' provenance with the effective seed."""
    cfg = run.config
    policy, lq_sol = _policy_from(_get(cfg, "policy", "$", dict), "$.policy")
    sim = _sim_config_from(_get(cfg, "sim", "$", dict), "$.sim", run.seed)
    cost = _CostSpec(_get(cfg, "cost", "$", dict, None), "$.cost")
    q = _get(cfg, "discount", "$", "nonnegative", 0.0)
    rate = policy.rate_cap()  # a step draws Poisson(rate dt) arrivals; numpy's mean limit is 9.2e18
    if rate is not None and not rate * sim.dt < 9.2e18:
        field = {"jump_to_origin": "rate", "lq_optimal": "candidates"}.get(cfg["policy"]["kind"], "nu")
        raise ConfigError(f"$.policy.{field}", "total jump intensity must be finite, < 9.2e18 / sim.dt")
    return policy, lq_sol, sim, cost.along(policy, sim.x0.size), q, {**run.provenance(), "seed": sim.seed}


def cmd_simulate(run: RunConfig) -> int:
    policy, lq_sol, sim, f, q, prov = _simulation_from(run)
    bundle = dyn.simulate(policy, sim, f=f, q=q if q > 0 else None)
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


def _test_from(entry, path: str, policy, lq_sol, dim: int, T: float):
    """One verify test, read in full before any path is simulated.

    Returns its name, the moment-ratio horizons it reads (else none) and a
    function of the shared runs that gives its report.
    """
    name = _get(entry, "name", path, str)
    if name in ("martingale", "transversality"):
        phi = _phi_from(_get(entry, "phi", path, dict), f"{path}.phi", dim, lq_sol)
    if name == "martingale":
        mode = _get(entry, "mode", path, str, "martingale")
        if mode not in ("sub", "martingale"):
            raise ConfigError(f"{path}.mode", f"unknown mode '{mode}' (sub/martingale)")
        pairs = []
        for j, pr in enumerate(_get(entry, "pairs", path, list)):
            st = _read(pr, f"{path}.pairs[{j}]", "vector")
            if st.shape != (2,) or not 0.0 <= st[0] < st[1] <= T:
                raise ConfigError(f"{path}.pairs[{j}]",
                                  f"expected an [s, t] pair with 0 <= s < t <= sim.T = {T:g}")
            pairs.append((float(st[0]), float(st[1])))
        n_bins = _get(entry, "n_bins", path, "count", 8)
        own_cost = _get(entry, "cost", path, dict, None)
        f_own = None if own_cost is None else _CostSpec(own_cost, f"{path}.cost").along(policy, dim)

        def run(shared):
            bundle = shared["bundle"] if own_cost is None else shared["with_cost"](f_own)
            S = dyn.bellman_series(phi, bundle)
            return ver.submartingale_test(S, bundle, pairs, n_bins=n_bins, mode=mode)

        return name, [], run
    if name == "transversality":
        window = _get(entry, "window", path, "positive", 0.5)
        return name, [], lambda shared: ver.transversality_test(shared["bundle"], phi, window=window)
    if name == "integrability":
        p = _get(entry, "p", path, "positive")
        return name, [], lambda shared: ver.h2_integrability_check(shared["bundle"], p)
    if name == "growth":
        box = _get(entry, "box", path, "matrix")
        if box.shape != (dim, 2) or not np.all(box[:, 0] < box[:, 1]):
            raise ConfigError(f"{path}.box", f"expected {dim} [lo, hi] pairs with lo < hi")
        K = _get(entry, "K", path, "positive")
        p = _get(entry, "p", path, "positive")
        try:  # the jump moment of order p, which the check reads at every state
            policy.coefficient_norms(np.zeros((1, dim)), p)
        except DivergenceError as exc:
            raise ConfigError(f"{path}.p", str(exc)) from None
        return name, [], lambda shared: ver.growth_certificate_check(
            policy, (box[:, 0], box[:, 1]), K, p)
    if name == "moment_ratio":
        qm = _get(entry, "q", path, "positive")
        horizons = _get(entry, "horizons", path, "positives", [1.0, 2.0, 4.0]).tolist()
        return name, horizons, lambda shared: ver.moment_bound_report(
            [shared["run"].until(h) for h in horizons], qm)
    raise ConfigError(
        f"{path}.name",
        f"unknown test '{name}' "
        "(martingale/transversality/integrability/growth/moment_ratio)",
    )


def cmd_verify(run: RunConfig) -> int:
    policy, lq_sol, sim, f, q, prov = _simulation_from(run)
    tests = _get(run.config, "tests", "$", list)
    if not tests:
        raise ConfigError("$.tests", "needs at least one test entry")
    tests = [_test_from(t, f"$.tests[{i}]", policy, lq_sol, sim.x0.size, sim.T)
             for i, t in enumerate(tests)]

    # One ensemble at sim.seed serves every test that reads recorded paths.
    # It runs to the largest of T and the moment-ratio horizons, marked at
    # each: the other tests read its prefix to T ("bundle"), each horizon its
    # prefix to that horizon. Without horizons it is the run to T. A test with
    # its own cost reads the same run with that cost ("with_cost"): no draw
    # depends on the cost, so its paths are the shared ones bit for bit.
    reads_paths = any(n in ("martingale", "transversality", "integrability") for n, _, _ in tests)
    ends = [h for _, hs, _ in tests for h in hs] + ([sim.T] if reads_paths else [])
    shared = {}
    if ends:
        costs = dict(f=f, q=q if q > 0 else None) if reads_paths else {}
        ensemble = partial(dyn.simulate, policy, replace(sim, T=max(ends)), marks=ends, **costs)
        run_ = shared["run"] = ensemble()
        shared["bundle"] = run_.until(sim.T) if reads_paths else None
        shared["with_cost"] = lambda cost: ensemble(f=cost).until(sim.T)

    reports = []
    for _, _, test in tests:
        rep = test(shared)
        log.info("test %-16s %s", rep.name, "PASS" if rep.passed else "FAIL")
        reports.append(rep)

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


def _crosscheck_fields(cfg: dict, grid: Grid, **defaults):
    """The ``crosscheck`` fields named in ``defaults`` (an int default makes a
    count), the solver grid (``num`` nodes over ``grid`` when ``num`` is one of
    them, else ``grid``), and then ``window``: [lo, hi] around a solver node."""
    cc = _get(cfg, "crosscheck", "$", dict, {})
    out = {key: _get(cc, key, "$.crosscheck", "count" if isinstance(d, int) else "positive", d)
           for key, d in defaults.items()}
    cgrid = grid if "num" not in out else _build(
        "$.crosscheck.num", Grid.regular, grid.lo[0], grid.hi[0], out["num"])
    w = out["window"] = _get(cc, "window", "$.crosscheck", "vector", [-2.0, 2.0])
    axis = cgrid.axes[0]
    if w.shape != (2,) or not w[0] < w[1] or not np.any((axis >= w[0]) & (axis <= w[1])):
        raise ConfigError("$.crosscheck.window",
                          "must be [lo, hi] with lo < hi around at least one solver node")
    return out, cgrid


def _crosscheck(run: RunConfig, report: dict, cc: dict, prob, grid: Grid, reference,
                tol: float, extra=None) -> int:
    """Solve ``prob`` on the 1-D ``grid`` by policy iteration and compare it with
    ``reference``, the closed form on the grid axis, inside ``cc["window"]``.

    Writes ``report`` with the fields ``cc`` and the comparison under
    ``crosscheck``. Exits 2 if the solve did not converge, and 3 if the
    largest relative difference exceeds ``cc["tol_rel"]`` or ``extra(grid,
    policy)``, which returns (report fields, failed), fails.
    """
    phi, pol, rep = solve_stationary(prob, grid, tol=tol, max_iters=40)
    axis = grid.axes[0]
    mask = (axis >= cc["window"][0]) & (axis <= cc["window"][1])
    ref = reference[mask]
    rel = float(np.max(np.abs(phi.values[mask] - ref) / np.maximum(1.0, np.abs(ref))))
    fields, failed = extra(grid, pol) if extra is not None else ({}, False)
    report["crosscheck"] = {**cc, **fields, "max_rel_diff": rel,
                           "converged": rep.converged, "iterations": rep.iterations}
    _write_json(run.out_dir / "report.json", run.provenance(), report)
    if not rep.converged:
        log.error("cross-check solver did not converge")
        return 2
    if failed or rel > cc["tol_rel"]:
        log.error("cross-check disagreement: %s", _jsonable(report["crosscheck"]))
        return 3
    return 0


def cmd_example(run: RunConfig, which: int) -> int:
    declared = _get(run.config, "which", "$", int, None)
    if declared is not None and declared != which:
        raise ConfigError("$.which", f"config is for example {declared}, requested {which}")
    return (_example1, _example2, _example3)[which - 1](run)


def _polynomial_example(cfg: dict, which: int, grid: dict):
    """The polynomial state cost, the discount q and the 1-D grid (``grid`` by
    default) of examples 1-2."""
    cost = _CostSpec(_get(cfg, "cost", "$", dict,
                          {"kind": "polynomial", "coeffs": [0.0, 0.0, 1.0]}), "$.cost")
    if cost.kind != "polynomial":
        raise ConfigError("$.cost.kind", f"example {which} takes a polynomial state cost")
    try:
        ex._validate_cost(ex._as_poly_coeffs(cost.coeffs))
    except ValueError as exc:
        raise ConfigError("$.cost.coeffs", str(exc)) from None
    q = _get(cfg, "q", "$", "positive", 1.0)
    grid = _grid_from(_get(cfg, "grid", "$", dict, grid), "$.grid")
    if grid.dim != 1:
        raise ConfigError("$.grid", f"example {which} runs on a 1-D grid, got {grid.dim} axes")
    return cost, q, grid


def _diffuse_or_jump(f, q: float, coeffs: np.ndarray) -> HJBProblem:
    """Examples 1-2 as a list-mode problem: unit diffusion, with or without a
    unit-rate jump to the origin."""
    return HJBProblem(
        f=f, q=q, delta_q=q, b_q=q,
        actions=(Action(sigma=np.eye(1), nu=ZeroMeasure(1), mu=np.zeros(1)),
                 Action(sigma=np.eye(1), nu=RelocationKernel(1, 1.0), mu=np.zeros(1))),
        p=2.0, q_growth=max(2, coeffs.size - 1),
    )


def _example1(run: RunConfig) -> int:
    cfg = run.config
    cost, q, grid = _polynomial_example(cfg, 1, {"lo": -6.0, "hi": 6.0, "num": 401})
    cc, cgrid = _crosscheck_fields(cfg, grid, num=241, tol_rel=2e-2)

    psi = ex.example1_psi(cost.coeffs, q, grid)
    V = ex.example1_value(psi, q)
    _write_csv(run.out_dir / "value.csv", run.provenance(),
               [("x", grid.axes[0]), ("psi", psi.values), ("value", V.values)])

    prob = _diffuse_or_jump(cost.hjb_fn(1), q, cost.coeffs)
    report = {"q": q, "cost": cost.describe(),
              "psi0": float(psi.value(0.0)), "value0": float(V.value(0.0))}
    return _crosscheck(run, report, cc, prob, cgrid, V.value(cgrid.axes[0]), 1e-6)


def _example2(run: RunConfig) -> int:
    cfg = run.config
    cost, q, grid = _polynomial_example(cfg, 2, {"lo": -8.0, "hi": 8.0, "num": 481})
    kappa = _get(cfg, "kappa", "$", "positive", 1.0)
    tol = run.tol if run.tol is not None else 1e-8
    cc, cgrid = _crosscheck_fields(cfg, grid, num=241, tol_rel=5e-2, tol_cells=2.0)

    sol = ex.example2_free_boundary(cost.coeffs, q, kappa, grid, tol=tol)
    _write_csv(run.out_dir / "value.csv", run.provenance(),
               [("x", grid.axes[0]), ("phi", sol.phi.values)])

    coeffs = cost.coeffs

    def f_with_charge(x, a):
        return npoly.polyval(np.asarray(x, float), coeffs) + kappa * total_mass(a.nu)

    def switch_gap(cgrid, pol):
        # the solved policy should start jumping within tol_cells of b_hat
        axis = cgrid.axes[0]
        jumping = (pol.action_index.reshape(-1) == 1) & (axis > 0.0)
        if np.any(jumping):
            switch_x = float(axis[jumping].min())
            gap_cells = abs(switch_x - sol.b_hat) / cgrid.h[0]
        else:
            switch_x, gap_cells = float("nan"), float("inf")
        return {"switch_x": switch_x, "gap_cells": gap_cells}, gap_cells > cc["tol_cells"]

    prob = _diffuse_or_jump(f_with_charge, q, coeffs)
    report = {
        "b_hat": sol.b_hat,
        "phi0": sol.phi0,
        "kappa": kappa,
        "q": q,
        "matching_gap": sol.matching_gap,
        "c1_gap": sol.c1_gap,
        "c2_gap": sol.c2_gap,
        "increasing": sol.increasing,
    }
    return _crosscheck(run, report, cc, prob, cgrid, sol.phi.value(cgrid.axes[0]), 1e-6,
                       switch_gap)


def _example3(run: RunConfig) -> int:
    cfg = run.config
    defaults = {"lam": [[1.0]], "theta": [[1.0]], "q": 3.0,
                "candidates": [{"sigma": [[1.0]], "nu": {"kind": "zero"}}]}
    merged = {**defaults, **{k: v for k, v in cfg.items() if k not in ("which",)}}
    spec = _lq_spec_from(merged, "$")
    one_d = spec.lam.shape[0] == 1  # the solver cross-check runs in one dimension only
    if one_d:
        grid = _grid_from(_get(cfg, "grid", "$", dict, {"lo": -6.0, "hi": 6.0, "num": 401}), "$.grid")
        cc, grid = _crosscheck_fields(cfg, grid, tol_rel=2e-2, lattice_num=41)
        if cc["lattice_num"] < 3:
            raise ConfigError("$.crosscheck.lattice_num", "must be a whole number >= 3")
    sol = solve_lq(spec)

    residual = float(np.linalg.norm(riccati_residual(sol.B, spec.lam, spec.theta, spec.q)))
    report = {
        "B": sol.B, "c": sol.c, "d": sol.d, "Q": sol.Q, "v": sol.v, "P": sol.P,
        "delta_hat": sol.delta_hat, "q": spec.q, "riccati_residual": residual,
        "feedback": "mu(x) = v - Q x",
    }
    if not one_d:
        _write_json(run.out_dir / "report.json", run.provenance(), report)
        return 0

    vals = sol.value(grid.axes[0].reshape(-1, 1))
    _write_csv(run.out_dir / "value.csv", run.provenance(), [("x", grid.axes[0]), ("value", vals)])

    # the lattice size shapes the problem, not the comparison, so it is not reported
    lat_n = cc.pop("lattice_num")
    cost = _CostSpec({"kind": "quadratic_control", "lam": spec.lam.tolist(),
                      "theta": spec.theta.tolist()}, "$.crosscheck")
    pairs = spec.dispersion_candidates or ((np.zeros((1, 1)), ZeroMeasure(1)),)
    prob = HJBProblem(
        f=cost.hjb_fn(1), q=spec.q, delta_q=spec.q, b_q=spec.q,
        sigma_nu_pairs=tuple(pairs),
        mu_lattice=(np.linspace(-4.0, 4.0, lat_n),),
        u=spec.u, p=2.0, q_growth=2,
    )
    return _crosscheck(run, report, cc, prob, grid, vals, 1e-8)


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _apply_thread_budget(n: int):
    if n < 1:
        raise ConfigError("--threads", "must be >= 1")
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
        commands = {"solve": cmd_solve, "solve-finite": cmd_solve_finite,
                    "simulate": cmd_simulate, "verify": cmd_verify,
                    "example": lambda run: cmd_example(run, args.which)}
        return commands[args.command](run)
    except ConfigError as exc:
        print(f"jumpctl: {exc}", file=sys.stderr)
        return 1
    except (ex.BracketError, np.linalg.LinAlgError, SolverError) as exc:
        # before ValueError, which LinAlgError subclasses
        print(f"jumpctl: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (MeasureSupportError, DivergenceError, ValueError, TypeError, KeyError) as exc:
        print(f"jumpctl: input error: {exc}", file=sys.stderr)
        return 1
    except dyn.AdmissibilityError as exc:
        print(f"jumpctl: inadmissible model: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # config reads raise ConfigError, so this is --out or an artifact in it
        print(f"jumpctl: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
