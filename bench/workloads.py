"""The three benchmark workloads: generated inputs, operations and output checks.

Every input the program sees is written here from the workload seed; nothing
is read from the package's bundled configs.  Grid sizes are part of each
workload's definition and do not depend on the seed.  The seed reaches every
simulation seed (``sim.seed`` of each generated config and the ``SimConfig``
of each API call) and the generator's state sample.

Each operation is one closed-loop call into a public entry point:
``jumpctl.cli.main(argv)`` where the CLI has a path, the Python API where it
has none.  Only the call is timed; its check runs afterwards.  Names are
looked up on the modules at call time, so the traced run's wrappers apply.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from jumpctl import cli, dynamics, generator, hjb, verify
from jumpctl.examples import example1_psi, example1_value
from jumpctl.lq import LQSpec, solve_lq
from jumpctl.measures import Action, AtomicMeasure, ZeroMeasure

WORKLOADS = ("stationary", "finite_horizon", "montecarlo")

# The benchmark's Monte Carlo checks accept a statistic within this many
# standard errors of its expected value.  The program's batteries test at
# 3 SE: unbiased z statistics still exceed that on a few percent of seeds
# (one of 12 martingale bins on 1 of 24 seeds at 2x10^4 paths), while 5 SE
# is exceeded by chance about once in 10^6 checks.
Z_MAX = 5.0

N_TABLE_PATHS = 400
N_MC_PATHS = 20_000
N_GENERATOR_STATES = 2_000
DYNKIN_TIMES = [0.2, 0.4, 0.6, 0.8, 1.0]


def derive_seed(seed: int, label: str) -> int:
    """A 63-bit simulation seed for one input, fixed by the workload seed."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little") % 2**63


@dataclass
class Op:
    """One operation: ``call`` is timed, ``check`` judges what it returned.

    ``metric`` names the end-to-end timing the operation adds to; ``None``
    marks a probe, which counts only in the failure fraction.
    """

    name: str
    metric: str | None
    call: Callable[[], object]
    check: Callable[[object], dict]
    out_dir: Path | None = None
    argv: list[str] | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: Op
    configs: dict[str, Path] = field(default_factory=dict)
    sim_seeds: dict[str, int] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# helpers


def _write_config(in_dir: Path, name: str, obj: dict, configs: dict) -> Path:
    path = in_dir / f"{name}.json"
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    configs[name] = path
    return path


def _cli_op(name, metric, command, config, out_root: Path, check) -> Op:
    out_dir = out_root / name
    argv = command + ["--config", str(config), "--out", str(out_dir)]
    return Op(name, metric, lambda: cli.main(argv), check, out_dir=out_dir, argv=argv)


def _read_value_csv(path: Path) -> np.ndarray:
    """Rows of a value.csv artifact (provenance line and header skipped)."""
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=2))


def _max_rel(values, reference, mask) -> float:
    ref = reference[mask]
    return float(np.max(np.abs(values[mask] - ref) / np.maximum(1.0, np.abs(ref))))


def _result(ok: bool, detail: str, **extra) -> dict:
    return {"ok": bool(ok), "detail": detail, **extra}


def _exit_zero(rc) -> dict | None:
    return None if rc == 0 else _result(False, f"exit code {rc}, expected 0")


def _crosscheck(out_dir: Path, extra_cells: bool = False):
    def check(rc):
        bad = _exit_zero(rc)
        if bad:
            return bad
        cc = json.loads((out_dir / "report.json").read_text())["crosscheck"]
        ok = cc["converged"] and cc["max_rel_diff"] <= cc["tol_rel"]
        detail = f"crosscheck rel {cc['max_rel_diff']:.3e} <= {cc['tol_rel']:g}"
        if extra_cells:
            ok = ok and cc["gap_cells"] <= cc["tol_cells"]
            detail += f", switch gap {cc['gap_cells']:.2f} <= {cc['tol_cells']:g} cells"
        return _result(ok, detail, rel_err=cc["max_rel_diff"])

    return check


def _value_oracle(out_dir: Path, reference, window, tol: float, label: str):
    """Compare value.csv with a closed form on a window of nodes."""

    def check(rc):
        bad = _exit_zero(rc)
        if bad:
            return bad
        rows = _read_value_csv(out_dir / "value.csv")
        x, phi = rows[:, :-1], rows[:, -1]
        rel = _max_rel(phi, reference(x), window(x))
        return _result(rel <= tol, f"{label} rel {rel:.3e} <= {tol:g}", rel_err=rel)

    return check


def _battery_ok(test: dict) -> bool:
    """A martingale battery is judged by its bin z statistics at Z_MAX; other
    tests (decay rate, integrability, growth, moment ratio) must pass."""
    if test["name"] != "martingale-binned":
        return test["passed"]
    zs = [b["z"] for pair in test["statistics"]["pairs"] for b in pair["bins"]
          if not b.get("excluded")]
    return bool(zs) and max(map(abs, zs)) <= Z_MAX


def _verify_report(out_dir: Path):
    """Exit 0 when every battery passed, else 3, and every battery within Z_MAX."""

    def check(rc):
        report = json.loads((out_dir / "report.json").read_text())
        expected = 0 if report["all_passed"] else 3
        if rc != expected:
            return _result(False, f"exit code {rc}, expected {expected}")
        failed = [t["name"] for t in report["tests"] if not t["passed"]]
        bad = [t["name"] for t in report["tests"] if not _battery_ok(t)]
        return _result(not bad, f"{len(report['tests'])} tests, failed at 3 SE: "
                                f"{failed or 'none'}, wrong: {bad or 'none'}")

    return check


def _lq_1d_problem_config(num: int) -> dict:
    return {
        "problem": {
            "grid": {"lo": -6.0, "hi": 6.0, "num": num},
            "q": 3.0,
            "cost": {"kind": "quadratic_control", "lam": [[1.0]], "theta": [[1.0]]},
            "actions": {
                "mode": "product",
                "pairs": [{"sigma": [[1.0]], "nu": {"kind": "zero"}}],
                "mu_lattice": {"lo": -4.0, "hi": 4.0, "num": 41},
            },
            "p": 2.0,
            "q_growth": 2,
        },
        "tol": 1e-8,
        "max_iters": 40,
    }


# 2-D LQ problem: unit diffusion, or half diffusion plus two axis-aligned atoms.
_ATOMS_2D = [[[0.5, 0.0], 1.0], [[0.0, -0.5], 1.0]]


def _lq_2d_config(num: int) -> dict:
    eye = [[1.0, 0.0], [0.0, 1.0]]
    return {
        "problem": {
            "grid": {"lo": [-3.0, -3.0], "hi": [3.0, 3.0], "num": [num, num]},
            "q": 3.0,
            "cost": {"kind": "quadratic_control", "lam": eye, "theta": eye},
            "actions": {
                "mode": "product",
                "pairs": [
                    {"sigma": eye, "nu": {"kind": "zero"}},
                    {"sigma": [[0.5, 0.0], [0.0, 0.5]],
                     "nu": {"kind": "atomic", "atoms": _ATOMS_2D}},
                ],
                "mu_lattice": {"lo": [-3.0, -3.0], "hi": [3.0, 3.0], "num": [13, 13]},
            },
            "p": 2.0,
            "q_growth": 2,
        },
        "tol": 1e-8,
        "max_iters": 40,
    }


def _lq_oracle(dim: int, candidates) -> Callable[[np.ndarray], np.ndarray]:
    eye = np.eye(dim)
    sol = solve_lq(LQSpec(lam=eye, theta=eye, q=3.0, dispersion_candidates=candidates))
    return lambda x: sol.value(np.asarray(x, float).reshape(-1, dim))


def _example_config(which: int, n: int) -> dict:
    poly = {"kind": "polynomial", "coeffs": [0.0, 0.0, 1.0]}
    if which == 1:
        return {"which": 1, "cost": poly, "q": 1.0,
                "grid": {"lo": -6.0, "hi": 6.0, "num": 401},
                "crosscheck": {"num": n, "tol_rel": 0.02, "window": [-2.0, 2.0]}}
    if which == 2:
        return {"which": 2, "cost": poly, "q": 1.0, "kappa": 1.0,
                "grid": {"lo": -8.0, "hi": 8.0, "num": 481},
                "crosscheck": {"num": n, "tol_rel": 0.05, "tol_cells": 2.0,
                               "window": [-2.0, 2.0]}}
    return {"which": 3, "lam": [[1.0]], "theta": [[1.0]], "q": 3.0,
            "candidates": [{"sigma": [[1.0]], "nu": {"kind": "zero"}}],
            "grid": {"lo": -6.0, "hi": 6.0, "num": n},
            "crosscheck": {"tol_rel": 0.02, "lattice_num": 41, "window": [-2.0, 2.0]}}


# ---------------------------------------------------------------------------
# stationary


def _table_sim_op(seed: int, sim_seeds: dict) -> Op:
    """solve_stationary -> PolicyFieldSpec.from_policy_table -> simulate (API only)."""
    grid = hjb.Grid.regular(-6.0, 6.0, 401)
    prob = hjb.HJBProblem(
        f=lambda x, a: x**2 + float(a.mu @ a.mu), q=3.0, delta_q=3.0, b_q=3.0,
        sigma_nu_pairs=((np.eye(1), ZeroMeasure(1)),),
        mu_lattice=(np.linspace(-4.0, 4.0, 41),),
    )
    sim_seeds["table_sim"] = derive_seed(seed, "table_sim")
    cfg = dynamics.SimConfig(x0=1.0, T=1.0, dt=0.01, n_paths=N_TABLE_PATHS,
                             seed=sim_seeds["table_sim"])
    oracle = _lq_oracle(1, ((np.eye(1), ZeroMeasure(1)),))

    def call():
        phi, pol, rep = hjb.solve_stationary(prob, grid, tol=1e-8, max_iters=40)
        spec = dynamics.PolicyFieldSpec.from_policy_table(pol, prob)
        mu = pol.mu[:, 0]

        def cost(X):
            j = np.clip(np.rint((X[:, 0] - grid.lo[0]) / grid.h[0]), 0, grid.n_nodes - 1)
            return X[:, 0] ** 2 + mu[j.astype(int)] ** 2

        bundle = dynamics.simulate(spec, cfg, f=cost, q=3.0)
        return phi, rep, bundle

    def check(out):
        phi, rep, bundle = out
        x = grid.axes[0]
        rel = _max_rel(phi.values, oracle(x), np.abs(x) <= 2.0)
        # cost to T plus the discounted solved value at T estimates phi(x0)
        xT = bundle.states[:, -1, 0]
        samples = bundle.cost_disc + np.exp(-bundle.gamma[:, -1]) * phi.value(xT)
        se = float(samples.std(ddof=1) / np.sqrt(samples.size))
        z = (float(samples.mean()) - phi.value(1.0)) / se
        ok = rep.converged and rel <= 2e-2 and abs(z) <= Z_MAX
        return _result(ok, f"converged={rep.converged}, LQ rel {rel:.3e} <= 2e-2, "
                           f"Monte Carlo z {z:+.2f} within {Z_MAX:g}", rel_err=rel, z=z)

    return Op("table_sim", "table_sim_s", call, check)


def _probe_check(rc) -> dict:
    return _result(rc == 0, f"exit code {rc}")


def stationary(seed: int, in_dir: Path, out_root: Path) -> Workload:
    configs, sim_seeds = {}, {}
    ops = []
    for which in (1, 2, 3):
        path = _write_config(in_dir, f"example_{which}", _example_config(which, 2001), configs)
        out_dir = out_root / f"example_{which}"
        ops.append(_cli_op(f"example_{which}", "solve_1d_s", ["example", str(which)], path,
                           out_root, _crosscheck(out_dir, extra_cells=which == 2)))

    pairs_2d = ((np.eye(2), ZeroMeasure(2)),
                (0.5 * np.eye(2), AtomicMeasure(2, [a[0] for a in _ATOMS_2D],
                                                [a[1] for a in _ATOMS_2D])))
    path = _write_config(in_dir, "solve_2d", _lq_2d_config(45), configs)
    ops.append(_cli_op(
        "solve_2d", "solve_2d_s", ["solve"], path, out_root,
        _value_oracle(out_root / "solve_2d", _lq_oracle(2, pairs_2d),
                      lambda x: np.max(np.abs(x), axis=1) <= 1.5, 5e-2, "LQ closed form"),
    ))
    ops.append(_table_sim_op(seed, sim_seeds))

    # The two probes sit just past the dense-solve limit of 2,048 nodes.
    path = _write_config(in_dir, "probe_1d", _lq_1d_problem_config(4001), configs)
    ops.append(_cli_op("probe_1d", None, ["solve"], path, out_root, _probe_check))
    path = _write_config(in_dir, "probe_2d", _lq_2d_config(46), configs)
    ops.append(_cli_op("probe_2d", None, ["solve"], path, out_root, _probe_check))

    path = _write_config(in_dir, "warmup", _example_config(1, 121), configs)
    warm = _cli_op("warmup", None, ["example", "1"], path, out_root,
                   _crosscheck(out_root / "warmup"))
    return Workload("stationary", ops, warm, configs, sim_seeds)


# ---------------------------------------------------------------------------
# finite horizon


def _finite_product_config(num: int, n_steps: int) -> dict:
    cfg = _lq_1d_problem_config(num)
    del cfg["tol"], cfg["max_iters"]
    cfg["horizon"] = {"T": 8.0, "n_steps": n_steps, "terminal": {"kind": "zero"}}
    return cfg


def finite_horizon(seed: int, in_dir: Path, out_root: Path) -> Workload:
    configs = {}
    lq = _lq_oracle(1, ((np.eye(1), ZeroMeasure(1)),))
    inner = lambda x: np.abs(x[:, 0]) <= 2.0  # noqa: E731
    path = _write_config(in_dir, "finite_product", _finite_product_config(401, 400), configs)
    product = _cli_op("finite_product", "finite_product_s", ["solve-finite"], path, out_root,
                      _value_oracle(out_root / "finite_product", lq, inner, 1e-2,
                                    "LQ closed form"))

    list_cfg = {
        "problem": {
            "grid": {"lo": -6.0, "hi": 6.0, "num": 401},
            "q": 1.0,
            "cost": {"kind": "polynomial", "coeffs": [0.0, 0.0, 1.0]},
            "actions": {"mode": "list", "entries": [
                {"sigma": [[1.0]]},
                {"builtin": "jump_to_origin", "rate": 1.0, "sigma": [[1.0]]},
            ]},
            "p": 2.0,
            "q_growth": 2,
        },
        "horizon": {"T": 12.0, "n_steps": 200, "terminal": {"kind": "zero"}},
    }
    grid = hjb.Grid.regular(-6.0, 6.0, 401)
    ex1 = example1_value(example1_psi([0.0, 0.0, 1.0], 1.0, grid), 1.0)
    path = _write_config(in_dir, "finite_list", list_cfg, configs)
    listed = _cli_op("finite_list", "finite_list_s", ["solve-finite"], path, out_root,
                     _value_oracle(out_root / "finite_list", lambda x: ex1.value(x[:, 0]),
                                   inner, 2e-2, "example1_value"))

    path = _write_config(in_dir, "warmup", _finite_product_config(51, 10), configs)
    warm = _cli_op("warmup", None, ["solve-finite"], path, out_root,
                   lambda rc: _exit_zero(rc) or _result(True, "exit 0"))
    return Workload("finite_horizon", [product, listed], warm, configs, {})


# ---------------------------------------------------------------------------
# Monte Carlo


def _bump(c: float) -> generator.AnalyticField:
    """(1 - (x/c)^2)^3 on |x| <= c: C^2, compactly supported, exact derivatives."""

    def fn(x):
        u = np.asarray(x, float)[..., 0] / c
        return np.where(np.abs(u) <= 1.0, (1.0 - u**2) ** 3, 0.0)

    def grad(x):
        u = np.asarray(x, float)[..., 0] / c
        return np.where(np.abs(u) <= 1.0, -6.0 * u * (1.0 - u**2) ** 2 / c, 0.0)[..., None]

    def hess(x):
        u = np.asarray(x, float)[..., 0] / c
        h = (-6.0 * (1.0 - u**2) ** 2 + 24.0 * u**2 * (1.0 - u**2)) / c**2
        return np.where(np.abs(u) <= 1.0, h, 0.0)[..., None, None]

    field_ = generator.AnalyticField(fn, grad, hess)
    field_.name = f"bump{c:g}"
    return field_


def _simulate_check(out_dir: Path, sim: dict, rate: float):
    """Compensated compound Poisson: E[X_T] = x0 and the jump count is Poisson."""
    x0, n_paths, T = sim["x0"][0], sim["n_paths"], sim["T"]
    n_snap = round(T / sim["dt"]) // sim["store_every"] + 1

    def check(rc):
        bad = _exit_zero(rc)
        if bad:
            return bad
        summary = json.loads((out_dir / "characteristics.json").read_text())["summary"]
        z_mean = (summary["mean_xT"][0] - x0) / np.sqrt(rate * T / n_paths)
        expected = rate * n_paths * T
        z_jumps = (summary["total_jumps"] - expected) / np.sqrt(expected)
        with open(out_dir / "paths.csv", "rb") as fh:
            lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
        ok = (summary["n_paths"] == n_paths and abs(z_mean) <= Z_MAX
              and abs(z_jumps) <= Z_MAX and lines == 2 + n_paths * n_snap)
        return _result(ok, f"mean z {z_mean:+.2f}, jump-count z {z_jumps:+.2f}, "
                           f"{lines} csv lines", z=float(z_mean))

    return check


def montecarlo(seed: int, in_dir: Path, out_root: Path) -> Workload:
    configs, sim_seeds = {}, {}
    for label in ("simulate", "verify_lq", "verify_moment", "dynkin", "generator", "warmup"):
        sim_seeds[label] = derive_seed(seed, label)

    sim_cfg = {
        "policy": {"kind": "constant", "dim": 1, "sigma": [[0.0]],
                   "nu": {"kind": "atomic", "atoms": [[[1.0], 2.0]]}, "mu": [0.0],
                   "name": "compound-poisson"},
        "sim": {"x0": [0.5], "T": 1.0, "dt": 0.01, "n_paths": N_MC_PATHS,
                "seed": sim_seeds["simulate"], "store_every": 5},
        "cost": {"kind": "polynomial", "coeffs": [0.0, 0.0, 1.0]},
        "discount": 1.0,
    }
    path = _write_config(in_dir, "simulate", sim_cfg, configs)
    ops = [_cli_op("simulate", "simulate_s", ["simulate"], path, out_root,
                   _simulate_check(out_root / "simulate", sim_cfg["sim"], 2.0))]

    verify_lq = {
        "policy": {"kind": "lq_optimal", "lam": [[1.0]], "theta": [[1.0]], "q": 1.0,
                   "candidates": [{"sigma": [[1.0]], "nu": {"kind": "zero"}}]},
        "sim": {"x0": [1.5], "T": 3.0, "dt": 0.005, "n_paths": N_MC_PATHS,
                "seed": sim_seeds["verify_lq"], "store_every": 10},
        "cost": {"kind": "quadratic_control", "lam": [[1.0]], "theta": [[1.0]]},
        "discount": 1.0,
        "tests": [
            {"name": "martingale", "mode": "martingale", "phi": {"kind": "lq_value"},
             "pairs": [[0.5, 1.5], [1.0, 2.5]], "n_bins": 6},
            {"name": "transversality", "phi": {"kind": "lq_value"}},
            {"name": "integrability", "p": 2.0},
            {"name": "growth", "box": [[-6.0, 6.0]], "K": 2.0, "p": 2.0},
        ],
    }
    path = _write_config(in_dir, "verify_lq", verify_lq, configs)
    ops.append(_cli_op("verify_lq", "verify_s", ["verify"], path, out_root,
                       _verify_report(out_root / "verify_lq")))

    verify_moment = {
        "policy": {"kind": "constant", "dim": 1, "sigma": [[0.6]],
                   "nu": {"kind": "atomic", "atoms": [[[1.5], 0.8]]}, "mu": [0.0]},
        "sim": {"x0": [0.0], "T": 1.0, "dt": 0.002, "n_paths": N_MC_PATHS,
                "seed": sim_seeds["verify_moment"], "store_every": 50},
        "tests": [
            {"name": "moment_ratio", "q": 2.0, "horizons": [1.0, 2.0, 4.0]},
            {"name": "integrability", "p": 2.0},
        ],
    }
    path = _write_config(in_dir, "verify_moment", verify_moment, configs)
    ops.append(_cli_op("verify_moment", "verify_s", ["verify"], path, out_root,
                       _verify_report(out_root / "verify_moment")))

    action = Action(sigma=np.array([[0.8]]), nu=AtomicMeasure(1, [[0.5]], [1.0]),
                    mu=np.array([0.2]))
    bumps = [_bump(c) for c in (2.0, 3.0, 4.0)]
    dynkin_cfg = dynamics.SimConfig(x0=0.0, T=1.0, dt=1e-3, n_paths=N_MC_PATHS,
                                    seed=sim_seeds["dynkin"], store_every=10)

    def dynkin_call():
        bundle = dynamics.simulate(dynamics.PolicyFieldSpec.constant(action), dynkin_cfg)
        return verify.dynkin_test(bundle, bumps, DYNKIN_TIMES)

    def dynkin_check(rep):
        z_max = max(abs(c["z"]) for c in rep.statistics["checks"])
        n = len(rep.statistics["checks"])
        return _result(n == 15 and z_max <= Z_MAX,
                       f"passed at 3 SE={rep.passed}, {n} checks, max |z| {z_max:.2f} "
                       f"<= {Z_MAX:g}")

    ops.append(Op("dynkin", "battery_s", dynkin_call, dynkin_check))

    rng = np.random.default_rng(sim_seeds["generator"])
    states = rng.uniform(-4.5, 4.5, size=N_GENERATOR_STATES)
    X = states[:, None]
    y, w = 0.5, 1.0
    exact = np.array([
        (0.2 * g.grad(X)[:, 0] + 0.5 * 0.64 * g.hess(X)[:, 0, 0]
         + w * (g.fn(X + y) - g.fn(X) - y * g.grad(X)[:, 0]))
        for g in bumps
    ])

    def generator_call():
        return np.array([[generator.apply_generator(action, g, np.array([x])) for x in states]
                         for g in bumps])

    def generator_check(vals):
        err = float(np.max(np.abs(vals - exact)))
        return _result(err <= 1e-10, f"max |L g - exact| {err:.2e} <= 1e-10 over "
                                     f"{vals.size} points")

    ops.append(Op("generator", "generator_s", generator_call, generator_check))

    warm_cfg = dict(sim_cfg, sim=dict(sim_cfg["sim"], n_paths=500, seed=sim_seeds["warmup"]))
    path = _write_config(in_dir, "warmup", warm_cfg, configs)
    warm = _cli_op("warmup", None, ["simulate"], path, out_root,
                   lambda rc: _exit_zero(rc) or _result(True, "exit 0"))
    return Workload("montecarlo", ops, warm, configs, sim_seeds)


_DEFINITIONS = {"stationary": stationary, "finite_horizon": finite_horizon,
            "montecarlo": montecarlo}

# End-to-end timings per workload, in report order (wall_s is their sum).
TIMINGS = {
    "stationary": ("solve_1d_s", "solve_2d_s", "table_sim_s"),
    "finite_horizon": ("finite_product_s", "finite_list_s"),
    "montecarlo": ("simulate_s", "verify_s", "battery_s", "generator_s"),
}


def build(name: str, seed: int, work: Path) -> Workload:
    in_dir, out_root = work / "inputs", work / "out"
    in_dir.mkdir(parents=True, exist_ok=True)
    out_root.mkdir(parents=True, exist_ok=True)
    return _DEFINITIONS[name](seed, in_dir, out_root)
