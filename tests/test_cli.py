"""Command-line contract tests.

Everything runs ``jumpctl.cli.main`` in process with ``--out`` pointed at a
tmp dir.  Frozen references:

* bundled lq_1d.json: lam = theta = 1, q = 3, unit diffusion, so
  B solves B^2 + 3B - 1 = 0, B_HAT = (sqrt(13) - 3) / 2 and the value is
  B x^2 + B/3 (d = delta_hat / q with delta_hat = B).
* example 1 at f = x^2, q = 1: psi(0) = 1/4, V(0) = 1/2 exactly.
* pure discounting: zero running cost and constant terminal payoff c give
  phi_0 = c e^{-qT} for every policy; the implicit scheme resolves the
  discount factor exactly, so the tolerance is solver precision.
* compound Poisson bundle (atom at +1, mass 2, T = 1): total jump count
  over n paths is Poisson(2n), checked at 3 standard errors.

Exit codes under test: 0 success, 1 input error, 2 non-convergence with
partial artifacts or a failed linear solve, 3 verification failure.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import jumpctl
from jumpctl.cli import main
from jumpctl.measures import Action, AtomicMeasure

B_HAT = (np.sqrt(13.0) - 3.0) / 2.0
CONFIG_DIR = Path(jumpctl.__file__).parent / "configs"


# the command each bundled config is written for
_BUNDLED_COMMANDS = {"lq_1d": ["solve"], "lq_2d": ["solve"], "finite_lq": ["solve-finite"],
                     "example1": ["example", "1"], "example2": ["example", "2"],
                     "example3": ["example", "3"], "simulate_cp": ["simulate"],
                     "verify_lq": ["verify"]}


def _bundled(name: str) -> str:
    return str(CONFIG_DIR / name)


def _read_csv(path: Path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# {"), "missing provenance header"
    header = json.loads(lines[0][2:])
    names = lines[1].split(",")
    assert header["columns"] == names
    data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    return header, {name: data[:, i] for i, name in enumerate(names)}


def _write_config(tmp_path: Path, obj: dict) -> str:
    p = tmp_path / "config.json"
    p.write_text(json.dumps(obj))
    return str(p)


# ---------------------------------------------------------------------- solve


def test_solve_bundled_lq_matches_closed_form(tmp_path):
    code = main(["solve", "--config", _bundled("lq_1d.json"), "--out", str(tmp_path)])
    assert code == 0

    header, cols = _read_csv(tmp_path / "value.csv")
    assert header["command"] == "solve"
    assert header["version"] == jumpctl.__version__
    raw = Path(_bundled("lq_1d.json")).read_bytes()
    assert header["config_sha256"] == hashlib.sha256(raw).hexdigest()

    x, phi = cols["x"], cols["phi"]
    exact = B_HAT * x**2 + B_HAT / 3.0
    mask = np.abs(x) <= 2.0
    rel = np.abs(phi[mask] - exact[mask]) / np.maximum(1.0, np.abs(exact[mask]))
    assert rel.max() < 1e-2

    _, pol = _read_csv(tmp_path / "policy.csv")
    drift = pol["mu_0"]
    # refined feedback should track -B x; allow one lattice cell (8/40)
    assert np.max(np.abs(drift[mask] + B_HAT * x[mask])) < 0.2 + 1e-2

    report = json.loads((tmp_path / "report.json").read_text())
    assert report["converged"] is True
    assert report["provenance"]["config"] == "lq_1d.json"


def test_solve_zero_cost_gives_zero_value(tmp_path):
    cfg = json.loads(Path(_bundled("lq_1d.json")).read_text())
    cfg["problem"]["cost"] = {"kind": "zero"}
    code = main(["solve", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 0
    _, cols = _read_csv(tmp_path / "value.csv")
    assert np.max(np.abs(cols["phi"])) < 1e-10


def test_solve_nonconvergence_exits_2_with_partial_result(tmp_path):
    cfg = json.loads(Path(_bundled("lq_1d.json")).read_text())
    cfg["max_iters"] = 1
    cfg["tol"] = 1e-14
    code = main(["solve", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 2
    assert (tmp_path / "value.csv").exists()
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["converged"] is False


def test_solver_error_exits_2_without_traceback(tmp_path, monkeypatch, capsys):
    from jumpctl import cli
    from jumpctl.hjb import SolverError

    def failing(*args, **kwargs):
        raise SolverError("sparse LU solve missed the residual bound")

    monkeypatch.setattr(cli, "solve_stationary", failing)
    code = main(["solve", "--config", _bundled("lq_1d.json"), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.strip().splitlines() == ["jumpctl: numerical failure: sparse LU solve missed "
                                        "the residual bound"]


def test_solve_finite_pure_discount(tmp_path):
    cfg = json.loads(Path(_bundled("lq_1d.json")).read_text())
    cfg["problem"]["cost"] = {"kind": "zero"}
    cfg["horizon"] = {"T": 2.0, "n_steps": 40, "terminal": {"kind": "polynomial", "coeffs": [2.5]}}
    code = main(["solve-finite", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 0
    _, cols = _read_csv(tmp_path / "value.csv")
    assert np.max(np.abs(cols["phi"] - 2.5 * np.exp(-3.0 * 2.0))) < 1e-10


# ------------------------------------------------------------------- simulate


def test_simulate_reruns_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["simulate", "--config", _bundled("simulate_cp.json"), "--out", str(out)]) == 0
    for name in ("paths.csv", "characteristics.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_artifacts_and_jump_count(tmp_path):
    assert main(["simulate", "--config", _bundled("simulate_cp.json"), "--out", str(tmp_path)]) == 0
    header, cols = _read_csv(tmp_path / "paths.csv")
    assert header["seed"] == 7
    assert header["columns"] == ["path", "time", "x", "gamma", "cost"]
    n_paths = int(cols["path"].max()) + 1
    assert n_paths == 2000

    chars = json.loads((tmp_path / "characteristics.json").read_text())
    n_jumps = chars["characteristics"]["n_jumps"]
    lam = 2.0 * 1.0 * n_paths  # Poisson mean of the total count
    assert abs(n_jumps - lam) <= 3.0 * np.sqrt(lam)
    assert chars["provenance"]["command"] == "simulate"
    # discount integral: constant rate 1 over T=1 on every path
    assert abs(cols["gamma"].max() - 1.0) < 1e-12


def test_simulate_density_histogram_spreads_each_cell(tmp_path):
    # each draw from a density cell is jittered uniformly across the cell, so the
    # predicted jump-size histogram spreads a cell's mass over every magnitude bin
    # the cell meets (with each cell's mass at its midpoint, only 5 of 20 bins had
    # an expected count while every bin held draws, and max_z read inf)
    cfg = json.loads(Path(_bundled("simulate_cp.json")).read_text())
    cfg["policy"]["nu"] = {"kind": "density", "lo": [-1], "hi": [1], "shape": [20],
                           "values": [1] * 20, "eps": 0.5}
    assert main(["simulate", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 0
    chars = json.loads((tmp_path / "characteristics.json").read_text())["characteristics"]
    assert isinstance(chars["max_z"], float) and chars["max_z"] <= 5.0
    expected = np.array(chars["hist_expected"])
    assert np.all(expected > 0.0) and expected.sum() == pytest.approx(2000.0, rel=1e-9)


def test_simulate_seed_flag_overrides_config(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", _bundled("simulate_cp.json"), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", _bundled("simulate_cp.json"), "--out", str(out2),
                 "--seed", "11"]) == 0
    h1, _ = _read_csv(out1 / "paths.csv")
    h2, _ = _read_csv(out2 / "paths.csv")
    assert h1["seed"] == 7 and h2["seed"] == 11
    assert (out1 / "paths.csv").read_bytes() != (out2 / "paths.csv").read_bytes()


def test_float_rendering_recovers_doubles_bit_exactly(tmp_path):
    assert main(["simulate", "--config", _bundled("simulate_cp.json"), "--out", str(tmp_path)]) == 0
    _, cols = _read_csv(tmp_path / "paths.csv")

    from jumpctl.dynamics import PolicyFieldSpec, SimConfig, simulate
    from jumpctl.measures import Action, AtomicMeasure

    cfg = json.loads(Path(_bundled("simulate_cp.json")).read_text())
    act = Action(sigma=np.zeros((1, 1)), nu=AtomicMeasure(1, [[1.0]], [2.0]), mu=np.zeros(1))
    bundle = simulate(
        PolicyFieldSpec.constant(act),
        SimConfig(**cfg["sim"]),
        f=lambda X: X[:, 0] ** 2,
        q=1.0,
    )
    # 17 significant digits round-trip IEEE754 doubles exactly
    n, K, _ = bundle.states.shape
    np.testing.assert_array_equal(cols["x"], bundle.states[:, :, 0].ravel())
    np.testing.assert_array_equal(cols["cost"], bundle.cost_run.ravel())


def _write_csv_per_cell(path: Path, provenance: dict, columns: list) -> None:
    """The writer the block writer replaced: one format call per cell."""

    def fmt(value) -> str:
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return format(float(value), ".17g")

    names = [name for name, _ in columns]
    header = dict(provenance, columns=names)
    arrays = [np.asarray(col) for _, col in columns]
    lines = ["# " + json.dumps(header, sort_keys=True, separators=(",", ":")), ",".join(names)]
    lines.extend(",".join(fmt(a[i]) for a in arrays) for i in range(arrays[0].shape[0]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("rows", [0, 1, 2**14 - 1, 2**14, 2**14 + 1])
def test_write_csv_matches_per_cell_format(tmp_path, rows):
    from jumpctl.cli import _write_csv

    rng = np.random.default_rng(rows)
    i64 = np.iinfo(np.int64)
    ints = np.resize(np.array([i64.min, i64.max, 0, -1, 7], dtype=np.int64), rows)
    uints = np.resize(np.array([np.iinfo(np.uint64).max, 0, 3], dtype=np.uint64), rows)
    flags = np.resize(np.array([True, False, False]), rows)
    special = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308, 0.1])
    floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    floats[: min(rows, special.size)] = special[: min(rows, special.size)]
    # repeated columns are formatted once per distinct value, distinct ones
    # cell by cell: both paths, with -0.0 and 0.0 repeated in one column
    columns = [("i", ints), ("u", uints), ("flag", flags), ("x", floats),
               ("y", floats[::-1].copy()), ("k", np.arange(rows, dtype=np.int64) * 7919 - 3),
               ("z", np.resize(special, rows))]
    prov = {"command": "test", "seed": 3}
    _write_csv(tmp_path / "block.csv", prov, columns)
    _write_csv_per_cell(tmp_path / "cell.csv", prov, columns)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "cell.csv").read_bytes()


# --------------------------------------------------------------- output errors


def test_unwritable_out_dir_exits_1_without_traceback(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    code = main(["simulate", "--config", _bundled("simulate_cp.json"), "--seed", "7",
                 "--out", str(blocker / "sub")])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("jumpctl: cannot write output: ")
    assert str(blocker / "sub") in lines[0]


def test_failed_artifact_write_exits_1(tmp_path, capsys):
    (tmp_path / "paths.csv").mkdir()  # the artifact path is taken by a directory
    code = main(["simulate", "--config", _bundled("simulate_cp.json"), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.strip().splitlines() == [
        f"jumpctl: cannot write output: [Errno 21] Is a directory: '{tmp_path / 'paths.csv'}'"
    ]


# --------------------------------------------------------------- input errors


def test_malformed_measure_exit_1_names_field(tmp_path, capsys):
    cfg = json.loads(Path(_bundled("simulate_cp.json")).read_text())
    cfg["policy"]["nu"]["atoms"] = [[[0.0], 2.0]]
    code = main(["simulate", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "$.policy.nu" in err
    assert "origin" in err


def test_json_parse_error_reports_line_and_column(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not valid json\n")
    code = main(["solve", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 1
    assert "line 1" in capsys.readouterr().err


def test_missing_required_field_is_reported_by_path(tmp_path, capsys):
    cfg = json.loads(Path(_bundled("simulate_cp.json")).read_text())
    del cfg["sim"]["T"]
    code = main(["simulate", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 1
    assert "$.sim.T" in capsys.readouterr().err


def test_bad_log_level_is_an_input_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("JUMPCTL_LOG", "chatty")
    code = main(["example", "3", "--out", str(tmp_path)])
    assert code == 1
    assert "JUMPCTL_LOG" in capsys.readouterr().err


def test_seed_flag_must_be_u64(tmp_path, capsys):
    code = main(["simulate", "--config", _bundled("simulate_cp.json"),
                 "--out", str(tmp_path), "--seed", "-3"])
    assert code == 1
    assert "--seed" in capsys.readouterr().err


def test_example_config_mismatch_is_an_input_error(tmp_path, capsys):
    code = main(["example", "2", "--config", _bundled("example1.json"), "--out", str(tmp_path)])
    assert code == 1
    assert "$.which" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["one", 1.7, True])
def test_example_which_must_be_an_integer(tmp_path, capsys, which):
    code = main(["example", "1", "--config", _write_config(tmp_path, {"which": which}),
                 "--out", str(tmp_path)])
    assert code == 1
    assert "$.which" in capsys.readouterr().err


_BOOL_FIELDS = [("n_paths", True), ("seed", True), ("x0", [True])]


@pytest.mark.parametrize("field, value", _BOOL_FIELDS, ids=[f for f, _ in _BOOL_FIELDS])
def test_booleans_are_not_numbers(tmp_path, capsys, field, value):
    cfg = json.loads(Path(_bundled("simulate_cp.json")).read_text())
    cfg["sim"][field] = value
    code = main(["simulate", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 1
    assert f"$.sim.{field}" in capsys.readouterr().err


_DENSITY_NU = {"kind": "density", "lo": [0.5], "hi": [1.5], "shape": [4],
               "values": [1.0, 1.0, 1.0, 1.0]}
_DENSITY_2D = {"kind": "density", "lo": [0.5, 0.5], "hi": [1.5, 1.5], "shape": [2, 2],
               "values": [1.0, 1.0, 1.0, 1.0]}

# list items and nested values, which the reader checks item by item: (config,
# test entry or None, key path, value, the field path the error names)
_HAND_READ_BOOLS = [
    ("simulate_cp.json", None, ("policy", "nu", "atoms", 0, 1), True, "$.policy.nu.atoms[0]"),
    ("simulate_cp.json", None, ("policy", "nu", "atoms", 0, 0), [True], "$.policy.nu.atoms[0]"),
    ("simulate_cp.json", None, ("policy", "nu"), {**_DENSITY_NU, "values": [True, 1.0, 1.0, 1.0]},
     "$.policy.nu.values"),
    ("simulate_cp.json", None, ("policy", "nu"),
     {**_DENSITY_NU, "values": [[True], [1.0], [1.0], [1.0]]}, "$.policy.nu.values"),
    ("verify_lq.json", 0, ("pairs", 0), [True, 1.0], "$.tests[0].pairs[0]"),
    ("verify_lq.json", 3, ("box",), [[True, 6.0]], "$.tests[0].box"),
]


_DELETE = object()


def _set(cfg, keys, value):
    """``cfg`` with the value at ``keys`` replaced, or deleted for ``_DELETE``."""
    node = cfg
    for k in keys[:-1]:
        node = node[k]
    if value is _DELETE:
        del node[keys[-1]]
    else:
        node[keys[-1]] = value
    return cfg


def _mutated(name, test, keys, value):
    cfg = json.loads(Path(_bundled(name)).read_text())
    if test is not None:
        cfg["tests"] = [cfg["tests"][test]]
        keys = ("tests", 0, *keys)
    return _set(cfg, keys, value)


@pytest.mark.parametrize("name, test, keys, value, where", _HAND_READ_BOOLS,
                         ids=["atom_mass", "atom_location", "density_value", "nested_density_value",
                              "verify_pair", "growth_box"])
def test_hand_read_booleans_are_not_numbers(tmp_path, capsys, name, test, keys, value, where):
    cfg = _mutated(name, test, keys, value)
    command = "verify" if test is not None else "simulate"
    code = main([command, "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert where in err and "Traceback" not in err


def test_hand_read_booleans_are_schema_errors():
    jsonschema = pytest.importorskip("jsonschema")
    schema = jsonschema.Draft7Validator(json.loads((CONFIG_DIR / "config.schema.json").read_text()))
    for name, test, keys, value, _ in _HAND_READ_BOOLS:
        assert not schema.is_valid(_mutated(name, test, keys, value)), (name, keys)


@pytest.mark.parametrize("shape", [[4.6], [0]], ids=["fractional", "zero"])
def test_density_shape_must_hold_positive_integers(tmp_path, capsys, shape):
    cfg = _mutated("simulate_cp.json", None, ("policy", "nu"), {**_DENSITY_NU, "shape": shape})
    code = main(["simulate", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "$.policy.nu.shape" in err and "Traceback" not in err
    jsonschema = pytest.importorskip("jsonschema")
    schema = jsonschema.Draft7Validator(json.loads((CONFIG_DIR / "config.schema.json").read_text()))
    assert not schema.is_valid(cfg)
    assert schema.is_valid(_mutated("simulate_cp.json", None, ("policy", "nu"), _DENSITY_NU))


@pytest.mark.parametrize("window", [[0.5], [10.0, 11.0]])
def test_example_crosscheck_window_is_checked(tmp_path, capsys, window):
    # a window must be [lo, hi] around a solver node; [10, 11] is beyond the grid
    cfg = json.loads(Path(_bundled("example1.json")).read_text())
    cfg["crosscheck"]["window"] = window
    code = main(["example", "1", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "$.crosscheck.window" in err and "Traceback" not in err
    assert not (tmp_path / "value.csv").exists()


# the field each count mutation targets: (config, key path, the path the error names)
_COUNT_FIELDS = [
    ("simulate_cp.json", ("sim", "n_paths"), "$.sim.n_paths"),
    ("simulate_cp.json", ("sim", "store_every"), "$.sim.store_every"),
    ("simulate_cp.json", ("policy", "dim"), "$.policy.dim"),
    ("lq_1d.json", ("max_iters",), "$.max_iters"),
    ("finite_lq.json", ("horizon", "n_steps"), "$.horizon.n_steps"),
    ("verify_lq.json", ("tests", 0, "n_bins"), "$.tests[0].n_bins"),
    ("lq_1d.json", ("problem", "q_growth"), "$.problem.q_growth"),
    ("lq_1d.json", ("problem", "grid", "num"), "$.problem.grid.num"),
    ("lq_1d.json", ("problem", "actions", "mu_lattice", "num"),
     "$.problem.actions.mu_lattice.num"),
    ("example1.json", ("crosscheck", "num"), "$.crosscheck.num"),
    ("example3.json", ("crosscheck", "lattice_num"), "$.crosscheck.lattice_num"),
]


@pytest.mark.parametrize("name, keys, where", _COUNT_FIELDS, ids=[w for _, _, w in _COUNT_FIELDS])
def test_fractional_counts_exit_1_naming_the_field(tmp_path, capsys, name, keys, where):
    cfg = _set(json.loads(Path(_bundled(name)).read_text()), keys, 2.5)
    code = main([*_BUNDLED_COMMANDS[name[:-5]], "--config", _write_config(tmp_path, cfg),
                 "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"config error at '{where}': must be" in err and "whole number" in err, err


@pytest.mark.parametrize("name, keys, where", _COUNT_FIELDS, ids=[w for _, _, w in _COUNT_FIELDS])
def test_huge_counts_exit_1_naming_the_field(tmp_path, capsys, name, keys, where):
    # 1e308 is a whole number, but as an int it would wrap to -2^63: a count is
    # at most 2^31 - 1 (max_iters: 1e308 used to end in an AttributeError traceback)
    cfg = _set(json.loads(Path(_bundled(name)).read_text()), keys, 1e308)
    code = main([*_BUNDLED_COMMANDS[name[:-5]], "--config", _write_config(tmp_path, cfg),
                 "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"config error at '{where}': must be" in err and "2^31 - 1" in err, err
    assert "Traceback" not in err


def test_example3_lattice_below_the_schema_minimum_exits_1(tmp_path, capsys):
    # the schema asks for at least 3 drift points; two used to solve and exit 3
    cfg = json.loads(Path(_bundled("example3.json")).read_text())
    cfg["crosscheck"]["lattice_num"] = 2
    code = main(["example", "3", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 1
    assert "config error at '$.crosscheck.lattice_num'" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_step_count_beyond_int32_exits_1(tmp_path, capsys):
    # sim.T / sim.dt must round to at most 2^31 - 1 steps; T = 1e308 used to
    # raise an OverflowError out of simulate
    cfg = json.loads(Path(_bundled("simulate_cp.json")).read_text())
    cfg["sim"]["T"] = 1e308
    code = main(["simulate", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error at '$.sim'" in err and "Euler steps" in err and "Traceback" not in err


def test_measure_whose_moments_overflow_exits_1(tmp_path, capsys):
    # an atom at 1e308 is a valid support, but its second moment overflows;
    # this used to end in a DivergenceError traceback out of the simulator
    cfg = json.loads(Path(_bundled("simulate_cp.json")).read_text())
    cfg["policy"]["nu"]["atoms"][0][0] = [1e308]
    code = main(["simulate", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error at '$.policy.nu'" in err and "did not evaluate finite" in err, err


# values of the right type that no run can use, each reported at its field:
# (config, command, (key path, value) edits, the path the error names, its message)
_UNUSABLE_VALUES = [
    ("example1.json", ["example", "1"], [(("cost", "coeffs"), [1.0, 1.0, 1.0])],
     "$.cost.coeffs", "cost must be symmetric"),
    ("example2.json", ["example", "2"], [(("cost", "coeffs"), [-1.0, 0.0, 1.0])],
     "$.cost.coeffs", "cost must be nonnegative"),
    # the second moment of an atom at 1e100 is finite, its fourth is not; the
    # growth check reads the fourth (this used to end in a DivergenceError traceback)
    ("simulate_cp.json", ["verify"], [
        (("policy", "nu", "atoms", 0, 0), [1e100]),
        (("tests",), [{"name": "growth", "box": [[-1.0, 1.0]], "K": 1.0, "p": 4.0}])],
     "$.tests[0].p", "did not evaluate finite"),
    # a small-jump covariance must be a symmetric PSD dim x dim matrix (a 1x1 on
    # a 2-D measure used to be broadcast onto every entry of the diffusion)
    *[("lq_2d.json", ["solve"], [(("problem", "actions", "pairs", 1, "nu"),
                                  {**_DENSITY_2D, "small_jump_cov": cov})],
       "$.problem.actions.pairs[1].nu.small_jump_cov", "semidefinite 2x2 matrix")
      for cov in ([[0.1]], np.eye(3).tolist())],
    ("simulate_cp.json", ["simulate"], [(("policy", "nu"), {**_DENSITY_NU, "small_jump_cov": [[-3.0]]})],
     "$.policy.nu.small_jump_cov", "semidefinite 1x1 matrix"),
    # a solved problem's cost matrices must make f >= 0 (these used to exit 1
    # with the path-less "running cost must be nonnegative" of the first sweep)
    *[(name, command, [(("problem", "cost", field), [[-1.0]])], f"$.problem.cost.{field}",
       "symmetric part must be positive semidefinite")
      for name, command in (("lq_1d.json", ["solve"]), ("finite_lq.json", ["solve-finite"]))
      for field in ("lam", "theta")],
    ("lq_2d.json", ["solve"], [(("problem", "cost"), {"kind": "quadratic_form",
                                                      "matrix": [[1.0, 4.0], [0.0, 1.0]]})],
     "$.problem.cost.matrix", "symmetric part must be positive semidefinite"),
    # a 1 x 2 form used to end in an IndexError traceback
    ("lq_1d.json", ["solve"], [(("problem", "cost"), {"kind": "quadratic_form",
                                                      "matrix": [[1.0, 0.0]]})],
     "$.problem.cost.matrix", "must be a square matrix"),
    # a drift lattice needs 1 or dim axes (3 on a 2-D grid used to fail in a
    # reshape without a path)
    ("lq_2d.json", ["solve"], [(("problem", "actions", "mu_lattice"),
                                {"lo": [-1.0] * 3, "hi": [1.0] * 3, "num": [5] * 3})],
     "$.problem.actions.mu_lattice", "1 or 2"),
    # a reversed growth box is read before any path is simulated (it used to
    # simulate first and exit without a path)
    ("verify_lq.json", ["verify"], [(("tests", 3, "box"), [[6.0, -6.0]])],
     "$.tests[3].box", "lo < hi"),
    # a cost that overflows on the probe lattice compared false with NaN and
    # passed the cost checks (these used to exit 1 without a path, or 2)
    *[(f"example{which}.json", ["example", str(which)], [(("cost", "coeffs"), coeffs)],
       "$.cost.coeffs", "cost must evaluate finite on [-5, 5]")
      for which in (1, 2) for coeffs in ([0.0, 1e308, 1.0], [0.0, 0.0, 1e308])],
    # the examples' closed forms and cross-checks are 1-D (a 2-D grid used to
    # exit 1 with the path-less "the benchmark problems are one-dimensional")
    *[(f"example{which}.json", ["example", str(which)],
       [(("grid",), {"lo": [-6.0, -6.0], "hi": [6.0, 6.0], "num": [41, 41]})],
       "$.grid", f"example {which} runs on a 1-D grid")
      for which in (1, 2)],
    # a constant cost of 1e308 is finite, but the cross-check solve's products
    # of it overflow (this used to exit 2 with a NaN residual)
    ("example1.json", ["example", "1"], [(("cost", "coeffs", 0), 1e308)],
     "$.cost.coeffs", "cost must stay within 1e300 on [-5, 5]"),
    # each step draws Poisson(mass dt) arrivals (numpy's "lam value too large")
    ("simulate_cp.json", ["simulate"], [(("policy", "nu", "atoms", 0, 1), 1e308)],
     "$.policy.nu", "total jump intensity must be finite"),
    # a step past the horizon left no time between a pair's ends ("pair (0.5,
    # 1.5) does not resolve to increasing indices")
    ("verify_lq.json", ["verify"], [(("sim", "dt"), 1e308)],
     "$.sim.dt", "longer than the horizon"),
    # a pair's end past the horizon resolved to snapshot 0 ("pair (0.5, 1e+308)
    # does not resolve to increasing indices")
    *[("verify_lq.json", ["verify"], [(("tests", 0, "pairs", j, 1), 1e308)],
       f"$.tests[0].pairs[{j}]", "0 <= s < t <= sim.T") for j in (0, 1)],
]


@pytest.mark.parametrize("name, command, edits, where, message", _UNUSABLE_VALUES,
                         ids=["example1_asymmetric_cost", "example2_negative_cost",
                              "growth_moment_overflow", "small_jump_cov_1x1_in_2d",
                              "small_jump_cov_3x3_in_2d", "small_jump_cov_negative",
                              "lq_1d_lam", "lq_1d_theta", "finite_lq_lam", "finite_lq_theta",
                              "lq_2d_indefinite_form", "lq_1d_nonsquare_form",
                              "lq_2d_three_axis_lattice", "verify_lq_reversed_box",
                              "example1_overflow_linear", "example1_overflow_quadratic",
                              "example2_overflow_linear", "example2_overflow_quadratic",
                              "example1_2d_grid", "example2_2d_grid",
                              "example1_overflow_constant", "simulate_atom_mass_overflow",
                              "verify_dt_beyond_horizon", "verify_pair_0_end_overflow",
                              "verify_pair_1_end_overflow"])
def test_unusable_values_exit_1_naming_the_field(tmp_path, capsys, name, command, edits, where,
                                                 message):
    cfg = json.loads(Path(_bundled(name)).read_text())
    for keys, value in edits:
        cfg = _set(cfg, keys, value)
    with warnings.catch_warnings():  # the error is the run's one line of stderr
        warnings.simplefilter("error", RuntimeWarning)
        code = main([*command, "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"config error at '{where}'" in err and message in err and err.count("\n") == 1, err


@pytest.mark.parametrize("name, command, edit, message", [
    ("example3.json", ["example", "3"], (("lam",), [[1e-300]]), "refined solution rejected"),
    ("lq_1d.json", ["solve"], (("problem", "grid", "hi"), 1e308), "SVD did not converge"),
], ids=["riccati_not_refined", "svd_not_converged"])
def test_linear_algebra_failures_exit_2(tmp_path, capsys, name, command, edit, message):
    # numpy's LinAlgError is a ValueError, but a failed routine is a numerical
    # failure, not an input error (these used to exit 1 with "input error")
    cfg = _set(json.loads(Path(_bundled(name)).read_text()), *edit)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main([*command, "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"jumpctl: numerical failure: {message}" in err and "Traceback" not in err, err


def test_divergence_error_is_an_input_error(tmp_path, monkeypatch, capsys):
    # a moment that no config check reads ahead still exits 1, without a traceback
    from jumpctl import dynamics
    from jumpctl.measures import DivergenceError

    def diverging(*args, **kwargs):
        raise DivergenceError("moment functional of order 4.0 did not evaluate finite")

    monkeypatch.setattr(dynamics, "simulate", diverging)
    code = main(["simulate", "--config", _bundled("simulate_cp.json"), "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.strip() == \
        "jumpctl: input error: moment functional of order 4.0 did not evaluate finite"


def test_list_mode_jump_to_origin_control_cost(tmp_path):
    # the builtin jump to the origin is one relocation kernel entry, and a
    # control cost charges the drift it applies, -rate x: value.csv has the
    # bytes of the per-state entries it replaced (7.5 at x = -3; 5.0 if the
    # cost read the Action's own drift 0)
    cfg = {"problem": {
        "grid": {"lo": -4.0, "hi": 4.0, "num": 81}, "q": 1.0,
        "cost": {"kind": "quadratic_control", "lam": [[1.0]], "theta": [[0.5]]},
        "actions": {"mode": "list", "entries": [
            {"sigma": [[1.0]]}, {"builtin": "jump_to_origin", "rate": 1.0, "sigma": [[1.0]]}]}}}
    assert main(["solve", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 0
    body = (tmp_path / "value.csv").read_bytes().split(b"\n", 1)[1]
    assert hashlib.sha256(body).hexdigest() == \
        "ce4ee93ce599b000065ef854c5131cebde298c8cb86851bd0d4f6a806200606c"
    assert b"\n-3,7.5000000000000284\n" in body


def test_whole_floats_read_as_counts(tmp_path):
    # Draft 7 calls 2000.0 an integer, and so does the reader: the run is the
    # bundled one, byte for byte
    cfg = json.loads(Path(_bundled("simulate_cp.json")).read_text())
    cfg["sim"].update(n_paths=2000.0, store_every=5.0)
    cfg["policy"]["dim"] = 1.0
    for out, path in ((tmp_path / "a", _bundled("simulate_cp.json")),
                      (tmp_path / "b", _write_config(tmp_path, cfg))):
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    assert (tmp_path / "a" / "paths.csv").read_bytes().split(b"\n", 1)[1] == \
        (tmp_path / "b" / "paths.csv").read_bytes().split(b"\n", 1)[1]


def _leaves(node, keys=()):
    """(key path, value) of every scalar in a JSON config."""
    if isinstance(node, (dict, list)):
        for k, v in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _leaves(v, keys + (k,))
    else:
        yield keys, node


def _field(keys) -> str:
    """The $. path of the config field a leaf lies in: list indices after the
    last key are part of the field's value."""
    keys = list(keys)
    while isinstance(keys[-1], int):
        keys.pop()
    return "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)


def test_schema_rejections_exit_1_with_a_path(tmp_path, capsys):
    # every scalar of every bundled config becomes true, "x", missing (a
    # mapping key) and, for an integer, 2.5 and 2^31 (one past the largest
    # count); each result the schema rejects must exit 1 naming the mutated field
    jsonschema = pytest.importorskip("jsonschema")
    schema = jsonschema.Draft7Validator(json.loads((CONFIG_DIR / "config.schema.json").read_text()))
    rejected, failures = 0, []
    for name, cmd in _BUNDLED_COMMANDS.items():
        raw = Path(_bundled(f"{name}.json")).read_text()
        for keys, value in _leaves(json.loads(raw)):
            mutations = [True, "x"] + [_DELETE] * isinstance(keys[-1], str) \
                + [2.5, 2**31] * (type(value) is int)
            for mutation in mutations:
                cfg = _set(json.loads(raw), keys, mutation)
                if schema.is_valid(cfg):
                    continue
                rejected += 1
                code = main([*cmd, "--config", _write_config(tmp_path, cfg),
                             "--out", str(tmp_path / "out")])
                err = capsys.readouterr().err
                if code != 1 or f"config error at '{_field(keys)}" not in err:
                    failures.append((name, keys, mutation, code, err))
    assert rejected > 300
    assert not failures, failures


def test_bundled_configs_match_the_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = jsonschema.Draft7Validator(json.loads((CONFIG_DIR / "config.schema.json").read_text()))
    names = sorted(p.name for p in CONFIG_DIR.glob("*.json") if p.name != "config.schema.json")
    assert len(names) == 8
    for name in names:
        schema.validate(json.loads(Path(_bundled(name)).read_text()))
    # the inputs the parser rejects above are schema errors too, except the
    # window beyond the grid: the schema cannot see the grid
    mutations = [("simulate_cp.json", "sim", f, v) for f, v in _BOOL_FIELDS]
    mutations.append(("example1.json", "crosscheck", "window", [0.5]))
    for name, section, field, value in mutations:
        cfg = json.loads(Path(_bundled(name)).read_text())
        cfg[section][field] = value
        assert not schema.is_valid(cfg), (name, field, value)


# ------------------------------------------------------------------- examples


def test_example_1_reproduces_the_closed_form(tmp_path):
    code = main(["example", "1", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert abs(report["value0"] - 0.5) < 1e-6
    assert abs(report["psi0"] - 0.25) < 1e-6
    assert report["crosscheck"]["converged"] is True
    assert report["crosscheck"]["max_rel_diff"] <= report["crosscheck"]["tol_rel"]
    _, cols = _read_csv(tmp_path / "value.csv")
    assert set(cols) == {"x", "psi", "value"}
    np.testing.assert_allclose(cols["value"], cols["psi"] + report["psi0"], atol=1e-12)


def test_example_2_free_boundary_and_smooth_fit(tmp_path):
    code = main(["example", "2", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["b_hat"] > 0.0
    assert report["matching_gap"] <= 1e-8
    assert report["c1_gap"] <= 1e-8
    assert report["increasing"] is True
    assert report["crosscheck"]["gap_cells"] <= report["crosscheck"]["tol_cells"]


def test_example_3_emits_riccati_coefficients(tmp_path):
    code = main(["example", "3", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert abs(report["B"][0][0] - B_HAT) < 1e-10
    assert abs(report["d"] - B_HAT / 3.0) < 1e-10
    assert np.allclose(report["c"], 0.0)
    assert report["riccati_residual"] < 1e-12
    assert report["crosscheck"]["max_rel_diff"] <= report["crosscheck"]["tol_rel"]


@pytest.mark.parametrize("which, field, failed", [
    (1, "tol_rel", "max_rel_diff"),
    (2, "tol_rel", "max_rel_diff"),
    (2, "tol_cells", "gap_cells"),
    (3, "tol_rel", "max_rel_diff"),
])
def test_example_crosscheck_disagreement_exits_3(tmp_path, which, field, failed):
    cfg = json.loads(Path(_bundled(f"example{which}.json")).read_text())
    tight = 1e-12 if field == "tol_rel" else 1e-6
    cfg["crosscheck"][field] = tight
    code = main(["example", str(which), "--config", _write_config(tmp_path, cfg),
                 "--out", str(tmp_path)])
    assert code == 3
    assert (tmp_path / "value.csv").exists()
    cc = json.loads((tmp_path / "report.json").read_text())["crosscheck"]
    assert cc["converged"] is True
    assert cc[field] == tight
    assert cc[failed] > tight


# --------------------------------------------------------------------- verify


def test_verify_bundled_battery_passes(tmp_path):
    code = main(["verify", "--config", _bundled("verify_lq.json"), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["all_passed"] is True
    names = {t["name"] for t in report["tests"]}
    assert {"martingale-binned", "transversality", "pathwise-integrability",
            "growth-certificate"} <= names


def test_verify_failure_exits_3(tmp_path):
    cfg = json.loads(Path(_bundled("verify_lq.json")).read_text())
    cfg["tests"] = [{"name": "growth", "box": [[-6.0, 6.0]], "K": 0.01, "p": 2.0}]
    code = main(["verify", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 3
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["all_passed"] is False


@pytest.mark.parametrize("store_every", [1, 10, 50, 100])
def test_verify_own_cost_reads_the_shared_paths(tmp_path, store_every):
    # a martingale test's own cost is integrated at the simulator's step, as
    # the shared cost is, so the two give one report; a trapezoid on the
    # snapshot lattice failed the optimal policy at store_every 100 (max |z| 3.94)
    cfg = json.loads(Path(_bundled("verify_lq.json")).read_text())
    cfg["sim"]["store_every"] = store_every
    martingale = cfg["tests"][0]
    reports = []
    for i, test in enumerate([martingale, {**martingale, "cost": cfg["cost"]}]):
        config = _write_config(tmp_path, {**cfg, "tests": [test]})
        assert main(["verify", "--config", config, "--out", str(tmp_path / str(i))]) == 0
        reports.append(json.loads((tmp_path / str(i) / "report.json").read_text())["tests"])
    assert reports[0] == reports[1]


def test_verify_negative_discount_is_an_input_error(tmp_path, capsys):
    cfg = json.loads(Path(_bundled("verify_lq.json")).read_text())
    cfg["discount"] = -1
    code = main(["verify", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 1
    assert "$.discount" in capsys.readouterr().err


def test_verify_unknown_test_name(tmp_path, capsys):
    cfg = json.loads(Path(_bundled("verify_lq.json")).read_text())
    cfg["tests"] = [{"name": "telepathy"}]
    code = main(["verify", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 1
    assert "$.tests[0].name" in capsys.readouterr().err


def _moment_config(**test):
    return {
        "policy": {"kind": "constant", "dim": 1, "sigma": [[0.6]],
                   "nu": {"kind": "atomic", "atoms": [[[1.5], 0.8]]}, "mu": [0.0]},
        "sim": {"x0": [0.0], "T": 1.0, "dt": 0.01, "n_paths": 400, "seed": 7, "store_every": 5},
        "tests": [{"name": "moment_ratio", "q": 2.0, **test}, {"name": "integrability", "p": 2.0}],
    }


def test_verify_reads_every_horizon_from_one_ensemble(tmp_path, monkeypatch):
    import jumpctl.dynamics as dyn
    from jumpctl import verify as ver

    cfg = _moment_config(horizons=[1.0, 2.0, 4.0])
    simulate, calls = dyn.simulate, []
    monkeypatch.setattr(dyn, "simulate", lambda *a, **kw: calls.append(a) or simulate(*a, **kw))
    code = main(["verify", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 0 and len(calls) == 1
    moment, integrability = json.loads((tmp_path / "report.json").read_text())["tests"]
    assert [row["T"] for row in moment["statistics"]["rows"]] == [1.0, 2.0, 4.0]

    # the shared ensemble and the first horizon are both the run to T = 1 at
    # the config's seed
    policy = dyn.PolicyFieldSpec.constant(Action(sigma=0.6, nu=AtomicMeasure(1, [[1.5]], [0.8]),
                                                 mu=0.0))
    alone = simulate(policy, dyn.SimConfig(x0=0.0, T=1.0, dt=0.01, n_paths=400, seed=7,
                                           store_every=5))
    want = json.loads(ver.h2_integrability_check(alone, 2.0).to_json())["statistics"]
    assert integrability["statistics"] == want
    row = json.loads(ver.moment_bound_report([alone], 2.0).to_json())["statistics"]["rows"][0]
    assert moment["statistics"]["rows"][0] == row


@pytest.mark.parametrize("horizons", [[], [-1.0], [0.0, 1.0], [1.0, float("inf")]],
                         ids=["empty", "negative", "zero", "infinite"])
def test_moment_ratio_horizons_are_checked(tmp_path, capsys, horizons):
    cfg = _moment_config(horizons=horizons)
    code = main(["verify", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "$.tests[0].horizons" in err and "Traceback" not in err
    jsonschema = pytest.importorskip("jsonschema")
    schema = jsonschema.Draft7Validator(json.loads((CONFIG_DIR / "config.schema.json").read_text()))
    if np.all(np.isfinite(horizons)):  # JSON has no infinity for the schema to see
        assert not schema.is_valid(cfg)


# -------------------------------------------------------- artifact contract

# sha256 of every artifact the bundled configs produce; a refactor must keep
# them (README "Artifacts and determinism"), and a change that moves numbers
# must say which ones and by how much before these are re-recorded
_BUNDLED_DIGESTS = {
    "lq_1d/policy.csv": "e6066ee63b8039f9ae5231297ff9750512ca0c3f99812f5d229bdc5f0313e557",
    "lq_1d/report.json": "b9db171106b9a0dc64c4241f6f0c045c4048b18ee10c9050c4d24c7db4f7f26b",
    "lq_1d/value.csv": "1a5068b953aa1fa02746da4001834f2bc33c9b898a0102e754f1cc29bd9776f6",
    "lq_2d/policy.csv": "4aba531800821df101b0be3c758dbb1ace16288031166c9c5a697835f74b88cc",
    "lq_2d/report.json": "7502a6274a01a78163571028231d2673767abfb6af0bdfa5c58a99e812b7b0aa",
    "lq_2d/value.csv": "d0a756941d6c443bcd6d11b82c6b37f5fbd66a1d3d1542b3eecdc80dfbad5d3f",
    "finite_lq/report.json": "79fc55fbe7101b1491a71e2ad4ad2e93f048b6ae43b0f1f1784b28069d338ca9",
    "finite_lq/value.csv": "34579ca9f8299fcfff5d255932651e43a5a9564e59fe9dac3a5a65d956ef4ed2",
    "example1/report.json": "5eda622d9bfda75d0907ea9ee6c9f4bd62fd71c978d738f23fedfb46d8bf47e1",
    "example1/value.csv": "1438cc5409ecf6573d02c4d6dc34c46dfeb3d3803b4c652ab20389abdccc1965",
    "example2/report.json": "535bc902507b9d2a9c0709f933380827f9387ddc8a41d76ec9b2586924b4fd1b",
    "example2/value.csv": "be2769a1d5a98ed35f887e4533d8d855b21dc60e2febb0754e5e573721f56274",
    "example3/report.json": "a1a6a3790f841d6a1264471043c5523600d9db4563d38d16dc107734bd081bd4",
    "example3/value.csv": "00b439fc2ea1b5f17c6ab626b7579b6ab9fc83106a8d525ba7c0082caa12f92c",
    "simulate_cp/characteristics.json":
        "8d0c3161708ab954c1e11fcbc6f699aa7ec05d7be00ac9895f67e2fca2eed9f2",
    "simulate_cp/paths.csv": "caa00568ca20a34d87cf8011a51736197bb1c7b426090f0d84c1150a2143b7fc",
    "verify_lq/report.json": "e9b7fd4b4863a60c04bd7e42c5ca819c95c509c88435219bb3750855056435a4",
}


def test_bundled_config_artifact_digests(tmp_path):
    digests = {}
    for name, cmd in _BUNDLED_COMMANDS.items():
        out = tmp_path / name
        assert main([*cmd, "--config", _bundled(f"{name}.json"), "--out", str(out)]) == 0
        for path in out.iterdir():
            digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == _BUNDLED_DIGESTS


@pytest.mark.parametrize("name, cmd, counts", [
    ("finite_lq", ["solve-finite"], (1, 319)),
    ("lq_2d", ["solve"], (2, 6)),  # the first sweep's zero-drift pattern differs from the rest
    ("lq_1d", ["solve"], (1, 5)),
])
def test_solver_counts_orderings_and_factorisations(tmp_path, monkeypatch, name, cmd, counts):
    # COLAMD runs once per sparsity pattern and SuperLU once per system: 320
    # time steps make 319 systems (one step keeps its policy) on one pattern.
    # The counters stay off report.json, whose bytes the digests above pin.
    from jumpctl import hjb

    gens, init = [], hjb._Generator.__init__

    def recording(self, *args):
        init(self, *args)
        gens.append(self)

    monkeypatch.setattr(hjb._Generator, "__init__", recording)
    assert main([*cmd, "--config", _bundled(f"{name}.json"), "--out", str(tmp_path / name)]) == 0
    assert [(g.orderings, g.factorisations) for g in gens] == [counts]


@pytest.mark.parametrize("dim", [1, 2])
def test_batched_control_penalty_bits(dim):
    # the solver's row-batched cost must round like the per-call one: vecdot of
    # mu @ theta with mu matches float(mu @ theta @ mu) bit for bit, where an
    # einsum or ((mu @ theta) * mu).sum(1) differs in the last ulp on many rows;
    # the state part of a one-row call must round like the batch's row as well
    from jumpctl.cli import _CostSpec
    from jumpctl.measures import Action, ZeroMeasure

    rng = np.random.default_rng(12)
    m = 3000
    x = rng.standard_normal((m, dim)) * 3.0
    mu = rng.standard_normal((m, dim)) * 10.0 ** rng.integers(-3, 3, (m, 1))
    mu[:4] = [[0.0] * dim, [-0.0] * dim, [1e-300] * dim, [-2.5] * dim]
    xb = x[:, 0] if dim == 1 else x
    general = [[2.7]] if dim == 1 else [[1.0, 0.3], [0.3, 2.0]]
    lam = [[0.5]] if dim == 1 else [[1.0, -0.2], [-0.2, 0.7]]
    for theta in (np.eye(dim).tolist(), general):
        fn = _CostSpec({"kind": "quadratic_control", "lam": lam, "theta": theta}, "$.cost").hjb_fn(dim)
        got = fn.rows(xb, np.eye(dim), ZeroMeasure(dim), mu)
        want = np.array([
            fn(xb[i : i + 1], Action(sigma=np.eye(dim), nu=ZeroMeasure(dim), mu=mu[i]))[0]
            for i in range(m)
        ])
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), theta


@pytest.mark.parametrize("dim", [1, 2])
def test_quadratic_cost_is_batch_size_invariant(dim):
    # x' lam x of one state is bitwise the same row of any batch holding it,
    # in the solver's f(x, a) and in the simulator's cost along a policy
    # (verify.costs_along over the same rows); an einsum sums the 2-D terms
    # in another order for one- and two-row batches
    from jumpctl.cli import _CostSpec
    from jumpctl.measures import Action, ZeroMeasure
    from jumpctl.verify import costs_along

    class Feedback:  # an elementwise drift, so no matmul rounds by batch size
        def coefficients(self, X):
            pair = (np.eye(dim), ZeroMeasure(dim))
            return -1.3 * X[:, ::-1] + 0.4, np.zeros(len(X), dtype=int), [pair]

    lam = [[2.7]] if dim == 1 else [[1.0, -0.2], [-0.2, 0.7]]
    theta = [[0.5]] if dim == 1 else [[1.0, 0.3], [0.3, 2.0]]
    cost = _CostSpec({"kind": "quadratic_control", "lam": lam, "theta": theta}, "$.cost")
    fn = cost.hjb_fn(dim)
    sim = costs_along(fn, Feedback())
    a = Action(sigma=np.eye(dim), nu=ZeroMeasure(dim), mu=np.full(dim, 0.3))
    rng = np.random.default_rng(21)
    for m in (1, 2, 3, 17, 2**14 + 1):
        X = rng.standard_normal((m, dim)) * 3.0
        xb = X[:, 0] if dim == 1 else X
        whole, whole_sim = fn(xb, a), sim(X)
        rows = np.array([fn(xb[i : i + 1], a)[0] for i in range(m)])
        rows_sim = np.array([sim(X[i : i + 1])[0] for i in range(m)])
        assert np.array_equal(whole.view(np.int64), rows.view(np.int64)), m
        assert np.array_equal(whole_sim.view(np.int64), rows_sim.view(np.int64)), m


# ----------------------------------------------------------------- misc flags


def test_threads_flag_is_accepted(tmp_path):
    # without threadpoolctl the budget cannot reach the BLAS numpy has loaded:
    # the run says so on stderr, and its artifacts match a run without the flag
    env = dict(os.environ, PYTHONPATH=str(Path(jumpctl.__file__).resolve().parents[1]),
               JUMPCTL_LOG="warn")
    runs = {}
    for name, extra in (("plain", []), ("threads", ["--threads", "2"])):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "jumpctl", "example", "3", "--out", str(out), *extra],
            env=env, capture_output=True, text=True, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        runs[name] = (proc.stderr, {p.name: p.read_bytes() for p in sorted(out.iterdir())})
    if importlib.util.find_spec("threadpoolctl") is None:
        assert "--threads 2 not applied" in runs["threads"][0]
    assert "--threads" not in runs["plain"][0]
    assert runs["threads"][1] == runs["plain"][1]


_SCIPY_PROBE = """
import sys
from jumpctl import cli
sim_cfg, solve_cfg, out = sys.argv[1:]
def scipy_modules():
    return [m for m in sys.modules if m.split(".")[0] == "scipy"]
loaded = {"import": scipy_modules()}
try:
    cli.main(["--version"])
except SystemExit:
    pass
loaded["--version"] = scipy_modules()
assert cli.main(["simulate", "--config", sim_cfg, "--out", out + "/sim"]) == 0
loaded["simulate"] = scipy_modules()
assert cli.main(["solve", "--config", solve_cfg, "--out", out + "/solve"]) == 0
print(loaded, "scipy.sparse" in sys.modules)
"""


def test_light_commands_load_no_scipy(tmp_path):
    # hjb and lq import scipy inside the functions that build, factorise or
    # refine, so importing the command line, --version and a simulate run on
    # numpy alone; a solve does load scipy.sparse, so the check is not vacuous
    env = dict(os.environ, PYTHONPATH=str(Path(jumpctl.__file__).resolve().parents[1]))
    argv = [_bundled("simulate_cp.json"), _bundled("lq_1d.json"), str(tmp_path)]
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *argv], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == \
        "{'import': [], '--version': [], 'simulate': []} True", proc.stdout


def test_exports_match_each_modules_all():
    # the lazy export table and each module's __all__ name the same public
    # surface, and every name resolves, so a deletion cannot leave a stale export
    for module, names in jumpctl._EXPORTS.items():
        assert sorted(names.split()) == sorted(importlib.import_module(f"jumpctl.{module}").__all__)
    assert all(getattr(jumpctl, name) is not None for name in jumpctl.__all__)


def test_version_flag_prints_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert jumpctl.__version__ in capsys.readouterr().out
