"""Self-tests of the benchmark harness.

Run from the root of a checkout:

    python3 -m pytest bench/test_bench.py -q
"""

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from jumpctl.hjb import SolverError  # noqa: E402
from tracing import Span, layer_metrics, self_times  # noqa: E402


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 3.0, parent=0),
        Span("b", 2.0, 5.0, parent=0),  # overlaps a: covered once
        Span("c", 8.0, 12.0, parent=0),  # clipped at the parent's end
        Span("a.child", 1.5, 2.5, parent=1),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 2.0, 1.0, 3.0, 4.0, 1.0])


def test_layer_metrics_divide_by_work_and_passes():
    spans = [
        Span("cli.main", 0.0, 3.0, counts={"calls": 1}),
        Span("hjb.policy_evaluation", 0.5, 2.5, parent=0,
             counts={"calls": 1, "nodes": 1000}),
        Span("dynamics.simulate", 10.0, 11.0,
             counts={"calls": 1, "kind": "linear", "path_steps": 10**6, "jumps": 4,
                     "snapshot_bytes": 800}),
        Span("dynamics.simulate", 12.0, 13.0, counts={"calls": 1}),  # raised: no counters
    ]
    m = layer_metrics(spans, n_passes=2)
    assert m["cli.main.self_s"] == pytest.approx(0.5)  # (3 - 2) / 2 passes
    assert m["hjb.policy_evaluation.calls"] == pytest.approx(0.5)
    assert m["hjb.policy_evaluation.us_per_node"] == pytest.approx(2000.0)
    assert m["dynamics.simulate.calls"] == pytest.approx(1.0)
    assert m["dynamics.simulate.ns_per_path_step.linear"] == pytest.approx(1000.0)
    assert m["dynamics.simulate.ns_per_path_step.callable"] == 0.0
    assert m["dynamics.snapshot_bytes"] == pytest.approx(400.0)


def _raise_solver_error():
    raise SolverError("stalled")


def _fake_workload(tmp_path):
    ok = workloads.Op("good", "x_s", lambda: 0, lambda rc: {"ok": rc == 0, "detail": "exit 0"})
    bad = workloads.Op("bad", "x_s", _raise_solver_error, lambda rc: {"ok": True, "detail": ""},
                       out_dir=tmp_path / "bad", argv=["solve"])
    probe = workloads.Op("probe", None, _raise_solver_error,
                         lambda rc: {"ok": True, "detail": ""}, argv=["solve"])
    return workloads.Workload("fake", [ok, bad, probe], ok)


def test_raising_operation_is_counted_not_raised(tmp_path):
    wl = _fake_workload(tmp_path)
    res = worker.run_op(wl.ops[1])
    assert not res["ok"] and res["error"] == "SolverError" and res["escaped_main"]

    out = worker.measure(wl, ("x_s",), seconds=0.0, trace=False)
    n = worker.MIN_PASSES
    assert (out["attempted"], out["failed"]) == (2 * n, n)
    assert {f["error"] for f in out["failures"]} == {"SolverError"}
    assert out["exit_contract_violations"] == n + 1  # every pass's failure and the probe
    assert out["failed_frac"] == pytest.approx((n + 1) / (2 * n + 1))


def test_kernel_is_timed_for_a_share_of_each_operation(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "reference_kernel", lambda: 0.01)
    wl = _fake_workload(tmp_path)
    wl.ops[0].call = lambda: time.sleep(0.5)
    results = worker.run_pass(wl)
    assert list(results) == ["good", "bad"]  # the probe is not part of a pass
    n_good = worker.KERNEL_SHARE * results["good"]["seconds"] / 0.01
    assert len(results["good"]["ref_kernel_s"]) == pytest.approx(n_good, abs=1)
    assert results["bad"]["ref_kernel_s"] == [0.01]  # at least one sample

    monkeypatch.setattr(worker, "reference_kernel", lambda: 2 * worker.REF_KERNEL_S)
    out = worker.measure(wl, ("x_s",), seconds=0.0, trace=False)
    assert out["ref_wall_s"] == pytest.approx(out["end_to_end"]["wall_s"] / 2)


def test_reported_metrics_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = worker.measure(_fake_workload(tmp_path), ("x_s",), seconds=0.0, trace=True)
    layer = {k: tracing.unit(k) for k in out["per_layer"]}
    assert layer == {m["name"]: m["unit"] for m in spec["per_layer"]}
    e2e = {k: v["unit"] for k, v in run.end_to_end(dict(out, setup_s=1.0)).items()}
    assert e2e == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS == tuple(workloads.TIMINGS)


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    out = {}
    for name in workloads.WORKLOADS:
        for seed in (1, 2):
            work = tmp_path_factory.mktemp(f"{name}-{seed}")
            out[name, seed] = (workloads.build(name, seed, work), work)
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_reaches_every_simulation_seed(built, name):
    for seed in (1, 2):
        wl, _ = built[name, seed]
        for label, path in wl.configs.items():
            cfg = json.loads(path.read_text())
            if "sim" in cfg:
                assert cfg["sim"]["seed"] == wl.sim_seeds[label]
        for label, value in wl.sim_seeds.items():
            assert value == workloads.derive_seed(seed, label)
            assert value != built[name, 3 - seed][0].sim_seeds[label]
    simulating = {"stationary": {"table_sim"}, "finite_horizon": set(),
                  "montecarlo": {"simulate", "verify_lq", "verify_moment", "dynkin",
                                 "generator", "warmup"}}
    assert set(built[name, 1][0].sim_seeds) == simulating[name]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_program_receives_only_generated_inputs(built, name):
    wl, work = built[name, 1]
    generated = {str(p) for p in wl.configs.values()}
    for op in wl.ops + [wl.warmup]:
        if op.argv is None:
            continue
        config = op.argv[op.argv.index("--config") + 1]
        assert config in generated
        assert Path(config).parent == work / "inputs"
        assert not any("jumpctl/configs" in a for a in op.argv)


def _verify_out(tmp_path, z, passed):
    bins = [{"z": z, "excluded": False}, {"z": 0.4, "excluded": False}]
    report = {"all_passed": passed, "tests": [
        {"name": "martingale-binned", "passed": passed, "statistics": {"pairs": [{"bins": bins}]}},
        {"name": "growth-certificate", "passed": True, "statistics": {}},
    ]}
    (tmp_path / "report.json").write_text(json.dumps(report))
    return workloads._verify_report(tmp_path)


def test_battery_is_judged_at_the_benchmark_threshold(tmp_path):
    assert _verify_out(tmp_path, -3.3, passed=False)(3)["ok"]  # 3-SE false alarm
    assert not _verify_out(tmp_path, -3.3, passed=False)(0)["ok"]  # exit code disagrees
    assert not _verify_out(tmp_path, -6.0, passed=False)(3)["ok"]  # beyond Z_MAX
    assert _verify_out(tmp_path, 1.0, passed=True)(0)["ok"]
