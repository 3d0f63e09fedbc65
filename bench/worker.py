"""One benchmark process for one workload.

``--phase setup`` imports the program, generates the inputs and makes one
warm-up call, then exits; ``run.py`` times several of these fresh processes
for ``setup_s``.  ``--phase measure`` does the same set-up, then runs passes
over the workload's operations until ``--seconds`` have elapsed, then the
probes, and writes every figure to ``--result`` as JSON.

With ``--trace 1`` each untraced pass is followed by a traced one, so the
tracing overhead is the difference of their wall times.

After each operation a reference kernel that does not involve the program
is timed, repeatedly, for KERNEL_SHARE of the operation's time, so that its
samples spread over the run as the operations do.  ``ref_wall_s`` is
``wall_s`` rescaled by the mean kernel time: the host's speed drifts by up to
+-20% over minutes, and the rescaled time takes most of that drift out.

Run through ``run.py``, which pins the BLAS thread count in the environment
before this process imports numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 2
# A typical reference_kernel() time on the machine described in README.md
# (0.10-0.16 s), so that rescaled times read close to seconds there.
REF_KERNEL_S = 0.12
KERNEL_SHARE = 0.08


def _import_program():
    """Import jumpctl from this checkout's ``src``; refuse any other copy."""
    import jumpctl

    src = (ROOT / "src").resolve()
    if Path(jumpctl.__file__).resolve().parent.parent != src:
        raise SystemExit(f"jumpctl imported from {jumpctl.__file__}, not from {src}")


def hash_dir(path: Path) -> dict:
    """sha256 and size of every file an operation wrote."""
    out = {}
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        data = f.read_bytes()
        out[str(f.relative_to(path))] = {"sha256": hashlib.sha256(data).hexdigest(),
                                         "bytes": len(data)}
    return out


def run_op(op) -> dict:
    """Run one operation; an exception is recorded as a failure, never raised."""
    if op.out_dir is not None:
        shutil.rmtree(op.out_dir, ignore_errors=True)
    t0 = time.perf_counter()
    try:
        out, err = op.call(), None
    except Exception as exc:  # the run must go on; the failure is recorded
        out, err = None, exc
    elapsed = time.perf_counter() - t0
    if err is not None:
        res = {"ok": False, "detail": f"{type(err).__name__}: {err}",
               "error": type(err).__name__, "escaped_main": op.argv is not None}
    else:
        try:
            res = op.check(out)
        except Exception as exc:
            res = {"ok": False, "detail": f"output check raised {type(exc).__name__}: {exc}"}
    res["seconds"] = elapsed
    if op.out_dir is not None and op.out_dir.is_dir():
        res["artifacts"] = hash_dir(op.out_dir)
    return res


@cache
def _ref_matrix():
    import numpy as np

    rng = np.random.default_rng(0)
    return rng.standard_normal((700, 700)) + 700.0 * np.eye(700)


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of work that does not involve the program.

    Interpreted Python, short numpy vector operations and dense LU
    factorisations: the kinds of work the program's operations do.
    """
    import numpy as np
    from scipy.linalg import lu_factor

    matrix = _ref_matrix()
    t0 = time.perf_counter()
    s = 0
    for i in range(600_000):
        s += i * i
    a = np.arange(2000.0)
    for _ in range(3000):
        a = np.sqrt(a * a + 1.0) - 0.5
    for _ in range(6):
        lu_factor(matrix)
    return time.perf_counter() - t0


def run_pass(wl, tracer=None, label="") -> dict:
    results = {}
    for op in wl.ops:
        if op.metric is None:
            continue
        if tracer is not None:
            tracer.op = f"{label}:{op.name}"
        res = results[op.name] = run_op(op)
        res["ref_kernel_s"] = [reference_kernel()]
        while sum(res["ref_kernel_s"]) < KERNEL_SHARE * res["seconds"]:
            res["ref_kernel_s"].append(reference_kernel())
    return results


def mark_nondeterministic(passes: list[dict]) -> None:
    """Same inputs must give byte-identical artifacts on every pass."""
    first = passes[0]
    for later in passes[1:]:
        for name, res in later.items():
            if res.get("artifacts") != first[name].get("artifacts") and res["ok"]:
                res["ok"] = False
                res["detail"] += "; artifacts differ from the first pass"


def pass_timings(wl, results: dict, timings) -> dict:
    by_metric = {m: 0.0 for m in timings}
    for op in wl.ops:
        if op.metric is not None:
            by_metric[op.metric] += results[op.name]["seconds"]
    return by_metric


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "machine": platform.machine(),
    }


def measure(wl, timings: tuple, seconds: float, trace: bool) -> dict:
    from tracing import Tracer, installed, layer_metrics

    tracer = Tracer()
    untraced, traced = [], []
    t0 = time.perf_counter()
    # Whole passes only, at least MIN_PASSES counting traced ones, so that
    # artifacts are compared across passes; another starts while it is
    # expected to end in time.
    while (len(untraced) + len(traced) < MIN_PASSES
           or (time.perf_counter() - t0) * (1 + 1 / len(untraced)) <= seconds):
        untraced.append(run_pass(wl))
        if trace:
            with installed(tracer):
                traced.append(run_pass(wl, tracer, label=f"pass{len(traced)}"))
    # the probes would allocate past the dense limit once they work; keep them out
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes = {op.name: run_op(op) for op in wl.ops if op.metric is None}

    all_passes = untraced + traced
    mark_nondeterministic(all_passes)
    per_pass = [pass_timings(wl, p, timings) for p in untraced]
    e2e = {k: statistics.median(p[k] for p in per_pass) for k in timings}
    e2e = {"wall_s": sum(e2e.values()), **e2e}
    ref_kernel_s = statistics.mean(k for p in untraced for r in p.values()
                                   for k in r["ref_kernel_s"])
    executed = [(name, res) for p in all_passes for name, res in p.items()]
    failures = [{"op": n, "detail": r["detail"], "error": r.get("error")}
                for n, r in executed if not r["ok"]]
    probe_failed = [n for n, r in probes.items() if not r["ok"]]
    rel_errs = [r["rel_err"] for _, r in executed if "rel_err" in r]
    zs = [r["z"] for n, r in executed if n == "table_sim" and "z" in r]
    violations = sum(1 for _, r in executed + list(probes.items()) if r.get("escaped_main"))
    result = {
        "workload": wl.name,
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "attempted": len(executed),
        "failed": len(failures),
        "failures": failures,
        "probes": probes,
        "peak_rss_mb": peak_rss_mb,
        "end_to_end": e2e,
        "per_pass": per_pass,
        "ref_wall_s": e2e["wall_s"] * REF_KERNEL_S / ref_kernel_s,
        "ref_kernel_s": ref_kernel_s,
        "failed_frac": (len(failures) + len(probe_failed)) / (len(executed) + len(probes)),
        "oracle_max_rel_err": max(rel_errs) if rel_errs else None,
        "table_sim_z": zs[0] if zs else None,
        "exit_contract_violations": violations,
        "ops": untraced[0],
        "op_passes": [{n: {"seconds": r["seconds"], "ref_kernel_s": r["ref_kernel_s"]}
                       for n, r in p.items()} for p in untraced],
        "sim_seeds": wl.sim_seeds,
        "machine": machine_facts(),
    }
    if trace:
        layer = layer_metrics(tracer.spans, len(traced))
        traced_wall = sum(statistics.median(pass_timings(wl, p, timings)[m] for p in traced)
                          for m in timings)
        artifact_bytes = sum(f["bytes"] for p in traced for r in p.values()
                             for f in r.get("artifacts", {}).values()) / len(traced)
        cli_self = layer["cli.main.self_s"]
        layer.update({
            "hjb.probe.failed": len(probe_failed),
            "hjb.probe.s": sum(r["seconds"] for r in probes.values()),
            "cli.artifact_bytes": artifact_bytes,
            "cli.artifact_mb_per_s": artifact_bytes / 1e6 / cli_self if cli_self else 0.0,
            "cli.exit_contract_violations": violations,
            "trace.overhead_s": traced_wall - e2e["wall_s"],
        })
        result["per_layer"] = layer
        result["spans"] = [vars(s) for s in tracer.spans]
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--phase", choices=("setup", "measure"), required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", type=Path)
    args = ap.parse_args(argv)

    _import_program()
    import workloads

    wl = workloads.build(args.workload, args.seed, args.work)
    warm = run_op(wl.warmup)
    if not warm["ok"]:
        print(f"warm-up call failed: {warm['detail']}", file=sys.stderr)
        return 3
    if args.phase == "setup":
        return 0
    result = measure(wl, workloads.TIMINGS[wl.name], args.seconds, bool(args.trace))
    result.update(seed=args.seed, trace=args.trace)
    args.result.write_text(json.dumps(result, indent=1, sort_keys=True, default=str) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
