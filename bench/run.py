"""jumpctl benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload stationary --seed 1 --seconds 20 --trace 0

Workloads: stationary, finite_horizon, montecarlo (see bench/README.md).

The program is used from this checkout's ``src``; nothing is installed.
Child processes get one BLAS thread, set in their environment before numpy
is imported.  ``setup_s`` is the median wall time of several fresh set-up
processes (import, input generation, one warm-up call).  A separate process
then measures.  The report is printed line by line; the last line is one JSON
object: with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer metrics.  Its timing is ``ref_wall_s``, the operations' wall time
rescaled by a reference kernel timed between them (see worker.py).  All figures, failures and artifact hashes are also
written to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import unit
from worker import REF_KERNEL_S

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("stationary", "finite_horizon", "montecarlo")
SETUP_RUNS = 3
TIME_LIMIT_S = 170.0
BLAS_THREADS = "1"


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
        JUMPCTL_LOG="error",
        PYTHONHASHSEED="0",
    )
    return env


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(res: dict) -> dict:
    return {
        "setup_s": _metric(res["setup_s"], "s"),
        "ref_wall_s": _metric(res["ref_wall_s"], "s"),
        "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
    }


def print_report(res: dict) -> None:
    m = res["machine"]
    print(f"workload {res['workload']}  seed {res['seed']}  trace {res['trace']}  "
          f"untraced passes {res['untraced_passes']}  traced passes {res['traced_passes']}")
    print(f"machine: nproc {m['nproc']}, python {m['python']}, numpy {m['numpy']}, "
          f"scipy {m['scipy']}, blas {m['blas']}, blas threads {m['blas_threads']}")
    rows = [("setup_s", res["setup_s"], "s",
             f"median of {len(res['setup_times'])} fresh processes")]
    rows += [(k, v, "s", "median over untraced passes")
             for k, v in res["end_to_end"].items()]
    rows.append(("ref_wall_s", res["ref_wall_s"], "s",
                 "wall_s rescaled to the reference kernel's speed"))
    rows.append(("ref_kernel_s", res["ref_kernel_s"], "s",
                 f"mean reference-kernel time; {REF_KERNEL_S:g} s sets the scale"))
    rows.append(("peak_rss_mb", res["peak_rss_mb"], "MB", "before the probes"))
    n_probes = len(res["probes"])
    rows.append(("failed_frac", res["failed_frac"], "ratio",
                 f"{res['failed']} of {res['attempted']} operations, "
                 f"{sum(not p['ok'] for p in res['probes'].values())} of {n_probes} probes"))
    if res["oracle_max_rel_err"] is not None:
        rows.append(("oracle_max_rel_err", res["oracle_max_rel_err"], "ratio",
                     "max over closed-form checks"))
    if res["table_sim_z"] is not None:
        rows.append(("table_sim_z", res["table_sim_z"], "z",
                     "Monte Carlo cost vs solved value at x0"))
    for name, value, unit, note in rows:
        print(f"  {name:<20} {value:>14.6g} {unit:<6} {note}")
    for name, op in res["ops"].items():
        print(f"  check {name}: {'ok' if op['ok'] else 'FAILED'}, {op['detail']}, "
              f"{len(op.get('artifacts', {}))} artifacts hashed")
    for name, probe in res["probes"].items():
        print(f"  probe {name}: {probe['detail']} after {probe['seconds']:.3f} s")
    for f in res["failures"]:
        print(f"  FAILED {f['op']}: {f['detail']}")
    print(f"  cli.exit_contract_violations {res['exit_contract_violations']}")
    for name, value in sorted(res.get("per_layer", {}).items()):
        print(f"  {name:<52} {value:>14.6g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="jumpctl benchmark (one workload, one run)")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "jumpctl" / "__init__.py").is_file():
        return _fail(f"no jumpctl sources under {ROOT / 'src'}")
    started = time.perf_counter()
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    results_dir = ROOT / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    common = [sys.executable, str(WORKER), "--workload", args.workload,
              "--seed", str(args.seed), "--work", str(work)]
    env = child_env()

    def child(extra: list) -> int:
        """Run one child to completion; on timeout it is killed and waited for."""
        budget = max(TIME_LIMIT_S - (time.perf_counter() - started), 1.0)
        try:
            return subprocess.run(common + extra, env=env, cwd=ROOT, timeout=budget,
                                  stdout=subprocess.DEVNULL).returncode
        except subprocess.TimeoutExpired:
            return -1

    setup_times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        rc = child(["--phase", "setup"])
        setup_times.append(time.perf_counter() - t0)
        if rc != 0:
            return _fail(f"set-up process exited {rc}")

    result_file = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.unlink(missing_ok=True)
    rc = child(["--phase", "measure", "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--result", str(result_file)])
    if rc != 0 or not result_file.is_file():
        return _fail(f"measuring process exited {rc}")

    res = json.loads(result_file.read_text())
    res.update(setup_s=statistics.median(setup_times), setup_times=setup_times)
    result_file.write_text(json.dumps(res, indent=1, sort_keys=True) + "\n")
    print_report(res)
    if args.trace:
        metrics = {k: _metric(v, unit(k)) for k, v in res["per_layer"].items()}
    else:
        metrics = end_to_end(res)
    out = {"correct": res["failed"] == 0, "attempted": res["attempted"],
           "failed": res["failed"], "metrics": metrics}
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
