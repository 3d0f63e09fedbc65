"""Spans around the public functions of each jumpctl module.

The wrappers live here, in the benchmark, and are installed only for the
traced passes: the untraced passes that give the end-to-end numbers run the
program's own functions.  A wrapper rebinds the public name in every jumpctl
module that holds it, because callers look names up in their own namespace
(``cli`` imported ``solve_stationary``; ``verify`` imported ``simulate``).
Private helpers get no spans: their names are expected to change.

Spans are kept in memory, one list per run, and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field

MODULES = ("hjb", "dynamics", "measures", "generator", "verify", "lq", "examples", "cli")

VERIFY_FUNCTIONS = (
    "submartingale_test",
    "transversality_test",
    "h2_integrability_check",
    "growth_certificate_check",
    "moment_bound_report",
    "dynkin_test",
)

SIM_KINDS = ("constant", "linear", "jump_origin", "callable")


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    op: str = ""
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects nested spans of one single-threaded run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = ""
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, op=self.op))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        popped = self._open.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} was innermost")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        lo_cur = hi_cur = None
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, sp.start), min(hi, sp.end)
            if hi <= lo:
                continue
            if hi_cur is None or lo > hi_cur:
                if hi_cur is not None:
                    covered += hi_cur - lo_cur
                lo_cur, hi_cur = lo, hi
            else:
                hi_cur = max(hi_cur, hi)
        if hi_cur is not None:
            covered += hi_cur - lo_cur
        out.append((sp.end - sp.start) - covered)
    return out


# ---------------------------------------------------------------------------
# counters recorded at the same boundaries as the spans


def _n_candidates(prob) -> int:
    if prob.mode == "list":
        return len(prob.actions)
    combos = 1
    for ax in prob.mu_lattice:
        combos *= len(ax)
    return len(prob.sigma_nu_pairs) * combos


def _count_evaluation(args, out):
    return {"nodes": args["grid"].n_nodes}


def _count_improvement(args, out):
    return {"node_candidates": args["grid"].n_nodes * _n_candidates(args["prob"])}


def _count_stationary(args, out):
    return {"sweeps": out[2].iterations}


def _count_finite(args, out):
    return {"steps": int(args["n_steps"])}


def _count_simulate(args, out):
    cfg = args["cfg"]
    n_steps = max(1, int(round(cfg.T / cfg.dt)))
    snapshot = sum(v.nbytes for v in vars(out).values() if hasattr(v, "nbytes"))
    return {
        "kind": args["policy"].kind,
        "path_steps": cfg.n_paths * n_steps,
        "jumps": int(out.jump_sizes.shape[0]),
        "snapshot_bytes": snapshot,
    }


def _count_draws(args, out):
    return {"draws": int(args["size"])}


def _count_test(args, out):
    return {"tests_run": 1, "tests_passed": int(bool(out.passed))}


COUNTERS = {
    ("hjb", "policy_evaluation"): _count_evaluation,
    ("hjb", "policy_improvement"): _count_improvement,
    ("hjb", "solve_stationary"): _count_stationary,
    ("hjb", "solve_finite_horizon"): _count_finite,
    ("dynamics", "simulate"): _count_simulate,
    ("dynamics", "bellman_series"): None,
    ("dynamics", "characteristics_report"): None,
    ("measures", "sample_jumps"): _count_draws,
    ("generator", "apply_generator"): None,
    ("lq", "solve_lq"): None,
    ("examples", "example1_psi"): None,
    ("examples", "example2_free_boundary"): None,
    ("cli", "main"): None,
    **{("verify", name): _count_test for name in VERIFY_FUNCTIONS},
}


def _wrap(tracer: Tracer, name: str, fn, counter):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        tracer.spans[idx].counts["calls"] = 1
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if counter is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            tracer.spans[idx].counts.update(counter(bound.arguments, out))
        return out

    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every traced function while the block runs; restore the originals after."""
    mods = [importlib.import_module("jumpctl")]
    mods += [importlib.import_module(f"jumpctl.{m}") for m in MODULES]
    saved = []
    try:
        for (mod_name, fn_name), counter in COUNTERS.items():
            original = getattr(importlib.import_module(f"jumpctl.{mod_name}"), fn_name)
            wrapper = _wrap(tracer, f"{mod_name}.{fn_name}", original, counter)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        saved.append((mod, attr, val))
                        setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for mod, attr, val in reversed(saved):
            setattr(mod, attr, val)


# ---------------------------------------------------------------------------
# per-layer metrics

def unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name; plain counts otherwise."""
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("mb_per_s"):
        return "MB/s"
    for marker in ("us_per_", "ns_per_", "ms_per_"):
        if marker in name:
            return marker[:2]
    last = name.rsplit(".", 1)[-1]
    return "s" if last == "s" or last.endswith("_s") else "count"


def layer_metrics(spans: list[Span], n_passes: int) -> dict[str, float]:
    """Per-layer numbers from the spans of ``n_passes`` traced passes, per pass."""
    selfs = self_times(spans)
    agg: dict[str, dict[str, float]] = {}
    sim_kind: dict[str, list[float]] = {k: [0.0, 0.0] for k in SIM_KINDS}
    for sp, st in zip(spans, selfs):
        a = agg.setdefault(sp.name, {"self_s": 0.0, "total_s": 0.0})
        a["self_s"] += st
        a["total_s"] += sp.end - sp.start
        for key, val in sp.counts.items():
            if key != "kind":
                a[key] = a.get(key, 0) + val
        if sp.name == "dynamics.simulate" and "kind" in sp.counts:  # absent if it raised
            sim_kind[sp.counts["kind"]][0] += st
            sim_kind[sp.counts["kind"]][1] += sp.counts["path_steps"]

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    def per(num, den, scale):
        return num * scale / den if den else 0.0

    out = {}
    for name in ("hjb.policy_evaluation", "hjb.solve_stationary", "hjb.policy_improvement",
                 "dynamics.simulate", "measures.sample_jumps", "generator.apply_generator"):
        out[f"{name}.calls"] = get(name, "calls")
    for name in ("hjb.policy_evaluation", "hjb.solve_stationary", "hjb.policy_improvement",
                 "hjb.solve_finite_horizon", "dynamics.simulate", "dynamics.bellman_series",
                 "dynamics.characteristics_report", "lq.solve_lq", "examples.example1_psi",
                 "examples.example2_free_boundary", "cli.main"):
        out[f"{name}.self_s"] = get(name, "self_s")
    for name in VERIFY_FUNCTIONS:
        out[f"verify.{name}.self_s"] = get(f"verify.{name}", "self_s")

    out["hjb.policy_evaluation.us_per_node"] = per(
        get("hjb.policy_evaluation", "self_s"), get("hjb.policy_evaluation", "nodes"), 1e6)
    out["hjb.solve_stationary.sweeps"] = get("hjb.solve_stationary", "sweeps")
    out["hjb.policy_improvement.ns_per_node_candidate"] = per(
        get("hjb.policy_improvement", "self_s"),
        get("hjb.policy_improvement", "node_candidates"), 1e9)
    out["hjb.solve_finite_horizon.ms_per_step"] = per(
        get("hjb.solve_finite_horizon", "total_s"), get("hjb.solve_finite_horizon", "steps"), 1e3)
    out["dynamics.simulate.path_steps"] = get("dynamics.simulate", "path_steps")
    out["dynamics.simulate.jumps"] = get("dynamics.simulate", "jumps")
    for kind, (secs, steps) in sim_kind.items():
        out[f"dynamics.simulate.ns_per_path_step.{kind}"] = per(secs, steps, 1e9)
    out["dynamics.snapshot_bytes"] = get("dynamics.simulate", "snapshot_bytes")
    out["measures.sample_jumps.draws"] = get("measures.sample_jumps", "draws")
    out["measures.sample_jumps.ns_per_draw"] = per(
        get("measures.sample_jumps", "self_s"), get("measures.sample_jumps", "draws"), 1e9)
    out["generator.apply_generator.us_per_point"] = per(
        get("generator.apply_generator", "self_s"), get("generator.apply_generator", "calls"), 1e6)
    out["verify.tests_run"] = sum(get(f"verify.{n}", "tests_run") for n in VERIFY_FUNCTIONS)
    out["verify.tests_passed"] = sum(get(f"verify.{n}", "tests_passed") for n in VERIFY_FUNCTIONS)

    # Ratios are invariant under the pass count; sums are reported per pass.
    ratio_suffixes = ("us_per_node", "ns_per_node_candidate", "ms_per_step", "us_per_point",
                      "ns_per_draw")
    for key, val in out.items():
        if not (key.endswith(ratio_suffixes) or ".ns_per_path_step." in key):
            out[key] = val / n_passes
    return out
