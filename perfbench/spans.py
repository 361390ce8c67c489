"""Span recorder for the traced benchmark run.

`Tracer.install` replaces each timed public function of bslab with a
wrapper, at every module attribute that binds it (`norm_cdf_inv` is bound
in `bslab.normal`, `bslab.rng`, `bslab.increments` and `bslab`), so calls
made inside the library are recorded as well as the benchmark's own. No
file under src/ changes. Spans live in memory as
[id, parent id, name, start, end, counts] lists and are written out once,
when the run ends.

`layer_metrics` turns spans into the per-layer figures. A span's self time
is its duration minus the durations of its direct children, so the self
times of all spans add up to the time covered by root spans; the rest of a
pass's wall time is reported as `trace.uncovered_s`.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import tracemalloc
from collections import defaultdict

import numpy as np

MODULES = ("bslab", "bslab.rng", "bslab.normal", "bslab.pricing", "bslab.tree",
           "bslab.montecarlo", "bslab.increments", "bslab.cltlab", "bslab.cli")

KINDS = ("two_point", "uniform", "centered_exponential", "normal", "poisson_jump")
ROW_WIDTHS = (16, 256, 4096)


def _arg(a, k, i, name):
    return k[name] if name in k else a[i]


def _count_draws(i, name):
    return lambda a, k: {"n": int(_arg(a, k, i, name))}


def _count_cdf(a, k):
    x = _arg(a, k, 0, "x")
    return {"scalar": 1} if np.ndim(x) == 0 else {"n": int(np.size(x))}


# public function -> (span name, counts taken from the call's arguments,
# whether to record the peak bytes allocated inside the span; spans with a
# peak never nest)
TIMED = {
    ("bslab.rng", "uniform_stream"): ("rng.uniform_stream", _count_draws(2, "count"), False),
    ("bslab.rng", "poisson_stream"): ("rng.poisson_stream", _count_draws(2, "count"), False),
    ("bslab.rng", "normal_stream"): ("rng.normal_stream", _count_draws(2, "count"), False),
    ("bslab.normal", "norm_cdf_inv"):
        ("normal.norm_cdf_inv", lambda a, k: {"n": int(np.size(_arg(a, k, 0, "p")))}, False),
    ("bslab.normal", "norm_cdf"): ("normal.norm_cdf", _count_cdf, False),
    ("bslab.pricing", "bs_call_price"): ("pricing.bs_call_price", None, False),
    ("bslab.tree", "crr_tree_price"):
        ("tree.crr_tree_price", lambda a, k: {"n": _arg(a, k, 1, "cfg").steps + 1}, False),
    ("bslab.montecarlo", "mc_price"): ("montecarlo.mc_price", None, True),
    ("bslab.montecarlo", "mc_forward_check"): ("montecarlo.mc_forward_check", None, False),
    ("bslab.cltlab", "sample_row_sum"):
        ("cltlab.sample_row_sum", lambda a, k: {"width": _arg(a, k, 0, "spec").rows}, True),
    ("bslab.cltlab", "ks_normal_test"):
        ("cltlab.ks_normal_test", lambda a, k: {"n": int(np.size(_arg(a, k, 0, "samples")))},
         False),
    ("bslab.cltlab", "lindeberg_statistic"):
        ("cltlab.lindeberg_statistic", _count_draws(4, "samples"), False),
    ("bslab.cltlab", "run_convergence_experiment"):
        ("cltlab.run_convergence_experiment", None, False),
    ("bslab.cltlab", "variance_linearity_check"):
        ("cltlab.variance_linearity_check", None, False),
}


class Tracer:
    """Records spans while `active`; passes calls straight through otherwise."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.active = False

    def wrap(self, name, fn, counter=None, peak=False):
        @functools.wraps(fn)
        def wrapper(*a, **k):
            if not self.active:
                return fn(*a, **k)
            counts = counter(a, k) if counter is not None else None
            sid = len(self.spans)
            rec = [sid, self._stack[-1] if self._stack else -1, name, 0.0, 0.0, counts]
            self.spans.append(rec)
            self._stack.append(sid)
            if peak:
                # traced only inside these spans: tracemalloc costs every
                # Python allocation, which would swamp the scalar paths
                tracemalloc.start()
            rec[3] = time.perf_counter()
            try:
                return fn(*a, **k)
            finally:
                rec[4] = time.perf_counter()
                self._stack.pop()
                if peak:
                    rec[5] = {**(counts or {}), "peak_bytes": tracemalloc.get_traced_memory()[1]}
                    tracemalloc.stop()
        return wrapper

    def install(self) -> None:
        """Wrap every timed function at every bslab attribute bound to it."""
        mods = [importlib.import_module(m) for m in MODULES]
        for (home, attr), (name, counter, peak) in TIMED.items():
            original = getattr(importlib.import_module(home), attr)
            wrapped = self.wrap(name, original, counter, peak)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        model_cls = importlib.import_module("bslab.increments").IncrementModel
        model_cls.sample = self.wrap(
            "increments.sample", model_cls.sample,
            lambda a, k: {"kind": a[0].kind, "n": int(_arg(a, k, 4, "count"))})

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as a root span of its own."""
        return self.wrap(name, fn)(*args, **kwargs)

    def start(self) -> None:
        self.active = True

    def stop(self) -> None:
        self.active = False

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def merge(span_lists) -> list[list]:
    """Concatenate span lists recorded apart (by passes or by processes),
    renumbering ids."""
    merged = []
    for spans in span_lists:
        offset = len(merged)
        merged += [[sid + offset, parent + offset if parent >= 0 else -1, *rest]
                   for sid, parent, *rest in spans]
    return merged


def _metric_key(name: str, counts) -> str:
    """The self-time bucket a span belongs to."""
    if name == "increments.sample":
        return f"increments.sample.self_s.{counts['kind']}"
    if name == "cltlab.sample_row_sum":
        return f"cltlab.sample_row_sum.self_s.n{counts['width']}"
    if name == "normal.norm_cdf":
        return "normal.norm_cdf.scalar_self_s" if "scalar" in counts \
            else "normal.norm_cdf.array_self_s"
    return f"{name}.self_s"


SELF_KEYS = (
    ["rng.uniform_stream.self_s", "rng.poisson_stream.self_s", "rng.normal_stream.self_s",
     "normal.norm_cdf_inv.self_s", "normal.norm_cdf.scalar_self_s",
     "normal.norm_cdf.array_self_s", "pricing.bs_call_price.self_s",
     "tree.crr_tree_price.self_s", "montecarlo.mc_price.self_s",
     "montecarlo.mc_forward_check.self_s"]
    + [f"increments.sample.self_s.{kind}" for kind in KINDS]
    + [f"cltlab.sample_row_sum.self_s.n{n}" for n in ROW_WIDTHS]
    + ["cltlab.ks_normal_test.self_s", "cltlab.lindeberg_statistic.self_s",
       "cltlab.run_convergence_experiment.self_s", "cltlab.variance_linearity_check.self_s",
       "cli.main.self_s"])


def layer_metrics(spans: list[list]) -> tuple[dict, float]:
    """Self times and counts summed over spans, plus the time covered by
    root spans.

    Counts are keyed `<span>.calls`, `<span>.n` (draws, values or nodes;
    `increments.sample.n.<kind>` per kind), `normal.norm_cdf.scalar_calls`
    and `<span>.peak_bytes` (largest over the span's calls).
    """
    child_time = [0.0] * len(spans)
    for _, parent, _, t0, t1, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out = dict.fromkeys(SELF_KEYS, 0.0)
    counts: dict[str, float] = defaultdict(int)
    covered = 0.0
    for sid, parent, name, t0, t1, c in spans:
        key = _metric_key(name, c or {})
        if key not in out:
            raise KeyError(f"span {name} {c} has no per-layer metric")
        out[key] += (t1 - t0) - child_time[sid]
        if parent < 0:
            covered += t1 - t0
        counts[f"{name}.calls"] += 1
        c = c or {}
        if "n" in c:
            counts[f"{name}.n" + (f".{c['kind']}" if "kind" in c else "")] += c["n"]
        if "scalar" in c:
            counts["normal.norm_cdf.scalar_calls"] += 1
        if "peak_bytes" in c:
            counts[f"{name}.peak_bytes"] = max(counts[f"{name}.peak_bytes"], c["peak_bytes"])
    return {**out, **counts}, covered
