"""bslab benchmark: cold CLI, three-way pricing and the CLT ladder.

    python3 perfbench/run.py --workload {cli-cold,price-three-ways,clt-ladder}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; bslab is imported from ./src. The
workload's inputs are made from --seed. Whole passes of the workload run
until --seconds have gone by, one bslab call at a time, and every output is
checked against a reference computed apart from bslab (oracles.py). The
lines printed first give the workload's own figures by name and unit; the
last line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics: self time and counts of each bslab layer (spans.py), the import
breakdown of a cold start, and the tracing overhead. Spans are written to
.bench_build/perfbench/ when the run ends.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads
from spans import KINDS, SELF_KEYS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("cli-cold", "price-three-ways", "clt-ladder")
IMPORT_REPEATS = 3

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_geomean_s", "s"),
]

PER_LAYER = (
    [("rng.uniform_stream.calls", "count"), ("rng.uniform_stream.draws", "count"),
     ("rng.uniform_stream.self_s", "s"), ("rng.uniform_stream.ns_per_draw", "ns"),
     ("rng.poisson_stream.draws", "count"), ("rng.poisson_stream.self_s", "s"),
     ("rng.poisson_stream.ns_per_draw", "ns"), ("rng.normal_stream.self_s", "s"),
     ("normal.norm_cdf_inv.values", "count"), ("normal.norm_cdf_inv.self_s", "s"),
     ("normal.norm_cdf_inv.ns_per_value", "ns"),
     ("normal.norm_cdf.scalar_calls", "count"), ("normal.norm_cdf.scalar_self_s", "s"),
     ("normal.norm_cdf.scalar_ns_per_call", "ns"),
     ("normal.norm_cdf.array_values", "count"), ("normal.norm_cdf.array_self_s", "s"),
     ("normal.norm_cdf.array_ns_per_value", "ns"),
     ("pricing.bs_call_price.calls", "count"), ("pricing.bs_call_price.self_s", "s"),
     ("tree.crr_tree_price.nodes", "count"), ("tree.crr_tree_price.self_s", "s"),
     ("tree.crr_tree_price.ns_per_node", "ns"),
     ("montecarlo.mc_price.self_s", "s"), ("montecarlo.mc_price.peak_alloc_mb", "MB"),
     ("montecarlo.mc_forward_check.self_s", "s")]
    + [(f"increments.sample.self_s.{k}", "s") for k in KINDS]
    + [(f"increments.sample.ns_per_draw.{k}", "ns") for k in KINDS]
    + [("cltlab.sample_row_sum.self_s.n16", "s"), ("cltlab.sample_row_sum.self_s.n256", "s"),
       ("cltlab.sample_row_sum.self_s.n4096", "s"),
       ("cltlab.sample_row_sum.peak_alloc_mb", "MB"),
       ("cltlab.ks_normal_test.values", "count"), ("cltlab.ks_normal_test.self_s", "s"),
       ("cltlab.lindeberg_statistic.draws", "count"),
       ("cltlab.lindeberg_statistic.self_s", "s"),
       ("cltlab.run_convergence_experiment.self_s", "s"),
       ("cltlab.variance_linearity_check.self_s", "s"),
       ("cli.main.self_s", "s"), ("cli.run_s", "s"),
       ("import.interpreter_s", "s"), ("import.numpy_s", "s"),
       ("import.scipy_special_s", "s"), ("import.scipy_integrate_s", "s"),
       ("import.scipy_other_s", "s"), ("import.bslab_s", "s"), ("import.other_s", "s"),
       ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
       ("trace.uncovered_s", "s")])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def _spawn_seconds(argv: list[str], env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def setup_seconds(env: dict) -> float:
    """Wall time of a fresh interpreter running `import bslab.cli`."""
    return _spawn_seconds([sys.executable, "-c", "import bslab.cli"], env)


def _import_bucket(module: str) -> str:
    top = module.split(".")[0]
    if top == "numpy":
        return "numpy"
    if module.startswith("scipy.special"):
        return "scipy_special"
    if module.startswith("scipy.integrate"):
        return "scipy_integrate"
    if top == "scipy":
        return "scipy_other"
    return "bslab" if top == "bslab" else "other"


def import_breakdown(env: dict) -> dict:
    """Self time of `import bslab.cli` by package, from `python -X importtime`,
    plus the bare interpreter start; medians over IMPORT_REPEATS runs."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bslab.cli"],
                              env=env, check=True, capture_output=True, text=True)
        buckets = dict.fromkeys(["numpy", "scipy_special", "scipy_integrate", "scipy_other",
                                 "bslab", "other"], 0.0)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:") \
                    or not parts[1].strip().isdigit():
                continue
            self_us = int(parts[0].split(":")[1])
            buckets[_import_bucket(parts[2].strip())] += self_us * 1e-6
        runs.append(buckets)
    out = {f"import.{k}_s": statistics.median(r[k] for r in runs) for k in runs[0]}
    out["import.interpreter_s"] = statistics.median(
        _spawn_seconds([sys.executable, "-c", "pass"], env) for _ in range(IMPORT_REPEATS))
    return out


def run_pass(workload, traced: bool, tracer=None):
    """One pass: every op timed in turn, then every check. The tracer, when
    given, records the ops only. Returns ({op: seconds}, [(check, ok)])."""
    times, outputs = {}, {}
    if tracer is not None:
        tracer.start()
    for name, op in workload.ops(traced):
        t0 = time.perf_counter()
        outputs[name] = op()
        times[name] = time.perf_counter() - t0
    if tracer is not None:
        tracer.stop()
    return times, workload.checks(outputs)


def _ratio_ns(seconds: float, count: float) -> float:
    return seconds / count * 1e9 if count else 0.0


def per_layer(raw: dict) -> dict:
    """The PER_LAYER figures from per-pass self times and counts."""
    r = defaultdict(float, raw)
    m = {k: r[k] for k in r if k in SELF_KEYS or k.startswith(("import.", "trace."))}
    m.update({
        "rng.uniform_stream.calls": r["rng.uniform_stream.calls"],
        "rng.uniform_stream.draws": r["rng.uniform_stream.n"],
        "rng.poisson_stream.draws": r["rng.poisson_stream.n"],
        "normal.norm_cdf_inv.values": r["normal.norm_cdf_inv.n"],
        "normal.norm_cdf.scalar_calls": r["normal.norm_cdf.scalar_calls"],
        "normal.norm_cdf.array_values": r["normal.norm_cdf.n"],
        "pricing.bs_call_price.calls": r["pricing.bs_call_price.calls"],
        "tree.crr_tree_price.nodes": r["tree.crr_tree_price.n"],
        "cltlab.ks_normal_test.values": r["cltlab.ks_normal_test.n"],
        "cltlab.lindeberg_statistic.draws": r["cltlab.lindeberg_statistic.n"],
        "montecarlo.mc_price.peak_alloc_mb": r["montecarlo.mc_price.peak_bytes"] / 2 ** 20,
        "cltlab.sample_row_sum.peak_alloc_mb": r["cltlab.sample_row_sum.peak_bytes"] / 2 ** 20,
        "cli.run_s": r["cli.main.duration_s"],
    })
    for key, self_key, count_key in [
            ("rng.uniform_stream.ns_per_draw", "rng.uniform_stream.self_s", "rng.uniform_stream.n"),
            ("rng.poisson_stream.ns_per_draw", "rng.poisson_stream.self_s", "rng.poisson_stream.n"),
            ("normal.norm_cdf_inv.ns_per_value", "normal.norm_cdf_inv.self_s",
             "normal.norm_cdf_inv.n"),
            ("normal.norm_cdf.scalar_ns_per_call", "normal.norm_cdf.scalar_self_s",
             "normal.norm_cdf.scalar_calls"),
            ("normal.norm_cdf.array_ns_per_value", "normal.norm_cdf.array_self_s",
             "normal.norm_cdf.n"),
            ("tree.crr_tree_price.ns_per_node", "tree.crr_tree_price.self_s",
             "tree.crr_tree_price.n")] + [
            (f"increments.sample.ns_per_draw.{k}", f"increments.sample.self_s.{k}",
             f"increments.sample.n.{k}") for k in KINDS]:
        m[key] = _ratio_ns(r[self_key], r[count_key])
    return m


@dataclass
class Passes:
    plain: list = field(default_factory=list)     # per untraced pass, {op: seconds}
    traced: list = field(default_factory=list)    # per traced pass, {op: seconds}
    spans: list = field(default_factory=list)     # per traced pass, its spans
    rss_mb: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def run_passes(workload, seconds: float, tracer=None, env=None) -> Passes:
    """Whole passes until `seconds` have gone by. With a tracer, untraced
    and traced passes alternate, so the run ends on a traced pass. With an
    env, set-up is timed before every pass and after the last, so its
    samples spread over the whole run rather than one moment of it."""
    runs = Passes()
    deadline = time.perf_counter() + seconds
    while True:
        if env is not None:
            runs.setup_s.append(setup_seconds(env))
        for traced in ((False, True) if tracer is not None else (False,)):
            in_process = traced and not isinstance(workload, workloads.CliCold)
            times, results = run_pass(workload, traced, tracer if in_process else None)
            if not traced:
                runs.plain.append(times)
            else:
                runs.traced.append(times)
                runs.spans.append(workload.take_spans() if not in_process else tracer.spans)
                tracer.spans = []
            if isinstance(workload, workloads.CliCold):
                runs.rss_mb.append(max(workload.rss_mb.values()))
            bad = [name for name, ok in results if not ok]
            runs.attempted += len(results)
            runs.failed += len(bad)
            for name in bad:
                print(f"FAILED check {name}", file=sys.stderr)
        if time.perf_counter() >= deadline:
            if env is not None:
                runs.setup_s.append(setup_seconds(env))
            return runs


def _op_medians(passes: list) -> dict:
    return {op: statistics.median(p[op] for p in passes) for op in passes[0]}


def end_to_end(runs: Passes) -> dict:
    ops = _op_medians(runs.plain)
    return {
        "setup_s": statistics.median(runs.setup_s),
        "wall_s": sum(ops.values()),
        "peak_rss_mb": statistics.median(runs.rss_mb),
        "op_geomean_s": math.exp(statistics.fmean(math.log(t) for t in ops.values())),
    }


def traced_layers(runs: Passes, imports: dict, name: str) -> dict:
    """Per-pass means of the traced passes' layer figures, so that the self
    times plus trace.uncovered_s add up to trace.wall_s."""
    all_spans = spans.merge(runs.spans)
    (OUT / f"spans-{name}.json").write_text(json.dumps(all_spans))
    raw, covered = spans.layer_metrics(all_spans)
    k = len(runs.traced)
    raw = {key: (v if key.endswith("peak_bytes") else v / k) for key, v in raw.items()}
    traced_wall = statistics.fmean(sum(p.values()) for p in runs.traced)
    plain_wall = statistics.fmean(sum(p.values()) for p in runs.plain)
    raw.update(imports)
    raw["cli.main.duration_s"] = sum(t1 - t0 for _, _, span, t0, t1, _ in all_spans
                                     if span == "cli.main") / k
    raw["trace.wall_s"] = traced_wall
    raw["trace.untraced_wall_s"] = plain_wall
    raw["trace.overhead_s"] = traced_wall - plain_wall
    raw["trace.uncovered_s"] = traced_wall - covered / k
    return per_layer(raw)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "bslab" / "__init__.py").is_file():
        print(f"perfbench: no bslab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    # one operation at a time on at most 2 threads, here and in every child
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "2"
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)
    env = child_env()

    if args.workload == "cli-cold":
        workload = workloads.CliCold(args.seed, env, OUT)
    else:
        import bslab
        cls = workloads.PriceThreeWays if args.workload == "price-three-ways" \
            else workloads.CltLadder
        workload = cls(args.seed, bslab)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        if args.workload != "cli-cold":
            tracer.install()
        imports = import_breakdown(env)

    try:
        runs = run_passes(workload, args.seconds, tracer, None if args.trace else env)
    finally:
        if args.workload == "cli-cold":
            workload.close()
    if args.workload != "cli-cold":
        runs.rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(runs.plain)}"
          f"{f' + {len(runs.traced)} traced' if runs.traced else ''}  "
          f"checks {runs.attempted}  failed {runs.failed}")
    for name, (value, unit) in workload.named(_op_medians(runs.plain)).items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    if args.trace:
        metrics, units = traced_layers(runs, imports, args.workload), dict(PER_LAYER)
        self_sum = sum(metrics[key] for key in SELF_KEYS)
        print(f"  layer self times {self_sum:.6f} s + uncovered "
              f"{metrics['trace.uncovered_s']:.6f} s = traced wall "
              f"{metrics['trace.wall_s']:.6f} s")
    else:
        metrics, units = end_to_end(runs), dict(END_TO_END)
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:14.6g} {unit}")
    print(json.dumps({
        "correct": runs.failed == 0, "attempted": runs.attempted, "failed": runs.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
