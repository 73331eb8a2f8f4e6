"""tropcircle benchmark: one workload per run, one process, one thread.

    python3 perfbench/run.py --workload rr-search --seed 0 --seconds 35 --trace 0

With --trace 0 the run times whole passes over the workload's fixed batch of
ops until --seconds have elapsed and reports the end-to-end metrics.  With
--trace 1 it times untraced passes for half of --seconds, then makes one
traced pass and reports the per-layer metrics.  The last line of standard
output is one JSON object; README.md in this directory defines every metric.
"""

import argparse
import gc
import json
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracing import LAYERS, Tracer
from workloads import WORKLOADS, Raised, fresh_import

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = Path(__file__).resolve().parent / ".work"
SETUP_REPS = 5
# Best time of reference_loop on the reference host (README.md).  Untraced
# times are reported as they would read at that host's full speed.
REFERENCE_LOOP_S = 0.0046


def reference_loop():
    """A fixed pure-Python computation of the kind the package does:
    Fraction arithmetic, dict updates and a sort."""
    acc, table = Fraction(0), {}
    for i in range(1, 800):
        x = Fraction(i % 13 - 6, 2 ** (i % 5))
        acc = acc * Fraction(1, 2) + x
        table[i % 17] = max(table.get(i % 17, x), x)
    return acc, sorted(table.items())


def reference_time():
    """Best of three timings of reference_loop, with the collector off so
    that the package's live objects do not enter it."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = perf_counter()
            reference_loop()
            best = min(best, perf_counter() - t0)
        return best
    finally:
        gc.enable()


def setup(name, seed):
    """Import the package from a cold module cache, build the workload's
    corpus and write its input files, SETUP_REPS times back to back, with
    reference_loop timed before and after each; returns the last workload,
    the median set-up time in seconds and the host's slowdown against the
    reference host."""
    times, refs = [], [reference_time()]
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        workload = WORKLOADS[name](fresh_import(SRC), seed, WORKDIR / name)
        times.append(perf_counter() - t0)
        refs.append(reference_time())
    return workload, statistics.median(times), min(refs) / REFERENCE_LOOP_S


def one_pass(workload, wrap=None):
    """Run every op once; returns (wall seconds, per-op seconds, outcomes)."""
    gc.collect()
    latencies, outcomes = [], []
    start = perf_counter()
    for op in workload.ops(wrap):
        t0 = perf_counter()
        try:
            outcome = op()
        except Exception as exc:  # a raising op is a failed op, not a crash
            outcome = Raised(exc)
        latencies.append(perf_counter() - t0)
        outcomes.append(outcome)
    return perf_counter() - start, latencies, outcomes


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, verdicts):
        self.attempted += len(verdicts)
        self.failed += verdicts.count(False)


def timed_passes(workload, seconds, tally):
    """Whole passes until `seconds` have elapsed (at least one), with
    reference_loop timed before each; returns the pass walls, the per-op
    seconds of each pass and the host's slowdown against the reference
    host."""
    walls, per_op, refs = [], [], []
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        refs.append(reference_time())
        wall, latencies, outcomes = one_pass(workload)
        tally.add(workload.check(outcomes))
        walls.append(wall)
        per_op.append(latencies)
    return walls, per_op, min(refs) / REFERENCE_LOOP_S


def measure(workload, seconds):
    """End-to-end metrics, but for set-up, over whole passes for `seconds`.

    Each op's latency is its best over the passes, divided by the host's
    slowdown: the package is deterministic and single threaded, so a slower
    repeat of the same op, or a slower run, measures the host, not the code
    (see README.md)."""
    tally = Tally()
    walls, per_op, slowdown = timed_passes(workload, seconds, tally)
    ops = len(per_op[0])
    op_s = [min(samples) / slowdown for samples in zip(*per_op)]
    deciles = statistics.quantiles(op_s, n=10, method="inclusive")
    metrics = {
        "ops_per_s": (ops / sum(op_s), "1/s"),
        "op_p50_ms": (1000 * statistics.median(op_s), "ms"),
        "op_p90_ms": (1000 * deciles[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {"passes": len(walls), "samples": ops, "slowdown": round(slowdown, 4),
            "fail_ratio": tally.failed / tally.attempted}
    return tally, metrics, info


def measure_traced(workload, seconds, trace_stem=None):
    tally = Tally()
    walls, _, _ = timed_passes(workload, seconds / 2, tally)
    tracer = Tracer()
    tracer.install()
    try:
        wall, _, outcomes = one_pass(workload, tracer.wrap)
    finally:
        tracer.uninstall()
    tally.add(workload.check(outcomes))
    metrics = {}
    for li, layer in enumerate(LAYERS):
        metrics[f"{layer}.calls"] = (tracer.calls[li], "count")
        metrics[f"{layer}.self_s"] = (tracer.self_ns[li] / 1e9, "s")
        metrics[f"{layer}.raised"] = (tracer.raised[li], "count")
    metrics["scalars.is_prime_calls"] = (tracer.count("scalars.is_prime"), "count")
    metrics["riemann_roch.dim_filtration_calls"] = (tracer.count("riemann_roch.dim_filtration"), "count")
    metrics["polygons.reduce_keep_ratio"] = (
        tracer.poly_kept / tracer.poly_candidates if tracer.poly_candidates else 0.0, "ratio")
    metrics["trace.spans"] = (tracer.spans(), "count")
    metrics["trace.overhead_ratio"] = (wall / statistics.median(walls), "ratio")
    info = {"untraced_passes": len(walls), "traced_wall_s": wall,
            "fail_ratio": tally.failed / tally.attempted}
    if trace_stem is not None:
        trace_stem.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_stem)
        info["spans_file"] = f"{trace_stem}.bin"
    return tally, metrics, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tropcircle" / "__init__.py").is_file():
        print(f"error: no tropcircle sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload, setup_s, setup_slowdown = setup(args.workload, args.seed)
    if args.trace:
        stem = WORKDIR / f"trace-{args.workload}-{args.seed}"
        tally, metrics, info = measure_traced(workload, args.seconds, stem)
    else:
        tally, metrics, info = measure(workload, args.seconds)
        metrics["setup_s"] = (setup_s / setup_slowdown, "s")
        info["setup_slowdown"] = round(setup_slowdown, 4)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in info.items())
          + f" attempted={tally.attempted} failed={tally.failed}")
    for note in dict.fromkeys(workload.notes):
        print(f"  failed: {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
