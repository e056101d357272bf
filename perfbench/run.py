"""The ksets benchmark.

Usage:
    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports ksets from its src/.  Each
workload is a closed loop with one client in one fresh process: an op starts
when the previous one has ended.

--trace 0 prints the end-to-end metrics: the median of fresh-interpreter
setup probes, then whole passes of ops until S seconds and at least MIN_OPS
ops have run, each pass checked after it ends (checks are not timed).
--trace 1 prints the per-layer metrics: setup and one pass run traced, and
the same pass is run once untraced first to give the tracing overhead.

Every metric is printed as "name value unit"; the last line is one JSON
object with keys correct, attempted, failed and metrics.  Times come from
time.perf_counter and memory from getrusage, both of the benchmark's own
processes only; nothing system-wide is traced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_OPS = 100
SETUP_PROBES = 9

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)


class Tally:
    """Op outcomes: failures of known program defects are counted but
    leave the run correct; any other failure makes it incorrect."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []

    def check_pass(self, wl, ops, outs) -> None:
        for op, out in zip(ops, outs):
            self.attempted += 1
            if not isinstance(out, Exception):
                try:
                    if wl.check(op, out):
                        continue
                except Exception as exc:  # malformed output fails its check
                    out = exc
            self.failed += 1
            if not wl.known_failure(op):
                self.unexpected.append(f"{wl.key(op)!r:.120} -> {out!r:.200}")


def run_pass(wl, ops) -> tuple[list[float], list]:
    latencies, outs = [], []
    for op in ops:
        start = time.perf_counter()
        try:
            out = wl.run(op)
        except Exception as exc:  # a failed op is counted, not fatal
            out = exc
        latencies.append(time.perf_counter() - start)
        outs.append(out)
    return latencies, outs


def setup_seconds(name: str, seed: int) -> float:
    """Median time from process start to "ready" over fresh probes."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.wait(timeout=120)
        if line != "ready\n" or proc.returncode != 0:
            raise RuntimeError(f"setup probe for {name} failed")
    return statistics.median(samples)


def end_to_end(workloads, name: str, seed: int, seconds: float):
    wl = workloads.WORKLOADS[name](seed)
    setup_s = setup_seconds(name, seed)
    tally = Tally()
    by_input: dict[object, list[float]] = {}
    pass_rates: list[float] = []
    start = now = time.perf_counter()
    last_pass = 0.0
    # Whole passes keep the op mix fixed; a pass is started only when at
    # least half of it fits into the remaining time.
    while now + last_pass / 2 < start + seconds or tally.attempted < MIN_OPS:
        ops = wl.next_pass()
        lat, outs = run_pass(wl, ops)
        for op, seconds_taken in zip(ops, lat):
            by_input.setdefault(wl.key(op), []).append(seconds_taken)
        last_pass = sum(lat)
        pass_rates.append(len(lat) / last_pass)
        tally.check_pass(wl, ops, outs)
        now = time.perf_counter()
    if isinstance(wl, workloads.CliOneshot):
        peak_kb = wl.peak_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # The host's speed drifts in bursts of a few seconds.  Medians over
    # passes, and over each input's repeats, keep those bursts out of the
    # figures; each input counts once in the latency quantiles.
    typical = [statistics.median(v) for v in by_input.values()]
    values = {
        "setup_s": setup_s,
        "throughput_ops_s": statistics.median(pass_rates),
        "op_ms_p50": 1e3 * statistics.median(typical),
        "op_ms_p90": 1e3 * statistics.quantiles(typical, n=10, method="inclusive")[8],
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": peak_kb / 1024,
    }
    print(f"samples {tally.attempted} ops in {len(pass_rates)} passes over "
          f"{len(typical)} distinct inputs")
    print(f"failed_ratio {tally.failed}/{tally.attempted}")
    return wl, tally, {k: (values[k], unit) for k, unit in END_TO_END}


def per_layer(workloads, name: str, seed: int):
    import spans

    tracer = spans.Tracer()
    with tracer.installed():
        wl = workloads.WORKLOADS[name](seed)
    tally = Tally()
    ops = wl.next_pass()
    start = time.perf_counter()
    _, outs = run_pass(wl, ops)
    untraced_s = time.perf_counter() - start
    tally.check_pass(wl, ops, outs)

    children = isinstance(wl, workloads.CliOneshot)
    if children:
        wl.trace_children = True
        wl.raw.clear()
    with tracer.installed():
        start = time.perf_counter()
        _, outs = run_pass(wl, ops)
        traced_s = time.perf_counter() - start
    tally.check_pass(wl, ops, outs)

    raw = Counter(tracer.raw())
    if children:
        raw.update(wl.raw)
    raw["trace.untraced_s"] = untraced_s
    raw["trace.overhead_s"] = traced_s - untraced_s
    values = spans.layer_metrics(raw)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"spans-{name}-{seed}.json", "w") as fh:
        json.dump({"spans": tracer.spans,
                   "children": getattr(wl, "child_spans", [])}, fh)
    print(f"traced pass {len(ops)} ops; spans in .perfbench/spans-{name}-{seed}.json")
    for metric, unit, _, moves in spans.LAYER_METRICS:
        print(f"  {metric}: moves {moves}")
    return wl, tally, {m: (values[m], unit) for m, unit, _, _ in spans.LAYER_METRICS}


def run_one(workloads, name: str, seed: int, seconds: float, trace: bool) -> int:
    print(f"workload {name} seed {seed} trace {int(trace)}; python "
          f"{platform.python_version()}, {os.cpu_count()} CPUs")
    if trace:
        wl, tally, metrics = per_layer(workloads, name, seed)
    else:
        wl, tally, metrics = end_to_end(workloads, name, seed, seconds)
    problems = tally.unexpected + wl.finish()
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for line in wl.summary():
        print(line)
    for metric, (value, unit) in metrics.items():
        print(f"{metric} {value!r} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


def run_all(workloads, seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own fresh process; one combined result."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            capture_output=True, text=True, cwd=ROOT, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="table-build, core-census, cli-oneshot or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import ksets from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(workloads, args.seed, args.seconds, bool(args.trace))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(workloads, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
