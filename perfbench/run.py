#!/usr/bin/env python3
"""Benchmark of the inttiles library and CLI.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --self-check

One run sets up its workload (import of inttiles plus input generation),
repeats passes over the workload's fixed op set until the next pass would
end past --seconds, then checks every output. With --trace 0 it reports the
end-to-end metrics: each op's time is its median over the passes, scaled
to the reference host speed (see hostspeed.py; the unscaled wall time is
printed too), and set-up is repeated in fresh processes and its median
reported. With --trace 1 it runs untraced passes for half the time and
traced passes for the other half, reports the per-layer metrics (unscaled)
and writes the spans under .perfbench_out/. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.

--all runs every workload, each in its own process. --self-check runs
every workload at a tiny size in both modes and checks the printed metric
names and units against BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import hostspeed
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 900

clock = time.perf_counter_ns


def _require_sources() -> None:
    if not (SRC / "inttiles" / "__init__.py").is_file():
        sys.exit(f"perfbench: no inttiles sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))


def setup(name: str, seed: int, size: str):
    """Import inttiles and build the workload's inputs.

    Returns the workload and the set-up time in seconds, scaled to the
    reference host speed by probes run right after it."""
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    start = time.perf_counter()
    import inttiles
    import inttiles.cli  # noqa: F401
    import inttiles.schemas  # noqa: F401

    workload = workloads.WORKLOADS[name](seed, size, pins)
    elapsed = time.perf_counter() - start
    if not Path(inttiles.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: imported inttiles from {inttiles.__file__}, not from {SRC}")
    return workload, elapsed * hostspeed.PROBE_REF_NS / hostspeed.probe_median()


def run_passes(workload, budget_ns: float, failures: Counter, tracer=None):
    """Passes over the op set until the next one would end past the budget
    (at least one); returns (start, end, per-op intervals) of each pass and
    a Counter of the distinct outputs."""
    passes, walls, outputs = [], [], Counter()
    begin = clock()
    while True:
        if tracer is not None:
            tracer.install()
        start = clock()
        try:
            intervals, outs = workload.run_pass(failures, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        end = clock()
        passes.append((start, end, intervals))
        walls.append(end - start)
        outputs.update(outs)
        if clock() - begin + statistics.median(walls) > budget_ns:
            return passes, outputs


def op_times(passes, host=None) -> list[list[float | None]]:
    """Per pass, each op's time in ns; with a HostSpeed, probe time is taken
    out and the rest divided by the host's slowdown around the op."""
    if host is None:
        return [[iv and iv[1] - iv[0] for iv in intervals] for _, _, intervals in passes]
    return [[iv and host.scaled(*iv) for iv in intervals] for _, _, intervals in passes]


def per_op_median(per_pass: list[list[float | None]]) -> list[float]:
    """Each op's median time over the passes; ops that never completed are left out."""
    medians = []
    for runs in zip(*per_pass):
        done = [t for t in runs if t is not None]
        if done:
            medians.append(statistics.median(done))
    return medians


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def setup_samples(name: str, seed: int, size: str, first: float) -> list[float]:
    samples = [first]
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", name, "--seed", str(seed), "--size", size]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def machine() -> str:
    cpu = platform.processor() or "unknown CPU"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return f"nproc {os.cpu_count()}, {cpu}, Python {platform.python_version()}"


def run_one(name: str, seed: int, seconds: int, trace: bool, size: str) -> int:
    workload, setup_s = setup(name, seed, size)
    failures: Counter = Counter()
    budget = seconds * 1e9
    print(f"workload {name}  seed {seed}  size {size}  trace {int(trace)}  "
          f"ops/pass {workload.ops_per_pass}  ({machine()})")

    if trace:
        plain, outputs = run_passes(workload, budget / 2, failures)
        spans = tracing.Tracer()
        traced, traced_outputs = run_passes(workload, budget / 2, failures, spans)
        outputs += traced_outputs
        passes = len(plain) + len(traced)
    else:
        with hostspeed.HostSpeed() as host:
            per_pass, outputs = run_passes(workload, budget, failures)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes = len(per_pass)

    reasons: Counter = Counter()
    for output, count in outputs.items():
        reason = workload.check(output)
        if reason:
            reasons[reason] += count * workload.ops_per_output
    attempted = passes * workload.ops_per_pass
    failed = sum(failures.values()) + sum(reasons.values())

    metrics: dict[str, tuple[float, str]] = {}
    notes: dict[str, str] = {}
    if trace:
        metrics = tracing.layer_metrics(spans.stats, len(traced))
        metrics["trace.overhead_ratio"] = (
            sum(per_op_median(op_times(traced))) / sum(per_op_median(op_times(plain))), "ratio")
        notes["trace.overhead_ratio"] = (
            f"summed op times, {len(traced)} traced / {len(plain)} untraced passes")
        spans_path = ROOT / ".perfbench_out" / f"spans-{name}-seed{seed}.jsonl"
        spans.write_spans(spans_path)
        print(f"  {len(spans.spans)} spans written to {spans_path.relative_to(ROOT)}")
    else:
        samples = setup_samples(name, seed, size, setup_s)
        times = sorted(per_op_median(op_times(per_pass, host)))
        n = len(times)
        wall_s = sum(times) / 1e9
        raw_wall_s = sum(per_op_median(op_times(per_pass))) / 1e9
        slowdowns = [host.slowdown(start, end) for start, end, _ in per_pass]
        metrics = {
            "setup_s": (statistics.median(samples), "s"),
            "wall_s": (wall_s, "s"),
            "throughput_ops_s": (n / wall_s if n else 0.0, "1/s"),
            "op_p50_ms": (percentile(times, 0.50) / 1e6 if n else 0.0, "ms"),
            "op_p99_ms": (percentile(times, 0.99) / 1e6 if n else 0.0, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        beyond = n - math.ceil(0.99 * n)
        notes = {
            "setup_s": f"median of {len(samples)} set-ups, each in a fresh process",
            "wall_s": f"sum over {n} ops of each op's median over {passes} passes; "
                      f"unscaled {raw_wall_s:.4g} s, host slowdown per pass "
                      + " ".join(f"{x:.3f}" for x in slowdowns),
            "throughput_ops_s": f"{n} completed ops / wall_s",
            "op_p50_ms": f"{n} samples (each a median over {passes} passes)",
            "op_p99_ms": f"{n} samples, {beyond} beyond it",
            "peak_rss_mb": "ru_maxrss of this process after the timed passes",
        }

    for metric, (value, unit) in metrics.items():
        note = notes.get(metric, "")
        print(f"  {metric:<44} {value:>14.6g} {unit:<6} {note}")
    ratio = failed / attempted
    print(f"  {'failed_ratio':<44} {ratio:>14.6g} ratio  {failed} of {attempted} ops")
    for kind, count in sorted((failures + reasons).items()):
        print(f"    failed: {count} x {kind}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: int, traces: tuple[int, ...], size: str,
            check_names: bool) -> int:
    """Each workload in its own process; prints its report and a summary."""
    expected = None
    if check_names:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        expected = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
            print("BENCHMARK.json workloads differ from the benchmark's workloads")
            return 1
    status = 0
    for trace in traces:
        for name in workloads.WORKLOADS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace), "--size", size]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            *report, last = done.stdout.splitlines() or [""]
            print("\n".join(report))
            if done.returncode != 0:
                sys.stdout.write(done.stderr)
                print(f"FAIL {name} trace {trace}: exit code {done.returncode}")
                status = 1
                continue
            result = json.loads(last)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if not result["correct"]:
                print(f"FAIL {name} trace {trace}: {result['failed']} failed ops")
                status = 1
            if expected is not None and printed != expected[trace]:
                print(f"FAIL {name} trace {trace}: metric names or units differ "
                      f"from BENCHMARK.json: {sorted(set(printed.items()) ^ set(expected[trace].items()))}")
                status = 1
    print("self-check passed" if check_names and status == 0 else f"exit status {status}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", help="run one workload")
    mode.add_argument("--all", action="store_true", help="run every workload")
    mode.add_argument("--self-check", action="store_true",
                      help="every workload at tiny size, both trace modes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _require_sources()
    if args.self_check:
        return run_all(1, 0, (0, 1), "tiny", check_names=True)
    if args.all:
        return run_all(args.seed, args.seconds, (args.trace,), args.size, check_names=False)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        print(setup(args.workload, args.seed, args.size)[1])
        return 0
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.size)


if __name__ == "__main__":
    sys.exit(main())
