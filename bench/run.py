"""Benchmark treemorse on one workload, or on all three in turn.

    python3 bench/run.py --workload census --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1

The last line of standard output is one JSON object: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced pass
that follows an untraced one (see README.md). Operation times are quoted at
a nominal pace of the machine (see pace.py). Exits 2 without a result when
the checkout holds no treemorse sources.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from pace import Pace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
NAMES = ("census", "large_documents", "small_functions")
SETUP_SAMPLES = 21  # fresh interpreters per run; the median is reported
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "work_per_s": "1/s",
    "latency_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class SetupProbes:
    """Cold set-ups in fresh interpreters, spread over the measured pass.

    The processor here runs faster and slower in stretches of seconds, so
    the samples are taken between operations at even intervals rather than
    back to back; their median is reported.
    """

    def __init__(self, workload: str, seed: int, seconds: float, pace: Pace) -> None:
        self.pace = pace
        self.argv = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
        self.spacing = seconds / SETUP_SAMPLES
        self.setups: list[float] = []
        self.imports: list[float] = []
        self._take()  # warm-up: it may also compile the bytecode caches
        self.setups.clear()
        self.imports.clear()

    def start(self) -> None:
        self._due = perf_counter()

    def _take(self) -> None:
        with self.pace.paused():
            start = perf_counter()
            proc = subprocess.run(self.argv, capture_output=True, text=True,
                                  timeout=PROBE_TIMEOUT_S, cwd=ROOT, check=True)
        times = json.loads(proc.stdout.splitlines()[-1])
        self.setups.append(times["ready"] - start - times["generate_s"])
        self.imports.append(times["import_s"])

    def between_operations(self) -> None:
        # up to two after an operation longer than the spacing, so that the
        # seconds-long operations of census leave none to take at the end
        for _ in range(2):
            if len(self.setups) < SETUP_SAMPLES and perf_counter() >= self._due:
                self._take()
                self._due += self.spacing

    def finish(self) -> None:
        while len(self.setups) < SETUP_SAMPLES:
            self._take()


def run_one(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import inputs
    import tracing
    import workloads

    pace = Pace()
    probes = SetupProbes(args.workload, args.seed, args.seconds, pace)
    workload = workloads.make(
        args.workload, inputs.workload_inputs(args.workload, args.seed), OUT / "documents"
    )
    workload.plan()
    tracer = tracing.Tracer() if args.trace else tracing.NoTrace()
    probes.start()
    pace.start()
    try:
        run = workloads.measure(workload, args.seconds, tracer, probes.between_operations)
        probes.finish()
    finally:
        pace.finish()
    # every timing is quoted at the nominal pace (see pace.py)
    times = pace.scaled(run.latencies, run.ended)
    scale = sum(times) / run.busy_s  # the run's mean, for sums over it
    if args.trace:
        traced_rounds = tracer.traced_ops / (len(run.latencies) / run.rounds)
        values = {
            name: value * scale if tracing.LAYER_METRICS[name][0] in ("s", "ns") else value
            for name, value in tracing.layer_values(tracer, traced_rounds).items()
        }
        values["setup.import_s"] = statistics.median(probes.imports)
        values["trace.overhead_pct"] = (
            run.seconds_per_unit(True, times) / run.seconds_per_unit(False, times) - 1
        ) * 100
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _) in tracing.LAYER_METRICS.items()
        }
        trace_path = OUT / f"trace-{args.workload}.json"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed, "rounds": run.rounds,
                                  "pace_scale": scale})
    else:
        values = {
            "work_per_s": run.units / sum(times),
            "latency_p50_s": statistics.median(times),
            "setup_s": statistics.median(probes.setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    for problem in run.problems:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    attempted = len(run.latencies)
    print(
        f"{args.workload} (seed {args.seed}): {attempted} operations, {run.failed} failed, "
        f"{run.rounds} round(s) in {run.busy_s:.2f} s busy; unit of work: {workload.unit}"
    )
    if args.trace:
        print(f"  every other operation traced; spans in {trace_path.relative_to(ROOT)}")
    print(f"  pace: reference mean {statistics.fmean(pace.samples) * 1e3:.4g} ms over "
          f"{len(pace.samples)} samples; operation times below are the measured ones "
          f"x {scale:.4f} on average")
    if not args.trace:
        print(f"  as measured: work_per_s {run.units / run.busy_s:.6g}, "
              f"latency_p50_s {statistics.median(run.latencies):.6g}")
    for name, metric in metrics.items():
        print(f"  {name:<30} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so each has its own peak memory."""
    results = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "treemorse" / "__init__.py").is_file():
        print(f"run.py: no treemorse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
