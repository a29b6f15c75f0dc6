#!/usr/bin/env python3
"""Benchmark of the ``unavoidable`` command line on four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

The first form runs one workload in this process, a closed loop of one
client: ``unavoidable.cli.run([..., "--json"])`` on each task in turn, with
stdout captured.  It repeats whole passes over the workload's task list until
``--seconds`` have passed, checks every task's ``results``, and prints as its
last line {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

The second form runs every workload untraced and traced, each in its own
process, and prints every metric by name with its unit.

The package is imported from ``src/`` next to this directory; the benchmark
refuses to run without it, and under ``python -O``, which would drop the
package's ``assert`` verifications from the timed path.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
# Ten samples beyond the 90th percentile.
MIN_SAMPLES = 100


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not __debug__ or sys.flags.optimize:
        _fail("refusing to run under python -O or PYTHONOPTIMIZE: the package's "
              "assert checks are on the timed path")
    if not (SRC / "unavoidable" / "cli.py").is_file():
        _fail(f"no package source at {SRC / 'unavoidable'}")
    sys.path.insert(0, str(SRC))
    import unavoidable.cli
    if Path(unavoidable.cli.__file__).resolve().parent != SRC / "unavoidable":
        _fail(f"imported unavoidable from {unavoidable.cli.__file__}, not from {SRC}")
    return unavoidable.cli


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit}


def _run_task(cli, task, tracer=None, index=None):
    """Run one command; returns (seconds, exit code or None, stdout, error text, task)."""
    out = io.StringIO()
    if tracer is not None:
        tracer.task = index
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code, error = cli.run([*task.argv, "--json"]), None
        except Exception:  # a crash fails this task, not the benchmark
            code, error = None, traceback.format_exc()
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), error, task


class Checker:
    """Counts attempts and failures; an output already accepted for a task is
    not checked again."""

    def __init__(self, mismatch):
        self.mismatch = mismatch
        self.accepted: set = set()
        self.failures: list[str] = []
        self.attempted = self.timed = 0

    def record(self, samples, timed: bool = True) -> None:
        for _, code, stdout, error, task in samples:
            self.attempted += 1
            self.timed += timed
            problem = self._problem(task, code, stdout, error)
            if problem:
                self.failures.append(f"{' '.join(task.argv)}: {problem}")

    def _problem(self, task, code, stdout, error):
        if error is not None:
            return error.strip().splitlines()[-1]
        if code != task.exit_code:
            return f"exit code {code}, expected {task.exit_code}"
        try:
            results = json.loads(stdout)["results"]
        except (ValueError, KeyError) as exc:
            return f"unreadable report: {exc!r}"
        key = (task.argv, json.dumps(results, sort_keys=True))
        if key not in self.accepted:
            try:
                task.check(results)
            except (self.mismatch, KeyError, TypeError, ValueError) as exc:
                return f"{type(exc).__name__}: {exc}"
            self.accepted.add(key)
        return None

    def verify(self, label: str, check) -> None:
        self.attempted += 1
        try:
            check()
        except self.mismatch as exc:
            self.failures.append(f"{label}: {exc}")


def _setup(name: str, seed: int, workloads):
    """Build the workload SETUP_REPEATS times; returns the last build, its
    directory and the median build time."""
    times = []
    for rep in range(SETUP_REPEATS):
        directory = WORK / f"{name}-{os.getpid()}-{rep}"
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        start = time.perf_counter()
        workload = workloads.build(name, seed, directory)
        times.append(time.perf_counter() - start)
        if rep < SETUP_REPEATS - 1:
            shutil.rmtree(directory)
    return workload, directory, statistics.median(times)


def _end_to_end(cli, tasks, seconds, check) -> dict:
    """Whole passes until ``seconds`` have passed and MIN_SAMPLES commands have run."""
    latencies = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(latencies) < MIN_SAMPLES:
        samples = [_run_task(cli, task) for task in tasks]
        latencies += [sample[0] for sample in samples]
        check.record(samples)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "tasks_per_s": (len(latencies) / sum(latencies), "1/s"),
        "task_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "task_p90_ms": (statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _per_layer(cli, tasks, seconds, check) -> dict:
    """Alternate untraced and traced passes until ``seconds`` have passed.

    Every number is per pass.  Counts come from one traced pass and must
    repeat in every other one; self times are medians over the traced passes.
    """
    tracer = spans.Tracer()
    plain_walls, traced_walls, self_times, counts = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not traced_walls or time.perf_counter() < deadline:
        start = time.perf_counter()
        samples = [_run_task(cli, task) for task in tasks]
        plain_walls.append(time.perf_counter() - start)
        check.record(samples)
        tracer.reset()
        with tracer.installed():
            start = time.perf_counter()
            samples = [_run_task(cli, task, tracer, i) for i, task in enumerate(tasks)]
            traced_walls.append(time.perf_counter() - start)
        check.record(samples)
        self_times.append(tracer.self_times())
        counts.append({k: v for k, v in tracer.counts.items() if v})

    def same_counts() -> None:
        if any(c != counts[0] for c in counts):
            raise check.mismatch("count metrics differ between traced passes")
    check.verify("traced passes", same_counts)

    wall = statistics.median(traced_walls)
    metrics = {}
    layer_self = dict.fromkeys(spans.TRACED, 0.0)
    for name in spans.traced_names():
        self_s = statistics.median(t.get(name, 0.0) for t in self_times)
        layer_self[name.split(".")[0]] += self_s
        metrics[f"{name}.calls"] = (counts[0].get(f"{name}.calls", 0), "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    for layer, self_s in layer_self.items():
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.share"] = (self_s / wall, "ratio")
    for name in spans.COUNT_METRICS:
        metrics[name] = (counts[0].get(name, 0), "count")
    metrics["trace.overhead_frac"] = (wall / statistics.median(plain_walls) - 1, "ratio")
    return metrics


def run_workload(cli, name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    directory = None
    try:
        workload, directory, setup_s = _setup(name, seed, workloads)
        check = Checker(workloads.Mismatch)
        if trace:
            metrics = _per_layer(cli, workload.tasks, seconds, check)
        else:
            metrics = {"setup_s": (setup_s, "s"),
                       **_end_to_end(cli, workload.tasks, seconds, check)}
        check.record([_run_task(cli, task) for task in workload.check_tasks], timed=False)
        for label, verify in workload.input_checks:
            check.verify(f"input {label}", verify)
    finally:
        if directory is not None:
            shutil.rmtree(directory, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    for failure in check.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"env": {**environment(), "timed_samples": check.timed}}))
    return {
        "correct": not check.failures,
        "attempted": check.attempted,
        "failed": len(check.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced and traced, each in its own process."""
    import workloads

    env = environment()
    print(f"# python {env['python']}, nproc {env['nproc']}, commit {env['commit']}, "
          f"seed {seed}, seconds {seconds}")
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                print(f"{name} trace={trace}: no result (exit code {proc.returncode})")
                status = 1
                continue
            status |= not result["correct"]
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, entry in result["metrics"].items():
                print(f"  {name:9} {metric:58} {entry['value']:>14.6g} {entry['unit']}")
    return status


def main(argv=None) -> int:
    cli = _import_package()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, report all metrics")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if args.all:
        return run_all(args.seed, args.seconds)
    print(json.dumps(run_workload(cli, args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
