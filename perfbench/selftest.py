"""Self-test of the benchmark's tracer and report.

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

cli = run._import_package()

import spans  # noqa: E402
import workloads  # noqa: E402
from unavoidable import format_scx, skeleton  # noqa: E402
import unavoidable.cli  # noqa: E402
import unavoidable.partitions  # noqa: E402

SEED = 3


@pytest.fixture
def workdir():
    directory = run.WORK / f"selftest-{os.getpid()}"
    directory.mkdir(parents=True)
    yield directory
    shutil.rmtree(directory)
    try:
        run.WORK.rmdir()
    except OSError:
        pass


def test_pi_span_tree_reaches_by_name_imports(workdir):
    path = workdir / "skeleton-2-9.scx"
    path.write_text(format_scx(skeleton(2, 9)))
    tracer = spans.Tracer()
    task = workloads.Task(("pi", str(path)), lambda results: None)
    with tracer.installed():
        elapsed, code, stdout, error, _ = run._run_task(cli, task, tracer, 0)
    assert (code, error) == (0, None)
    assert json.loads(stdout)["results"]["pi"] == 3
    assert tracer.tree(0) == [
        ("", "cli.run"),
        ("cli.run", "complexes.parse_scx"),
        ("complexes.parse_scx", "complexes.from_facets"),
        ("cli.run", "partitions.max_disjoint_min_nonfaces"),
    ]
    self_s = tracer.self_times()
    assert all(v >= 0 for v in self_s.values())
    assert sum(self_s.values()) <= elapsed
    assert tracer.counts["partitions.max_disjoint_min_nonfaces.candidates"] == 126
    assert tracer.counts["complexes.from_facets.facets_in"] == 84
    # Leaving the block restores every binding.
    assert unavoidable.cli.max_disjoint_min_nonfaces is \
        unavoidable.partitions.max_disjoint_min_nonfaces
    assert not hasattr(unavoidable.partitions.max_disjoint_min_nonfaces, "__wrapped__")


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    return result["metrics"]


def _declared(kind: str) -> list[str]:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return [metric["name"] for metric in declared[kind]]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_and_match_the_declared_metrics(workload, workdir):
    first, second = _run(workload, 1), _run(workload, 1)
    counts = {k: v["value"] for k, v in first.items() if v["unit"] == "count"}
    assert counts == {k: v["value"] for k, v in second.items() if v["unit"] == "count"}
    assert counts["cli.run.calls"] == len(workloads.build(workload, SEED, workdir).tasks)
    assert list(first) == _declared("per_layer")


def test_untraced_run_reports_the_declared_metrics():
    assert list(_run("packing", 0)) == _declared("end_to_end")

