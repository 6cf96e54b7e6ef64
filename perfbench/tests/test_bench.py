"""Tests of the benchmark itself (not of alphasine).

Run from the repository root:  python3 -m pytest perfbench/tests -q
The smoke runs take about half a minute in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0), proc.stderr
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def _perturb_first_value(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    fields = lines[first].split(",")
    fields[1] = repr(float(fields[1]) + 1e-6)
    lines[first] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _truncate(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    import numpy as np

    work = tmp_path_factory.mktemp("inverse_cli")
    workload = bench_workloads.InverseCli(work, np.random.default_rng(5))
    workload.setup(0, 1)
    return workload, workload.cycle()[0]


def test_clean_op_passes(session):
    workload, op = session
    record = run.run_op(workload, op, 0)
    assert record.problems == []
    assert record.seconds > 0.0


def test_perturbed_csv_value_counts_as_failed(session):
    workload, op = session

    def tamper(path):
        if path.name == "gsas.csv":
            _perturb_first_value(path)

    record = run.run_op(workload, op, 0, tamper=tamper)
    assert any("sas g deviation" in p for p in record.problems), record.problems


def test_malformed_csv_counts_as_failed(session):
    workload, op = session

    def tamper(path):
        if path.name == "density.csv":
            _truncate(path)

    record = run.run_op(workload, op, 0, tamper=tamper)
    assert any("expected 512 rows" in p for p in record.problems), record.problems


def test_nonzero_exit_counts_as_failed(tmp_path):
    class Broken:
        def run_op(self, op, runner):
            runner.cli("invert", "--method", "fourier", "--in", tmp_path / "missing.csv",
                       "--alpha", 1.5, "--out", tmp_path / "out.csv")

    record = run.run_op(Broken(), None, 0)
    assert len(record.problems) == 1 and "exited 2" in record.problems[0]


def test_absent_name_is_skipped(monkeypatch):
    wraps = bench_trace.WRAPS + (("alphasine.forward", "no_such_function", "quad.gone", None),)
    monkeypatch.setattr(bench_trace, "WRAPS", wraps)
    monkeypatch.setitem(bench_trace.SPAN_METRICS, "quad.gone_s", ("s", "quad.gone"))
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        metrics = bench_trace.layer_metrics(tracer, [1.0])
    finally:
        tracer.uninstall()
    assert tracer.absent == ["quad.gone"]
    assert "quad.gone_s" not in metrics
    assert "quad.kernel_split_s" in metrics


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "direct", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_layer_map_covers_every_metric():
    layer_map = json.loads((BENCH / "layer_map.json").read_text(encoding="utf-8"))
    assert set(layer_map["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert set(layer_map["workloads"]) == {w["name"] for w in SPEC["workloads"]}
