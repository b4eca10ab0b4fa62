"""Self-test of the benchmark harness at tiny sizes (n <= 4).

Run from the repository root: ``python3 -m pytest bench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

assert run.import_program() is not None

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny_run(workload, trace):
    return run.run_workload(workload, 7, 0, trace, sizes=workloads.TINY, setup_samples=False)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, record = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert record["failed_ratio"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and np.isfinite(metric["value"])
    json.dumps(result)


def _tamper_bound(real):
    def run_cli(argv):
        code, out, err = real(argv)
        target = Path(argv[argv.index("-o") + 1]) if "-o" in argv else None
        if argv[0] == "bound" and target is not None and "job" in target.parts:
            B = np.loadtxt(target / "B.csv", delimiter=",")
            n = B.shape[0] // 2
            B[0, n] += 1.0  # (0, n) is a within-unit pair, so it lies in Omega
            B[n, 0] += 1.0
            np.savetxt(target / "B.csv", B, delimiter=",", fmt="%.17g")
        return code, out, err
    return run_cli


def test_tampered_output_counts_as_failed(monkeypatch):
    monkeypatch.setattr(run, "run_cli", _tamper_bound(run.run_cli))
    result, record = tiny_run("exact-build", 0)
    assert result["failed"] == result["attempted"] == 1
    assert not result["correct"]
    assert record["failed_ratio"] == 1.0
    problems = record["jobs"][0]["problems"]
    assert any("within-unit pair" in p for p in problems)
    assert any("objective" in p for p in problems)


def test_wrappers_cover_every_namespace_and_come_off():
    import varbound
    from varbound import estimation, experiment

    original = experiment.enumerate_assignments
    with layers.Tracer():
        wrapped = experiment.enumerate_assignments
        assert wrapped is not original
        assert estimation.enumerate_assignments is wrapped
        assert varbound.enumerate_assignments is wrapped
    assert estimation.enumerate_assignments is original
    assert varbound.enumerate_assignments is original


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "estimate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
