"""Smoke test of the benchmark: tiny sizes, every workload, both trace modes.

Run from the repository root with ``python3 -m pytest benchmarks``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

NAMED = {
    "simulate-bulk": [f"trials_per_s.{m}" for m in run.MODELS]
    + [f"trials_per_s_1t.{m}" for m in run.MODELS],
    "simulate-sweep": ["pairs_per_s"],
    "check": ["verify_s", "oracle_s", "scan_s"],
}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    gate = [line for line in lines if line.startswith("gate: ")]
    assert gate and int(gate[0].split()[1]) == result["attempted"]
    if not trace:
        for name in NAMED[workload] + ["setup_s", "peak_rss_mb", "fail_ratio"]:
            assert any(line.startswith(f"metric {name} = ") for line in lines), name
    assert lines[-2].startswith("provenance ")


def test_gate_rejects_wrong_results():
    quad = [0.0, 1.5707963267948966, 0.7853981633974483, 2.356194490192345]
    pairs = [{"pair": "ab", "counts": [10, 40, 40, 10]}] * 4
    good = {"model": "quantum", "sign_choice": 1, "runs": [
        {"run_id": 0, "pairs": pairs, "chsh": run.chsh_closed_form("quantum", quad), "chsh_std_error": 1e-3}
    ]}
    assert run.check_report(good, "quantum", [quad], 100) == []
    bad = json.loads(json.dumps(good))
    bad["runs"][0]["chsh"] = 0.5
    assert run.check_report(bad, "quantum", [quad], 100)
    assert run.check_report(good, "quantum", [quad], 99)
    assert run.check_scan("model=quantum chsh=0.7071067812") == []
    assert run.check_scan("model=quantum chsh=0.7000000000")
    assert run.check_verify("check=x status=FAIL\nsuite=all overall=FAIL\n")
    assert run.check_oracle("oracle=vertex_joint_chsh_max value=0.5\n")


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "check", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
