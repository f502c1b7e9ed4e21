"""The benchmark's output digests as a test: every workload, run once at
seed 0, must reproduce its reference digest and pass its checker.

The digests fingerprint every policy, value and trace the workloads
produce, so a change that moves a single output bit fails here instead of
only printing a mismatch line in a benchmark log.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "sgbench" / "run.py"


@pytest.mark.parametrize("workload", ["finite-exact", "sparse-sampling", "discounted-security"])
def test_seed_zero_matches_reference(workload):
    r = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", "0",
                        "--seconds", "0", "--trace", "0"],
                       cwd=RUN.parents[1], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert f"digest {workload} seed=0: " in r.stdout
    assert "(matches reference)" in r.stdout, r.stdout
    assert json.loads(r.stdout.splitlines()[-1])["correct"] is True, r.stdout


@pytest.mark.parametrize("workload", ["finite-exact", "sparse-sampling", "discounted-security"])
def test_traced_run_reports_every_layer(workload):
    # the traced round wraps module-level names of sgplan; a renamed one fails here
    r = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", "0",
                        "--seconds", "0", "--trace", "1"],
                       cwd=RUN.parents[1], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert "(matches reference)" in r.stdout, r.stdout
    result = json.loads(r.stdout.splitlines()[-1])
    assert result["correct"] is True, r.stdout
    declared = json.loads((RUN.parents[1] / "BENCHMARK.json").read_text())["per_layer"]
    missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
    assert not missing, missing
