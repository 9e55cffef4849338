"""The benchmark harness runs each of its four workloads end to end.

``bench/run.py`` checks every operation's output against its expected
verdict and position counts, every export against its stored sha256
fingerprint and every sweep slice against its exact instance counts;
this runs the smallest configuration of each once.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def smoke_run(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"),
         "--workload", workload, "--seed", "0", "--size", "smoke",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_eval_game_smoke_run_is_correct():
    smoke_run("eval-game")


def test_reduce_export_smoke_run_is_correct():
    smoke_run("reduce-export")


def test_eval_standard_smoke_run_is_correct():
    smoke_run("eval-standard")


def test_sweep_smoke_run_is_correct():
    smoke_run("sweep")
