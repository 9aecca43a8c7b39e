"""The benchmark harness at tiny sizes, so that it cannot rot unnoticed.

Runs ``bench/run.py --smoke`` from the repository root and checks its
verdict line; it makes no timing assertions.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes_its_gate():
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    verdict = json.loads(proc.stdout.strip().splitlines()[-1])
    assert verdict["correct"] is True, proc.stderr[-4000:]
    assert verdict["failed"] == 0
