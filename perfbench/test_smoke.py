"""The benchmark's own test: every workload once, tiny size, no time limit.

    python3 -m pytest perfbench/test_smoke.py
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def test_smoke_runs_every_workload_and_checks_outputs():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                          capture_output=True, text=True, cwd=os.path.dirname(HERE))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.strip().splitlines()[-1] == "smoke: ok"
