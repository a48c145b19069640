"""The benchmark's untraced closed loop, run as the benchmark runs it.

bench/run.py exits 2 on its own errors, and an exception raised inside one
operation counts as a failed operation, so an exit 1 means an exception
escaped outside every operation: at import, in the warm-up, or in a
workload's final check. The loop writes only under the ignored bench/out/.
curve-large stays with CI's traced smoke: drawing its inputs alone takes
about 15 s.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


@pytest.mark.parametrize("workload", ["sweep-small", "galois-lattice"])
def test_untraced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0, result
