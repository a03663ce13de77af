"""Smoke test of the benchmark's traced run.

The tracer in ``bench/tracing.py`` patches layer functions by name (for
example ``sasmamba.sas.selective_scan``), so renaming one breaks the traced
benchmark without failing any other test.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tiny_traced_infer_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "infer", "--seed", "1",
         "--seconds", "0.5", "--tiny", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    # one scan per layer, recorded under the patched name
    assert result["metrics"]["ssm.selective_scan.calls"]["value"] > 0
