"""Smoke test of the benchmark's traced run, forward-only and with a backward.

The tracer in ``bench/tracing.py`` patches layer functions by name (for
example ``sasmamba.sas.selective_scan``), so renaming one breaks the traced
benchmark without failing any other test.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["infer", "train-default"])
def test_tiny_traced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--tiny", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    # one scan per layer, recorded under the patched name
    assert metrics["ssm.selective_scan.calls"] > 0
    # SA-Conv samples every tap in one gather per block of rows, and --tiny's
    # 9 x 17 grid is one block, so one gather per layer; its spans are found
    assert metrics["tensor.bilinear_gather.calls"] == metrics["ssm.selective_scan.calls"]
    assert metrics["component.bilinear_sampling.fwd_s"] > 0
    assert metrics["component.tap_mixing.fwd_s"] > 0
    if workload == "infer":
        # taped ops per layer: index bookkeeping must not creep back
        assert metrics["tensor.ops"] / metrics["ssm.selective_scan.calls"] <= 24
    if workload == "train-default":
        # the traced make_op wraps taped ops and times their adjoints
        assert metrics["ssm.selective_scan.bwd_s"] > 0
        assert metrics["tensor.tape_mb"] > 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_io_eval_run_is_correct(trace):
    # the keypoint writer and reader, the checkpoint round trip and both eval
    # protocols, called as the benchmark calls them
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "io-eval", "--seed", "1",
         "--seconds", "0.5", "--tiny", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    if trace == "1":
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        for call in ("write_keypoints", "read_keypoints", "save_ckpt", "load_ckpt"):
            assert metrics[f"fileio.{call}.calls"] > 0
        assert metrics["metrics.mpjpe_p2.s"] > 0
