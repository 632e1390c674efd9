"""The benchmark's smoke run: ``perfbench/run.py`` on the toy workload, in
both passes, as a subprocess from the repository root.

perfbench calls into ``src/`` (``Tape``, ``ExecContext``,
``step_gradients``, ``invert_chain``) through its own code paths; these
runs fail if a library change breaks any of those calls or the checks the
bench makes on their results.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", [0, 1])
def test_bench_toy_run_is_correct(trace):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "toy-train",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    last = json.loads(run.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, last
