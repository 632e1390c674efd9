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


# the toy workload's registry peaks, to the byte: a change that moves them
# updates them here and says so
TOY_PEAK_ACTIVATION_BYTES = {"stored": 3_410_752, "recompute": 611_840}
# ceilings on the toy workload's heap peaks, which kernel scratch moves:
# a depthwise call holds its phases and one chunk's buffers, not
# whole-layer phase weights or weight-gradient blocks, and a stride-1
# chunk's stack at most about twice its input (or one 8-channel chunk);
# a stored backward lets go of each cache part after its last reader
TOY_HEAP_PEAK_CEILINGS = {"stored": 4_000_000, "recompute": 2_100_000}


@pytest.mark.parametrize("trace", [0, 1])
def test_bench_toy_run_is_correct(trace):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "toy-train",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    last = json.loads(run.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, last
    if trace == 0:
        value = lambda name: last["metrics"][name]["value"]
        for mode, want in TOY_PEAK_ACTIVATION_BYTES.items():
            assert value(f"peak_activation_bytes.{mode}") == want, mode
        for mode, ceiling in TOY_HEAP_PEAK_CEILINGS.items():
            assert value(f"heap_peak_bytes.{mode}") <= ceiling, mode
        assert value("heap_peak_bytes.recompute") < value("heap_peak_bytes.stored")
