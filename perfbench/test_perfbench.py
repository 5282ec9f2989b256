"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``.

They check that the exact work counts of traced runs repeat bit-for-bit
across processes with the same seed (each traced run also requires them to
repeat between its own passes), that every known answer holds on a seed
other than the ones used while tuning, and that the benchmark refuses to run
without the program.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import COUNTS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# counts that must be positive on the workload that exercises the layer
EXERCISED = {
    "analyse-rep": ["gf2.elim_calls", "gf2.text_bytes", "tanner.splits", "codewords.kernel_dim"],
    "synth-roundtrip": ["gf2.elim_calls", "pauli_sim.gate_calls", "pauli_sim.codewords",
                        "tanner.splits", "synthesis.qubits", "splitting.bits_after"],
    "codeword-fuzz": ["gf2.elim_calls", "pauli_sim.gate_calls", "pauli_sim.codewords"],
    "css-distance": ["distance.nodes", "gf2.elim_calls", "css.cols"],
}


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def traced_counts(name: str, seed: int) -> dict:
    proc = bench(ROOT, "--workload", name, "--seed", str(seed), "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["correct"] and record["failed"] == 0, proc.stdout
    return {key: record["metrics"][key]["value"] for key in COUNTS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_work_counts_repeat_exactly(name):
    first = traced_counts(name, 20261017)
    assert traced_counts(name, 20261017) == first
    for key in EXERCISED[name]:
        assert first[key] > 0, key


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "analyse-rep", "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
