"""The benchmark's traced run ends with a result the harness can read.

``benchmarks/run.py`` exits 0 even when its last line is no usable result:
a patched name that no longer resolves becomes a ``null`` metric, and
``json.dumps`` writes NaN and Infinity unquoted, which strict JSON parsers
reject. This runs one traced workload end to end (about 3 s) and reads
its last line as strict JSON.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def reject_constant(name):
    raise ValueError(f"non-finite number {name} in the result line")


def test_traced_accept_wide_result_is_strict_json():
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "accept-wide", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *summary, last = proc.stdout.splitlines()
    result = json.loads(last, parse_constant=reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert ["missing", "[]"] in [line.split() for line in summary]
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["metrics"]) == {metric["name"] for metric in per_layer}
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert type(value) in (int, float) and math.isfinite(value), (name, value)
