"""Self-checks of the benchmark harness.

Run from the repository root with ``python3 -m pytest benchmarks``. The
pinned-output tests run the full workloads and take about a minute.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys

import pytest

import child
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

DEVELOPMENT_SEED = 1
HELD_OUT_SEED = 11  # a second pinned seed, not used while tuning the benchmark


def _cli_sha256(args: list[str]) -> str:
    report = subprocess.run(
        [sys.executable, str(run.HERE / "child.py"), "plain", str(run.OUT_DIR / "unused"),
         "--", *args],
        cwd=run.ROOT, env=run._env(), capture_output=True, text=True, check=True,
    ).stdout.splitlines()[-1]
    return json.loads(report)["sha256"]


@pytest.mark.parametrize("golden", run.PINS["golden"], ids=lambda g: g["sha256_prefix"])
def test_roadmap_golden_hashes(golden):
    assert _cli_sha256(golden["args"]).startswith(golden["sha256_prefix"])


def test_smoke_simulate_reproduces_a_golden_hash():
    golden = {g["sha256_prefix"]: g for g in run.PINS["golden"]}["aed527eb528059b1"]
    assert run.pinned_sha256("smoke-simulate", 2).startswith(golden["sha256_prefix"])


@pytest.mark.parametrize("seed", [DEVELOPMENT_SEED, HELD_OUT_SEED])
@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_output_matches_pin(name, seed):
    if run.WORKLOADS[name].command == "compile" and seed != DEVELOPMENT_SEED:
        pytest.skip("compile output does not depend on the seed")
    assert run.run_op(name, seed, "plain")["correct"]


def test_benchmark_json_names_what_the_harness_emits():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)
    assert BENCHMARK["paths"] == ["benchmarks"]


def _numbers(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("name", ["smoke-simulate", "smoke-compile"])
def test_smoke_emits_every_end_to_end_metric(name):
    result = run.run(name, 3, 1, trace=False)
    assert result["correct"] and result["failed"] == 0
    values = _numbers(result)
    assert list(values) == list(run.END_TO_END)
    assert all(isinstance(v, float) and v > 0 for v in values.values())


@pytest.mark.parametrize("name", ["smoke-simulate", "smoke-compile"])
def test_smoke_emits_every_layer_metric_and_counts_repeat(name):
    first = _numbers(run.run(name, 3, 1, trace=True))
    second = _numbers(run.run(name, 4, 1, trace=True))
    assert list(first) == list(run.PER_LAYER)
    assert all(isinstance(v, (int, float)) for v in first.values())
    for key in child.COUNT_METRICS:
        assert first[key] == second[key], key


def test_smoke_counts_are_exact():
    values = _numbers(run.run("smoke-simulate", 5, 1, trace=True))
    gates = sum(values[f"circuit.gates.{k}"] for k in child.GATE_KINDS)
    assert values["ensemble.chunks"] == 1
    assert gates == 674  # the compiled plan's length
    assert values["ensemble.draw_calls"] == run.WORKLOADS["smoke-simulate"].molecules
    assert values["compression.compile_bcs_calls"] == 4  # ell rounds at j_f = 1
    assert values["ensemble.build_peak_mb"] > 0 and values["cooling.compile_peak_mb"] > 0
    assert 0 < values["trace.overhead_s"] < 1  # about 15k wrapped calls
    compiled = _numbers(run.run("smoke-compile", 5, 1, trace=True))
    assert compiled["circuit.schedule_bytes"] > 0 and compiled["ensemble.chunks"] == 0


@pytest.mark.parametrize("trace", [False, True])
def test_corrupted_output_is_counted_as_failed(trace, monkeypatch):
    monkeypatch.setattr(run, "pinned_sha256", lambda name, seed: "0" * 64)
    result = run.run("smoke-simulate", 3, 1, trace=trace)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_missing_layer_is_reported_not_raised(monkeypatch):
    target = ("algcool.ensemble", "_renamed_by_a_refactor", "ensemble.draw")
    monkeypatch.setattr(child, "LEAF_TARGETS", [*child.LEAF_TARGETS, target])
    monkeypatch.syspath_prepend(str(run.ROOT / "src"))
    tracer = child.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == {"algcool.ensemble._renamed_by_a_refactor"}
    values = child.layer_metrics(tracer, threads=1)
    assert values["ensemble.draw_s"] is None and values["ensemble.draw_calls"] is None
    assert values["ensemble.pack_s"] == 0.0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "smoke-simulate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_pins_file_is_self_consistent():
    digest = hashlib.sha256(b"").hexdigest()
    for name, pin in run.PINS["outputs"].items():
        pins = pin if isinstance(pin, list) else [pin]
        assert name in run.WORKLOADS
        assert all(len(p) == len(digest) and p != digest for p in pins)
        if isinstance(pin, list):
            assert len(pin) == run.PINS["seed_modulus"]
