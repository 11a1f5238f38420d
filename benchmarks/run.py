"""The algcool benchmark: end-to-end and per-layer figures for fixed plans.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload accept-wide --seed 1 --seconds 40 --trace 0

Every operation is one fresh interpreter running ``algcool.cli.main`` on
the workload's arguments (see ``child.py``), against the sources under
``src/``. Each output is checked byte for byte against the sha256 pinned
in ``pins.json``. The benchmark seed picks the program seed as
``seed % seed_modulus``, so every seed has a pinned answer.

``--trace 0`` repeats the operation, with tracing off, for ``--seconds``
seconds and reports the end-to-end metrics (medians over operations).
``--trace 1`` runs the operation twice: traced (per-layer times and
counts; spans are written under ``.bench_out/``), and under tracemalloc
(per-layer peak allocation). The two must count exactly the same work,
or the benchmark fails.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 when every operation was correct, 1 when one was not, and 2 when the
program sources are absent.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
PINS = json.loads((HERE / "pins.json").read_text())

from child import COUNT_METRICS, LAYER_METRICS  # noqa: E402  (a sibling file)

#: fresh-interpreter imports per run; the median is setup_s
SETUP_SAMPLES = 7
OP_TIMEOUT_S = 170


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]  # algcool CLI arguments, without --seed / --out
    molecules: int = 0

    @property
    def command(self) -> str:
        return self.args[0]


_PLAN_20 = ("--epsilon0", "0.1", "--m", "20", "--ell", "5", "--jf", "2")
_PLAN_50 = ("--epsilon0", "0.1", "--m", "50", "--ell", "5", "--jf", "3")
_JSON = ("--format", "json")

# Why each workload exists is recorded in BENCHMARK.json and README.md.
# The smoke workloads are tiny plans for the benchmark's own tests.
WORKLOADS = {
    "accept-wide": Workload(
        ("simulate", *_PLAN_20, "--molecules", "32768", "--threads", "2", *_JSON),
        molecules=32768),
    "headline-narrow": Workload(
        ("simulate", *_PLAN_50, "--molecules", "256", "--threads", "1", *_JSON),
        molecules=256),
    "compile-headline": Workload(("compile", *_PLAN_50)),
    "smoke-simulate": Workload(
        ("simulate", "--epsilon0", "0.1", "--m", "10", "--ell", "4", "--jf", "1",
         "--molecules", "5000", "--threads", "2", *_JSON),
        molecules=5000),
    "smoke-compile": Workload(
        ("compile", "--epsilon0", "0.1", "--m", "10", "--ell", "5", "--jf", "1")),
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {k: unit for k, (unit, _) in LAYER_METRICS.items()}


def program_seed(seed: int) -> int:
    return seed % PINS["seed_modulus"]


def pinned_sha256(name: str, seed: int) -> str | None:
    pin = PINS["outputs"].get(name)
    if isinstance(pin, list):
        return pin[program_seed(seed)]
    return pin


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_seconds() -> float:
    """Time to ``import algcool.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import algcool.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"import algcool.cli failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_op(name: str, seed: int, mode: str) -> dict:
    """One operation in a fresh process; returns the child's report plus
    ``correct``."""
    wl = WORKLOADS[name]
    args = list(wl.args)
    if wl.command == "compile":
        args += ["--out", str(OUT_DIR / f"schedule-{name}.txt")]
    else:
        args += ["--seed", str(program_seed(seed))]
    trace_file = OUT_DIR / f"trace-{name}-{seed}-{mode}.json"
    OUT_DIR.mkdir(exist_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(trace_file), "--", *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=OP_TIMEOUT_S)
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0:
            raise ValueError(f"exit code {proc.returncode}")
    except (ValueError, IndexError):
        report = {"ok": False, "error": proc.stderr.strip()[-500:] or "no report"}
    except subprocess.TimeoutExpired:
        report = {"ok": False, "error": f"timed out after {OP_TIMEOUT_S} s"}
    finally:
        (OUT_DIR / f"schedule-{name}.txt").unlink(missing_ok=True)
    report["correct"] = bool(
        report.get("ok")
        and report.get("sha256") == pinned_sha256(name, seed)
        and report.get("round_trip", True)
    )
    if not report["correct"]:
        print(f"FAILED {name} seed={seed} mode={mode}: "
              f"{report.get('error') or 'output differs from the pinned sha256'}",
              file=sys.stderr)
    return report


def _median(values):
    return statistics.median(values) if values else None


def measure_end_to_end(name: str, seed: int, seconds: float):
    wl = WORKLOADS[name]
    import_seconds()  # warm-up: byte-compiles the sources on a fresh checkout
    setup = [import_seconds() for _ in range(SETUP_SAMPLES)]
    ops, took = [], []
    begin = time.perf_counter()
    while not ops or time.perf_counter() - begin + statistics.mean(took) <= seconds:
        t0 = time.perf_counter()
        ops.append(run_op(name, seed, "plain"))
        took.append(time.perf_counter() - t0)
    good = [op for op in ops if op["correct"]]
    walls = [op["wall_s"] for op in good]
    metrics = {
        "wall_s": _median(walls),
        "setup_s": _median(setup),
        "peak_rss_mb": _median([op["peak_rss_mb"] for op in good]),
    }
    info = {"ops": len(ops), "failed_frac": (len(ops) - len(good)) / len(ops),
            "wall_s.min": min(walls, default=None), "wall_s.max": max(walls, default=None)}
    if wl.molecules:
        info["molecules_per_s"] = _median([wl.molecules / w for w in walls])
    return ops, metrics, END_TO_END, info


def measure_layers(name: str, seed: int):
    traced = run_op(name, seed, "trace")
    memory = run_op(name, seed, "memory")
    ops = [traced, memory]
    layers = dict(traced.get("layers") or dict.fromkeys(LAYER_METRICS))
    peaks = memory.get("layers") or {}
    for key in ("ensemble.build_peak_mb", "cooling.compile_peak_mb"):
        layers[key] = peaks.get(key)
    info = {"ops": len(ops), "failed_frac": sum(not op["correct"] for op in ops) / len(ops),
            "missing": traced.get("missing", [])}
    for key in sorted(COUNT_METRICS):
        a, b = (traced.get("layers") or {}).get(key), peaks.get(key)
        if a != b:
            print(f"FAILED count {key} differs between runs: {a} vs {b}", file=sys.stderr)
            memory["correct"] = False
    return ops, layers, PER_LAYER, info


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result record printed last."""
    if trace:
        ops, values, units, info = measure_layers(workload, seed)
    else:
        ops, values, units, info = measure_end_to_end(workload, seed, seconds)
    failed = sum(not op["correct"] for op in ops)
    print(f"workload {workload}  seed {seed} (program seed {program_seed(seed)})  "
          f"trace {int(trace)}")
    for key, value in info.items():
        print(f"  {key:34s} {value}")
    for key, unit in units.items():
        print(f"  {key:34s} {values[key]} {unit}")
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "algcool" / "cli.py").is_file():
        print(f"error: no algcool sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
