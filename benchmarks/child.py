"""Run one benchmark operation in a fresh interpreter and report on it.

Usage::

    python3 benchmarks/child.py {plain,trace,memory} TRACE_FILE -- ALGCOOL_ARGS...

The operation is ``algcool.cli.main(ALGCOOL_ARGS)`` with standard output
captured. For ``compile`` the schedule file named by ``--out`` is then
read back with ``schedule_from_text`` inside the timed region, and
afterwards checked to re-serialize to the same bytes. The last line of
standard output is one JSON object: wall time, sha256 of the output,
peak RSS and, when traced, the per-layer metrics.

``trace`` wraps the functions each module calls into, patched where the
caller looks them up, and keeps spans in memory; they are written to
TRACE_FILE at the end. ``memory`` uses the same wrappers but serializes
the wrapped chunk work under one lock and runs tracemalloc around the
register build and the schedule compile, so its timings are not used.
No file of the program is changed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import itertools
import json
import resource
import sys
import threading
import time
import tracemalloc
import types
from pathlib import Path

GATE_KINDS = ("SWAP", "ZCSWAP", "CNOT", "RESET")

# (module, attribute, span name). Each is a call whose duration and
# nesting matter; one Span is kept per call.
SPAN_TARGETS = [
    ("algcool.cli", "main", "cli.main"),
    ("algcool.cli", "run_ensemble", "ensemble.run"),
    ("algcool.cli", "compare_to_analytic", "analytic.compare"),
    ("algcool.cli", "compile_cooling", "cooling.compile"),
    ("algcool.cli", "validate_schedule", "circuit.validate"),
    ("algcool.cli", "schedule_to_text", "circuit.to_text"),
    ("algcool.circuit", "schedule_from_text", "circuit.from_text"),
    ("algcool.ensemble", "compile_cooling", "cooling.compile"),
    ("algcool.ensemble", "_build_registers", "ensemble.build"),
    ("algcool.ensemble", "run_cooling", "cooling.run"),
    ("algcool.ensemble", "_Accumulator.fold", "ensemble.fold"),
]

# Calls made up to a million times per operation: only a count and a
# total time per (name, parent span) are kept.
LEAF_TARGETS = [
    ("algcool.cooling", "apply_gate", "circuit.apply"),
    ("algcool.cooling", "compile_bcs", "compression.compile_bcs"),
    ("algcool.ensemble", "_molecule_bits", "ensemble.draw"),
    ("algcool.ensemble", "_pack_rows", "ensemble.pack"),
    ("algcool.circuit", "Register.purified_run_length", "cooling.bookkeep"),
    ("algcool.circuit", "Register.comp_bit_rows", "cooling.bookkeep"),
]

# Under ``memory`` these spans hold one lock, so that allocations of
# another thread's chunk never land inside a tracemalloc window.
LOCKED_SPANS = {"ensemble.build", "cooling.run", "ensemble.fold", "cooling.compile"}
PEAK_SPANS = {"ensemble.build", "cooling.compile"}


class Span:
    __slots__ = ("id", "name", "start", "end", "cpu", "parent", "thread", "child", "leaves",
                 "counts")

    def __init__(self, id, name, parent, thread):
        self.id = id
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0.0
        self.cpu = 0.0  # CPU time of its thread; excludes waiting for the GIL
        self.child = 0.0  # time covered by children in the same thread
        self.leaves: dict[str, list] = {}  # name -> [calls, seconds, molecule_gates]
        self.counts: dict[str, int] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: list[Span] = []


class Tracer:
    """In-memory span recorder around functions of the algcool modules."""

    def __init__(self, memory: bool = False):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self.missing: set[str] = set()  # targets not found, as module.attribute
        self.missing_names: set[str] = set()  # span names those targets feed
        self.memory = memory
        self._lock = threading.RLock()
        self._state = _ThreadState()
        self._main_stack = self._state.stack
        # leaf calls outside any span are charged to this root
        self.root = Span(-1, "root", None, threading.get_ident())
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for module, attr, name in SPAN_TARGETS:
            self._patch(module, attr, name, self._span_wrapper)
        for module, attr, name in LEAF_TARGETS:
            factory = self._gate_wrapper if name == "circuit.apply" else self._leaf_wrapper
            self._patch(module, attr, name, factory)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, module: str, path: str, name: str, factory) -> None:
        try:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.add(f"{module}.{path}")
            self.missing_names.add(name)
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, factory(original, name))

    # -- wrappers -------------------------------------------------------

    def _open(self, name: str) -> Span:
        stack = self._state.stack
        if stack:
            parent = stack[-1].id
        else:  # a pool thread: caused by the innermost open main-thread span
            parent = self._main_stack[-1].id if self._main_stack else None
        span = Span(next(self._ids), name, parent, threading.get_ident())
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        stack = self._state.stack
        stack.pop()
        if stack:
            stack[-1].child += span.duration

    def _span_wrapper(self, fn, name):
        lock = self._lock if self.memory and name in LOCKED_SPANS else None
        peak = self.memory and name in PEAK_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with lock if lock is not None else contextlib.nullcontext():
                span = self._open(name)
                if peak:
                    tracemalloc.start()
                cpu0 = time.thread_time()
                span.start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    span.cpu = time.thread_time() - cpu0
                    if peak:
                        span.counts["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
                    self._close(span)
            try:
                if name == "circuit.to_text":
                    span.counts["bytes"] = len(result)  # the text is ASCII
                elif name == "ensemble.build":
                    count = _arg(args, kwargs, 4, "stop") - _arg(args, kwargs, 3, "start")
                    rows = 2 * _arg(args, kwargs, 0, "n") + _arg(args, kwargs, 5, "reset_rows")
                    span.counts["random_bytes"] = rows * count  # bool pool, computed
            except (IndexError, KeyError, TypeError):
                pass  # signature changed: the count reads 0, the call still ran
            return result

        return wrapper

    def _leaf_wrapper(self, fn, name):
        state, root, perf = self._state, self.root, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack = state.stack
                top = stack[-1] if stack else root
                top.child += dt
                rec = top.leaves.get(name)
                if rec is None:
                    rec = top.leaves[name] = [0, 0.0, 0]
                rec[0] += 1
                rec[1] += dt

        return wrapper

    def _gate_wrapper(self, fn, name):
        state, root, perf = self._state, self.root, time.perf_counter
        names = {kind: f"{name}.{kind}" for kind in GATE_KINDS}

        @functools.wraps(fn)
        def wrapper(reg, gate, *args, **kwargs):
            t0 = perf()
            try:
                return fn(reg, gate, *args, **kwargs)
            finally:
                dt = perf() - t0
                stack = state.stack
                top = stack[-1] if stack else root
                top.child += dt
                key = names.get(gate.KIND) or f"{name}.{gate.KIND}"
                rec = top.leaves.get(key)
                if rec is None:
                    rec = top.leaves[key] = [0, 0.0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += reg.num_molecules

        return wrapper

    # -- output ---------------------------------------------------------

    def dump(self, path: Path) -> None:
        def record(s: Span) -> dict:
            return {
                "id": s.id, "name": s.name, "parent": s.parent, "thread": s.thread,
                "start": s.start, "end": s.end, "cpu": s.cpu, "self": s.self_time,
                "leaves": {k: {"calls": v[0], "seconds": v[1]} for k, v in s.leaves.items()},
                "counts": s.counts,
            }

        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"missing": sorted(self.missing),
                       "spans": [record(s) for s in [self.root, *self.spans]]}, fh)


def _arg(args, kwargs, index, key):
    return kwargs[key] if key in kwargs else args[index]


# -- per-layer metrics ----------------------------------------------------

# metric -> (unit, span names it is measured at). A metric whose span has
# a target that could not be wrapped, because a refactor renamed or removed
# it, is reported as missing (value null) rather than as a crash.
LAYER_METRICS: dict[str, tuple[str, tuple[str, ...]]] = {
    **{f"circuit.apply_s.{k}": ("s", ("circuit.apply",)) for k in GATE_KINDS},
    **{f"circuit.gates.{k}": ("count", ("circuit.apply",)) for k in GATE_KINDS},
    "circuit.ns_per_molecule_gate": ("ns", ("circuit.apply",)),
    "circuit.validate_s": ("s", ("circuit.validate",)),
    "circuit.to_text_s": ("s", ("circuit.to_text",)),
    "circuit.from_text_s": ("s", ("circuit.from_text",)),
    "circuit.schedule_bytes": ("bytes", ("circuit.to_text",)),
    "cooling.compile_s": ("s", ("cooling.compile",)),
    "cooling.compile_peak_mb": ("MB", ("cooling.compile",)),
    "cooling.run_self_s": ("s", ("cooling.run", "circuit.apply", "cooling.bookkeep")),
    "cooling.bookkeep_s": ("s", ("cooling.bookkeep",)),
    "compression.compile_bcs_s": ("s", ("compression.compile_bcs",)),
    "compression.compile_bcs_calls": ("count", ("compression.compile_bcs",)),
    "ensemble.build_s": ("s", ("ensemble.build",)),
    "ensemble.build_peak_mb": ("MB", ("ensemble.build",)),
    "ensemble.draw_s": ("s", ("ensemble.draw",)),
    "ensemble.draw_calls": ("count", ("ensemble.draw",)),
    "ensemble.pack_s": ("s", ("ensemble.pack",)),
    "ensemble.random_bytes": ("bytes_computed", ("ensemble.build",)),
    "ensemble.fold_s": ("s", ("ensemble.fold",)),
    "ensemble.chunks": ("count", ("ensemble.build",)),
    "ensemble.chunk_s_max": ("s", ("ensemble.build", "cooling.run")),
    "ensemble.parallel_eff": ("ratio", ("ensemble.build", "cooling.run", "ensemble.run")),
    "analytic.compare_s": ("s", ("analytic.compare",)),
    "cli.self_s": ("s", ("cli.main",)),
    "trace.overhead_s": ("s", ()),
}

#: Metrics that count work; they must repeat exactly between operations.
COUNT_METRICS = {name for name, (unit, _) in LAYER_METRICS.items()
                 if unit in ("count", "bytes", "bytes_computed")}


def layer_metrics(tracer: Tracer, threads: int) -> dict[str, float | None]:
    spans = tracer.spans

    def of(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in of(name))

    leaves: dict[str, list] = {}
    for s in [tracer.root, *spans]:
        for key, (calls, secs, mg) in s.leaves.items():
            rec = leaves.setdefault(key, [0, 0.0, 0])
            rec[0] += calls
            rec[1] += secs
            rec[2] += mg

    def leaf(name, i):
        return leaves.get(name, [0, 0.0, 0])[i]

    builds, runs = of("ensemble.build"), of("cooling.run")
    chunk_wall, chunk_cpu = [], []
    for b in builds:  # a chunk is a build and the next run in its thread
        later = [r for r in runs if r.thread == b.thread and r.start >= b.end]
        r = min(later, key=lambda r: r.start) if later else None
        chunk_wall.append(b.duration + (r.duration if r else 0.0))
        chunk_cpu.append(b.cpu + (r.cpu if r else 0.0))
    ens_wall = total("ensemble.run")
    apply_s = sum(leaf(f"circuit.apply.{k}", 1) for k in GATE_KINDS)
    molecule_gates = sum(leaf(f"circuit.apply.{k}", 2) for k in GATE_KINDS)

    values = {
        **{f"circuit.apply_s.{k}": leaf(f"circuit.apply.{k}", 1) for k in GATE_KINDS},
        **{f"circuit.gates.{k}": leaf(f"circuit.apply.{k}", 0) for k in GATE_KINDS},
        "circuit.ns_per_molecule_gate": 1e9 * apply_s / molecule_gates if molecule_gates else 0.0,
        "circuit.validate_s": total("circuit.validate"),
        "circuit.to_text_s": total("circuit.to_text"),
        "circuit.from_text_s": total("circuit.from_text"),
        "circuit.schedule_bytes": sum(s.counts.get("bytes", 0) for s in of("circuit.to_text")),
        "cooling.compile_s": total("cooling.compile"),
        "cooling.compile_peak_mb": max(
            (s.counts.get("peak_bytes", 0) for s in of("cooling.compile")), default=0) / 1e6,
        "cooling.run_self_s": sum(s.self_time for s in runs),
        "cooling.bookkeep_s": leaf("cooling.bookkeep", 1),
        "compression.compile_bcs_s": leaf("compression.compile_bcs", 1),
        "compression.compile_bcs_calls": leaf("compression.compile_bcs", 0),
        "ensemble.build_s": sum(s.duration for s in builds),
        "ensemble.build_peak_mb": max(
            (s.counts.get("peak_bytes", 0) for s in builds), default=0) / 1e6,
        "ensemble.draw_s": leaf("ensemble.draw", 1),
        "ensemble.draw_calls": leaf("ensemble.draw", 0),
        "ensemble.pack_s": leaf("ensemble.pack", 1),
        "ensemble.random_bytes": sum(s.counts.get("random_bytes", 0) for s in builds),
        "ensemble.fold_s": total("ensemble.fold"),
        "ensemble.chunks": len(builds),
        "ensemble.chunk_s_max": max(chunk_wall, default=0.0),
        "ensemble.parallel_eff": sum(chunk_cpu) / (threads * ens_wall) if ens_wall else 0.0,
        "analytic.compare_s": total("analytic.compare"),
        "cli.self_s": sum(s.self_time for s in of("cli.main")),
        "trace.overhead_s": tracing_overhead(tracer),
    }
    for metric, (_, needs) in LAYER_METRICS.items():
        if any(name in tracer.missing_names for name in needs):
            values[metric] = None
    return values


def wrapper_costs(calls: int = 20000, repeats: int = 5) -> dict[str, float]:
    """Seconds each kind of wrapper adds to one call, timed on a no-op
    (best of ``repeats``) with a throwaway tracer."""
    tracer = Tracer()
    reg, gate = types.SimpleNamespace(num_molecules=1), types.SimpleNamespace(KIND="SWAP")

    def noop(*args):
        return None

    def per_call(fn, args):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn(*args)
            best = min(best, time.perf_counter() - t0)
        return best / calls

    bare = per_call(noop, (reg, gate))
    return {
        "gate": per_call(tracer._gate_wrapper(noop, "circuit.apply"), (reg, gate)) - bare,
        "leaf": per_call(tracer._leaf_wrapper(noop, "calibrate"), (reg, gate)) - bare,
        "span": per_call(tracer._span_wrapper(noop, "calibrate"), (reg, gate)) - bare,
    }


def tracing_overhead(tracer: Tracer) -> float:
    """Estimated seconds the wrappers added to the traced operation: the
    calls each wrapper saw times its calibrated cost per call."""
    cost = wrapper_costs()
    total = cost["span"] * len(tracer.spans)
    for s in [tracer.root, *tracer.spans]:
        for key, (calls, _, _) in s.leaves.items():
            total += calls * cost["gate" if key.startswith("circuit.apply.") else "leaf"]
    return max(total, 0.0)


# -- the operation ---------------------------------------------------------


def _flag(argv: list[str], flag: str, default: str) -> str:
    return argv[argv.index(flag) + 1] if flag in argv else default


def run(mode: str, trace_file: Path, argv: list[str]) -> dict:
    import algcool.cli
    from algcool import circuit

    tracer = None
    if mode in ("trace", "memory"):
        tracer = Tracer(memory=mode == "memory")
        tracer.install()
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            code = algcool.cli.main(argv)
            if argv[0] == "compile":
                text = Path(_flag(argv, "--out", "")).read_text()
                schedule = circuit.schedule_from_text(text)
            wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"ok": code == 0, "wall_s": wall}
    if argv[0] == "compile":
        result["sha256"] = hashlib.sha256(text.encode()).hexdigest()
        result["round_trip"] = circuit.schedule_to_text(schedule) == text
    else:
        result["sha256"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, int(_flag(argv, "--threads", "1")))
        result["missing"] = sorted(tracer.missing)
        tracer.dump(trace_file)
    return result


def main() -> int:
    if len(sys.argv) < 5 or sys.argv[1] not in ("plain", "trace", "memory") or sys.argv[3] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    mode, trace_file, _, *argv = sys.argv[1:]
    try:
        result = run(mode, Path(trace_file), argv)
    except Exception as exc:  # reported to the harness as a failed operation
        result = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
