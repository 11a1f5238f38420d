"""Command-line front end.

Subcommands: ``table`` (feasibility table), ``plan`` (resource report for
one parameter set), ``compile`` (write a gate schedule), ``simulate``
(Monte Carlo ensemble run plus deviation report), and ``feasibility``
(timing checks). ``compile`` builds no gate: it checks the plan's walk,
every block of the schedule but the compressions' gates, and writes it a
block at a time, each compression's gates as one block of text
(``compression.bcs_text``), so the whole text is never held. Every other
command builds one record and writes it as JSON, CSV or text: the JSON
is the record, and the CSV rows and text lines are views read from it.
Records carry a schema_version field and stable key order, so equal runs
produce byte-identical files. Only ``simulate`` and ``feasibility`` give
a verdict, so only they take ``--strict``.

Defaults can be preloaded from a flat ``key=value`` config file named by
the ALGCOOL_CONFIG environment variable; explicit flags win over the
config file, which wins over built-in defaults.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import os
import sys
from itertools import chain, islice, zip_longest
from operator import attrgetter
from typing import Iterable, Iterator, Optional

import numpy as np

from . import analytic, circuit, cooling
from .analytic import (
    CoolingPlan,
    TimingModel,
    feasibility_table,
    min_rounds,
    timing_feasibility,
)
from .circuit import Bcs, Schedule, validate_schedule
from .compression import bcs_text
from .cooling import _walk, plan_census
from .ensemble import compare_to_analytic, run_ensemble

#: The benchmark's tracer times the compile and its text by patching these
#: names. ``compile`` calls neither, since it writes each compression's
#: gates as one block of text; they stay until the engine reports its own
#: counts (ROADMAP item 1).
compile_cooling = cooling.compile_cooling
schedule_to_text = circuit.schedule_to_text

SCHEMA_VERSION = 1
CONFIG_ENV_VAR = "ALGCOOL_CONFIG"
_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _load_config(path: Optional[str]) -> dict[str, str]:
    if not path:
        return {}
    config: dict[str, str] = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, _, value = line.partition("=")
            config[key.strip().replace("-", "_")] = value.strip()
    return config


def _emit(args, parts: Iterable[str]) -> None:
    """Write ``parts`` in order to ``--out``, or to stdout without it."""
    with (open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)) as fh:
        fh.writelines(parts)


def _render(
    args, record: dict, csv_header: list, csv_rows: list, text_lines: list
) -> None:
    """Write one command's output in the format ``args`` asks for. JSON is
    written as the encoder makes it, joined a block of pieces at a time,
    never into one string: the ε₀=0.01, j_f=7 record is 21 MB of text in
    about 4 million pieces."""
    if args.format == "json":
        pieces = json.JSONEncoder(indent=2).iterencode(record)
        _emit(args, chain(iter(lambda: "".join(islice(pieces, 1 << 16)), ""), ["\n"]))
        return
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = "\n".join(text_lines) + "\n"
    _emit(args, (text,))


def _plan_from_args(args) -> CoolingPlan:
    if args.epsilon_des is not None:
        jf = min_rounds(args.epsilon0, args.epsilon_des)
    else:
        jf = args.jf
    return CoolingPlan(args.epsilon0, args.m, args.ell, jf)


# -- table --------------------------------------------------------------


def cmd_table(args) -> int:
    record = {
        "schema_version": SCHEMA_VERSION,
        "threshold": args.threshold,
        "rows": [
            {
                "epsilon0": r.epsilon0,
                "j_f": r.j_f,
                "epsilon_f": r.epsilon_f,
                "delta_f": r.delta_f,
                "p": {
                    str(m): repr(r.p_for_m[m]) if r.feasible(m) else "unfeasible"
                    for m in analytic.TABLE_M_VALUES
                },
            }
            for r in feasibility_table(args.threshold)
        ],
    }
    header = ["epsilon0", "j_f", "epsilon_f", "delta_f"] + [
        f"p_m{m}" for m in analytic.TABLE_M_VALUES
    ]
    data = [
        [r["epsilon0"], r["j_f"], r["epsilon_f"], r["delta_f"], *r["p"].values()]
        for r in record["rows"]
    ]
    lines = [
        f"{'eps0':>6} {'j_f':>3} {'eps_f':>8} {'delta_f':>8} "
        f"{'p(m=20)':>10} {'p(m=50)':>10} {'p(m=200)':>10}"
    ]
    for r in record["rows"]:
        cells = [c if c == "unfeasible" else f"{float(c):.2g}" for c in r["p"].values()]
        lines.append(
            f"{r['epsilon0']:>6g} {r['j_f']:>3d} {r['epsilon_f']:>8.3g} "
            f"{r['delta_f']:>8.3g} {cells[0]:>10} {cells[1]:>10} {cells[2]:>10}"
        )
    _render(args, record, header, data, lines)
    return 0


# -- plan ---------------------------------------------------------------


def _plan_record(plan: CoolingPlan) -> dict:
    bound = plan.success_bound
    return {
        **dataclasses.asdict(plan),  # epsilon0, m, ell, j_final
        "bias_schedule": plan.bias_schedule,
        "epsilon_final": plan.epsilon_final,
        "n_required": plan.n_required,
        "step_bound": plan.step_bound,
        "success_lower_bound": bound.probability,
        "success_bound_vacuous": bound.vacuous,
    }


def cmd_plan(args) -> int:
    record = {"schema_version": SCHEMA_VERSION, **_plan_record(_plan_from_args(args))}
    keys = [k for k in record if k not in ("schema_version", "bias_schedule")]
    lines = [
        f"epsilon0       {record['epsilon0']:g}",
        f"m              {record['m']}",
        f"ell            {record['ell']}",
        f"j_final        {record['j_final']}",
        "bias schedule  " + " ".join(f"{e:.6g}" for e in record["bias_schedule"]),
        f"n required     {record['n_required']}",
        f"step bound     {record['step_bound']}",
        f"success bound  {record['success_lower_bound']:.6g}"
        + (" (vacuous)" if record["success_bound_vacuous"] else ""),
    ]
    _render(args, record, keys, [[record[k] for k in keys]], lines)
    return 0


# -- compile ------------------------------------------------------------


def _texts(walk: Schedule) -> Iterator[str]:
    """The schedule's text, a piece at a time, never whole: the lines of
    each block of the plan's walk, and after a compression its gates'
    text, built once per ``Bcs`` and dropped after that one's last use."""
    last = {block[-1]: i for i, block in enumerate(walk.blocks) if type(block[-1]) is Bcs}
    texts: dict[Bcs, str] = {}
    for i, block in enumerate(walk.blocks):
        yield from map(attrgetter("text_line"), block)
        bcs = block[-1]
        if type(bcs) is Bcs:
            text = texts.pop(bcs, None) or bcs_text(bcs.m, bcs.nu, bcs.nu0)
            if last[bcs] > i:
                texts[bcs] = text
            yield text


def cmd_compile(args) -> int:
    plan = _plan_from_args(args)
    walk = Schedule(*_walk(plan))  # every block but the compressions' gates
    # a compression's gates lie in its Bcs span, so its Bcs is checked for them
    violations = validate_schedule(walk, plan.n_required)
    if violations:
        for v in violations:
            print(f"error: {v}", file=sys.stderr)
        return 1
    _emit(args, _texts(walk))
    if args.out:
        census = plan_census(plan)  # a run takes one step per gate
        print(
            f"wrote {args.out}: {census.steps} gates, {census.resets} reset phases, "
            f"{census.steps} steps (bound {plan.step_bound})"
        )
    return 0


# -- simulate -----------------------------------------------------------


def cmd_simulate(args) -> int:
    plan = _plan_from_args(args)
    stats = run_ensemble(plan, args.molecules, args.seed, threads=args.threads)
    report = compare_to_analytic(stats, plan)
    record = {
        "schema_version": SCHEMA_VERSION,
        "plan": _plan_record(plan),
        "molecules": stats.num_molecules,
        "seed": stats.seed,
        "success_count": stats.success_count,
        "success_rate": stats.success_rate,
        "per_position_zero_freq": stats.per_position_zero_freq.tolist(),
        "empirical_bias": stats.empirical_bias.tolist(),
        "success_bias": (
            stats.success_bias.tolist() if stats.success_bias is not None else None
        ),
        "truncation_shortfall_histogram": {
            str(k): v for k, v in stats.truncation_shortfall_histogram.items()
        },
        "mean_purified_lengths": stats.mean_purified_lengths,
        "round_mean_lengths": [
            {"level": lvl, "round": rnd, "mean": mean}
            for lvl, rnd, mean in stats.round_mean_lengths
        ],
        "steps_used": stats.steps_used,
        "deviation": {
            "success_lower_bound": report.success_lower_bound,
            "bound_vacuous": report.bound_vacuous,
            "success_margin_sigmas": report.success_margin_sigmas,
            "success_consistent": report.success_consistent,
            "max_abs_position_z": (
                float(np.max(np.abs(report.position_z_scores)))
                if report.position_z_scores is not None
                else None
            ),
            "rounds": [dict(vars(r)) for r in report.rounds],  # flat: no deep copy
        },
    }
    header = ["position", "zero_freq", "bias", "success_bias"]
    success_bias = record["success_bias"]  # None when no molecule succeeded
    columns = zip_longest(record["per_position_zero_freq"], record["empirical_bias"],
                          success_bias or (), fillvalue="")  # None leaves its cells blank
    rows = [[i, *cells] for i, cells in enumerate(columns)]
    deviation = record["deviation"]
    lines = [
        f"molecules      {record['molecules']}",
        f"seed           {record['seed']}",
        f"success rate   {record['success_rate']:.6g} "
        f"(bound {deviation['success_lower_bound']:.6g}"
        + (", vacuous)" if deviation["bound_vacuous"] else ")"),
        f"mean |bias|    {float(np.mean(np.abs(record['empirical_bias']))):.6g}",
        "success bias   "
        + (" ".join(f"{b:.4f}" for b in success_bias) if success_bias is not None else "n/a"),
    ]
    _render(args, record, header, rows, lines)
    if args.strict and not deviation["success_consistent"]:
        return 1
    return 0


# -- feasibility --------------------------------------------------------


def cmd_feasibility(args) -> int:
    plan = _plan_from_args(args)
    timing = TimingModel(args.t_switch, args.t_rrtr, args.t_comput, args.margin)
    report = timing_feasibility(timing, plan)
    record = {
        "schema_version": SCHEMA_VERSION,
        "plan": _plan_record(plan),
        "timing": dataclasses.asdict(timing),
        "checks": [dataclasses.asdict(c) for c in report.checks],
        "feasible": report.feasible,
    }
    header = ["name", "description", "lhs", "rhs", "passed"]
    lines = [
        f"{'PASS' if c['passed'] else 'FAIL'}  "
        f"{c['name']}: {c['description']} ({c['lhs']:g} vs {c['rhs']:g})"
        for c in record["checks"]
    ]
    lines.append("feasible" if record["feasible"] else "infeasible")
    _render(args, record, header, [list(c.values()) for c in record["checks"]], lines)
    if args.strict and not record["feasible"]:
        return 1
    return 0


# -- parser -------------------------------------------------------------


def _add_out(parser) -> None:
    parser.add_argument("--out", metavar="PATH", default=None)


def _add_output(parser) -> None:
    """``--format`` and ``--out``, for every command that renders a record."""
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    _add_out(parser)


def _add_strict(parser) -> None:
    parser.add_argument("--strict", action="store_true",
                        help="treat a failed verdict as a nonzero exit")


class _RoundsAction(argparse.Action):
    """Store ``--jf`` and drop an ``epsilon_des`` the config file set."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.epsilon_des = None


def _add_plan_opts(parser) -> None:
    parser.add_argument("--epsilon0", type=float, default=0.1)
    parser.add_argument("--m", type=int, default=50)
    parser.add_argument("--ell", type=int, default=5)
    target = parser.add_mutually_exclusive_group()
    target.add_argument("--jf", type=int, default=3, action=_RoundsAction,
                        help="purification rounds")
    target.add_argument("--epsilon-des", type=float, default=None,
                        help="desired final bias; picks the minimal jf")


def _set_config_defaults(parsers, config: dict[str, str]) -> None:
    """Make config values the commands' defaults, so explicit flags win.

    argparse converts a string default with the option's type; a
    store_true flag has no type, so its value is converted here: 1, true
    or yes, or 0, false or no, in any case. A key that some command
    defines is accepted for all; a key that none defines is an error, and
    so are ``jf`` and ``epsilon_des`` together, as their flags are.
    """
    if {"jf", "epsilon_des"} <= config.keys():
        raise ValueError("config sets both jf and epsilon_des; set one of them")
    known = set()
    for parser in parsers:
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            known.add(action.dest)
            raw = config.get(action.dest)
            if raw is None:
                continue
            if action.choices is not None and raw not in action.choices:
                raise ValueError(f"config {action.dest}={raw!r}: not in {list(action.choices)}")
            if isinstance(action.default, bool):
                if raw.lower() not in _BOOLEANS:
                    raise ValueError(f"config {action.dest}={raw!r}: not a boolean")
                action.default = _BOOLEANS[raw.lower()]
            else:
                action.default = raw
    unknown = sorted(config.keys() - known)
    if unknown:
        raise ValueError(f"config {unknown[0]}={config[unknown[0]]!r}: no command has this option")


def build_parser(config: Optional[dict[str, str]] = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algcool",
        description="Analytics and Monte Carlo simulation of heat-bath algorithmic cooling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="emit the cooling feasibility table")
    p.add_argument("--threshold", type=float, default=analytic.UNFEASIBLE_THRESHOLD,
                   help="signal probability below which a cell is unfeasible")
    _add_output(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("plan", help="resource report for one parameter set")
    _add_plan_opts(p)
    _add_output(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("compile", help="compile the full gate schedule, as text")
    _add_plan_opts(p)
    _add_out(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("simulate", help="Monte Carlo ensemble run")
    _add_plan_opts(p)
    p.add_argument("--molecules", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes; never affects results")
    _add_output(p)
    _add_strict(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("feasibility", help="timing feasibility checks")
    _add_plan_opts(p)
    p.add_argument("--t-switch", type=float, default=10e-6, help="seconds per gate step")
    p.add_argument("--t-rrtr", type=float, default=1e-3,
                   help="reset-row relaxation time, seconds")
    p.add_argument("--t-comput", type=float, default=10.0,
                   help="computation-bit relaxation time, seconds")
    p.add_argument("--margin", type=float, default=2.0,
                   help="safety factor applied to every 'much less than'")
    _add_output(p)
    _add_strict(p)
    p.set_defaults(func=cmd_feasibility)

    _set_config_defaults(sub.choices.values(), config or {})
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        parser = build_parser(_load_config(os.environ.get(CONFIG_ENV_VAR)))
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
