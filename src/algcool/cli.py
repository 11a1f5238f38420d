"""Command-line front end.

Subcommands: ``table`` (feasibility table), ``plan`` (resource report for
one parameter set), ``compile`` (write a gate schedule), ``simulate``
(Monte Carlo ensemble run plus deviation report), and ``feasibility``
(timing checks). ``compile`` writes schedule text; every other command
writes text, JSON, or CSV, and its JSON records carry a schema_version
field and stable key order so equal runs produce byte-identical files.
Only ``simulate`` and ``feasibility`` give a verdict, so only they take
``--strict``.

Defaults can be preloaded from a flat ``key=value`` config file named by
the ALGCOOL_CONFIG environment variable; explicit flags win over the
config file, which wins over built-in defaults.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
import warnings
from typing import Optional

import numpy as np

from . import analytic
from .analytic import (
    CoolingPlan,
    TimingModel,
    feasibility_table,
    min_rounds,
    timing_feasibility,
)
from .circuit import schedule_to_text, validate_schedule
from .cooling import compile_cooling
from .ensemble import compare_to_analytic, run_ensemble

SCHEMA_VERSION = 1
CONFIG_ENV_VAR = "ALGCOOL_CONFIG"


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


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render(
    args, record: dict, csv_header: list, csv_rows: list, text_lines: list
) -> None:
    """Write one command's output in the format ``args`` asks for."""
    if args.format == "json":
        text = json.dumps(record, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = "\n".join(text_lines) + "\n"
    _emit(args, text)


def _plan_from_args(args) -> CoolingPlan:
    if args.epsilon_des is not None:
        jf = min_rounds(args.epsilon0, args.epsilon_des)
    else:
        jf = args.jf
    return CoolingPlan(args.epsilon0, args.m, args.ell, jf)


# -- table --------------------------------------------------------------


def cmd_table(args) -> int:
    rows = feasibility_table(args.threshold)

    def cell(row, m):
        p = row.p_for_m[m]
        return repr(p) if row.feasible(m) else "unfeasible"

    record = {
        "schema_version": SCHEMA_VERSION,
        "threshold": args.threshold,
        "rows": [
            {
                "epsilon0": r.epsilon0,
                "j_f": r.j_f,
                "epsilon_f": r.epsilon_f,
                "delta_f": r.delta_f,
                "p": {str(m): cell(r, m) for m in analytic.TABLE_M_VALUES},
            }
            for r in rows
        ],
    }
    header = ["epsilon0", "j_f", "epsilon_f", "delta_f"] + [
        f"p_m{m}" for m in analytic.TABLE_M_VALUES
    ]
    data = [
        [repr(r.epsilon0), r.j_f, repr(r.epsilon_f), repr(r.delta_f)]
        + [cell(r, m) for m in analytic.TABLE_M_VALUES]
        for r in rows
    ]
    lines = [
        f"{'eps0':>6} {'j_f':>3} {'eps_f':>8} {'delta_f':>8} "
        f"{'p(m=20)':>10} {'p(m=50)':>10} {'p(m=200)':>10}"
    ]
    for r in rows:
        cells = [
            f"{r.p_for_m[m]:.2g}" if r.feasible(m) else "unfeasible"
            for m in analytic.TABLE_M_VALUES
        ]
        lines.append(
            f"{r.epsilon0:>6g} {r.j_f:>3d} {r.epsilon_f:>8.3g} "
            f"{r.delta_f:>8.3g} {cells[0]:>10} {cells[1]:>10} {cells[2]:>10}"
        )
    _render(args, record, header, data, lines)
    return 0


# -- plan ---------------------------------------------------------------


def _plan_record(plan: CoolingPlan) -> dict:
    bound = plan.success_bound
    return {
        "epsilon0": plan.epsilon0,
        "m": plan.m,
        "ell": plan.ell,
        "j_final": plan.j_final,
        "bias_schedule": plan.bias_schedule,
        "epsilon_final": plan.epsilon_final,
        "n_required": plan.n_required,
        "step_bound": plan.step_bound,
        "success_lower_bound": bound.probability,
        "success_bound_vacuous": bound.vacuous,
    }


def cmd_plan(args) -> int:
    plan = _plan_from_args(args)
    record = {"schema_version": SCHEMA_VERSION, **_plan_record(plan)}
    keys = [k for k in record if k not in ("schema_version", "bias_schedule")]
    row = [repr(record[k]) if isinstance(record[k], float) else record[k] for k in keys]
    lines = [
        f"epsilon0       {plan.epsilon0:g}",
        f"m              {plan.m}",
        f"ell            {plan.ell}",
        f"j_final        {plan.j_final}",
        "bias schedule  " + " ".join(f"{e:.6g}" for e in plan.bias_schedule),
        f"n required     {plan.n_required}",
        f"step bound     {plan.step_bound}",
        f"success bound  {record['success_lower_bound']:.6g}"
        + (" (vacuous)" if record["success_bound_vacuous"] else ""),
    ]
    _render(args, record, keys, [row], lines)
    return 0


# -- compile ------------------------------------------------------------


def cmd_compile(args) -> int:
    plan = _plan_from_args(args)
    schedule = compile_cooling(plan)
    violations = validate_schedule(schedule, plan.n_required)
    if violations:
        for v in violations:
            print(f"error: {v}", file=sys.stderr)
        return 1
    _emit(args, schedule_to_text(schedule))
    if args.out:
        census = schedule.census  # a run takes one step per gate
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
            "rounds": [
                {
                    "level": r.level,
                    "round": r.round_index,
                    "observed_mean": r.observed_mean,
                    "expected_mean": r.expected_mean,
                    "z_score": r.z_score,
                }
                for r in report.rounds
            ],
        },
    }
    header = ["position", "zero_freq", "bias", "success_bias"]
    rows = [
        [
            i,
            repr(float(stats.per_position_zero_freq[i])),
            repr(float(stats.empirical_bias[i])),
            repr(float(stats.success_bias[i]))
            if stats.success_bias is not None
            else "",
        ]
        for i in range(plan.m)
    ]
    lines = [
        f"molecules      {stats.num_molecules}",
        f"seed           {stats.seed}",
        f"success rate   {stats.success_rate:.6g} "
        f"(bound {report.success_lower_bound:.6g}"
        + (", vacuous)" if report.bound_vacuous else ")"),
        f"mean |bias|    {float(np.mean(np.abs(stats.empirical_bias))):.6g}",
        "success bias   "
        + (
            " ".join(f"{b:.4f}" for b in stats.success_bias)
            if stats.success_bias is not None
            else "n/a"
        ),
    ]
    _render(args, record, header, rows, lines)
    if args.strict and not report.success_consistent:
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
    rows = [
        [c.name, c.description, repr(c.lhs), repr(c.rhs), c.passed]
        for c in report.checks
    ]
    lines = []
    for c in report.checks:
        verdict = "PASS" if c.passed else "FAIL"
        lines.append(f"{verdict}  {c.name}: {c.description} ({c.lhs:g} vs {c.rhs:g})")
    lines.append("feasible" if report.feasible else "infeasible")
    _render(args, record, header, rows, lines)
    if args.strict and not report.feasible:
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


def _set_config_defaults(parser, config: dict[str, str]) -> None:
    """Make config values the parser's defaults, so explicit flags win.

    argparse converts a string default with the option's type; a
    store_true flag has no type, so its value is converted here.
    """
    for action in parser._actions:
        raw = config.get(action.dest)
        if raw is None:
            continue
        if action.choices is not None and raw not in action.choices:
            raise ValueError(f"config {action.dest}={raw!r}: not in {list(action.choices)}")
        if isinstance(action.default, bool):
            action.default = raw.lower() in ("1", "true", "yes")
        else:
            action.default = raw


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

    for p in sub.choices.values():
        _set_config_defaults(p, config or {})
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        parser = build_parser(_load_config(os.environ.get(CONFIG_ENV_VAR)))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return args.func(args)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
