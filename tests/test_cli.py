"""CLI tests: subcommand behavior, output formats, config precedence."""

import argparse
import csv
import hashlib
import json
import io
import tracemalloc

import pytest

from algcool import cli
from algcool.analytic import CoolingPlan, SuccessBound
from algcool.circuit import Schedule, schedule_from_text, schedule_to_text
from algcool.cli import build_parser, main
from algcool.cooling import compile_cooling
from support import gates


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out


class TestTable:
    def test_text_has_six_rows(self, capsys):
        code, out = run_cli(capsys, "table")
        assert code == 0
        assert len(out.strip().splitlines()) == 7  # header + 6 rows
        assert "unfeasible" in out

    def test_csv_shape(self, capsys):
        code, out = run_cli(capsys, "table", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0
        assert len(rows) == 7
        assert rows[0][:2] == ["epsilon0", "j_f"]

    def test_tighter_threshold_marks_more_unfeasible(self, capsys):
        _, loose = run_cli(capsys, "table")
        _, tight = run_cli(capsys, "table", "--threshold", "1e-6")
        assert tight.count("unfeasible") > loose.count("unfeasible")

    @pytest.mark.parametrize("threshold", ["-1", "nan"])
    def test_threshold_outside_unit_interval_errors(self, capsys, threshold):
        code = main(["table", "--threshold", threshold])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: threshold must be in [0, 1]")

    def test_threshold_from_config_is_checked(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg"
        cfg.write_text("threshold=-1\n")
        monkeypatch.setenv("ALGCOOL_CONFIG", str(cfg))
        code = main(["table"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: threshold must be in [0, 1]")

    def test_json_schema(self, capsys):
        code, out = run_cli(capsys, "table", "--format", "json")
        record = json.loads(out)
        assert code == 0
        assert record["schema_version"] == 1
        assert len(record["rows"]) == 6


class TestPlan:
    def test_worked_fifty_bit_case(self, capsys):
        code, out = run_cli(
            capsys, "plan", "--epsilon0", "0.1", "--m", "50", "--jf", "3",
            "--format", "json",
        )
        record = json.loads(out)
        assert code == 0
        assert record["n_required"] == 350
        assert record["step_bound"] == 1_562_500

    def test_deeper_case(self, capsys):
        _, out = run_cli(
            capsys, "plan", "--epsilon0", "0.01", "--m", "50", "--jf", "6",
            "--format", "json",
        )
        record = json.loads(out)
        assert record["n_required"] == 650
        assert record["step_bound"] == 195_312_500

    def test_depth_zero(self, capsys):
        _, out = run_cli(capsys, "plan", "--m", "8", "--jf", "0", "--format", "json")
        assert json.loads(out)["n_required"] == 8

    def test_epsilon_des_picks_min_rounds(self, capsys):
        _, out = run_cli(
            capsys, "plan", "--epsilon0", "0.1", "--epsilon-des", "0.6",
            "--format", "json",
        )
        assert json.loads(out)["j_final"] == 3

    def test_unreachable_target_fails(self, capsys):
        code = main(["plan", "--epsilon0", "0.1", "--epsilon-des", "1.0"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error" in captured.err


class TestCompile:
    def test_depth_zero_single_reset(self, tmp_path, capsys):
        out_file = tmp_path / "sched.txt"
        code, _ = run_cli(
            capsys, "compile", "--m", "4", "--jf", "0", "--out", str(out_file)
        )
        assert code == 0
        gate_lines = [
            ln for ln in out_file.read_text().splitlines()
            if ln and not ln.startswith("#")
        ]
        assert gate_lines == ["RESET 0 4"]

    def test_round_trip(self, tmp_path, capsys):
        out_file = tmp_path / "sched.txt"
        run_cli(capsys, "compile", "--m", "8", "--jf", "2", "--out", str(out_file))
        text = out_file.read_text()
        assert schedule_to_text(schedule_from_text(text)) == text

    def test_violations_are_reported_and_nothing_is_written(self, tmp_path, capsys,
                                                           monkeypatch):
        monkeypatch.setattr(cli, "validate_schedule", lambda schedule, n: ["first", "second"])
        out_file = tmp_path / "sched.txt"
        code = main(["compile", "--m", "8", "--jf", "2", "--out", str(out_file)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: first\nerror: second\n"
        assert not out_file.exists()

    @pytest.mark.parametrize("shape", [(50, 5, 3), (10, 4, 2), (4, 5, 0)])
    def test_block_texts_compose_and_stdout_is_the_file(self, tmp_path, capsys, shape):
        # compile writes each block's own text in turn; their join is the
        # schedule's text, for a compiled schedule and for its parse alike
        m, ell, jf = shape
        sched = compile_cooling(CoolingPlan(0.1, m, ell, jf))
        text = schedule_to_text(sched)
        for s in (sched, schedule_from_text(text)):
            assert "".join(schedule_to_text(Schedule(b)) for b in s.blocks) == text
        out_file = tmp_path / "sched.txt"
        argv = ["compile", "--epsilon0", "0.1", "--m", str(m), "--ell", str(ell), "--jf", str(jf)]
        assert main([*argv, "--out", str(out_file)]) == 0
        capsys.readouterr()
        code, out = run_cli(capsys, *argv)
        assert code == 0 and out.encode() == out_file.read_bytes() == text.encode()

    def test_out_peak_is_below_the_text(self, tmp_path, capsys):
        # the text is written one block at a time, a recurring block's text
        # built once and dropped after its last occurrence: the headline's
        # 11.5 MB text peaks at 4.8 MB (Python 3.11), so a compile that
        # builds the whole text at once, or keeps every block's text to the
        # end (6.3 MB), fails here
        out_file = tmp_path / "sched.txt"
        tracemalloc.start()
        try:
            code = main(["compile", "--m", "50", "--jf", "3", "--out", str(out_file)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0 and out_file.stat().st_size == 11_515_704
        assert peak < 5.5e6

    @pytest.mark.parametrize("args,counts", [
        (["--m", "50", "--jf", "3"], "817750 gates, 125 reset phases, 817750 steps (bound 1562500)"),
        (["--m", "8", "--jf", "2"], "3925 gates, 25 reset phases, 3925 steps (bound 8000)"),
        (["--m", "10", "--ell", "4", "--jf", "2"],
         "3366 gates, 16 reset phases, 3366 steps (bound 6400)"),
        (["--m", "6", "--jf", "0"], "1 gates, 1 reset phases, 1 steps (bound 180)"),
    ])
    def test_out_summary_line(self, tmp_path, capsys, args, counts):
        out_file = tmp_path / "sched.txt"
        code, out = run_cli(capsys, "compile", "--epsilon0", "0.1", *args, "--out", str(out_file))
        assert code == 0
        assert out == f"wrote {out_file}: {counts}\n"

    def test_reported_steps_within_bound(self, capsys):
        code, out = run_cli(capsys, "compile", "--m", "4", "--jf", "1")
        assert code == 0
        sched = schedule_from_text(out)
        assert len(gates(sched)) <= 4 * 4 * 5**2


class TestSimulate:
    def test_pure_input_success_rate_one(self, capsys):
        _, out = run_cli(
            capsys, "simulate", "--epsilon0", "1.0", "--m", "4", "--jf", "1",
            "--molecules", "100", "--seed", "7", "--format", "json",
        )
        record = json.loads(out)
        assert record["success_rate"] == 1.0
        assert record["deviation"]["success_consistent"] is True

    def test_repeat_same_seed_byte_identical(self, tmp_path, capsys):
        files = [tmp_path / "a.json", tmp_path / "b.json"]
        for f in files:
            run_cli(
                capsys, "simulate", "--epsilon0", "0.1", "--m", "4", "--jf", "1",
                "--molecules", "400", "--seed", "11", "--format", "json",
                "--out", str(f),
            )
        assert files[0].read_bytes() == files[1].read_bytes()

    def test_csv_has_position_rows(self, capsys):
        _, out = run_cli(
            capsys, "simulate", "--m", "6", "--jf", "1", "--molecules", "200",
            "--format", "csv",
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["position", "zero_freq", "bias", "success_bias"]
        assert len(rows) == 7

    def test_strict_exits_1_when_success_is_inconsistent(self, capsys, monkeypatch):
        # no correct run falls 4 sigma below a true lower bound, so the bound is raised
        monkeypatch.setattr(CoolingPlan, "success_bound", property(
            lambda plan: SuccessBound(0.999, False)))
        argv = ["simulate", "--m", "4", "--jf", "1", "--molecules", "400", "--seed", "11",
                "--format", "json"]
        for strict, code in (([], 0), (["--strict"], 1)):
            got, out = run_cli(capsys, *argv, *strict)
            deviation = json.loads(out)["deviation"]  # written in both cases
            assert deviation["success_lower_bound"] == 0.999
            assert deviation["success_margin_sigmas"] < -4
            assert deviation["success_consistent"] is False
            assert got == code

    def test_zero_threads_errors(self, capsys):
        code = main(["simulate", "--m", "4", "--jf", "1", "--molecules", "100",
                     "--threads", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: threads must be >= 1\n"


class TestFeasibility:
    def test_paper_timing_cases_pass(self, capsys):
        _, out = run_cli(
            capsys, "feasibility", "--m", "20", "--margin", "1",
            "--format", "json",
        )
        assert json.loads(out)["feasible"] is True
        _, out = run_cli(
            capsys, "feasibility", "--m", "50", "--t-rrtr", "0.01",
            "--t-comput", "100", "--margin", "1", "--format", "json",
        )
        assert json.loads(out)["feasible"] is True

    def test_verdict_failure_is_data_not_exit_code(self, capsys):
        code, out = run_cli(
            capsys, "feasibility", "--m", "20", "--t-comput", "0.001",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["feasible"] is False

    def test_strict_turns_verdict_into_exit_code(self, capsys):
        code, _ = run_cli(
            capsys, "feasibility", "--m", "20", "--t-comput", "0.001", "--strict"
        )
        assert code == 1

    @pytest.mark.parametrize("flag,message", [
        ("--margin", "margin must be finite and >= 1"),
        ("--t-switch", "all times must be finite and > 0"),
    ])
    def test_nan_timing_errors(self, capsys, flag, message):
        code = main(["feasibility", flag, "nan"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("flag", ["--t-comput", "--t-switch", "--margin"])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_infinite_timing_errors(self, capsys, flag, fmt):
        # an infinite time would be written to JSON as Infinity, which is not JSON
        code = main(["feasibility", flag, "inf", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "must be finite" in captured.err

    def test_nan_timing_from_config_errors(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg"
        cfg.write_text("margin=nan\n")
        monkeypatch.setenv("ALGCOOL_CONFIG", str(cfg))
        code = main(["feasibility"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: margin must be finite and >= 1\n"


class Recording(argparse.Namespace):
    """A parsed namespace that remembers which attributes were read."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "__dict__").setdefault("_read", set()).add(name)
        return object.__getattribute__(self, name)


class TestEveryOptionIsRead:
    """A flag no command reads is a setting that does nothing."""

    @pytest.mark.parametrize("argv", [
        ["table"],
        ["plan", "--m", "4", "--jf", "1"],
        ["compile", "--m", "4", "--jf", "1"],
        ["simulate", "--m", "4", "--jf", "1", "--molecules", "10"],
        ["feasibility", "--m", "4", "--jf", "1"],
    ], ids=lambda argv: argv[0])
    def test_command_reads_every_option(self, capsys, argv):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        options = {a.dest for a in sub.choices[argv[0]]._actions
                   if not isinstance(a, argparse._HelpAction)}
        args = Recording(**vars(parser.parse_args(argv)))
        assert args.func(args) == 0
        capsys.readouterr()
        assert options - args.__dict__["_read"] == set()

    def test_removed_flags_are_usage_errors(self, capsys):
        for argv in (["compile", "--format", "json"], ["compile", "--strict"],
                     ["table", "--strict"], ["plan", "--strict"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


class TestConfigFile:
    def test_precedence_flags_over_config_over_defaults(
        self, tmp_path, capsys, monkeypatch
    ):
        cfg = tmp_path / "cfg"
        cfg.write_text("m=8\njf=1\nseed=42\n")
        monkeypatch.setenv("ALGCOOL_CONFIG", str(cfg))
        _, out = run_cli(
            capsys, "simulate", "--molecules", "50", "--seed", "3",
            "--format", "json",
        )
        record = json.loads(out)
        assert record["plan"]["m"] == 8  # from config
        assert record["plan"]["j_final"] == 1  # from config
        assert record["seed"] == 3  # flag beats config

    def test_explicit_flag_equal_to_default_beats_config(
        self, tmp_path, capsys, monkeypatch
    ):
        cfg = tmp_path / "cfg"
        cfg.write_text("m=4\njf=1\nseed=42\n")
        monkeypatch.setenv("ALGCOOL_CONFIG", str(cfg))
        _, out = run_cli(
            capsys, "simulate", "--molecules", "50", "--seed", "0",
            "--format", "json",
        )
        assert json.loads(out)["seed"] == 0

    def test_explicit_jf_beats_config_epsilon_des(
        self, tmp_path, capsys, monkeypatch
    ):
        cfg = tmp_path / "cfg"
        cfg.write_text("epsilon_des=0.6\n")
        monkeypatch.setenv("ALGCOOL_CONFIG", str(cfg))
        _, out = run_cli(capsys, "plan", "--format", "json")
        assert json.loads(out)["j_final"] == 3  # from config
        _, out = run_cli(capsys, "plan", "--jf", "5", "--format", "json")
        assert json.loads(out)["j_final"] == 5

    def test_config_with_jf_and_epsilon_des_is_refused(self, tmp_path, capsys, monkeypatch):
        # the two flags are mutually exclusive, so the config may not set both
        cfg = tmp_path / "cfg"
        cfg.write_text("jf=2\nepsilon_des=0.6\n")
        monkeypatch.setenv("ALGCOOL_CONFIG", str(cfg))
        code = main(["plan", "--m", "8"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: config sets both jf and epsilon_des; set one of them\n"

    def test_config_booleans(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg"
        monkeypatch.setenv("ALGCOOL_CONFIG", str(cfg))
        for value, code in (("false", 0), ("true", 1), ("No", 0), ("YES", 1), ("0", 0), ("1", 1)):
            cfg.write_text(f"strict={value}\n")
            got, _ = run_cli(capsys, "feasibility", "--m", "20", "--t-comput", "0.001")
            assert got == code

    def test_misspelt_config_boolean_errors(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg"
        cfg.write_text("strict=ture\n")
        monkeypatch.setenv("ALGCOOL_CONFIG", str(cfg))
        code = main(["feasibility", "--m", "20", "--t-comput", "0.001"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: config strict='ture': not a boolean\n"

    def test_config_value_outside_choices_errors(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg"
        cfg.write_text("format=xml\n")
        monkeypatch.setenv("ALGCOOL_CONFIG", str(cfg))
        for command in ("plan --m 8 --jf 0", "simulate --molecules 10"):
            assert main(command.split()) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: config format='xml'")
            assert "['text', 'json', 'csv']" in captured.err

    def test_config_key_no_command_defines_errors(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg"
        cfg.write_text("molecules=50\nmolecule=10\n")  # a typo beside the real key
        monkeypatch.setenv("ALGCOOL_CONFIG", str(cfg))
        for command in ("table --format csv", "simulate --m 8 --jf 1"):
            assert main(command.split()) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: config molecule='10': no command has this option\n"

    def test_config_key_some_commands_define_is_accepted(self, tmp_path, capsys, monkeypatch):
        # molecules and seed belong to simulate, strict to simulate and
        # feasibility, threshold to table: every command still runs
        cfg = tmp_path / "cfg"
        cfg.write_text("molecules=50\nseed=4\nstrict=false\nthreshold=1e-3\n")
        monkeypatch.setenv("ALGCOOL_CONFIG", str(cfg))
        for command in ("table --format csv", "plan --m 8 --jf 1", "feasibility --m 8 --jf 1"):
            assert main(command.split()) == 0, command
        capsys.readouterr()
        code, out = run_cli(capsys, "simulate", "--m", "8", "--jf", "1", "--format", "json")
        record = json.loads(out)
        assert code == 0 and record["molecules"] == 50 and record["seed"] == 4

    def test_comment_and_blank_lines_are_skipped(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg"
        cfg.write_text("# plan for the report\n\nm = 8\n   \n  # depth\njf=1\n\n")
        monkeypatch.setenv("ALGCOOL_CONFIG", str(cfg))
        code, out = run_cli(capsys, "plan", "--format", "json")
        monkeypatch.delenv("ALGCOOL_CONFIG")
        assert code == 0
        assert out == run_cli(capsys, "plan", "--m", "8", "--jf", "1", "--format", "json")[1]

    def test_bad_config_line_errors(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg"
        cfg.write_text("not a pair\n")
        monkeypatch.setenv("ALGCOOL_CONFIG", str(cfg))
        code = main(["table"])
        capsys.readouterr()
        assert code == 1


class TestGoldenOutputs:
    """Output pins: any change to these bytes is a behaviour change."""

    @pytest.mark.parametrize(
        "args,prefix",
        [
            (["simulate", "--m", "20", "--jf", "2", "--molecules", "20000",
              "--seed", "1", "--format", "json"], "2d748401615c37b3"),
            (["simulate", "--m", "10", "--jf", "1", "--ell", "4",
              "--molecules", "5000", "--seed", "2", "--format", "json"],
             "aed527eb528059b1"),
            (["compile", "--m", "8", "--jf", "2"], "27da5372bba63b72"),
            (["compile", "--m", "50", "--jf", "3"], "9510d131ea33dbf4"),
            (["compile", "--m", "10", "--ell", "4", "--jf", "2"], "5ce1329c316f3ec2"),
            # the second chunk is one molecule wide, in process and in a worker
            (["simulate", "--m", "20", "--jf", "2", "--molecules", "16385", "--seed", "4",
              "--format", "json"], "d173db631d1183f6"),
            (["simulate", "--m", "20", "--jf", "2", "--molecules", "16385", "--seed", "4",
              "--format", "json", "--threads", "2"], "d173db631d1183f6"),
            # three chunks on two workers: worker 0 takes chunks 0 and 2
            (["simulate", "--m", "20", "--jf", "2", "--molecules", "40000", "--seed", "5",
              "--format", "json"], "eb4ce92faf678e92"),
            (["simulate", "--m", "20", "--jf", "2", "--molecules", "40000", "--seed", "5",
              "--format", "json", "--threads", "2"], "eb4ce92faf678e92"),
        ],
    )
    def test_sha256_prefix(self, tmp_path, capsys, args, prefix):
        out_file = tmp_path / "out"
        code = main([*args, "--epsilon0", "0.1", "--out", str(out_file)])
        capsys.readouterr()
        assert code == 0
        assert hashlib.sha256(out_file.read_bytes()).hexdigest()[:16] == prefix

    @pytest.mark.parametrize(
        "command,prefix",
        [
            ("table", "728cd35e7a00ff6f"),
            ("table --format csv", "21211981b361367d"),
            ("plan", "875adfe0b9f4bce9"),
            ("plan --format csv", "6316badaefca5947"),
            ("feasibility", "e93ffe523e632ef3"),
            ("feasibility --format csv", "e769b5f0e533c4db"),
            ("simulate --epsilon0 0.1 --m 10 --jf 1 --ell 4 --molecules 5000 --seed 2",
             "33596ea005cc32d5"),
            ("simulate --epsilon0 0.1 --m 10 --jf 1 --ell 4 --molecules 5000 --seed 2"
             " --format csv", "784d042314a9d3c1"),
            # no molecule succeeds, so success_bias is null
            ("simulate --epsilon0 0.0 --m 40 --ell 4 --jf 2 --molecules 5 --seed 0",
             "3ee6ca252333a5be"),
            ("simulate --epsilon0 0.0 --m 40 --ell 4 --jf 2 --molecules 5 --seed 0"
             " --format csv", "71a59439f4d4f1ca"),
            ("simulate --epsilon0 0.0 --m 40 --ell 4 --jf 2 --molecules 5 --seed 0"
             " --format json", "bbac79648c25fe7c"),
            # j_f = 0: one RESET and no marks, on one chunk and on two, the second one wide
            ("simulate --epsilon0 0.1 --m 4 --jf 0 --molecules 10 --seed 1 --format json",
             "05c5868a415ca0ce"),
            ("simulate --m 6 --ell 4 --jf 0 --molecules 16385 --seed 3 --format json",
             "64718c1a906a8998"),
            # the paper's eps0 = 0.01 row at its deepest feasible plan: 78,125 RESETs
            ("simulate --epsilon0 0.01 --m 20 --jf 7 --molecules 64 --seed 1 --format json",
             "b74fcf873ce91d4e"),
        ],
    )
    def test_stdout_sha256_prefix(self, capsys, command, prefix):
        code, out = run_cli(capsys, *command.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == prefix
