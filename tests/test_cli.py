"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_plan_defaults(self):
        args = build_parser().parse_args(["plan"])
        assert args.width == 3.0
        assert args.coverage == 0.95

    def test_calibrate_options(self):
        args = build_parser().parse_args(
            ["calibrate", "--seed", "11", "--trials", "5"])
        assert args.seed == 11
        assert args.trials == 5

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.scenarios is None
        assert args.workers == 1
        assert args.output == "BENCH_chaos.json"

    def test_chaos_options(self):
        args = build_parser().parse_args(
            ["chaos", "--scenarios", "drift-remap,blockage",
             "--workers", "2", "--output", "/tmp/c.json"])
        assert args.scenarios == "drift-remap,blockage"
        assert args.workers == 2


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "collimated" in out
        assert "diverging" in out

    def test_fig11(self, capsys):
        assert main(["fig11"]) == 0
        out = capsys.readouterr().out
        assert "beam at RX" in out
        assert "16" in out

    def test_formats(self, capsys):
        assert main(["formats"]) == 0
        out = capsys.readouterr().out
        assert "life-like" in out
        assert "fits 25G" in out

    def test_safety(self, capsys):
        assert main(["safety"]) == 0
        out = capsys.readouterr().out
        assert "hazard" in out

    def test_plan(self, capsys):
        assert main(["plan", "--width", "1.5", "--depth", "1.5",
                     "--coverage", "0.8"]) == 0
        out = capsys.readouterr().out
        assert "TXs" in out
        assert "TX 0" in out

    def test_traces_small(self, capsys):
        assert main(["traces", "--viewers", "2", "--videos", "2"]) == 0
        out = capsys.readouterr().out
        assert "availability" in out

    def test_calibrate_small(self, capsys):
        assert main(["calibrate", "--seed", "3", "--trials", "3"]) == 0
        out = capsys.readouterr().out
        assert "realign trials at optimal: 3/3" in out


class TestScenarioCommands:
    def test_scenarios_listing(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "fig16" in out

    def test_scenario_quick_run(self, capsys):
        assert main(["scenario", "thresholds"]) == 0
        out = capsys.readouterr().out
        assert "linear_limit_cm_s" in out
        assert "pytest" in out  # points at the full bench

    def test_scenario_unknown_id(self, capsys):
        assert main(["scenario", "fig99"]) == 2
        out = capsys.readouterr().out
        assert "available" in out

    def test_chaos_unknown_scenario(self, capsys):
        assert main(["chaos", "--scenarios", "no-such"]) == 2
        out = capsys.readouterr().out
        assert "available" in out


class TestSweepParser:
    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "--checkpoint", "ck"])
        assert args.kind == "demo"
        assert args.resume is False
        assert args.workers == 1
        assert args.timeout_s is None
        assert args.retries == 2
        assert args.group == "corpus"
        assert args.output is None

    def test_sweep_options(self):
        args = build_parser().parse_args(
            ["sweep", "--checkpoint", "ck", "--kind", "chaos",
             "--resume", "--workers", "4", "--timeout-s", "30",
             "--scenarios", "blockage", "--output", "out.json"])
        assert args.kind == "chaos"
        assert args.resume is True
        assert args.timeout_s == 30.0
        assert args.scenarios == "blockage"

    def test_sweep_requires_checkpoint(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])


class TestSweepCommand:
    def sweep_args(self, tmp_path, extra=()):
        return ["sweep", "--kind", "demo", "--units", "3",
                "--work", "64", "--checkpoint",
                str(tmp_path / "ck"), "--output",
                str(tmp_path / "out.json")] + list(extra)

    def test_sweep_end_to_end(self, capsys, tmp_path):
        assert main(self.sweep_args(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "3 units" in out
        assert "corpus" in out
        assert (tmp_path / "out.json").exists()
        # Atomic publication: no stray tmp siblings survive.
        assert list(tmp_path.glob("*.tmp")) == []

    def test_sweep_unknown_kind_exits_2(self, capsys, tmp_path):
        assert main(["sweep", "--kind", "nope", "--checkpoint",
                     str(tmp_path / "ck")]) == 2
        assert "available kinds" in capsys.readouterr().out

    def test_sweep_refuses_checkpoint_reuse_without_resume(
            self, capsys, tmp_path):
        assert main(self.sweep_args(tmp_path)) == 0
        assert main(self.sweep_args(tmp_path)) == 2
        assert "resume" in capsys.readouterr().out

    def test_sweep_resume_reruns_nothing(self, capsys, tmp_path):
        assert main(self.sweep_args(tmp_path)) == 0
        first = (tmp_path / "out.json").read_bytes()
        assert main(self.sweep_args(tmp_path, ["--resume"])) == 0
        out = capsys.readouterr().out
        assert "3 already checkpointed" in out
        assert (tmp_path / "out.json").read_bytes() == first


class TestSignalGuard:
    def test_first_signal_defers_to_check(self):
        import os
        import signal as signal_module

        from repro.orchestrator import SignalGuard, SweepInterrupted
        with SignalGuard() as guard:
            os.kill(os.getpid(), signal_module.SIGINT)
            assert guard.triggered == signal_module.SIGINT
            assert guard.exit_code == 130
            with pytest.raises(SweepInterrupted) as info:
                guard.check()
            assert info.value.exit_code == 130

    def test_second_signal_escalates(self):
        import os
        import signal as signal_module

        from repro.orchestrator import SignalGuard
        with SignalGuard() as guard:
            os.kill(os.getpid(), signal_module.SIGINT)
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signal_module.SIGINT)
        assert guard.triggered == signal_module.SIGINT

    def test_handlers_restored_on_exit(self):
        import signal as signal_module

        from repro.orchestrator import SignalGuard
        before = signal_module.getsignal(signal_module.SIGTERM)
        with SignalGuard():
            assert signal_module.getsignal(
                signal_module.SIGTERM) != before
        assert signal_module.getsignal(signal_module.SIGTERM) is before


class TestExitCodeContract:
    """main()'s exception→exit-code backstop, per subcommand.

    The documented contract: 0 ok, 1 failed work (units, store,
    coverage), 2 bad configuration or usage, 128+signum when
    interrupted (130 SIGINT, 143 SIGTERM).  Each subcommand's handler
    is stubbed to escape one taxonomy exception; the ladder in
    ``main()`` must map it, never surface a traceback.
    """

    COMMANDS = [
        ("_cmd_table1", ["table1"]),
        ("_cmd_fig11", ["fig11"]),
        ("_cmd_calibrate", ["calibrate"]),
        ("_cmd_traces", ["traces"]),
        ("_cmd_safety", ["safety"]),
        ("_cmd_plan", ["plan"]),
        ("_cmd_formats", ["formats"]),
        ("_cmd_chaos", ["chaos"]),
        ("_cmd_sweep", ["sweep", "--checkpoint", "ck"]),
        ("_cmd_lint", ["lint"]),
        ("_cmd_analyze", ["analyze"]),
        ("_cmd_scenarios", ["scenarios"]),
        ("_cmd_scenario", ["scenario", "s1"]),
    ]

    def escapes():
        import signal as signal_module

        from repro.galvo import CoverageError
        from repro.orchestrator import (
            ManifestError,
            SweepConfigError,
            SweepError,
            SweepInterrupted,
            UnitFailedError,
            WorkUnit,
        )
        from repro.store import StoreError
        unit = WorkUnit(index=0, key="deadbeef" * 8, params={})
        return [
            (SweepConfigError("bad spec"), 2),
            (ManifestError("manifest mismatch"), 2),
            (UnitFailedError([(unit, "unit died")]), 1),
            (SweepError("sweep broke"), 1),
            (StoreError("group torn"), 1),
            (CoverageError("cone not covered"), 1),
            (SweepInterrupted(signal_module.SIGINT), 130),
            (SweepInterrupted(signal_module.SIGTERM), 143),
            (KeyboardInterrupt(), 130),
        ]

    @pytest.mark.parametrize("handler,argv", COMMANDS)
    @pytest.mark.parametrize(
        "exc,expected",
        escapes(),
        ids=lambda case: getattr(type(case), "__name__", str(case)))
    def test_escape_maps_to_documented_code(self, monkeypatch, capsys,
                                            handler, argv, exc,
                                            expected):
        import repro.cli as cli

        def boom(args):
            raise exc

        monkeypatch.setattr(cli, handler, boom)
        assert main(argv) == expected
        capsys.readouterr()  # the message, not a traceback


class TestSweepExitCodes:
    """The sweep paths behind the documented 1 and 2 codes."""

    def sweep_args(self, tmp_path):
        return ["sweep", "--kind", "demo", "--units", "2",
                "--work", "64", "--checkpoint", str(tmp_path / "ck"),
                "--output", str(tmp_path / "out.json")]

    def test_unit_failures_exit_1(self, monkeypatch, capsys,
                                  tmp_path):
        from repro.orchestrator import UnitFailedError, WorkUnit
        from repro.orchestrator.runner import SweepRunner

        def failing_run(self):
            unit = WorkUnit(index=0, key="deadbeef" * 8, params={})
            raise UnitFailedError([(unit, "worker crashed")])

        monkeypatch.setattr(SweepRunner, "run", failing_run)
        assert main(self.sweep_args(tmp_path)) == 1
        assert "failed" in capsys.readouterr().out

    def test_config_errors_exit_2(self, monkeypatch, capsys,
                                  tmp_path):
        from repro.orchestrator import SweepConfigError
        from repro.orchestrator.runner import SweepRunner

        def bad_prepare(self, resume=False):
            raise SweepConfigError("checkpoint spec mismatch")

        monkeypatch.setattr(SweepRunner, "prepare", bad_prepare)
        assert main(self.sweep_args(tmp_path)) == 2
        assert "mismatch" in capsys.readouterr().out
