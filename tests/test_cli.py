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

    def test_sweep_is_an_unknown_command(self, capsys, tmp_path):
        # No checkpointed-sweep subcommand: the invocation is a usage
        # error and creates no checkpoint directory.
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--checkpoint", str(tmp_path / "ck")])
        assert info.value.code == 2
        assert "invalid choice: 'sweep'" in capsys.readouterr().err
        assert not (tmp_path / "ck").exists()

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


class TestExitCodeContract:
    """main()'s exception→exit-code backstop, per subcommand.

    The documented contract: 0 ok, 1 failed work (store, coverage),
    2 bad configuration or usage, 130 when interrupted by Ctrl-C.  Each
    subcommand's handler is stubbed to escape one taxonomy exception;
    the ladder in ``main()`` must map it, never surface a traceback.
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
        ("_cmd_analyze", ["analyze"]),
        ("_cmd_scenarios", ["scenarios"]),
        ("_cmd_scenario", ["scenario", "s1"]),
    ]

    def escapes():
        from repro.galvo import CoverageError
        from repro.store import StoreError
        return [
            (StoreError("group torn"), 1),
            (CoverageError("cone not covered"), 1),
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
