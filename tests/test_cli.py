"""Tests for the command-line interface."""

import importlib
import pkgutil

import pytest

import repro
from repro.cli import build_parser, main

#: The documented exit code of every exception class ``repro`` defines
#: (README, "Error contracts"): 1 is failed work.
EXIT_CODES = {
    "CoverageError": 1,
    "InverseDivergedError": 1,
    "NoIntersectionError": 1,
    "PointingDivergedError": 1,
}


def repro_exception_classes():
    """Every exception class defined in a ``repro`` module.

    Imports every module of the package (``repro.__main__`` would run
    the CLI) and walks the ``BaseException`` subclass tree.  Warning
    classes are left out: they are issued through ``warnings.warn``,
    not raised.
    """
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if module.name != "repro.__main__":
            importlib.import_module(module.name)
    found, stack = set(), [BaseException]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__.startswith("repro.") and \
                    not issubclass(sub, Warning):
                found.add(sub)
    return sorted(found, key=lambda cls: cls.__name__)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize("command", ["sweep", "chaos", "analyze", "lint"])
    def test_sweep_is_an_unknown_command(self, capsys, tmp_path, command):
        # No checkpointed-sweep, fault-injection or static-analysis
        # subcommand: the invocation is a usage error and writes
        # nothing.
        with pytest.raises(SystemExit) as info:
            main([command, "--output", str(tmp_path / "out.json")])
        assert info.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("option", ["--viewers", "--videos",
                                        "--workers"])
    @pytest.mark.parametrize("value", ["0", "-1", "two"])
    def test_traces_rejects_non_positive_counts(self, capsys, option,
                                                value):
        with pytest.raises(SystemExit) as info:
            main(["traces", option, value])
        assert info.value.code == 2
        assert f"{option}: expected a positive integer" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--trials", "0"], ["--trials", "-2"], ["--seed", "-1"],
        ["--seed", "seven"]], ids=["trials0", "trials-2", "seed-1",
                                   "seed-seven"])
    def test_calibrate_rejects_bad_counts(self, capsys, argv):
        # A zero trial count used to print "0/0" and exit 0, a negative
        # seed ended in numpy's traceback.
        with pytest.raises(SystemExit) as info:
            main(["calibrate"] + argv)
        assert info.value.code == 2
        kind = "non-negative" if argv[0] == "--seed" else "positive"
        assert f"{argv[0]}: expected a {kind} integer" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--width", "-1"], "room dimensions must be positive"),
        (["--depth", "0"], "room dimensions must be positive"),
        (["--width", "nan"], "room dimensions must be positive"),
        (["--ceiling", "0.5"], "ceiling must be above head height"),
        (["--coverage", "1.5"], "target fraction must be in (0, 1]"),
        (["--coverage", "nan"], "target fraction must be in (0, 1]")],
        ids=["width-1", "depth0", "width-nan", "ceiling0.5", "coverage1.5",
             "coverage-nan"])
    def test_plan_rejects_bad_room(self, capsys, argv, message):
        assert main(["plan"] + argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "TX 0" not in captured.out

    def test_plan_defaults(self):
        args = build_parser().parse_args(["plan"])
        assert args.width == 3.0
        assert args.coverage == 0.95

    def test_calibrate_options(self):
        args = build_parser().parse_args(
            ["calibrate", "--seed", "11", "--trials", "5"])
        assert args.seed == 11
        assert args.trials == 5


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


class TestExitCodeContract:
    """main()'s exception→exit-code backstop, per subcommand.

    The documented contract: 0 ok, 1 failed work, 2 bad configuration
    or usage, 130 when interrupted by Ctrl-C.  Each subcommand's
    handler is stubbed to escape every exception class ``repro``
    defines, one at a time; the ladder in ``main()`` must map it to
    its documented code, never surface a traceback.  A new exception
    class without an entry in ``EXIT_CODES`` fails here.
    """

    COMMANDS = [
        ("_cmd_table1", ["table1"]),
        ("_cmd_fig11", ["fig11"]),
        ("_cmd_calibrate", ["calibrate"]),
        ("_cmd_traces", ["traces"]),
        ("_cmd_safety", ["safety"]),
        ("_cmd_plan", ["plan"]),
        ("_cmd_formats", ["formats"]),
        ("_cmd_scenarios", ["scenarios"]),
        ("_cmd_scenario", ["scenario", "s1"]),
    ]

    def escapes():
        return [(cls("escaped from a handler"),
                 EXIT_CODES.get(cls.__name__))
                for cls in repro_exception_classes()] + [
            (KeyboardInterrupt(), 130)]

    def test_every_repro_exception_has_a_documented_code(self):
        names = [cls.__name__ for cls in repro_exception_classes()]
        assert names == sorted(EXIT_CODES)

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

    def test_diverged_pointing_in_calibrate_exits_one(self, monkeypatch,
                                                      capsys):
        # The realignment trials' ``point`` can raise
        # PointingDivergedError after calibration succeeded.
        import repro.simulate.montecarlo as montecarlo
        from repro.core import PointingDivergedError

        def diverge(system, report, *args, **kwargs):
            raise PointingDivergedError("P did not settle")

        monkeypatch.setattr(montecarlo, "point", diverge)
        assert main(["calibrate", "--trials", "1"]) == 1
        assert "P did not settle" in capsys.readouterr().out
