"""Command-line interface."""

import pytest

from repro.cli import main, resolve_workload


class TestResolve:
    def test_builtin_kernel(self):
        workload = resolve_workload("bitcount", 0.2)
        assert workload.name == "bitcount"

    def test_spec_proxy(self):
        workload = resolve_workload("gobmk", 0.1)
        assert workload.name == "gobmk"

    def test_unknown_exits(self):
        with pytest.raises(SystemExit):
            resolve_workload("doom", 1.0)


class TestCommands:
    def test_workloads_lists_everything(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "bitcount" in out
        assert "xalancbmk" in out

    def test_run_paradox(self, capsys):
        code = main(
            ["run", "crc32", "--system", "paradox", "--scale", "0.5", "--seed", "7"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "paradox / crc32" in out
        assert "errors detected: 0" in out

    def test_run_with_errors(self, capsys):
        main(
            [
                "run", "bitcount", "--error-rate", "1e-3",
                "--scale", "0.2", "--seed", "5",
            ]
        )
        out = capsys.readouterr().out
        assert "errors detected" in out

    def test_run_with_timeline(self, capsys):
        main(["run", "crc32", "--scale", "0.3", "--timeline"])
        out = capsys.readouterr().out
        assert "segment_open" in out
        assert "dispatch" in out
        assert "c00" in out  # gantt row

    def test_compare_all_systems(self, capsys):
        main(["compare", "quicksort", "--scale", "0.3"])
        out = capsys.readouterr().out
        for name in ("baseline", "detection", "paramedic", "paradox"):
            assert name in out

    def test_figure_unknown_exits(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    def test_figure_sec6e(self, capsys):
        assert main(["figure", "sec6e"]) == 0
        out = capsys.readouterr().out
        assert "overclocking" in out

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])
