"""Extension experiment harnesses (reduced sizes)."""

import pytest

from repro.experiments import ext_coverage, ext_design_space, ext_sharing
from repro.workloads import build_bitcount


class TestExtCoverage:
    def test_tables_render(self):
        result = ext_coverage.run(voltages=(1.0, 0.95))
        text = result.table()
        assert "SDC ParaDox" in text
        assert "undervolting the checkers" in text

    def test_points_cover_requested_voltages(self):
        result = ext_coverage.run(voltages=(1.02, 0.96))
        assert [p.voltage for p in result.points] == [1.02, 0.96]


class TestExtSharing:
    def test_small_run(self):
        result = ext_sharing.run(names=("bzip2", "lbm"), iterations=4)
        assert result.minimum_pool >= 1
        assert result.max_slowdown(16) <= 1.05
        assert "sharing one pool" in result.table()


class TestExtDesignSpace:
    def test_small_sweep(self):
        result = ext_design_space.run(
            workloads=[build_bitcount(values=20)],
            checker_counts=(2, 16),
            log_sizes=(6144,),
        )
        points = result.points_for("bitcount", "checker")
        by_count = {p.checker_count: p for p in points}
        assert by_count[2].slowdown >= by_count[16].slowdown
        assert "Design space" in result.table()
