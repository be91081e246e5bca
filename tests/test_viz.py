"""The shared HTML parts: the page shell both pages use and the line chart."""

import math
import re

import pytest

from repro.explore import ExploreSpec, run_explore
from repro.store import CampaignStore
from repro.viz import line_chart, render_dashboard, render_explore_report
from tests.test_dashboard import SPEC, payload, populate, record

_NUMERIC_ATTRIBUTE = re.compile(
    r'\s(x|y|x1|y1|x2|y2|cx|cy|r|width|height|d)="([^"]*)"'
)


def assert_finite_coordinates(markup):
    """Every numeric SVG attribute in ``markup`` parses as a finite float."""
    values = _NUMERIC_ATTRIBUTE.findall(markup)
    assert values
    for name, value in values:
        numbers = re.sub(r"[MLZ]", " ", value).split() if name == "d" else [value]
        for number in numbers:
            assert math.isfinite(float(number)), f'{name}="{value}"'


def dashboard_page(tmp_path):
    with CampaignStore(populate(str(tmp_path / "s.sqlite"))) as store:
        return render_dashboard(store)


def explore_page(tmp_path):
    spec = ExploreSpec(
        workload="bitcount",
        scale=0.1,
        generations=2,
        population=3,
        seed=0,
        eval_seeds=2,
        workers=0,
    )
    return render_explore_report(run_explore(spec))


@pytest.mark.parametrize("render", [dashboard_page, explore_page])
def test_page_is_self_contained(render, tmp_path):
    page = render(tmp_path)
    assert page.startswith("<!DOCTYPE html>")
    assert "<script" not in page
    assert "http://" not in page and "https://" not in page
    assert "@media (prefers-color-scheme: dark)" in page
    assert_finite_coordinates(page)


def chart(points):
    return line_chart(
        "test series",
        points,
        x_label="fault rate",
        x_format="{:g}".format,
        y_label="of runs",
        y_format="{:.0f}%".format,
    )


class TestLineChart:
    @pytest.mark.parametrize("points", [[], [(1e-4, 50.0)]])
    def test_fewer_than_two_points_render_the_note(self, points):
        markup = chart(points)
        assert "<svg" not in markup
        assert f"at least two fault rate points ({len(points)} available)" in markup

    def test_all_zero_series_has_finite_coordinates(self, tmp_path):
        # Every run clean at both rates: no failure, so no MTTF point, and
        # a degradation share of 0% at each rate.
        with CampaignStore(str(tmp_path / "s.sqlite")) as store:
            cells = [
                (f"key{i}", i, payload(i, i % 2, rate=rate))
                for i, rate in enumerate((1e-4, 1e-4, 1e-3, 1e-3))
            ]
            store.register_campaign("campaign-a", SPEC, cells)
            for run_key, run_id, cell in cells:
                store.record_run(
                    "campaign-a",
                    run_key,
                    record(run_id, cell["seed"], "masked", rate=cell["rate"]),
                )
            page = render_dashboard(store)
        assert "at least two fault rate points (0 available)" in page
        assert "<title>fault rate 1e-03: 0% of runs</title>" in page
        assert_finite_coordinates(page)

    def test_tooltips_name_both_axes(self):
        markup = chart([(1e-4, 0.0), (1e-3, 25.0)])
        assert "<title>fault rate 0.001: 25% of runs</title>" in markup
