"""The static HTML dashboard rendered from a campaign store."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.store import CampaignStore, StoreError
from repro.viz import CLASS_ORDER, PALETTE, render_dashboard, write_dashboard

REPO_ROOT = Path(__file__).resolve().parents[1]

SPEC = {
    "workload": "bitcount",
    "scale": 0.4,
    "seeds": 6,
    "rates": [1e-4, 1e-3],
    "models": ["transient"],
}


def payload(run_id, seed, rate=1e-4, voltage=None):
    data = {
        "run_id": run_id,
        "workload": "bitcount",
        "scale": 0.4,
        "seed": seed,
        "rate": rate,
        "model": "transient",
        "dvs": True,
        "initial_margin": 0.15,
        "chip_seed": 0,
        "tracing": False,
    }
    if voltage is not None:
        data["voltage"] = voltage
    return data


def record(run_id, seed, run_class, rate=1e-4, detail="", instructions=1000):
    return {
        "run_id": run_id,
        "seed": seed,
        "rate": rate,
        "model": "transient",
        "workload": "bitcount",
        "run_class": run_class,
        "chip_seed": 0,
        "detail": detail,
        "outcome": "completed",
        "recoveries": 0,
        "faults_injected": 1,
        "instructions": instructions,
        "quarantined": [],
        "escalations": {},
        "duration_s": 0.1,
    }


def populate(path, classes=("masked", "sdc", "hang"), voltage=None):
    with CampaignStore(path) as store:
        cells = [
            (f"key{i}", i, payload(i, i, voltage=voltage))
            for i in range(len(classes) + 1)
        ]
        store.register_campaign("campaign-a", SPEC, cells)
        for i, run_class in enumerate(classes):
            store.record_run(
                "campaign-a",
                f"key{i}",
                record(i, i, run_class),
                voltage=voltage,
            )
    return path


class TestRenderDashboard:
    def test_page_structure(self, tmp_path):
        path = populate(str(tmp_path / "s.sqlite"))
        with CampaignStore(path) as store:
            page = render_dashboard(store)
        assert page.startswith("<!DOCTYPE html>")
        assert "viz-root" in page and "<svg" in page
        assert "campaign-a" in page
        # One cell never recorded: the coverage stat shows 3 of 4.
        assert "grid cells" in page and "recorded" in page
        for run_class in ("masked", "sdc", "hang"):
            assert run_class in page

    def test_counts_table_always_present(self, tmp_path):
        # The palette's sub-3:1 segment colors are relieved by visible
        # labels and a table view; the table must always render.
        path = populate(str(tmp_path / "s.sqlite"))
        with CampaignStore(path) as store:
            page = render_dashboard(store)
        assert "<table" in page

    def test_untrusted_text_is_escaped(self, tmp_path):
        # Everything rendered from the store (a file someone handed you)
        # is untrusted; spec fields land in the page header.
        path = str(tmp_path / "s.sqlite")
        hostile = dict(SPEC, workload='<script>alert("x")</script>')
        with CampaignStore(path) as store:
            store.register_campaign(
                "campaign-a", hostile, [("key0", 0, payload(0, 0))]
            )
            store.record_run("campaign-a", "key0", record(0, 0, "sdc"))
            page = render_dashboard(store)
        assert "<script>alert" not in page
        assert "&lt;script&gt;" in page

    def test_campaign_key_prefix_filter(self, tmp_path):
        path = populate(str(tmp_path / "s.sqlite"))
        with CampaignStore(path) as store:
            assert "campaign-a" in render_dashboard(store, "campaign-")
            with pytest.raises(StoreError):
                render_dashboard(store, "nonexistent")

    def test_empty_store_renders(self, tmp_path):
        with CampaignStore(str(tmp_path / "s.sqlite")) as store:
            assert "store is empty" in render_dashboard(store)

    def test_voltage_axis_used_when_all_runs_have_voltage(self, tmp_path):
        path = populate(str(tmp_path / "v.sqlite"), voltage=0.85)
        with CampaignStore(path) as store:
            page = render_dashboard(store)
        assert "voltage" in page

    def test_dark_mode_palette_included(self, tmp_path):
        path = populate(str(tmp_path / "s.sqlite"))
        with CampaignStore(path) as store:
            page = render_dashboard(store)
        assert "prefers-color-scheme: dark" in page


class TestWriteDashboard:
    def test_write_is_atomic_and_counts(self, tmp_path):
        store = populate(str(tmp_path / "s.sqlite"))
        out = tmp_path / "dash.html"
        assert write_dashboard(store, str(out)) == 1
        assert out.read_text().startswith("<!DOCTYPE html>")
        names = {p.name for p in tmp_path.iterdir()}
        assert not any(name.endswith(".tmp") for name in names)


class TestReportCLI:
    def test_unknown_campaign_prefix_is_a_one_line_error(self, tmp_path):
        path = populate(str(tmp_path / "s.sqlite"))
        result = subprocess.run(
            [sys.executable, "-m", "repro", "report", path,
             "--out", str(tmp_path / "dash.html"), "--campaign", "zzz"],
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert result.stderr == "no campaign matching 'zzz' in store\n"
        assert not (tmp_path / "dash.html").exists()


class TestPalette:
    def test_one_color_per_outcome_class(self, tmp_path):
        with CampaignStore(str(tmp_path / "s.sqlite")) as store:
            page = render_dashboard(store)
        light_block, dark_block = page.split("prefers-color-scheme: dark")
        light = [PALETTE[f"c-{name}"][0] for name in CLASS_ORDER]
        dark = [PALETTE[f"c-{name}"][1] for name in CLASS_ORDER]
        assert len(set(light)) == len(light)  # no hue reuse
        assert len(set(dark)) == len(dark)
        for name, color in zip(CLASS_ORDER, light):
            assert f"--c-{name}: {color};" in light_block
        for name, color in zip(CLASS_ORDER, dark):
            assert f"--c-{name}: {color};" in dark_block
