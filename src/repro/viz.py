"""The two HTML pages: the campaign dashboard and the explore report.

``repro report <store.sqlite>`` renders a campaign store
(:func:`render_dashboard`) and ``repro explore --html`` renders a
design-space search (:func:`render_explore_report`).  Each page is one
self-contained file — inline CSS and SVG, no scripts, no external
assets — built from the same parts: one stylesheet generated from one
palette table, one page shell, one tile row, one legend, one table and
one line chart.  The dashboard adds its stacked outcome bars and its
coverage heatmap; the explore report adds its objective-space scatter.

The dashboard, per campaign, shows stat tiles, the outcome taxonomy as
labelled stacked bars (overall and per fault-model mix) with a counts
table, a seed × rate (or voltage) coverage heatmap with pending cells in
neutral gray, and mean-instructions-to-failure and degradation-share
curves over the rate axis.  The explore report shows stat tiles, the
slowdown × energy scatter (failure rate as ring markers), the
hypervolume trend per generation, and a drill-down of every front
genome's genes against the paper defaults.

Color carries outcome *state*, so outcome classes wear the fixed status
palette (good/warning/serious/critical) rather than categorical series
hues; ``crash`` — a tooling failure, not a simulation outcome — is a
deliberately chroma-less ink.  Colors never appear without a text
label: every chart has a legend or axis labels and every page repeats
its numbers in a table, so no reading depends on color alone (two of the
light-mode status steps sit below 3:1 contrast by design).  Dark mode is
its own selected set of steps, not an automatic flip.
"""

from __future__ import annotations

import html
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .explore import GENES, OBJECTIVE_NAMES, Evaluation, ExploreResult
from .ioutil import atomic_write_text
from .store import CampaignStore, StoreError

#: Taxonomy order: also the severity ranking (later = worse) used when a
#: heatmap cell aggregates several runs.
CLASS_ORDER = (
    "masked",
    "detected_recovered",
    "degraded",
    "hang",
    "sdc",
    "crash",
)

#: Every color role of both pages, emitted as the CSS custom property
#: ``--<role>``: (light, dark).  ``c-<class>`` paints an outcome class.
PALETTE: Dict[str, Tuple[str, str]] = {
    "page": ("#f9f9f7", "#0d0d0d"),
    "surface-1": ("#fcfcfb", "#1a1a19"),
    "ink": ("#0b0b0b", "#ffffff"),
    "ink-2": ("#52514e", "#c3c2b7"),
    "muted": ("#898781", "#898781"),
    "grid": ("#e1e0d9", "#2c2c2a"),
    "border": ("rgba(11,11,11,0.10)", "rgba(255,255,255,0.10)"),
    "series": ("#2a78d6", "#3987e5"),  # line charts and the Pareto front
    "dominated": ("#c3c2b7", "#52514e"),
    "default": ("#fab219", "#fab219"),  # the paper-default genome
    "fail": ("#d03b3b", "#d03b3b"),  # forward-progress failures
    "pending": ("#e1e0d9", "#2c2c2a"),  # gridline hairline: "not yet run"
    "c-masked": ("#0ca30c", "#0ca30c"),  # status good
    "c-detected_recovered": ("#2a78d6", "#3987e5"),  # benign: series blue
    "c-degraded": ("#fab219", "#fab219"),  # status warning
    "c-hang": ("#ec835a", "#ec835a"),  # status serious
    "c-sdc": ("#d03b3b", "#d03b3b"),  # status critical
    "c-crash": ("#52514e", "#c3c2b7"),  # tooling failure: neutral ink
}

_FAILURE_CLASSES = frozenset({"hang", "sdc", "crash"})


def _custom_properties(shade: int) -> str:
    return " ".join(f"--{role}: {pair[shade]};" for role, pair in PALETTE.items())


STYLESHEET = (
    f":root {{ color-scheme: light dark; {_custom_properties(0)} }}\n"
    "@media (prefers-color-scheme: dark) {\n"
    f'  :root:where(:not([data-theme="light"])) {{ {_custom_properties(1)} }}\n'
    "}\n"
    """body {
  margin: 0; background: var(--page);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  color: var(--ink);
}
.viz-root { max-width: 1080px; margin: 0 auto; padding: 24px; }
h1 { font-size: 20px; font-weight: 650; margin: 8px 0 2px; }
h2 { font-size: 15px; font-weight: 650; margin: 24px 0 8px; }
h3 { font-size: 13px; font-weight: 600; margin: 14px 0 6px; color: var(--ink-2); }
.sub { color: var(--ink-2); font-size: 12.5px; margin: 0 0 16px; }
.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 10px; padding: 16px 18px; margin: 14px 0;
}
.tiles { display: flex; flex-wrap: wrap; gap: 10px; margin: 10px 0 4px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 10px 14px; min-width: 108px;
}
.tile .v { font-size: 22px; font-weight: 650; }
.tile .k { font-size: 11.5px; color: var(--ink-2); margin-top: 2px; }
.legend { display: flex; flex-wrap: wrap; gap: 4px 14px; font-size: 12px;
  color: var(--ink-2); margin: 6px 0 2px; }
.legend .sw { display: inline-block; width: 10px; height: 10px;
  border-radius: 3px; margin-right: 5px; vertical-align: -1px; }
table { border-collapse: collapse; font-size: 12.5px; margin-top: 8px; }
th, td { text-align: right; padding: 3px 12px 3px 0;
  font-variant-numeric: tabular-nums; }
th { color: var(--ink-2); font-weight: 600; }
td:first-child, th:first-child { text-align: left; }
tbody tr { border-top: 1px solid var(--grid); }
svg text { fill: var(--muted); font-size: 11px;
  font-variant-numeric: tabular-nums; }
svg .lbl { fill: var(--ink-2); }
details { margin: 8px 0; }
summary { cursor: pointer; font-size: 13px; color: var(--ink-2); }
.delta { color: var(--fail); font-weight: 600; }
.note { color: var(--muted); font-size: 12px; }
code { font-size: 11.5px; color: var(--ink-2); }
"""
)


# ------------------------------------------------------------ shared parts --


def esc(value: Any) -> str:
    """``str(value)`` escaped for HTML text and attribute values."""
    return html.escape(str(value), quote=True)


def page(title: str, heading: str, subtitle: str, body: str) -> str:
    """One standalone page; ``subtitle`` and ``body`` are HTML."""
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        '<meta name="viewport" content="width=device-width, initial-scale=1">'
        f"<title>{esc(title)}</title><style>{STYLESHEET}</style></head>"
        '<body><div class="viz-root">'
        f'<h1>{esc(heading)}</h1><p class="sub">{subtitle}</p>{body}'
        "</div></body></html>\n"
    )


def tiles(items: Iterable[Tuple[Any, str]]) -> str:
    """A row of stat tiles from (value, label) pairs."""
    cells = "".join(
        f'<div class="tile"><div class="v">{esc(value)}</div>'
        f'<div class="k">{esc(label)}</div></div>'
        for value, label in items
    )
    return f'<div class="tiles">{cells}</div>'


def legend(items: Iterable[Tuple[str, str]]) -> str:
    """Labelled swatches from (swatch inline CSS, label) pairs."""
    spans = "".join(
        f'<span><span class="sw" style="{style}"></span>{esc(label)}</span>'
        for style, label in items
    )
    return f'<div class="legend">{spans}</div>'


def table(head: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Text column headers over rows of cell HTML."""
    header = "".join(f"<th>{esc(name)}</th>" for name in head)
    body = "".join(
        "<tr>" + "".join(f"<td>{cell}</td>" for cell in row) + "</tr>" for row in rows
    )
    return f"<table><thead><tr>{header}</tr></thead><tbody>{body}</tbody></table>"


def line_chart(
    title: str,
    points: Sequence[Tuple[float, float]],
    *,
    x_label: str,
    x_format: Callable[[float], str],
    y_label: str,
    y_format: Callable[[float], str],
) -> str:
    """One 2px series line with markers over a zero-based y axis.

    Every marker's tooltip reads ``<x_label> <x>: <y> <y_label>``.  A
    series of fewer than two points renders a note instead.
    """
    if len(points) < 2:
        return (
            f'<p class="note">needs at least two {esc(x_label)} points '
            f"({len(points)} available).</p>"
        )
    width, height, left, right, top, bottom = 420, 184, 56, 14, 14, 44
    xs = [x for x, _ in points]
    x_lo, x_hi = min(xs), max(xs)
    y_hi = max(max(y for _, y in points), 1e-9)

    def px(x: float) -> float:
        share = (x - x_lo) / (x_hi - x_lo) if x_hi > x_lo else 0.5
        return left + (width - left - right) * share

    def py(y: float) -> float:
        return top + (height - top - bottom) * (1 - y / y_hi)

    parts = []
    for y in (0.0, 0.5 * y_hi, y_hi):
        parts.append(
            f'<line x1="{left}" y1="{py(y):.1f}" x2="{width - right}" '
            f'y2="{py(y):.1f}" stroke="var(--grid)" stroke-width="1"/>'
            f'<text x="{left - 6}" y="{py(y) + 4:.1f}" text-anchor="end">'
            f"{esc(y_format(y))}</text>"
        )
    for x in sorted(set(xs)):
        parts.append(
            f'<text x="{px(x):.1f}" y="{height - 24}" text-anchor="middle">'
            f"{esc(x_format(x))}</text>"
        )
    parts.append(
        f'<text class="lbl" x="{(left + width - right) / 2:.0f}" '
        f'y="{height - 6}" text-anchor="middle">{esc(x_label)}</text>'
    )
    path = " ".join(
        f"{'M' if i == 0 else 'L'} {px(x):.1f} {py(y):.1f}"
        for i, (x, y) in enumerate(points)
    )
    parts.append(
        f'<path d="{path}" fill="none" stroke="var(--series)" '
        f'stroke-width="2" stroke-linejoin="round"/>'
    )
    for x, y in points:
        parts.append(
            f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="4" '
            f'fill="var(--series)" stroke="var(--surface-1)" stroke-width="2">'
            f"<title>{esc(x_label)} {esc(x_format(x))}: {esc(y_format(y))} "
            f"{esc(y_label)}</title></circle>"
        )
    return (
        f'<svg width="{width}" height="{height}" role="img" '
        f'aria-label="{esc(title)}">{"".join(parts)}</svg>'
    )


# --------------------------------------------------------------- dashboard --


def _class_label(name: str) -> str:
    return name.replace("_", " ")


def _fmt_rate(rate: float) -> str:
    return f"{rate:.0e}" if rate < 0.01 else f"{rate:g}"


def _severity(name: str) -> int:
    return CLASS_ORDER.index(name) if name in CLASS_ORDER else len(CLASS_ORDER)


def _class_legend(classes: Sequence[str], pending: bool = False) -> str:
    items = [
        (f"background:var(--c-{name})", _class_label(name)) for name in classes
    ]
    if pending:
        items.append(("background:var(--pending)", "pending"))
    return legend(items)


def _stacked_bar(
    label: str, counts: Mapping[str, int], total: int, width: int = 640
) -> str:
    """One labelled horizontal stacked bar with 2px surface gaps."""
    bar_h, x = 18, 0.0
    segments: List[str] = []
    shown = [name for name in CLASS_ORDER if counts.get(name, 0)]
    for name in shown:
        count = counts[name]
        seg_w = width * count / max(total, 1)
        inner = max(seg_w - 2.0, 0.5)  # 2px gap to the next segment
        share = 100.0 * count / max(total, 1)
        segments.append(
            f'<rect x="{x:.1f}" y="0" width="{inner:.1f}" height="{bar_h}" '
            f'rx="4" fill="var(--c-{name})">'
            f"<title>{esc(label)} — {esc(_class_label(name))}: "
            f"{count} runs ({share:.1f}%)</title></rect>"
        )
        x += seg_w
    if not segments:
        segments.append(
            f'<rect x="0" y="0" width="{width}" height="{bar_h}" rx="4" '
            f'fill="var(--pending)"><title>{esc(label)}: no runs recorded'
            "</title></rect>"
        )
    return (
        f'<div style="display:flex;align-items:center;gap:10px;margin:4px 0">'
        f'<span style="font-size:12px;color:var(--ink-2);width:120px;'
        f'text-align:right">{esc(label)}</span>'
        f'<svg width="{width}" height="{bar_h}" role="img" '
        f'aria-label="{esc(label)} outcome breakdown">'
        f'{"".join(segments)}</svg>'
        f'<span style="font-size:12px;color:var(--muted)">{total}</span>'
        f"</div>"
    )


def _counts_table(
    by_model: Mapping[str, Mapping[str, int]], overall: Mapping[str, int]
) -> str:
    rows = [
        [esc(model)] + [by_model[model].get(name, 0) for name in CLASS_ORDER]
        for model in sorted(by_model)
    ]
    rows.append(["<b>all</b>"] + [overall.get(name, 0) for name in CLASS_ORDER])
    return table(["model"] + [_class_label(name) for name in CLASS_ORDER], rows)


def _heatmap(
    records: Sequence[Mapping[str, Any]],
    pending_payloads: Sequence[Mapping[str, Any]],
    y_field: str,
) -> str:
    """Seed × rate/voltage coverage map, one cell per grid point.

    A cell holding several runs (model mixes or chip seeds sharing one
    (seed, y) point) takes its *worst* class, so green means every run
    at that point was clean.
    """
    seeds = sorted(
        {int(r["seed"]) for r in records} | {int(p["seed"]) for p in pending_payloads}
    )
    y_values = sorted(
        {float(r[y_field]) for r in records if r.get(y_field) is not None}
        | {float(p[y_field]) for p in pending_payloads if p.get(y_field) is not None}
    )
    if not seeds or not y_values:
        return '<p class="note">no grid to map.</p>'
    worst: Dict[Tuple[int, float], str] = {}
    for record in records:
        if record.get(y_field) is None:
            continue
        point = (int(record["seed"]), float(record[y_field]))
        name = record["run_class"]
        if point not in worst or _severity(name) > _severity(worst[point]):
            worst[point] = name
    cell, gap, left, top = 16, 2, 64, 6
    width = left + len(seeds) * (cell + gap) + 10
    height = top + len(y_values) * (cell + gap) + 26
    parts: List[str] = []
    for yi, y_value in enumerate(y_values):
        y_px = top + yi * (cell + gap)
        parts.append(
            f'<text x="{left - 8}" y="{y_px + cell - 4}" '
            f'text-anchor="end">{esc(_fmt_rate(y_value))}</text>'
        )
        for xi, seed in enumerate(seeds):
            x_px = left + xi * (cell + gap)
            name = worst.get((seed, y_value))
            fill = f"var(--c-{name})" if name else "var(--pending)"
            state = _class_label(name) if name else "pending"
            parts.append(
                f'<rect x="{x_px}" y="{y_px}" width="{cell}" height="{cell}" '
                f'rx="3" fill="{fill}"><title>seed {seed}, {y_field} '
                f"{_fmt_rate(y_value)}: {esc(state)}</title></rect>"
            )
    step = max(1, len(seeds) // 16)
    for xi, seed in enumerate(seeds):
        if xi % step:
            continue
        x_px = left + xi * (cell + gap) + cell / 2
        parts.append(
            f'<text x="{x_px}" y="{height - 8}" text-anchor="middle">'
            f"{seed}</text>"
        )
    axis_note = "voltage (V)" if y_field == "voltage" else "fault rate"
    return (
        f'<svg width="{width}" height="{height}" role="img" '
        f'aria-label="coverage heatmap, seed by {axis_note}">'
        f'{"".join(parts)}</svg>'
        f'<p class="note">rows: {axis_note}; columns: seed; worst class '
        f"per cell.</p>"
    )


def _curves(records: Sequence[Mapping[str, Any]]) -> str:
    """MTTF and degradation curves over the rate axis."""
    by_rate: Dict[float, List[Mapping[str, Any]]] = {}
    for record in records:
        by_rate.setdefault(float(record["rate"]), []).append(record)
    mttf_points: List[Tuple[float, float]] = []
    degraded_points: List[Tuple[float, float]] = []
    for rate in sorted(by_rate):
        rate_records = by_rate[rate]
        failures = [
            float(r["instructions"])
            for r in rate_records
            if r["run_class"] in _FAILURE_CLASSES
        ]
        if failures:
            mttf_points.append((rate, sum(failures) / len(failures)))
        not_clean = sum(1 for r in rate_records if r["run_class"] != "masked")
        degraded_points.append((rate, 100.0 * not_clean / len(rate_records)))
    charts = (
        ("Mean instructions to failure", mttf_points, "instructions", "{:.0f}"),
        ("Runs needing intervention", degraded_points, "of runs", "{:.0f}%"),
    )
    cells = "".join(
        f"<div><h3>{esc(title)}</h3>"
        + line_chart(
            title,
            points,
            x_label="fault rate",
            x_format=_fmt_rate,
            y_label=y_label,
            y_format=y_format.format,
        )
        + "</div>"
        for title, points, y_label, y_format in charts
    )
    return (
        f'<div style="display:flex;flex-wrap:wrap;gap:24px">{cells}</div>'
        '<p class="note">left: mean instructions completed by failing runs '
        "(hang/sdc/crash) per rate; right: share of runs not fully masked "
        "per rate.</p>"
    )


def _campaign_section(store: CampaignStore, summary: Mapping[str, Any]) -> str:
    key = summary["campaign_key"]
    spec = summary["spec"]
    records = store.query_records(key)
    recorded_keys = {r["run_key"] for r in records}
    pending_payloads = [
        cell["payload"]
        for cell in store.cells(key)
        if cell["run_key"] not in recorded_keys
    ]
    total = summary["total_cells"]
    counts = summary["counts"]
    by_model: Dict[str, Dict[str, int]] = {}
    for record in records:
        model_counts = by_model.setdefault(record["model"], {})
        model_counts[record["run_class"]] = model_counts.get(record["run_class"], 0) + 1
    voltages = [r.get("voltage") for r in records]
    y_field = "voltage" if voltages and all(v is not None for v in voltages) else "rate"
    done = len(records)
    failures = sum(counts.get(name, 0) for name in _FAILURE_CLASSES)
    stat_tiles = tiles(
        (
            (total, "grid cells"),
            (done, "recorded"),
            (f"{100.0 * done / max(total, 1):.0f}%", "complete"),
            (counts.get("sdc", 0), "sdc"),
            (failures, "failures (hang+sdc+crash)"),
            (counts.get("crash", 0), "crashes (bugs)"),
        )
    )
    bars = [_stacked_bar("all models", counts, max(done, 1))]
    for model in sorted(by_model):
        model_total = sum(by_model[model].values())
        bars.append(_stacked_bar(model, by_model[model], model_total))
    shown_classes = [
        name for name in CLASS_ORDER if counts.get(name, 0)
    ] or list(CLASS_ORDER)
    return (
        f'<div class="card">'
        f"<h2>{esc(spec.get('workload', '?'))} campaign "
        f"<code>{esc(key[:12])}</code></h2>"
        f'<p class="sub">rates {esc(spec.get("rates"))} · models '
        f"{esc(spec.get('models'))} · seeds {esc(spec.get('seeds'))} · "
        f"chip seeds {esc(spec.get('chip_seeds', 1))} · dvs "
        f"{esc(spec.get('dvs'))}</p>"
        f"{stat_tiles}"
        f"<h3>Outcome taxonomy</h3>{_class_legend(shown_classes)}{''.join(bars)}"
        f"{_counts_table(by_model, counts)}"
        f"<h3>Coverage (seed × {esc(y_field)})</h3>"
        f"{_class_legend(shown_classes, pending=bool(pending_payloads))}"
        f"{_heatmap(records, pending_payloads, y_field)}"
        f"{_curves(records)}"
        f"</div>"
    )


def render_dashboard(store: CampaignStore, campaign_key: Optional[str] = None) -> str:
    """Render the store (or the campaigns matching a key prefix) as a page.

    Raises :class:`StoreError` when no campaign matches ``campaign_key``.
    """
    summaries = store.list_campaigns()
    if campaign_key is not None:
        summaries = [s for s in summaries if s["campaign_key"].startswith(campaign_key)]
        if not summaries:
            raise StoreError(f"no campaign matching {campaign_key!r} in store")
    sections = "".join(_campaign_section(store, summary) for summary in summaries)
    if not sections:
        sections = '<div class="card"><p class="note">store is empty.</p></div>'
    total_records = sum(s["recorded"] for s in summaries)
    return page(
        "repro campaign dashboard",
        "ParaDox injection-campaign dashboard",
        f"{len(summaries)} campaign(s), {total_records} recorded runs · store "
        f"<code>{esc(store.path)}</code> · schema v{store.version}",
        sections,
    )


def write_dashboard(
    store_path: str, out_path: str, campaign_key: Optional[str] = None
) -> int:
    """Render ``store_path`` to ``out_path`` atomically; returns #campaigns."""
    with CampaignStore(store_path) as store:
        html_page = render_dashboard(store, campaign_key)
        count = len(store.list_campaigns())
    atomic_write_text(out_path, html_page)
    return count


# ---------------------------------------------------------- explore report --


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def _axis_range(values: Sequence[float]) -> Tuple[float, float]:
    low, high = min(values), max(values)
    if high <= low:
        high = low + 1.0
    pad = 0.08 * (high - low)
    return low - pad, high + pad


def _scatter_svg(result: ExploreResult) -> str:
    """Objective-space scatter: slowdown (x) × energy (y).

    Front members in series blue, dominated genomes in muted gray, the
    paper default as a labelled diamond; genomes with a nonzero failure
    rate get a critical-color ring.  Every marker carries a ``<title>``
    tooltip with its key and full objective vector.
    """
    width, height = 640, 360
    margin = 46
    evaluations = result.evaluations
    if not evaluations:
        return '<p class="note">no evaluations</p>'
    xs = [e.objectives["slowdown"] for e in evaluations]
    ys = [e.objectives["energy"] for e in evaluations]
    x_lo, x_hi = _axis_range(xs)
    y_lo, y_hi = _axis_range(ys)

    def px(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def py(y: float) -> float:
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    front = set(result.front_keys)
    parts: List[str] = [
        f'<svg viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="Pareto front scatter">'
    ]
    # Axes and gridlines (4 ticks each).
    for tick in range(5):
        x = x_lo + tick * (x_hi - x_lo) / 4
        y = y_lo + tick * (y_hi - y_lo) / 4
        parts.append(
            f'<line x1="{px(x):.1f}" y1="{margin}" x2="{px(x):.1f}" '
            f'y2="{height - margin}" stroke="var(--grid)" stroke-width="1"/>'
            f'<text x="{px(x):.1f}" y="{height - margin + 16}" '
            f'text-anchor="middle">{_fmt(x)}</text>'
        )
        parts.append(
            f'<line x1="{margin}" y1="{py(y):.1f}" x2="{width - margin}" '
            f'y2="{py(y):.1f}" stroke="var(--grid)" stroke-width="1"/>'
            f'<text x="{margin - 8}" y="{py(y):.1f}" text-anchor="end" '
            f'dominant-baseline="middle">{_fmt(y)}</text>'
        )
    parts.append(
        f'<text class="lbl" x="{width / 2:.0f}" y="{height - 8}" '
        f'text-anchor="middle">slowdown vs fault-free baseline</text>'
        f'<text class="lbl" x="14" y="{height / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {height / 2:.0f})">relative energy</text>'
    )
    # Dominated first so the front draws on top.
    ordered = sorted(evaluations, key=lambda e: (e.genome_key in front, e.genome_key))
    for e in ordered:
        x = px(e.objectives["slowdown"])
        y = py(e.objectives["energy"])
        is_front = e.genome_key in front
        fill = "var(--series)" if is_front else "var(--dominated)"
        ring = (
            ' stroke="var(--fail)" stroke-width="2"'
            if e.objectives["failure_rate"] > 0
            else ""
        )
        tooltip = esc(
            f"{e.genome_key[:12]} gen {e.generation} — "
            + ", ".join(f"{n}={e.objectives[n]:.4g}" for n in OBJECTIVE_NAMES)
        )
        if e.genome_key == result.default_key:
            size = 7
            parts.append(
                f'<path d="M {x:.1f} {y - size:.1f} L {x + size:.1f} {y:.1f} '
                f'L {x:.1f} {y + size:.1f} L {x - size:.1f} {y:.1f} Z" '
                f'fill="var(--default)"{ring}><title>paper default: '
                f"{tooltip}</title></path>"
            )
        else:
            radius = 5 if is_front else 3.5
            parts.append(
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{radius}" '
                f'fill="{fill}"{ring}><title>{tooltip}</title></circle>'
            )
    parts.append("</svg>")
    return "".join(parts) + legend(
        (
            ("background:var(--series)", "Pareto front"),
            ("background:var(--dominated)", "dominated"),
            ("background:var(--default)", "paper default"),
            (
                "border:2px solid var(--fail);background:transparent",
                "forward-progress failures > 0",
            ),
        )
    )


def _genome_details(result: ExploreResult, evaluation: Evaluation) -> str:
    """One front member's drill-down: genes against the paper default."""
    rows = []
    for gene in GENES:
        value = evaluation.genome[gene.name]
        default = gene.clamp(gene.default)
        cell = esc(value)
        if value != default:
            cell = f'<span class="delta">{cell}</span>'
        rows.append(
            (
                f"<code>{esc(gene.name)}</code>",
                cell,
                esc(default),
                f"{esc(gene.low)}–{esc(gene.high)}",
            )
        )
    objectives = ", ".join(
        f"{name} {evaluation.objectives[name]:.4g}" for name in OBJECTIVE_NAMES
    )
    marker = " (paper default)" if evaluation.genome_key == result.default_key else ""
    return (
        f"<details><summary><code>{esc(evaluation.genome_key[:12])}</code>"
        f"{esc(marker)} — generation {evaluation.generation}, "
        f"{esc(objectives)}</summary>"
        f'{table(("gene", "value", "default", "range"), rows)}'
        f'<p class="note">campaign <code>'
        f"{esc(evaluation.campaign_key[:16])}</code>; deviations from the "
        "paper default are highlighted.</p></details>"
    )


def render_explore_report(result: ExploreResult) -> str:
    """The whole search as one self-contained HTML page."""
    spec = result.spec
    final = result.generations[-1] if result.generations else {}
    improves = result.improves_on_default()
    stat_tiles = tiles(
        (
            (spec.generations, "generations"),
            (len(result.evaluations), "genomes evaluated"),
            (len(result.front_keys), "front size"),
            (_fmt(float(final.get("hypervolume", 0.0))), "final hypervolume"),
            (", ".join(improves) if improves else "none", "improves on default"),
        )
    )
    default_note = ""
    default = result.default_evaluation()
    if default is not None:
        objectives = ", ".join(
            f"{name} {default.objectives[name]:.4g}" for name in OBJECTIVE_NAMES
        )
        default_note = (
            f'<p class="sub">paper default '
            f"<code>{esc(default.genome_key[:12])}</code>: {esc(objectives)}</p>"
        )
    trend = line_chart(
        "hypervolume per generation",
        [(entry["generation"], entry["hypervolume"]) for entry in result.generations],
        x_label="generation",
        x_format="{:.0f}".format,
        y_label="hypervolume",
        y_format="{:.6g}".format,
    )
    generation_table = table(
        ("generation", "evaluated", "cached", "archive", "front", "hypervolume"),
        (
            (
                entry["generation"],
                entry["evaluated"],
                entry["cached"],
                entry["archive_size"],
                entry["front_size"],
                f"{entry['hypervolume']:.6g}",
            )
            for entry in result.generations
        ),
    )
    front_table = table(
        ("genome", "gen") + tuple(OBJECTIVE_NAMES),
        (
            [f"<code>{esc(e.genome_key[:12])}</code>", e.generation]
            + [f"{e.objectives[name]:.4g}" for name in OBJECTIVE_NAMES]
            for e in result.front()
        ),
    )
    details = "".join(_genome_details(result, e) for e in result.front())
    body = (
        f"{stat_tiles}{default_note}"
        f'<div class="card"><h2>Objective space</h2>{_scatter_svg(result)}</div>'
        f'<div class="card"><h2>Hypervolume trend</h2>{trend}{generation_table}</div>'
        f'<div class="card"><h2>Pareto front</h2>{front_table}'
        f"<h2>Per-genome drill-down</h2>{details}</div>"
        '<p class="note">Deterministic artifact: byte-identical for the same '
        "search spec and store at any worker width. See docs/EXPLORE.md.</p>"
    )
    return page(
        f"repro explore — {spec.workload}",
        f"Design-space search — {spec.workload}",
        f"search <code>{esc(result.key[:16])}</code> · seed {spec.seed} · "
        f"population {spec.population} · {spec.eval_seeds} injection seed(s) "
        f"× rate {esc(spec.rate)} per genome",
        body,
    )


def write_explore_report(result: ExploreResult, path: str) -> None:
    """Render and atomically publish the explore page."""
    atomic_write_text(path, render_explore_report(result))
