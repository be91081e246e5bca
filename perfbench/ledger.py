"""Traced run: a host-time ledger of every simulator layer.

The simulator is measured only from outside.  :func:`install` replaces
each layer's public entry points -- the exact names their callers look
up -- with timing wrappers that live here:

* per-instruction entry points (``commit``, ``record_instruction``,
  ``step``, ``data_access``, ``fetch_access``, ``runner``, the load/store
  corruptors) keep aggregated counters: calls, inclusive and self time;
* run- and segment-level entry points record spans: name, start, end,
  parent span and run id.

A frame stack per thread gives self time: a call's duration minus the
durations of the instrumented calls nested inside it.  Whatever the
simulator does outside every wrapper inside ``SimulationEngine.run`` is
``core.engine_self_s``, so no time goes unattributed silently.  Campaign
workers are forked from the traced parent, inherit the wrappers, and
each writes its own ledger file, which the parent merges.
"""

from __future__ import annotations

import functools
import glob
import itertools
import json
import os
import statistics
import threading
import time
from typing import Any, Callable, Dict, List, Optional

perf = time.perf_counter

#: Rounds of the untraced reference and of the traced part, per workload.
TRACED_ROUNDS = {"suite": 2, "undervolt": 4, "campaign": 3}

_LOCK = threading.Lock()
#: Every thread's counter dict and span list (threads of a multicore run
#: each keep their own, so nesting and counts never interleave).
_COUNTERS: List[Dict[str, List[float]]] = []
_SPANS: List[List[tuple]] = []
#: Run-level numbers read from each finished engine: sim.*, jit.*.
_SIM: Dict[str, float] = {}
_ids = itertools.count(1)


class _ThreadLog(threading.local):
    def __init__(self) -> None:
        self.stack: List[List[float]] = [[0.0]]
        self.span: Optional[int] = None
        self.run: Optional[int] = None
        self.counters: Dict[str, List[float]] = {}
        self.spans: List[tuple] = []
        with _LOCK:
            _COUNTERS.append(self.counters)
            _SPANS.append(self.spans)


_log = _ThreadLog()


def reset() -> None:
    with _LOCK:
        for counters in _COUNTERS:
            counters.clear()
        for spans in _SPANS:
            del spans[:]
        _SIM.clear()


def _add_sim(values: Dict[str, float]) -> None:
    with _LOCK:
        for key, value in values.items():
            _SIM[key] = _SIM.get(key, 0.0) + value


def counted(name: str, original: Callable) -> Callable:
    """Wrapper for a per-instruction entry point: aggregated counters."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        log = _log
        stack = log.stack
        frame = [0.0]
        stack.append(frame)
        start = perf()
        try:
            return original(*args, **kwargs)
        finally:
            elapsed = perf() - start
            stack.pop()
            stack[-1][0] += elapsed
            entry = log.counters.get(name)
            if entry is None:
                entry = log.counters[name] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - frame[0]

    return wrapper


def spanned(
    name: str,
    original: Callable,
    after: Optional[Callable[[tuple, Any], None]] = None,
    run_level: bool = False,
) -> Callable:
    """Wrapper for a run- or segment-level entry point: one span per call."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        log = _log
        stack = log.stack
        frame = [0.0]
        stack.append(frame)
        parent = log.span
        span_id = next(_ids)
        log.span = span_id
        outer_run = log.run
        if run_level and outer_run is None:
            log.run = span_id
        start = perf()
        try:
            result = original(*args, **kwargs)
        finally:
            end = perf()
            stack.pop()
            stack[-1][0] += end - start
            log.span = parent
            log.spans.append(
                (span_id, name, start, end, parent, log.run, end - start - frame[0])
            )
            log.run = outer_run
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _after_rollback(args, result) -> None:
    _add_sim({"lslog.rollback.entries": result.entries_restored})


def _after_engine_run(args, result) -> None:
    engine = args[0]
    values = {
        "sim.instructions": result.instructions,
        "sim.executed": result.instructions_executed,
        "sim.segments": result.segments,
        "sim.recoveries": len(result.recoveries),
        "sim.wall_ns": result.wall_ns,
        "sim.checker_wait_ns": result.stalls.checker_wait_ns,
        "faults.injected": result.faults_injected,
    }
    if engine.jit is not None:
        stats = engine.jit.stats
        values.update(
            {
                "jit.blocks_compiled": stats.blocks_compiled,
                "jit.binds": stats.activations,
                "jit.voltage_invalidations": stats.voltage_invalidations,
                "jit.instructions": stats.instructions,
            }
        )
    _add_sim(values)


def dump(path: str) -> None:
    """Write this process's ledger (counters, spans, run numbers)."""
    counters: Dict[str, List[float]] = {}
    spans: List[tuple] = []
    with _LOCK:
        for per_thread in _COUNTERS:
            for name, (calls, incl, own) in per_thread.items():
                entry = counters.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += incl
                entry[2] += own
        for per_thread in _SPANS:
            spans.extend(per_thread)
        sim = dict(_SIM)
    with open(path, "w") as handle:
        json.dump({"counters": counters, "spans": spans, "sim": sim}, handle)


def install(workdir: str) -> None:
    """Wrap every layer's entry points; call before the traced engines exist."""
    import repro.checkpoint.controller as checkpoint
    import repro.cli as cli
    import repro.core.engine as engine
    import repro.cores.checker_core as checker_core
    import repro.cores.main_core as main_core
    import repro.dvfs.controller as dvfs
    import repro.experiments.spec_runs as spec_runs
    import repro.faults.injector as injector
    import repro.faults.sram as sram
    import repro.isa.executor as executor
    import repro.jit.tier as tier
    import repro.lslog.segment as segment
    import repro.memory.cache as cache
    import repro.resilience.campaign as campaign
    import repro.resilience.guard as guard
    import repro.scheduling.pool as pool
    import repro.scheduling.shared as shared
    import repro.store.store as store
    import repro.workloads as workloads

    def count(owner, attr, name):
        setattr(owner, attr, counted(name, getattr(owner, attr)))

    def span(owner, attr, name, after=None, run_level=False):
        setattr(owner, attr, spanned(name, getattr(owner, attr), after, run_level))

    # Per instruction.
    count(main_core.MainCoreTiming, "commit", "cores.commit")
    count(segment.LogSegment, "record_instruction", "lslog.record")
    count(executor.Executor, "step", "isa.step")
    count(cache.MemoryHierarchy, "data_access", "memory.data_access")
    count(cache.MemoryHierarchy, "fetch_access", "memory.fetch_access")
    count(tier.SuperblockJit, "runner", "jit.runner")
    count(injector.FaultInjector, "corrupt_load", "faults.corrupt_load")
    count(injector.FaultInjector, "corrupt_store", "faults.corrupt_store")
    # Per segment.
    span(checker_core.CheckerCore, "check_segment", "cores.replay")
    span(checker_core.CheckerCore, "analytic_cycles", "cores.analytic")
    span(engine, "rollback_memory", "lslog.rollback", _after_rollback)
    for attr in ("select", "dispatch", "abort"):
        span(pool.CheckerPool, attr, "scheduling.pool")
        span(shared.SharedPoolView, attr, "scheduling.shared")
    for attr in ("fires_within_segment", "begin_check", "skip_segment"):
        span(injector.FaultInjector, attr, f"faults.{attr}")
    span(dvfs.VoltageController, "on_checkpoint", "dvfs.on_checkpoint")
    span(checkpoint.CheckpointLengthController, "observe", "checkpoint.observe")
    span(guard.ForwardProgressGuard, "on_rollback", "resilience.guard.on_rollback")
    # Per run.
    span(engine.SimulationEngine, "__init__", "core.engine_build")
    span(engine.SimulationEngine, "run", "core.engine_run", _after_engine_run, True)
    span(workloads, "golden_run", "isa.golden_run")
    span(cli, "resolve_workload", "workloads.build")
    span(spec_runs, "build_spec_workload", "workloads.build")
    span(sram, "sram_injector", "faults.sram_injector")
    span(store.CampaignStore, "record_run", "store.record_run")
    span(store.CampaignStore, "register_campaign", "store.register")

    # Campaign cells run in forked workers that inherit every wrapper
    # above; each cell starts a clean ledger and writes it to a file.
    cell = spanned("resilience.execute_run", campaign.execute_run, run_level=True)

    def execute_run(payload):
        reset()
        try:
            return cell(payload)
        finally:
            name = f"cell-{payload['workload']}-{os.getpid()}-{payload['run_id']}.json"
            dump(os.path.join(workdir, name))

    campaign.execute_run = execute_run


def collect(workdir: str):
    """Merge this process's ledger with every worker file in ``workdir``.

    Returns the merged (counters, spans, run numbers) and, per campaign
    cell workload, the aggregate table of its cells alone.
    """
    parent = os.path.join(workdir, "parent.json")
    dump(parent)
    counters: Dict[str, List[float]] = {}
    spans: List[tuple] = []
    sim: Dict[str, float] = {}
    by_cell_workload: Dict[str, Dict[str, List[float]]] = {}
    for path in sorted(glob.glob(os.path.join(workdir, "cell-*.json"))) + [parent]:
        with open(path) as handle:
            part = json.load(handle)
        os.remove(path)
        part_spans = [tuple(span) for span in part["spans"]]
        for name, values in part["counters"].items():
            entry = counters.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                entry[i] += values[i]
        spans.extend(part_spans)
        for key, value in part["sim"].items():
            sim[key] = sim.get(key, 0.0) + value
        if path != parent:
            cell_workload = os.path.basename(path).split("-")[1]
            table = by_cell_workload.setdefault(cell_workload, {})
            for name, values in aggregate(part["counters"], part_spans).items():
                entry = table.setdefault(name, [0, 0.0, 0.0])
                for i in range(3):
                    entry[i] += values[i]
    return counters, spans, sim, by_cell_workload


def aggregate(counters, spans) -> Dict[str, List[float]]:
    """calls, inclusive seconds, self seconds per entry-point name."""
    table = {name: list(values) for name, values in counters.items()}
    for _, name, start, end, _, _, own in spans:
        entry = table.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += own
    return table


#: Per-layer metric -> unit, in the order they are printed.
PER_LAYER_UNITS = {
    "jit.blocks_compiled": "count",
    "jit.binds": "count",
    "jit.voltage_invalidations": "count",
    "jit.runner_s": "s",
    "jit.coverage": "ratio",
    "cores.commit.calls": "count",
    "cores.commit_s": "s",
    "lslog.record.calls": "count",
    "lslog.record_s": "s",
    "lslog.rollback.calls": "count",
    "lslog.rollback.entries": "count",
    "lslog.rollback_s": "s",
    "memory.data_access.calls": "count",
    "memory.data_access_s": "s",
    "memory.fetch_access.calls": "count",
    "memory.fetch_access_s": "s",
    "cores.replay.calls": "count",
    "cores.replay_s": "s",
    "cores.analytic.calls": "count",
    "cores.analytic_s": "s",
    "cores.fastpath_ratio": "ratio",
    "isa.step.calls": "count",
    "isa.step_s": "s",
    "isa.golden_run.calls": "count",
    "isa.golden_run_s": "s",
    "faults.fires_within_segment.calls": "count",
    "faults.hooks_s": "s",
    "faults.sram_injector_s": "s",
    "faults.injected": "count",
    "scheduling.pool.calls": "count",
    "scheduling.pool_s": "s",
    "scheduling.shared.calls": "count",
    "scheduling.shared_s": "s",
    "sim.checker_wait_ns": "ns",
    "dvfs.on_checkpoint.calls": "count",
    "checkpoint.observe.calls": "count",
    "core.engine_build.calls": "count",
    "core.engine_build_s": "s",
    "core.engine_self_s": "s",
    "workloads.build.calls": "count",
    "workloads.build_s": "s",
    "resilience.execute_run_s": "s",
    "resilience.guard.rollbacks": "count",
    "parallel.overhead_s": "s",
    "parallel.worker_busy_frac": "ratio",
    "store.record_run.calls": "count",
    "store.record_run_s": "s",
    "store.register_s": "s",
    "host.speed": "ratio",
    "host.raw_s": "s",
    "host.import_s": "s",
    "host.trace_overhead": "ratio",
    "sim.instructions": "count",
    "sim.executed": "count",
    "sim.segments": "count",
    "sim.recoveries": "count",
    "sim.wall_ns": "ns",
}


def per_layer(table, sim, rounds: int, speed: float, cells, busy_capacity_s: float):
    """Per-layer metrics, per round; seconds are self time, normalized."""

    def calls(*names):
        return sum(table.get(name, (0, 0.0, 0.0))[0] for name in names) / rounds

    def self_s(*names):
        own = sum(table.get(name, (0, 0.0, 0.0))[2] for name in names)
        return own * speed / rounds

    def ratio(part, whole):
        return part / whole if whole else 0.0

    hooks = (
        "faults.begin_check",
        "faults.skip_segment",
        "faults.corrupt_load",
        "faults.corrupt_store",
    )
    replays = calls("cores.replay")
    analytic = calls("cores.analytic")
    values = {
        "jit.blocks_compiled": sim.get("jit.blocks_compiled", 0.0) / rounds,
        "jit.binds": sim.get("jit.binds", 0.0) / rounds,
        "jit.voltage_invalidations": sim.get("jit.voltage_invalidations", 0.0) / rounds,
        "jit.runner_s": self_s("jit.runner"),
        "jit.coverage": ratio(sim.get("jit.instructions", 0.0), sim.get("sim.executed", 0.0)),
        "cores.commit.calls": calls("cores.commit"),
        "cores.commit_s": self_s("cores.commit"),
        "lslog.record.calls": calls("lslog.record"),
        "lslog.record_s": self_s("lslog.record"),
        "lslog.rollback.calls": calls("lslog.rollback"),
        "lslog.rollback.entries": sim.get("lslog.rollback.entries", 0.0) / rounds,
        "lslog.rollback_s": self_s("lslog.rollback"),
        "memory.data_access.calls": calls("memory.data_access"),
        "memory.data_access_s": self_s("memory.data_access"),
        "memory.fetch_access.calls": calls("memory.fetch_access"),
        "memory.fetch_access_s": self_s("memory.fetch_access"),
        "cores.replay.calls": replays,
        "cores.replay_s": self_s("cores.replay"),
        "cores.analytic.calls": analytic,
        "cores.analytic_s": self_s("cores.analytic"),
        "cores.fastpath_ratio": ratio(analytic, analytic + replays),
        "isa.step.calls": calls("isa.step"),
        "isa.step_s": self_s("isa.step"),
        "isa.golden_run.calls": calls("isa.golden_run"),
        "isa.golden_run_s": self_s("isa.golden_run"),
        "faults.fires_within_segment.calls": calls("faults.fires_within_segment"),
        "faults.hooks_s": self_s(*hooks),
        "faults.sram_injector_s": self_s("faults.sram_injector"),
        "faults.injected": sim.get("faults.injected", 0.0) / rounds,
        "scheduling.pool.calls": calls("scheduling.pool"),
        "scheduling.pool_s": self_s("scheduling.pool"),
        "scheduling.shared.calls": calls("scheduling.shared"),
        "scheduling.shared_s": self_s("scheduling.shared"),
        "sim.checker_wait_ns": sim.get("sim.checker_wait_ns", 0.0) / rounds,
        "dvfs.on_checkpoint.calls": calls("dvfs.on_checkpoint"),
        "checkpoint.observe.calls": calls("checkpoint.observe"),
        "core.engine_build.calls": calls("core.engine_build"),
        "core.engine_build_s": self_s("core.engine_build"),
        "core.engine_self_s": self_s("core.engine_run"),
        "workloads.build.calls": calls("workloads.build"),
        "workloads.build_s": self_s("workloads.build"),
        "resilience.execute_run_s": (
            table.get("resilience.execute_run", (0, 0.0, 0.0))[1] * speed / rounds
        ),
        "resilience.guard.rollbacks": calls("resilience.guard.on_rollback"),
        "parallel.overhead_s": (
            statistics.fmean(lat - dur for lat, dur in cells) * speed if cells else 0.0
        ),
        "parallel.worker_busy_frac": ratio(
            sum(duration for _, duration in cells), busy_capacity_s
        ),
        "store.record_run.calls": calls("store.record_run"),
        "store.record_run_s": self_s("store.record_run"),
        "store.register_s": self_s("store.register"),
    }
    for key in ("sim.instructions", "sim.executed", "sim.segments", "sim.recoveries", "sim.wall_ns"):
        values[key] = sim.get(key, 0.0) / rounds
    return values


def ledger_lines(table, loop_raw: float, speed: float, rounds: int) -> List[str]:
    """Human-readable ledger: every entry point by self time."""
    lines = [
        f"ledger per round ({rounds} traced rounds, host.speed {speed:.4f}):",
        f"  {'entry point':<34s} {'calls':>12s} {'incl s':>10s} {'self s':>10s} {'share':>7s}",
    ]
    total_self = sum(values[2] for values in table.values()) or 1.0
    for name, (calls, incl, own) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        lines.append(
            f"  {name:<34s} {calls / rounds:>12.1f} {incl * speed / rounds:>10.4f}"
            f" {own * speed / rounds:>10.4f} {100.0 * own / total_self:>6.1f}%"
        )
    lines.append(
        f"  traced loop {loop_raw * speed / rounds:.4f} s per round (normalized);"
        f" self times above sum to {total_self * speed / rounds:.4f} s"
    )
    return lines


def traced_run(workload, seed: int, import_pair):
    """One set-up, then the same rounds untraced and traced."""
    from bench_workloads import DEFAULT_SEED, PINNED_DIGESTS

    workload.setup()
    count = TRACED_ROUNDS[workload.name]
    plain = [workload.round(index) for index in range(count)]
    if workload.name == "campaign":
        workload.setup()  # a second fresh store: the same cells again
    install(workload.workdir)
    reset()
    traced = [workload.round(index) for index in range(count)]
    counters, spans, sim, by_cell_workload = collect(workload.workdir)
    table = aggregate(counters, spans)
    workload.renormalize(plain)
    workload.renormalize(traced)

    def loop(rounds):
        return sum(r.raw_s for r in rounds), sum(r.norm_s for r in rounds)

    plain_raw, plain_norm = loop(plain)
    traced_raw, traced_norm = loop(traced)
    speed = traced_norm / traced_raw
    cells = [cell for r in traced for cell in r.cells]
    capacity = getattr(workload, "workers", 1) * traced_raw
    metrics = per_layer(table, sim, count, speed, cells, capacity)
    metrics.update(
        {
            "host.speed": speed,
            "host.raw_s": traced_raw,
            "host.import_s": import_pair[0],
            "host.trace_overhead": traced_norm / plain_norm,
        }
    )
    problems = [
        f"round {index} traced digest {t.digest} != untraced {p.digest}"
        for index, (p, t) in enumerate(zip(plain, traced))
        if p.digest != t.digest
    ]
    if seed == DEFAULT_SEED and plain[0].digest != PINNED_DIGESTS[workload.name]:
        problems.append(
            f"round 0 digest {plain[0].digest} != pinned {PINNED_DIGESTS[workload.name]}"
        )
    spans_path = os.path.join(
        os.path.dirname(workload.workdir), f"{workload.name}-seed{seed}-spans.jsonl"
    )
    with open(spans_path, "w") as handle:
        for record in spans:
            handle.write(json.dumps(record) + "\n")
    lines = [
        f"untraced {plain_norm:.3f} s  traced {traced_norm:.3f} s (normalized)"
        f"  raw {plain_raw:.3f} / {traced_raw:.3f} s",
        f"spans written to {os.path.relpath(spans_path)} ({len(spans)} spans)",
    ]
    lines += ledger_lines(table, traced_raw, speed, count)
    for cell_workload, cell_table in sorted(by_cell_workload.items()):
        lines.append(f"{cell_workload} cells only, top self times:")
        lines += ledger_lines(cell_table, traced_raw, speed, count)[1:8]
    errors = [error for r in plain + traced for error in r.errors]
    attempted = sum(r.attempted for r in plain + traced)
    failed = sum(r.failed for r in plain + traced) + len(problems)
    units = {name: (metrics[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    return units, lines + errors + problems, attempted, failed
