"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — simulate one workload on one system, optionally with injected
  errors or DVS, and print the run summary (plus a timeline with
  ``--timeline``).
* ``workloads`` — list every built-in workload.
* ``figure`` — regenerate one of the paper's figures.
* ``compare`` — run a workload on all four systems side by side.
* ``campaign`` — crash-isolated fault-injection campaign: seeds x rates
  x fault models over worker processes, six-outcome classification and a
  JSON report (``--smoke`` for the CI-sized variant).  With ``--store``
  every classified run is committed to a SQLite campaign store the
  moment it finishes, ``--resume`` skips cells the store already holds
  (byte-identical reports at any ``--workers`` width), and
  ``--shard K/N`` runs a deterministic 1/N slice of the grid.
* ``report`` — render a campaign store as a static HTML dashboard
  (see docs/STORE.md).
* ``store`` — inspect (``ls``) or consolidate (``merge``) campaign
  store files, e.g. shard stores from ``campaign --shard``.
* ``explore`` — seeded evolutionary design-space search over the
  ParaDox config space (checker count, AIMD constants, checkpoint
  policy, DVFS steps, quarantine thresholds, voltage floor): NSGA-II
  selection over a (energy, slowdown, failure-rate) Pareto archive,
  each genome scored by a small campaign through the parallel fan-out,
  every evaluation persisted in the ``--store`` and resumable with
  ``--resume`` (see docs/EXPLORE.md).
* ``suite`` — the shared SPEC-proxy suite behind figures 10/12/13, with
  ``--jobs N`` sharding independent runs over worker processes
  (bit-identical to ``--jobs 1``) and ``--metrics-out`` merging every
  run's telemetry into one metrics report.
* ``trace`` — simulate one workload with telemetry enabled and export
  the event stream as Perfetto-loadable JSON (``--out``), versioned
  JSONL (``--jsonl-out``) and/or a metrics summary (``--metrics-out``).
* ``diffcheck`` — differentially execute one workload three ways
  (reference ISS, executor + log fill, checker replay) and diff full
  architectural state at every checkpoint boundary.
* ``fuzz`` — seeded, shrinkable ISA program fuzzing fed through the
  differential oracle; fails (exit 1) on any divergence.

``run`` and ``suite`` accept ``--paranoid`` to assert engine
bookkeeping invariants at every segment boundary (see docs/ORACLE.md).
``run``, ``trace``, ``suite``, ``diffcheck`` and ``fuzz`` accept
``--no-jit`` to force pure interpretation instead of the compiled
superblock tier (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional

from .config import table1_config
from .core import (
    BaselineSystem,
    DetectionOnlySystem,
    ParaDoxSystem,
    ParaMedicSystem,
    System,
)
from .telemetry import render_checker_gantt, render_timeline
from .workloads import (
    SPEC_ORDER,
    Workload,
    build_bitcount,
    build_crc32,
    build_matmul,
    build_quicksort,
    build_spec_workload,
    build_stream,
)

#: Workload-name -> builder; SPEC proxies resolve through their own table.
WORKLOAD_BUILDERS: Dict[str, Callable[..., Workload]] = {
    "bitcount": lambda scale: build_bitcount(values=int(100 * scale)),
    "stream": lambda scale: build_stream(elements=256, passes=max(1, int(scale))),
    "matmul": lambda scale: build_matmul(n=max(4, int(10 * scale))),
    "quicksort": lambda scale: build_quicksort(elements=int(96 * scale)),
    "crc32": lambda scale: build_crc32(length_words=int(24 * scale)),
}

SYSTEMS: Dict[str, Callable[..., System]] = {
    "baseline": lambda config, dvs, resilient=False: BaselineSystem(config=config),
    "detection": lambda config, dvs, resilient=False: DetectionOnlySystem(config=config),
    "paramedic": lambda config, dvs, resilient=False: ParaMedicSystem(config=config),
    "paradox": lambda config, dvs, resilient=False: ParaDoxSystem(
        config=config, dvs=dvs, resilient=resilient
    ),
}


def resolve_workload(name: str, scale: float) -> Workload:
    if name in WORKLOAD_BUILDERS:
        return WORKLOAD_BUILDERS[name](scale)
    if name in SPEC_ORDER:
        return build_spec_workload(name, iterations=max(2, int(20 * scale)))
    known = ", ".join(list(WORKLOAD_BUILDERS) + SPEC_ORDER)
    raise SystemExit(f"unknown workload {name!r}; choose from: {known}")


def cmd_workloads(_args: argparse.Namespace) -> int:
    print("built-in kernels:")
    for name in WORKLOAD_BUILDERS:
        workload = resolve_workload(name, 0.5)
        print(f"  {name:12s} {workload.description or workload.category}")
    print("SPEC CPU2006 proxies:")
    for name in SPEC_ORDER:
        print(f"  {name}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.main_cores > 1:
        return _cmd_run_multicore(args)
    workload = resolve_workload(args.workload, args.scale)
    config = table1_config().with_error_rate(args.error_rate, seed=args.seed)
    if args.resilient and args.system != "paradox":
        raise SystemExit("--resilient is only meaningful with --system paradox")
    system = SYSTEMS[args.system](config, args.dvs, args.resilient)
    system.paranoid = args.paranoid
    system.jit = args.jit
    # The timeline is the tracer's engine events.
    system.tracing = args.timeline
    engine = system.engine(workload, seed=args.seed)
    result = engine.run(workload.max_instructions)
    print(result.summary())
    if args.timeline:
        events = engine.tracer.of_source("engine")
        print()
        print(render_timeline(events, limit=args.timeline_limit))
        print()
        print(render_checker_gantt(events))
    return 0


def _cmd_run_multicore(args: argparse.Namespace) -> int:
    """``repro run`` with ``--main-cores N``: M producers, one shared pool.

    The workload argument may be a comma list (a multiprogrammed mix);
    names are cycled across the main cores.
    """
    from .core import run_multicore
    from .scheduling import POOL_POLICIES

    if args.timeline:
        raise SystemExit("--timeline is single-core only (one timeline per main)")
    if args.resilient and args.system != "paradox":
        raise SystemExit("--resilient is only meaningful with --system paradox")
    names = [name.strip() for name in args.workload.split(",") if name.strip()]
    if not names:
        raise SystemExit("expected at least one workload name")
    mix = [names[i % len(names)] for i in range(args.main_cores)]
    workloads = [resolve_workload(name, args.scale) for name in mix]
    config = table1_config().with_error_rate(args.error_rate, seed=args.seed)
    system = SYSTEMS[args.system](config, args.dvs, args.resilient)
    system.paranoid = args.paranoid
    system.jit = args.jit
    try:
        result = run_multicore(
            workloads,
            system=system,
            policy=POOL_POLICIES[args.pool_policy],
            seed=args.seed,
        )
    except ValueError as error:  # e.g. a non-checking system
        raise SystemExit(str(error))
    print(result.summary())
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    workload = resolve_workload(args.workload, args.scale)
    config = table1_config().with_error_rate(args.error_rate, seed=args.seed)
    baseline: Optional[float] = None
    print(f"{'system':>12s} {'wall us':>10s} {'slowdown':>9s} {'errors':>7s}")
    for name, factory in SYSTEMS.items():
        system = factory(config, args.dvs)
        result = system.run(workload, seed=args.seed)
        if baseline is None:
            baseline = result.wall_ns
        print(
            f"{name:>12s} {result.wall_ns / 1e3:10.2f} "
            f"{result.wall_ns / baseline:9.3f} {result.errors_detected:7d}"
        )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from .ioutil import atomic_write_json
    from .telemetry import events_from_dicts, to_perfetto, write_jsonl_path

    workload = resolve_workload(args.workload, args.scale)
    config = table1_config().with_error_rate(args.error_rate, seed=args.seed)
    if args.resilient and args.system != "paradox":
        raise SystemExit("--resilient is only meaningful with --system paradox")
    # DVS defaults on (for paradox) so the trace carries a voltage
    # counter track; --no-dvs pins the nominal supply.
    dvs = args.system == "paradox" and not args.no_dvs
    system = SYSTEMS[args.system](config, dvs, args.resilient)
    system.tracing = True
    system.jit = args.jit
    result = system.run(workload, seed=args.seed)
    print(result.summary())
    events = events_from_dicts(result.trace or [])
    label = f"{result.system}/{result.workload}"
    if args.out:
        document = to_perfetto(events, label=label)
        atomic_write_json(args.out, document, indent=None)
        print(
            f"{len(events)} events -> {args.out} "
            f"(open with the Perfetto UI, https://ui.perfetto.dev)"
        )
    if args.jsonl_out:
        meta = {
            "system": result.system,
            "workload": result.workload,
            "seed": args.seed,
        }
        count = write_jsonl_path(args.jsonl_out, events, meta=meta)
        print(f"{count} events -> {args.jsonl_out}")
    if args.metrics_out:
        atomic_write_json(args.metrics_out, result.metrics or {})
        print(f"metrics -> {args.metrics_out}")
    return 0


def campaign_spec_from_args(args: argparse.Namespace):
    """Build the :class:`CampaignSpec` a ``repro campaign`` invocation runs.

    Module-level (rather than inline in :func:`cmd_campaign`) so tests
    can pin the flag→spec plumbing — notably that ``--run-timeout``
    reaches :func:`repro.parallel.run_fanout` as ``timeout_s``.
    """
    from .resilience import CampaignSpec, smoke_spec

    if args.smoke:
        spec = smoke_spec()
        if args.main_cores > 1:
            spec.main_cores = args.main_cores
            spec.pool_policy = args.pool_policy
        return spec
    # --fault-model (repeatable) overrides the comma-list --models.
    models = (
        tuple(args.fault_model)
        if args.fault_model
        else tuple(args.models.split(","))
    )
    return CampaignSpec(
        workload=args.workload,
        scale=args.scale,
        seeds=args.seeds,
        first_seed=args.first_seed,
        rates=tuple(args.rate) if args.rate else (1e-4,),
        models=models,
        dvs=not args.no_dvs,
        chip_seeds=args.chip_seeds,
        first_chip_seed=args.first_chip_seed,
        voltage=args.voltage,
        timeout_s=args.run_timeout,
        workers=args.workers,
        main_cores=args.main_cores,
        pool_policy=args.pool_policy if args.main_cores > 1 else None,
    )


def cmd_campaign(args: argparse.Namespace) -> int:
    from .resilience import RunClass, run_campaign
    from .store import StoreError, parse_shard

    spec = campaign_spec_from_args(args)
    if args.metrics_out or args.trace_out:
        spec.tracing = True
    try:
        spec.expand()
    except ValueError as error:  # e.g. an unknown --models mix
        raise SystemExit(str(error))
    shard = None
    if args.shard:
        try:
            shard = parse_shard(args.shard)
        except ValueError as error:
            raise SystemExit(str(error))
    if args.resume and not args.store:
        raise SystemExit("--resume requires --store")

    def describe(record, cached: bool = False) -> None:
        if args.quiet:
            return
        chip = (
            f" chip {record.chip_seed:3d}"
            if record.model.startswith("sram")
            else ""
        )
        suffix = " (cached)" if cached else ""
        print(
            f"  run {record.run_id:4d} seed {record.seed:5d}{chip} "
            f"rate {record.rate:.1e} {record.model:<14s} "
            f"-> {record.run_class.value:<18s} {record.detail}{suffix}"
        )

    try:
        report = run_campaign(
            spec,
            progress=describe,
            store_path=args.store,
            resume=args.resume,
            shard=shard,
            on_cached=lambda record: describe(record, cached=True),
        )
    except StoreError as error:
        raise SystemExit(str(error))
    print(report.summary_table())
    if args.store:
        print(f"results stored in {args.store}")
    if args.json:
        # Store-backed reports are written in canonical form (wall-clock
        # fields dropped) so an interrupted-and-resumed campaign's report
        # is byte-identical to an uninterrupted one.
        report.write_json(args.json, canonical=bool(args.store))
        print(f"report written to {args.json}")
    if args.metrics_out:
        report.write_metrics_json(args.metrics_out)
        print(f"merged metrics written to {args.metrics_out}")
    if args.trace_out:
        report.write_perfetto(args.trace_out)
        print(f"merged Perfetto trace written to {args.trace_out}")
    for trace in report.crash_tracebacks:
        print("\nworker traceback:\n" + trace, file=sys.stderr)
    crashes = report.counts[RunClass.CRASH.value]
    return 1 if crashes else 0


def cmd_report(args: argparse.Namespace) -> int:
    import os

    from .store import StoreError
    from .viz import write_dashboard

    if not os.path.exists(args.store):
        raise SystemExit(f"no store file {args.store!r}")
    try:
        count = write_dashboard(args.store, args.out, campaign_key=args.campaign)
    except StoreError as error:
        raise SystemExit(str(error))
    print(f"dashboard ({count} campaign(s)) written to {args.out}")
    return 0


def cmd_store(args: argparse.Namespace) -> int:
    import os

    from .store import CampaignStore, StoreError

    if args.store_command == "ls":
        if not os.path.exists(args.store):
            raise SystemExit(f"no store file {args.store!r}")
        try:
            store = CampaignStore(args.store)
        except StoreError as error:
            raise SystemExit(str(error))
        with store:
            campaigns = store.list_campaigns()
            print(
                f"{args.store}: schema v{store.version}, "
                f"{len(campaigns)} campaign(s)"
            )
            for summary in campaigns:
                counts = summary["counts"]
                breakdown = " ".join(
                    f"{name}={count}" for name, count in sorted(counts.items())
                )
                print(
                    f"  {summary['campaign_key'][:16]}  "
                    f"{summary['workload']:<12s} "
                    f"{summary['recorded']}/{summary['total_cells']} recorded"
                    + (f"  {breakdown}" if breakdown else "")
                )
        return 0
    if args.store_command == "merge":
        try:
            store = CampaignStore(args.dest)
        except StoreError as error:
            raise SystemExit(str(error))
        with store:
            for source in args.sources:
                if not os.path.exists(source):
                    raise SystemExit(f"no store file {source!r}")
                try:
                    added = store.merge_from(source)
                except StoreError as error:
                    raise SystemExit(str(error))
                total = sum(added.values())
                print(f"merged {source}: {total} new row(s) " f"{added}")
        return 0
    raise SystemExit(f"unknown store command {args.store_command!r}")


def explore_spec_from_args(args: argparse.Namespace):
    """Build the :class:`ExploreSpec` a ``repro explore`` invocation runs.

    Module-level for the same reason as :func:`campaign_spec_from_args`:
    tests pin the flag→spec plumbing without spawning a search.
    """
    from .explore import ExploreSpec

    if args.smoke:
        return ExploreSpec(
            workload="bitcount",
            scale=0.3,
            generations=2,
            population=4,
            eval_seeds=2,
            timeout_s=30.0,
            workers=args.workers,
        )
    return ExploreSpec(
        workload=args.workload,
        scale=args.scale,
        generations=args.generations,
        population=args.population,
        seed=args.seed,
        eval_seeds=args.eval_seeds,
        first_eval_seed=args.first_eval_seed,
        rate=args.rate,
        model=args.model,
        initial_margin=args.initial_margin,
        timeout_s=args.run_timeout,
        workers=args.workers,
    )


def cmd_explore(args: argparse.Namespace) -> int:
    from .explore import run_explore
    from .ioutil import atomic_write_json
    from .store import StoreError

    if args.resume and not args.store:
        raise SystemExit("--resume requires --store")
    spec = explore_spec_from_args(args)

    tracer = None
    if args.jsonl_out:
        from .telemetry import Tracer

        tracer = Tracer(command="explore", workload=spec.workload)

    def progress(evaluation, cached: bool) -> None:
        if args.quiet:
            return
        objectives = evaluation.objectives
        suffix = " (cached)" if cached else ""
        print(
            f"  gen {evaluation.generation} {evaluation.genome_key[:12]} "
            f"energy {objectives['energy']:.4f} "
            f"slowdown {objectives['slowdown']:.4f} "
            f"fail {objectives['failure_rate']:.3f}{suffix}"
        )

    def on_generation(summary) -> None:
        if args.quiet:
            return
        print(
            f"generation {summary['generation']}: "
            f"front {summary['front_size']}, "
            f"hypervolume {summary['hypervolume']:.6f} "
            f"({summary['evaluated']} evaluated, {summary['cached']} cached)"
        )

    try:
        result = run_explore(
            spec,
            store_path=args.store,
            resume=args.resume,
            progress=progress,
            on_generation=on_generation,
            tracer=tracer,
        )
    except StoreError as error:
        raise SystemExit(str(error))
    improves = result.improves_on_default()
    print(
        f"search {result.key[:16]}: {len(result.evaluations)} genome(s) "
        f"evaluated, Pareto front of {len(result.front_keys)}"
    )
    print(
        "improves on paper default: "
        + (", ".join(improves) if improves else "none")
    )
    if args.store:
        print(f"evaluations stored in {args.store}")
    if args.json:
        atomic_write_json(args.json, result.to_dict())
        print(f"Pareto report written to {args.json}")
    if args.html:
        from .viz import write_explore_report

        write_explore_report(result, args.html)
        print(f"HTML report written to {args.html}")
    if tracer is not None and args.jsonl_out:
        from .telemetry import write_jsonl_path

        count = write_jsonl_path(
            args.jsonl_out, tracer.events, meta=tracer.meta
        )
        print(f"{count} search events -> {args.jsonl_out}")
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    import time

    from .experiments.spec_runs import run_spec_suite
    from .ioutil import atomic_write_json

    names = args.workloads.split(",") if args.workloads else None
    if names:
        unknown = [name for name in names if name not in SPEC_ORDER]
        if unknown:
            raise SystemExit(
                f"unknown SPEC proxies {unknown}; choose from {list(SPEC_ORDER)}"
            )
    systems = tuple(args.systems.split(","))
    tracing = args.trace or bool(args.metrics_out)
    started = time.perf_counter()
    try:
        runs = run_spec_suite(
            iterations=args.iterations,
            names=names,
            seed=args.seed,
            systems=systems,
            jobs=args.jobs,
            tracing=tracing,
            paranoid=args.paranoid,
            jit=args.jit,
        )
    except ValueError as error:  # e.g. an unknown --systems entry
        raise SystemExit(str(error))
    wall_s = time.perf_counter() - started

    header = f"{'workload':>12s}" + "".join(f"{s:>12s}" for s in systems)
    print(header)
    for name in runs.names():
        cells = "".join(
            f"{runs.by_system(system)[name].wall_ns / 1e3:12.2f}"
            for system in systems
        )
        print(f"{name:>12s}{cells}")
    print(
        f"{len(runs.names()) * len(systems)} runs in {wall_s:.2f} s "
        f"(jobs={args.jobs})"
    )
    if args.json:
        payload = {
            "iterations": args.iterations,
            "seed": args.seed,
            "jobs": args.jobs,
            "wall_s": wall_s,
            "systems": list(systems),
            "runs": {
                name: {
                    system: {
                        "wall_ns": runs.by_system(system)[name].wall_ns,
                        "instructions": runs.by_system(system)[name].instructions,
                        "recoveries": len(runs.by_system(system)[name].recoveries),
                    }
                    for system in systems
                }
                for name in runs.names()
            },
        }
        atomic_write_json(args.json, payload)
        print(f"report written to {args.json}")
    if args.metrics_out:
        merged = runs.merged_metrics()
        atomic_write_json(args.metrics_out, merged)
        print(
            f"merged metrics ({merged.get('merged_runs', 0)} runs) "
            f"written to {args.metrics_out}"
        )
    return 0


def _parse_granularities(value: str):
    from .lslog.segment import RollbackGranularity

    if value == "all":
        return list(RollbackGranularity)
    try:
        return [RollbackGranularity(value)]
    except ValueError:
        choices = [g.value for g in RollbackGranularity] + ["all"]
        raise SystemExit(f"unknown granularity {value!r}; choose from {choices}")


def _non_negative_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        number = -1
    if number < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {value!r}")
    return number


def cmd_diffcheck(args: argparse.Namespace) -> int:
    from .ioutil import atomic_write_json
    from .oracle import DifferentialRunner
    from .telemetry import Tracer, write_jsonl_path

    workload = resolve_workload(args.workload, args.scale)
    granularities = _parse_granularities(args.granularity)
    tracer = Tracer(command="diffcheck", workload=workload.name) if args.jsonl_out else None
    reports = []
    failed = False
    for granularity in granularities:
        runner = DifferentialRunner(
            workload,
            granularity=granularity,
            checkpoint_interval=args.checkpoint_interval,
            tracer=tracer,
            use_jit=not args.no_jit,
        )
        report = runner.run(max_instructions=args.max_instructions)
        reports.append(report)
        status = "ok" if report.ok else "DIVERGED"
        print(
            f"{workload.name:>12s} {granularity.value:>5s} "
            f"{report.instructions:8d} instr {report.segments:6d} segments "
            f"{status}"
        )
        if not report.ok:
            failed = True
            print(f"  {report.divergence.describe()}")
            for line in report.divergence.trace[-8:]:
                print(f"    {line}")
    if args.json:
        payload = {
            "workload": workload.name,
            "checkpoint_interval": args.checkpoint_interval,
            "ok": not failed,
            "reports": [report.to_dict() for report in reports],
        }
        atomic_write_json(args.json, payload)
        print(f"report written to {args.json}")
    if tracer is not None:
        count = write_jsonl_path(args.jsonl_out, tracer.events, meta=tracer.meta)
        print(f"{count} oracle events written to {args.jsonl_out}")
    return 1 if failed else 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    import time

    from .ioutil import atomic_write_json
    from .oracle import run_fuzz
    from .oracle.fuzzer import PROFILES

    profiles = tuple(args.profiles.split(",")) if args.profiles else tuple(PROFILES)
    unknown = [p for p in profiles if p not in PROFILES]
    if unknown:
        raise SystemExit(f"unknown profiles {unknown}; choose from {list(PROFILES)}")
    granularities = _parse_granularities(args.granularity)
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    def progress(result) -> None:
        if not result.ok:
            print(
                f"DIVERGED seed {result.case.seed} profile "
                f"{result.case.profile}: {result.report.divergence.describe()}"
            )
            if result.shrunk_report is not None:
                print(
                    f"  shrunk to {len(result.shrunk.atoms)} atoms: "
                    f"{result.shrunk_report.divergence.describe()}"
                )
        elif args.verbose:
            print(
                f"ok seed {result.case.seed} {result.case.profile} "
                f"({result.report.instructions} instr)"
            )

    started = time.perf_counter()
    campaigns = []
    failures = 0
    for granularity in granularities:
        campaign = run_fuzz(
            seeds,
            profiles=profiles,
            granularity=granularity,
            checkpoint_interval=args.checkpoint_interval,
            shrink=not args.no_shrink,
            progress=progress,
            use_jit=not args.no_jit,
        )
        campaigns.append((granularity, campaign))
        failures += len(campaign.failures)
    wall_s = time.perf_counter() - started
    cases = sum(c.cases for _, c in campaigns)
    instructions = sum(c.instructions for _, c in campaigns)
    print(
        f"{cases} programs ({args.seeds} seeds x {len(profiles)} profiles "
        f"x {len(granularities)} granularities), {instructions} "
        f"instructions differentially checked in {wall_s:.1f} s: "
        f"{failures} divergences"
    )
    if args.json:
        payload = {
            "seeds": args.seeds,
            "first_seed": args.first_seed,
            "profiles": list(profiles),
            "wall_s": wall_s,
            "ok": failures == 0,
            "campaigns": {
                granularity.value: campaign.to_dict()
                for granularity, campaign in campaigns
            },
        }
        atomic_write_json(args.json, payload)
        print(f"report written to {args.json}")
    return 1 if failures else 0


def cmd_figure(args: argparse.Namespace) -> int:
    from .experiments import (
        ext_multicore,
        ext_sram,
        fig08,
        fig09,
        fig10,
        fig11,
        fig12,
        fig13,
        sec6e,
    )

    figures = {
        "fig08": fig08,
        "fig09": fig09,
        "fig10": fig10,
        "fig11": fig11,
        "fig12": fig12,
        "fig13": fig13,
        "sec6e": sec6e,
        "ext_sram": ext_sram,
        "ext_multicore": ext_multicore,
    }
    module = figures.get(args.name)
    if module is None:
        raise SystemExit(f"unknown figure {args.name!r}; choose from {list(figures)}")
    module.main()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ParaDox (HPCA 2021) reproduction command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a workload on one system")
    run.add_argument("workload")
    run.add_argument("--system", choices=list(SYSTEMS), default="paradox")
    run.add_argument("--error-rate", type=float, default=0.0)
    run.add_argument("--dvs", action="store_true", help="enable dynamic voltage scaling")
    run.add_argument("--seed", type=int, default=12345)
    run.add_argument("--scale", type=float, default=1.0, help="workload size factor")
    run.add_argument("--timeline", action="store_true", help="print the event timeline")
    run.add_argument(
        "--timeline-limit",
        type=_non_negative_int,
        default=40,
        help="timeline lines to print (0 = all events)",
    )
    run.add_argument(
        "--resilient",
        action="store_true",
        help="enable the resilience layer (forward-progress guard + quarantine)",
    )
    run.add_argument(
        "--paranoid",
        action="store_true",
        help="assert engine bookkeeping invariants at every segment boundary",
    )
    run.add_argument(
        "--jit",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="run the main core and checker replay through the compiled "
        "superblock tier (bit-identical to interpretation; --no-jit forces "
        "the interpreter)",
    )
    run.add_argument(
        "--main-cores",
        type=int,
        default=1,
        help="main cores sharing one checker pool; the workload argument "
        "may be a comma list cycled across cores (see docs/MULTICORE.md)",
    )
    run.add_argument(
        "--pool-policy",
        choices=["static", "steal", "reserve"],
        default="steal",
        help="shared-pool arbitration with --main-cores > 1: static "
        "partition, work-stealing, or reserved stripes + shared overflow",
    )
    run.set_defaults(func=cmd_run)

    compare = sub.add_parser("compare", help="run all four systems side by side")
    compare.add_argument("workload")
    compare.add_argument("--error-rate", type=float, default=0.0)
    compare.add_argument("--dvs", action="store_true")
    compare.add_argument("--seed", type=int, default=12345)
    compare.add_argument("--scale", type=float, default=1.0)
    compare.set_defaults(func=cmd_compare)

    workloads = sub.add_parser("workloads", help="list available workloads")
    workloads.set_defaults(func=cmd_workloads)

    figure = sub.add_parser("figure", help="regenerate a figure of the paper")
    figure.add_argument("name", help="fig08..fig13, sec6e, ext_sram, or ext_multicore")
    figure.set_defaults(func=cmd_figure)

    campaign = sub.add_parser(
        "campaign", help="crash-isolated fault-injection campaign"
    )
    campaign.add_argument("--workload", default="bitcount")
    campaign.add_argument("--scale", type=float, default=0.4)
    campaign.add_argument("--seeds", type=int, default=24)
    campaign.add_argument("--first-seed", type=int, default=0)
    campaign.add_argument(
        "--rate",
        type=float,
        action="append",
        help="fault rate; repeatable to sweep a grid (default 1e-4)",
    )
    campaign.add_argument(
        "--models",
        default="transient,burst,stuckat",
        help="comma list of fault-model mixes cycled across runs "
        "(transient, burst, stuckat, stuckat-global, sram, sram-uniform)",
    )
    campaign.add_argument(
        "--fault-model",
        action="append",
        metavar="MIX",
        help="fault-model mix; repeatable, overrides --models "
        "(e.g. --fault-model sram)",
    )
    campaign.add_argument(
        "--chip-seeds",
        type=int,
        default=1,
        help="simulated chips for the sram mixes: each chip seed is a "
        "fresh die with its own bit-cell fault map",
    )
    campaign.add_argument("--first-chip-seed", type=int, default=0)
    campaign.add_argument(
        "--voltage",
        type=float,
        default=None,
        help="pin the sram-map supply voltage (default: derived from "
        "the DVS warm start or the rate grid)",
    )
    campaign.add_argument("--no-dvs", action="store_true", help="disable the DVS controller")
    campaign.add_argument(
        "--run-timeout",
        type=float,
        default=60.0,
        help="per-run wall-clock watchdog in seconds; a run exceeding it "
        "is terminated and classified 'hang' (timeout outcome) without "
        "stalling the sweep",
    )
    campaign.add_argument("--workers", type=int, default=0, help="worker processes (0 = auto)")
    campaign.add_argument(
        "--main-cores",
        type=int,
        default=1,
        help="main cores sharing one checker pool per run; each main "
        "gets a derived-seed injector and the run's class is the worst "
        "outcome across mains",
    )
    campaign.add_argument(
        "--pool-policy",
        choices=["static", "steal", "reserve"],
        default="steal",
        help="shared-pool arbitration with --main-cores > 1",
    )
    campaign.add_argument("--json", help="write the full JSON report to this path")
    campaign.add_argument(
        "--metrics-out",
        help="write the merged telemetry metrics of all runs (enables tracing)",
    )
    campaign.add_argument(
        "--trace-out",
        help="write one merged Perfetto trace, one process per run "
        "(enables tracing)",
    )
    campaign.add_argument("--quiet", action="store_true", help="suppress per-run lines")
    campaign.add_argument(
        "--smoke", action="store_true", help="CI-sized campaign (overrides the grid flags)"
    )
    campaign.add_argument(
        "--store",
        help="persist every classified run into this SQLite campaign "
        "store, one transaction per run (safe to kill at any instant)",
    )
    campaign.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already recorded in --store (content-addressed "
        "run keys; the resumed report is byte-identical to an "
        "uninterrupted run at any --workers width)",
    )
    campaign.add_argument(
        "--shard",
        metavar="K/N",
        help="run only the cells whose run-key hashes into shard K of N "
        "(1-based); shard stores merge cleanly via 'repro store merge'",
    )
    campaign.set_defaults(func=cmd_campaign)

    report = sub.add_parser(
        "report", help="render a campaign store as a static HTML dashboard"
    )
    report.add_argument("store", help="campaign store file (SQLite)")
    report.add_argument(
        "--out", default="dashboard.html", help="output HTML path"
    )
    report.add_argument(
        "--campaign",
        help="render one campaign only (key prefix); default: all",
    )
    report.set_defaults(func=cmd_report)

    store = sub.add_parser(
        "store", help="inspect or consolidate campaign store files"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_ls = store_sub.add_parser("ls", help="list a store's campaigns")
    store_ls.add_argument("store", help="campaign store file")
    store_ls.set_defaults(func=cmd_store)
    store_merge = store_sub.add_parser(
        "merge",
        help="fold source stores into a destination store "
        "(idempotent; shard stores reassemble the full campaign)",
    )
    store_merge.add_argument("dest", help="destination store (created if absent)")
    store_merge.add_argument("sources", nargs="+", help="source store file(s)")
    store_merge.set_defaults(func=cmd_store)

    explore = sub.add_parser(
        "explore",
        help="evolutionary design-space search over the ParaDox config "
        "space (NSGA-II Pareto archive; see docs/EXPLORE.md)",
    )
    explore.add_argument("--workload", default="bitcount")
    explore.add_argument("--scale", type=float, default=0.3)
    explore.add_argument(
        "--generations",
        type=int,
        default=4,
        help="generations after the seeded generation 0",
    )
    explore.add_argument(
        "--population", type=int, default=8, help="genomes per generation"
    )
    explore.add_argument(
        "--seed",
        type=int,
        default=0,
        help="search seed: drives sampling, crossover and mutation "
        "(same seed + same store => byte-identical Pareto report)",
    )
    explore.add_argument(
        "--eval-seeds",
        type=int,
        default=4,
        help="injection seeds per genome evaluation campaign",
    )
    explore.add_argument("--first-eval-seed", type=int, default=0)
    explore.add_argument(
        "--rate",
        type=float,
        default=3e-4,
        help="fault rate every evaluation campaign injects at",
    )
    explore.add_argument(
        "--model",
        default="transient",
        help="fault-model mix for the evaluation campaigns",
    )
    explore.add_argument(
        "--initial-margin",
        type=float,
        default=0.15,
        help="starting undervolt margin handed to the DVS controller",
    )
    explore.add_argument(
        "--run-timeout",
        type=float,
        default=60.0,
        help="per-run wall-clock watchdog in seconds (see 'repro "
        "campaign --run-timeout')",
    )
    explore.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes per evaluation campaign (0 = auto); the "
        "search trajectory is identical at any width",
    )
    explore.add_argument(
        "--store",
        help="persist every genome evaluation (and its campaign's runs) "
        "into this SQLite campaign store",
    )
    explore.add_argument(
        "--resume",
        action="store_true",
        help="replay recorded evaluations from --store and continue the "
        "interrupted search; the finished report is byte-identical to "
        "an uninterrupted run",
    )
    explore.add_argument(
        "--json", help="write the canonical Pareto-front report to this path"
    )
    explore.add_argument(
        "--html", help="write the self-contained HTML report to this path"
    )
    explore.add_argument(
        "--jsonl-out", help="write search telemetry events to this path"
    )
    explore.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-evaluation and per-generation lines",
    )
    explore.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized search (overrides the search flags)",
    )
    explore.set_defaults(func=cmd_explore)

    suite = sub.add_parser(
        "suite", help="run the shared SPEC-proxy suite (figures 10/12/13)"
    )
    suite.add_argument("--iterations", type=int, default=30)
    suite.add_argument("--seed", type=int, default=12345)
    suite.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (1 = serial, 0 = auto); results are "
        "bit-identical at any width",
    )
    suite.add_argument(
        "--workloads",
        help="comma list of SPEC proxies (default: all nineteen)",
    )
    suite.add_argument(
        "--systems",
        default="baseline,detection,paramedic,paradox",
        help="comma list of systems to simulate",
    )
    suite.add_argument("--json", help="write per-run wall times to this path")
    suite.add_argument(
        "--trace", action="store_true", help="record telemetry for every run"
    )
    suite.add_argument(
        "--metrics-out",
        help="write the suite's merged metrics report (implies --trace)",
    )
    suite.add_argument(
        "--paranoid",
        action="store_true",
        help="assert engine bookkeeping invariants during every run",
    )
    suite.add_argument(
        "--jit",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="run main cores and checker replay through the compiled "
        "superblock tier (--no-jit forces the interpreter everywhere)",
    )
    suite.set_defaults(func=cmd_suite)

    trace = sub.add_parser(
        "trace",
        help="simulate one workload with telemetry and export the trace",
    )
    trace.add_argument("workload")
    trace.add_argument("--system", choices=list(SYSTEMS), default="paradox")
    trace.add_argument("--error-rate", type=float, default=0.0)
    trace.add_argument(
        "--no-dvs",
        action="store_true",
        help="disable dynamic voltage scaling (paradox defaults to DVS on "
        "so the trace carries a voltage counter track)",
    )
    trace.add_argument("--seed", type=int, default=12345)
    trace.add_argument("--scale", type=float, default=1.0)
    trace.add_argument(
        "--resilient",
        action="store_true",
        help="enable the resilience layer (paradox only)",
    )
    trace.add_argument(
        "--out", help="write Perfetto trace_event JSON to this path"
    )
    trace.add_argument(
        "--jsonl-out", help="write the versioned JSONL event stream to this path"
    )
    trace.add_argument(
        "--metrics-out", help="write the run's metrics summary to this path"
    )
    trace.add_argument(
        "--jit",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="run the main core and checker replay through the compiled "
        "superblock tier (--no-jit forces the interpreter)",
    )
    trace.set_defaults(func=cmd_trace)

    diffcheck = sub.add_parser(
        "diffcheck",
        help="differentially execute a workload: reference ISS vs "
        "executor vs checker replay",
    )
    diffcheck.add_argument("workload")
    diffcheck.add_argument("--scale", type=float, default=1.0)
    diffcheck.add_argument(
        "--granularity",
        default="all",
        help="rollback granularity to log under: word, line, none, or all",
    )
    diffcheck.add_argument(
        "--checkpoint-interval",
        type=int,
        default=61,
        help="instructions per checkpoint boundary",
    )
    diffcheck.add_argument(
        "--max-instructions", type=int, default=None, help="cap the run length"
    )
    diffcheck.add_argument("--json", help="write the JSON report to this path")
    diffcheck.add_argument(
        "--jsonl-out", help="write oracle telemetry events to this path"
    )
    diffcheck.add_argument(
        "--no-jit",
        action="store_true",
        help="escape hatch: drive the executor leg and the production "
        "checker replay through the pure interpreter instead of the "
        "compiled superblock tier",
    )
    diffcheck.set_defaults(func=cmd_diffcheck)

    fuzz = sub.add_parser(
        "fuzz",
        help="property-based ISA program fuzzing through the "
        "differential oracle",
    )
    fuzz.add_argument("--seeds", type=int, default=50, help="number of seeds")
    fuzz.add_argument("--first-seed", type=int, default=1)
    fuzz.add_argument(
        "--profiles",
        default="",
        help="comma-separated program profiles (default: all)",
    )
    fuzz.add_argument(
        "--granularity",
        default="line",
        help="rollback granularity: word, line, none, or all",
    )
    fuzz.add_argument("--checkpoint-interval", type=int, default=61)
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip minimisation of diverging programs",
    )
    fuzz.add_argument("--json", help="write the JSON report to this path")
    fuzz.add_argument(
        "--no-jit",
        action="store_true",
        help="escape hatch: fuzz the pure interpreter instead of the "
        "compiled superblock tier",
    )
    fuzz.add_argument(
        "-v", "--verbose", action="store_true", help="print every seed"
    )
    fuzz.set_defaults(func=cmd_fuzz)

    return parser


def main(argv: Optional["list[str]"] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
