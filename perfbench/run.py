#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload suite --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with the simulator
untouched; ``--trace 1`` is a separate invocation that wraps each
layer's public entry points and prints the per-layer host-time ledger.
The last line of standard output is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-ups per run; setup_s is their median.
SETUP_REPS = 3
#: Operations a timed loop completes at least, so p90 has ten beyond it.
MIN_OPS = 100
#: The loop stops at this multiple of --seconds even short of MIN_OPS.
MAX_STRETCH = 2.5

#: The simulator modules every workload imports (timed as "import").
IMPORTS = (
    "repro",
    "repro.core",
    "repro.experiments.spec_runs",
    "repro.resilience.campaign",
    "repro.store",
    "repro.workloads",
)
#: Reference slices after the import.
IMPORT_SLICES = 3


def import_simulator():
    """Import the simulator; return its raw and normalized seconds."""
    import importlib

    from bench_workloads import Meter

    meter = Meter(IMPORT_SLICES)
    meter(lambda: [importlib.import_module(module) for module in IMPORTS])
    return meter.raw_s, meter.norm_s


def setup_seconds(workload, import_pair):
    """Import plus the workload's own set-up: raw and normalized seconds."""
    raw, norm = workload.setup()
    return [import_pair[0] + raw, import_pair[1] + norm]


def setup_probe(workload: str, seed: int):
    """:func:`setup_seconds` in a fresh interpreter."""
    out = subprocess.run(
        [
            sys.executable,
            os.path.abspath(__file__),
            "--setup-probe",
            "--workload",
            workload,
            "--seed",
            str(seed),
        ],
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def peak_rss_mb(children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def check_rounds(workload, rounds, seed) -> List[str]:
    """Failed repetition and pinned-digest checks."""
    from bench_workloads import DEFAULT_SEED, PINNED_DIGESTS

    problems = []
    first = rounds[0].digest
    again = workload.repeat(rounds[0])
    if again != first:
        problems.append(f"round 0 digest {first} repeated as {again}")
    if seed == DEFAULT_SEED and first != PINNED_DIGESTS[workload.name]:
        problems.append(
            f"round 0 digest {first} != pinned {PINNED_DIGESTS[workload.name]}"
        )
    return problems


def measure(workload, seconds: float, seed: int, import_pair):
    """Untraced run: end-to-end metrics plus audit lines.

    Set-up is measured SETUP_REPS times: in fresh interpreters first,
    then in this process, whose set-up the timed rounds build on.
    """
    setups = [setup_probe(workload.name, seed) for _ in range(SETUP_REPS - 1)]
    setups.append(setup_seconds(workload, import_pair))
    setup_raw = [raw for raw, _ in setups]
    setup_norm = [norm for _, norm in setups]

    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(workload.round(len(rounds)))
        elapsed = time.perf_counter() - start
        ops = sum(len(r.ops) for r in rounds)
        if (elapsed >= seconds and ops >= MIN_OPS) or elapsed >= seconds * MAX_STRETCH:
            break
    problems = check_rounds(workload, rounds, seed)
    workload.renormalize(rounds)

    ops = [op for r in rounds for op in r.ops]
    raw_s = sum(r.raw_s for r in rounds)
    norm_s = sum(r.norm_s for r in rounds)
    latencies = [op.norm_s for op in ops]
    metrics = {
        "sim_instr_per_s": (sum(op.instructions for op in ops) / norm_s, "instr/s"),
        "cell_p50_s": (statistics.median(latencies), "s"),
        "cell_p90_s": (statistics.quantiles(latencies, n=10)[8], "s"),
        "setup_s": (statistics.median(setup_norm), "s"),
        "peak_rss_mb": (peak_rss_mb(children=workload.name == "campaign"), "MiB"),
    }
    audit = [
        f"rounds {len(rounds)}  operations {len(ops)}  host.speed {norm_s / raw_s:.4f}"
        f"  loop raw {raw_s:.3f} s  normalized {norm_s:.3f} s",
        f"cell_p50_s raw {statistics.median(op.raw_s for op in ops):.4f} s"
        f"  cell_p90_s raw {statistics.quantiles([op.raw_s for op in ops], n=10)[8]:.4f} s",
        "setup_s samples raw " + " ".join(f"{s:.4f}" for s in setup_raw)
        + "  normalized " + " ".join(f"{s:.4f}" for s in setup_norm),
    ]
    cells = [cell for r in rounds for cell in r.cells]
    if cells:
        speeds = [op.speed for r in rounds for op in r.ops]
        overhead = statistics.fmean(
            (lat - dur) * host for (lat, dur), host in zip(cells, speeds)
        )
        busy = sum(dur for _, dur in cells) / (workload.workers * raw_s)
        audit.append(
            f"cells/s {len(cells) / norm_s:.4f}  parallel.overhead_s {overhead:.4f}"
            f"  parallel.worker_busy_frac {busy:.4f}"
        )
    errors = [error for r in rounds for error in r.errors]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds) + len(problems)
    return metrics, audit + errors + problems, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("suite", "undervolt", "campaign"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            "perfbench: no simulator sources under src/repro; run this from "
            "the root of a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.workload is None:
        parser.error("--workload is required")

    import_pair = import_simulator()
    from bench_workloads import WORKLOADS

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_probe:
            print(json.dumps(setup_seconds(workload, import_pair)))
            return 0
        if args.trace:
            from ledger import traced_run

            metrics, lines, attempted, failed = traced_run(
                workload, args.seed, import_pair
            )
        else:
            metrics, lines, attempted, failed = measure(
                workload, args.seconds, args.seed, import_pair
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for line in lines:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32s} {value:>16.6g} {unit}")
    print(f"  operations attempted {attempted}  failed {failed}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
