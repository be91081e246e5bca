"""Deterministic, crash-isolated process fan-out.

The primitive under every parallel execution path in the simulator: the
SPEC-suite runner (:func:`repro.experiments.spec_runs.run_spec_suite`
with ``jobs > 1``), the figure harnesses and the fault-injection
campaign (:mod:`repro.resilience.campaign`) all shard independent
payloads over worker processes through :func:`run_fanout`.

Design rules, inherited from the campaign runner this was extracted
from:

* **One process per payload, no pool.**  A dying pool worker poisons
  the whole pool; a dying dedicated process costs exactly one result.
* **Private pipe per run.**  Workers ship one message and exit; the
  parent sleeps in one ``multiprocessing.connection.wait`` on every
  result pipe and process sentinel, so it wakes when a worker finishes
  or dies, or at the nearest deadline (enforced with
  ``terminate``/``kill``).
* **Workers fork where they can.**  On Linux every worker is a
  ``fork`` of the parent, so what the parent built before the fan-out
  (a campaign's workloads, golden runs and compiled code) is already
  there in each worker; elsewhere workers start cold and build it
  themselves, to the same result.
* **Determinism is the payload's job.**  Every payload must carry its
  own seed(s); the fan-out guarantees only that results come back in
  payload order, regardless of completion order.  Workers therefore
  produce bit-identical results whether run serially or at any ``jobs``
  width.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any, Callable, List, Optional, Sequence

__all__ = [
    "FanoutOutcome",
    "FanoutError",
    "resolve_jobs",
    "run_fanout",
    "parallel_map",
]


def resolve_jobs(jobs: int) -> int:
    """Map a user-facing ``jobs`` value to a concrete worker count.

    ``jobs <= 0`` means "auto": one worker per CPU this process may run
    on (its affinity mask, where the platform has one, so a container
    pinned to fewer CPUs than the host has is not oversubscribed),
    capped at 8 so a big machine is not saturated by default.
    """
    if jobs > 0:
        return jobs
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(8, cpus))


@dataclass
class FanoutOutcome:
    """What happened to one payload."""

    index: int
    #: ``ok`` — worker returned a value; ``error`` — worker raised (the
    #: traceback is attached); ``died`` — the process exited without
    #: sending a result (segfault, ``os._exit``...); ``timeout`` — the
    #: parent's per-run deadline expired and the worker was terminated.
    status: str
    value: Any = None
    traceback: Optional[str] = None
    exitcode: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class FanoutError(RuntimeError):
    """A strict fan-out (:func:`parallel_map`) hit a non-ok outcome."""

    def __init__(self, outcome: FanoutOutcome) -> None:
        detail = outcome.traceback or f"worker exit code {outcome.exitcode}"
        super().__init__(
            f"payload {outcome.index} finished with status "
            f"{outcome.status!r}: {detail}"
        )
        self.outcome = outcome


def _reap(process) -> None:
    """Force a worker down and guarantee it is gone before returning.

    ``terminate`` (SIGTERM) is catchable — a worker stuck in a handler
    or masked section can outlive it — so escalate to ``kill``
    (SIGKILL, uncatchable) and then *assert* the process is reaped.
    Outcomes must never be recorded while the worker might still be
    running: a ``timeout`` slot with a live process behind it leaks a
    zombie per timed-out payload and can keep mutating shared files.
    """
    process.terminate()
    process.join(timeout=5.0)
    if process.is_alive():
        process.kill()
        process.join(timeout=5.0)
    assert not process.is_alive(), (
        f"worker pid {process.pid} survived SIGKILL; refusing to record "
        "an outcome for a process that is still running"
    )


def _fanout_child(worker: Callable[[Any], Any], payload: Any, conn) -> None:
    """Process entry point: run one payload, ship one message, exit."""
    try:
        message = {"status": "ok", "value": worker(payload)}
    except BaseException:
        message = {"status": "error", "traceback": traceback.format_exc()}
    try:
        conn.send(message)
    finally:
        conn.close()


def run_fanout(
    worker: Callable[[Any], Any],
    payloads: Sequence[Any],
    *,
    jobs: int = 0,
    timeout_s: Optional[float] = None,
    on_outcome: Optional[Callable[[FanoutOutcome], None]] = None,
    on_start: Optional[Callable[[int], None]] = None,
) -> List[FanoutOutcome]:
    """Run ``worker(payload)`` for every payload across worker processes.

    ``worker`` must be a picklable module-level callable.  Results come
    back ordered by payload index; ``on_outcome`` (if given) fires in
    *completion* order as each run resolves, so callers can stream
    progress, and ``on_start`` (if given) fires with the payload index
    the moment its worker process launches — the hook incremental
    persistence and the job server's event streams hang off.  A worker
    that crashes, raises, or outlives ``timeout_s`` yields a non-``ok``
    outcome without disturbing the other slots.
    """
    # ``fork`` on Linux, where Python 3.14 stops defaulting to it, so
    # every worker inherits what the parent prepared; elsewhere the
    # platform default.
    ctx = multiprocessing.get_context(
        "fork" if sys.platform.startswith("linux") else None
    )
    outcomes: List[Optional[FanoutOutcome]] = [None] * len(payloads)
    workers = resolve_jobs(jobs)
    #: (payload index, process, parent pipe end, absolute deadline).
    running: List[tuple] = []
    next_index = 0

    def finish(outcome: FanoutOutcome) -> None:
        outcomes[outcome.index] = outcome
        if on_outcome is not None:
            on_outcome(outcome)

    while next_index < len(payloads) or running:
        while next_index < len(payloads) and len(running) < workers:
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            process = ctx.Process(
                target=_fanout_child,
                args=(worker, payloads[next_index], child_conn),
                daemon=True,
            )
            process.start()
            child_conn.close()
            if on_start is not None:
                on_start(next_index)
            deadline = (
                time.monotonic() + timeout_s if timeout_s is not None else None
            )
            running.append((next_index, process, parent_conn, deadline))
            next_index += 1

        # Sleep until a worker sends its result or exits, or until the
        # nearest deadline.
        deadlines = [deadline for *_, deadline in running if deadline is not None]
        wait(
            [conn for _, _, conn, _ in running]
            + [process.sentinel for _, process, _, _ in running],
            max(0.0, min(deadlines) - time.monotonic()) if deadlines else None,
        )
        still_running: List[tuple] = []
        for index, process, conn, deadline in running:
            outcome: Optional[FanoutOutcome] = None
            # Liveness before the pipe: a worker that exits between the
            # two checks has already sent its result, so it is never
            # taken for one that died without sending.
            alive = process.is_alive()
            if conn.poll():
                try:
                    message = conn.recv()
                except EOFError:
                    message = None
                process.join(timeout=5.0)
                if process.is_alive():  # sent a result but refuses to exit
                    _reap(process)
                if message is None:  # EOF: the worker died mid-run
                    outcome = FanoutOutcome(
                        index, "died", exitcode=process.exitcode
                    )
                elif message["status"] != "ok":
                    outcome = FanoutOutcome(
                        index, "error", traceback=message.get("traceback")
                    )
                else:
                    outcome = FanoutOutcome(index, "ok", value=message["value"])
            elif not alive:
                process.join()
                outcome = FanoutOutcome(index, "died", exitcode=process.exitcode)
            elif deadline is not None and time.monotonic() >= deadline:
                _reap(process)
                outcome = FanoutOutcome(index, "timeout")
            if outcome is None:
                still_running.append((index, process, conn, deadline))
            else:
                conn.close()
                finish(outcome)
        running = still_running

    return [outcome for outcome in outcomes if outcome is not None]


def parallel_map(
    worker: Callable[[Any], Any],
    payloads: Sequence[Any],
    *,
    jobs: int = 0,
    timeout_s: Optional[float] = None,
) -> List[Any]:
    """Strict ordered map over worker processes.

    Like :func:`run_fanout` but returns the bare values and raises
    :class:`FanoutError` on the first payload that crashed, raised or
    timed out — for callers (the suite runner) where any failure is a
    simulator bug rather than an expected campaign outcome.

    With ``jobs == 1`` the payloads run *in this process* with no
    fan-out machinery at all: the serial reference path.  Results are
    bit-identical across every ``jobs`` width because each payload
    carries its own seed.
    """
    if resolve_jobs(jobs) == 1:
        return [worker(payload) for payload in payloads]
    results: List[Any] = []
    for outcome in run_fanout(worker, payloads, jobs=jobs, timeout_s=timeout_s):
        if not outcome.ok:
            raise FanoutError(outcome)
        results.append(outcome.value)
    return results
