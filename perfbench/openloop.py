"""Single-threaded open-loop driver around ``ContinuousBatcher``.

Requests are due on a fixed schedule, whatever the engine is doing: a
request that becomes due while the engine is busy is admitted as soon
as the driver is free again, and its latency still counts from the
time it was due.  A stall therefore inflates the latency of every
request queued behind it, which is what a user arriving on schedule
would see.  How late the driver admitted each request is reported as
generator lag, so a run whose generator fell behind can be told apart
from one whose engine did.

Clock and sleep are injectable so the self-tests can drive the loop on
a virtual clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.batching import BatchFormation, ContinuousBatcher
from repro.core import BatchConfig


@dataclass
class OpenLoopResult:
    """What one open-loop step measured.

    Attributes:
        latencies: per-request seconds from due time to completion, in
            due order (``inf`` for a request whose batch failed).
        lags: per-request seconds between due time and admission.
        formations: the batcher's record of every dispatched batch.
        failed: requests whose batch raised.
        backlog_end: requests due but not completed when the last
            request fell due.
        busy_seconds: time spent inside ``serve``.
        elapsed: seconds from the first due time to the last completion.
    """

    latencies: list[float]
    lags: list[float]
    formations: list[BatchFormation]
    failed: int
    backlog_end: int
    busy_seconds: float
    elapsed: float
    errors: list[str] = field(default_factory=list)


def run_open_loop(
    due: Sequence[float],
    serve: Callable[[list[int]], Any],
    policy: BatchConfig,
    after: Callable[[list[int], Any], None] | None = None,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> OpenLoopResult:
    """Offer request ``i`` at ``due[i]`` seconds after the start.

    ``serve`` receives the indices of one formed batch and returns when
    the batch is answered; an exception fails every member.  ``after``,
    when given, receives each answered batch's indices and ``serve``'s
    return value once the batch's completion time is taken, so checks
    it makes stay out of the latencies.  ``due`` must be sorted.
    """
    if any(b < a for a, b in zip(due, due[1:])):
        raise ValueError("due times must be sorted")
    n = len(due)
    batcher = ContinuousBatcher(policy)
    latencies = [0.0] * n
    lags: list[float] = []
    errors: list[str] = []
    failed = completed = 0
    backlog_end = 0
    busy = 0.0
    start = clock()
    admitted = 0
    ready = []
    while admitted < n or batcher.queue_depth or ready:
        now = clock() - start
        while admitted < n and due[admitted] <= now:
            lags.append(now - due[admitted])
            batch = batcher.submit(admitted, now)
            admitted += 1
            if admitted == n:
                backlog_end = admitted - completed
            if batch is not None:
                ready.append(batch)
        if not ready:
            forced = batcher.next_forced_dispatch()
            if forced is not None and now >= forced:
                batch = batcher.poll(now)
                if batch is not None:
                    ready.append(batch)
        if ready:
            batch = ready.pop(0)
            members = list(batch.items)
            began = clock()
            try:
                value = serve(members)
                ok = True
            except Exception as exc:  # a failed batch fails its requests
                errors.append(f"{type(exc).__name__}: {exc}")
                ok = False
            finished = clock()
            if ok and after is not None:
                after(members, value)
            busy += finished - began
            for i in members:
                latencies[i] = (finished - start) - due[i] if ok else float("inf")
            completed += len(members)
            failed += 0 if ok else len(members)
            continue
        forced = batcher.next_forced_dispatch()
        wake = [forced] if forced is not None else []
        if admitted < n:
            wake.append(due[admitted])
        pause = min(wake) - (clock() - start) if wake else 0.0
        if pause > 0:
            sleep(pause)
    elapsed = (clock() - start) - (due[0] if n else 0.0)
    return OpenLoopResult(
        latencies=latencies,
        lags=lags,
        formations=list(batcher.stats.formations),
        failed=failed,
        backlog_end=backlog_end,
        busy_seconds=busy,
        elapsed=elapsed,
        errors=errors,
    )
