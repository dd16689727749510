"""Open-loop load generator for the serving workloads.

Requests are submitted on a fixed Poisson schedule whatever the server
does, so a slow server builds a queue instead of receiving less load.  The
generator uses two threads: the calling thread submits on schedule and a
collector thread waits on the tickets in submission order.  Each request's
latency is timed from when it was *due*, so a stall of the submitter
counts against every request it delayed, and how late the submitter ran
is reported as its own figure.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

# A ticket not resolved within this many seconds counts as failed.
RESULT_TIMEOUT_S = 30.0


@dataclass
class PhaseResult:
    """Per-request timings of one open-loop phase (seconds, perf_counter)."""

    users: np.ndarray
    due: np.ndarray
    submitted: np.ndarray   # submitter began the submit call
    returned: np.ndarray    # submit call returned
    collected: np.ndarray   # collector began waiting on the ticket (NaN: none)
    woke: np.ndarray        # collector got the result back
    results: list           # Recommendation, or None when the request failed
    start: float
    end: float

    @property
    def failed(self) -> int:
        """Requests whose ticket raised or timed out."""
        return sum(r is None for r in self.results)

    @property
    def latency_ms(self) -> np.ndarray:
        """Due-to-result latency of each request that succeeded."""
        ok = np.array([r is not None for r in self.results])
        return (self.woke[ok] - self.due[ok]) * 1e3

    @property
    def lateness_ms(self) -> np.ndarray:
        """How far behind its schedule the submitter ran, per request."""
        return (self.submitted - self.due) * 1e3

    @property
    def offered_rps(self) -> float:
        """Rate of the schedule."""
        span = self.due[-1] - self.due[0]
        return (len(self.due) - 1) / span if span > 0 else float("inf")

    @property
    def achieved_rps(self) -> float:
        """Requests completed per second, first to last completion.

        Timed between completions rather than from the first due time, so
        a steady latency does not read as a shortfall on a short phase; a
        growing backlog stretches the span and does.
        """
        span = np.nanmax(self.woke) - np.nanmin(self.woke)
        return (len(self.due) - 1) / span if span > 0 else float("inf")


def run_open_loop(frontend, users: np.ndarray, offsets: np.ndarray,
                  tracer=None) -> PhaseResult:
    """Submit ``users[i]`` at ``offsets[i]`` seconds from now; wait for all.

    With a ``tracer``, each thread tags its spans with the index of the
    request it is handling.
    """
    count = len(users)
    submitted = np.empty(count)
    returned = np.empty(count)
    collected = np.full(count, np.nan)
    woke = np.full(count, np.nan)
    results: List[Optional[object]] = [None] * count
    tickets: "queue.SimpleQueue" = queue.SimpleQueue()

    def collect() -> None:
        for _ in range(count):
            index, ticket = tickets.get()
            if tracer is not None:
                tracer.set_request(index)
            try:
                if ticket is not None:
                    collected[index] = time.perf_counter()
                    results[index] = ticket.result(timeout=RESULT_TIMEOUT_S)
            except Exception:  # a failed request is counted, not fatal
                results[index] = None
            woke[index] = time.perf_counter()

    collector = threading.Thread(target=collect, name="perfbench-collector")
    collector.start()
    start = time.perf_counter() + 0.005
    due = start + np.asarray(offsets, dtype=np.float64)
    sent = 0
    try:
        for index in range(count):
            wait = due[index] - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            if tracer is not None:
                tracer.set_request(index)
            submitted[index] = time.perf_counter()
            try:
                ticket = frontend.submit(int(users[index]))
            except Exception:
                ticket = None
            returned[index] = time.perf_counter()
            tickets.put((index, ticket))
            sent += 1
    finally:
        # Unblock the collector for requests never submitted.
        for index in range(sent, count):
            submitted[index] = returned[index] = time.perf_counter()
            tickets.put((index, None))
        collector.join()
    if tracer is not None:
        tracer.set_request(-1)
    return PhaseResult(users=np.asarray(users), due=due, submitted=submitted,
                       returned=returned, collected=collected, woke=woke,
                       results=results, start=start,
                       end=float(np.nanmax(woke)))
