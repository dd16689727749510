"""Outside-in span tracing for the traced benchmark run.

The tracer wraps public methods of the program's classes from outside, so
the program itself carries no instrumentation.  Each call becomes one span
``(id, name, start, end, parent, request, size, thread)``: ``parent`` is
the enclosing span on the same thread (``-1`` for a root), ``request`` is
the load generator's request index when one is in flight on that thread
(``-1`` otherwise) and ``size`` is a per-call work count (users in a batch,
rows queried, 1 for a cache hit).  Spans are kept in memory and written
once, at the end of the run.

A span's *self time* is its duration minus the durations of its direct
children.  The harness times each call it makes into the program with its
own clock; :func:`self_time_table` checks that the self times under each
entry point add up to the time the harness measured for it.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# Field positions of a span tuple.
ID, NAME, START, END, PARENT, REQUEST, SIZE, THREAD = range(8)

# Tolerance of the self-time reconciliation: a share of the wall time plus
# an allowance per harness call for the wrapper's own bookkeeping, which
# runs inside the harness's timing but outside the span.
RECONCILE_TOLERANCE = 0.01
PER_CALL_ALLOWANCE_S = 20e-6

Span = Tuple[int, str, float, float, int, int, int, int]


class Tracer:
    """Records spans around wrapped methods; install once, uninstall at end."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._installed: List[Tuple[type, str, object]] = []

    # -- per-thread context ------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request: int) -> None:
        """Tag the spans this thread records next with a request index."""
        self._local.request = request

    def _request(self) -> int:
        return getattr(self._local, "request", -1)

    # -- recording -----------------------------------------------------------
    def call(self, name: str, func: Callable, args, kwargs,
             size: Optional[Callable] = None):
        """Run ``func(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = time.perf_counter()
        result = None
        try:
            result = func(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            count = size(args, kwargs, result) if size is not None else 0
            self.spans.append((span_id, name, start, end, parent,
                               self._request(), int(count),
                               threading.get_ident()))

    def wrap(self, owner: type, attribute: str, name: str,
             size: Optional[Callable] = None) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper."""
        original = owner.__dict__[attribute]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, size)

        setattr(owner, attribute, traced)
        self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Restore every wrapped method (reverse order of installation)."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def write(self, path: str) -> None:
        """Write all spans as JSON lines (one list per span)."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def install_program_wrappers(tracer: Tracer) -> None:
    """Wrap the public calls of every layer the benchmark measures."""
    from repro.autograd import Tensor
    from repro.core import CDRIB
    from repro.data import NegativeSampler
    from repro.optim import Adam
    from repro.serve import (ColdStartServer, FrontendTicket, IVFIndex,
                             ItemIndex, LRUCache, RequestBatcher,
                             ServingFrontend)

    def rows(args, kwargs, result):
        return len(args[1]) if len(args) > 1 else 0

    def hit(args, kwargs, result):
        return 0 if result is None else 1

    def encoded(args, kwargs, result):
        return 0 if result is None else len(result)

    tracer.wrap(ServingFrontend, "submit", "serve.frontend.submit")
    tracer.wrap(FrontendTicket, "result", "serve.frontend.result")
    tracer.wrap(RequestBatcher, "submit", "serve.batching.submit")
    tracer.wrap(RequestBatcher, "flush", "serve.batching.flush")
    tracer.wrap(RequestBatcher, "poll", "serve.batching.poll")
    tracer.wrap(ColdStartServer, "recommend", "serve.server.recommend", rows)
    tracer.wrap(ColdStartServer, "user_latents", "serve.server.user_latents",
                rows)
    tracer.wrap(LRUCache, "get", "serve.cache.get", hit)
    tracer.wrap(CDRIB, "encode_users_batch", "core.encode", encoded)
    tracer.wrap(ItemIndex, "top_k", "serve.item_index.top_k", rows)
    tracer.wrap(IVFIndex, "top_k", "serve.ann.top_k", rows)
    tracer.wrap(IVFIndex, "__init__", "serve.ann.build")
    tracer.wrap(CDRIB, "training_loss", "core.forward")
    tracer.wrap(Tensor, "backward", "autograd.backward")
    tracer.wrap(Adam, "step", "optim.step")
    tracer.wrap(NegativeSampler, "sample_batch_chained", "data.sampling")


# --------------------------------------------------------------------------- #
# Reduction
# --------------------------------------------------------------------------- #
def in_window(spans: List[Span], start: float, end: float) -> List[Span]:
    """Spans that started inside ``[start, end)``."""
    return [s for s in spans if start <= s[START] < end]


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time per span id: duration minus its direct children's."""
    own = {s[ID]: s[END] - s[START] for s in spans}
    for s in spans:
        if s[PARENT] in own:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def covered_time(intervals) -> float:
    """Length of the union of ``intervals``."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def self_time_table(spans: List[Span], wall: float,
                    timed: Dict[str, Tuple[int, float]]) -> dict:
    """Per-layer self time, reconciled with time the harness measured itself.

    ``timed`` maps the name of each program entry point the harness calls
    to the ``(calls, seconds)`` the harness counted and timed around those
    calls with its own clock.  For each entry point, the self times of all
    spans under its root spans plus the harness time (``wall`` minus the
    harness-timed seconds) must equal ``wall`` within
    :data:`RECONCILE_TOLERANCE` of it plus :data:`PER_CALL_ALLOWANCE_S` per
    call, and there must be one root span per call.  A wrapper that misses
    a call or times it wrongly breaks the check; so does a root span
    dropped from, or wrongly kept in, the measured window.
    """
    own = self_times(spans)
    parent = {s[ID]: s[PARENT] for s in spans}

    def root_of(span_id: int) -> int:
        while parent.get(span_id, -1) in parent:
            span_id = parent[span_id]
        return span_id

    names = {s[ID]: s[NAME] for s in spans}
    layers: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    under: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"roots": 0, "self_s": 0.0})
    for s in spans:
        row = layers[s[NAME]]
        row["calls"] += 1
        row["total_s"] += s[END] - s[START]
        row["self_s"] += own[s[ID]]
        root = root_of(s[ID])
        entry = under[names[root]]
        entry["self_s"] += own[s[ID]]
        if root == s[ID]:
            entry["roots"] += 1
    reconcile = []
    for name, (calls, seconds) in timed.items():
        traced = under.get(name, {"roots": 0, "self_s": 0.0})
        harness = wall - seconds
        error_s = abs(traced["self_s"] + harness - wall)
        allowed_s = RECONCILE_TOLERANCE * wall + PER_CALL_ALLOWANCE_S * calls
        reconcile.append({"entry": name, "calls": int(calls),
                          "root_spans": int(traced["roots"]),
                          "self_s": traced["self_s"], "harness_s": harness,
                          "wall_s": wall, "error_s": error_s,
                          "allowed_s": allowed_s,
                          "ok": (error_s <= allowed_s
                                 and traced["roots"] == calls)})
    for row in layers.values():
        row["self_share"] = row["self_s"] / wall if wall else 0.0
    return {"wall_s": wall, "tolerance": RECONCILE_TOLERANCE,
            "per_call_allowance_s": PER_CALL_ALLOWANCE_S,
            "layers": dict(sorted(layers.items(),
                                  key=lambda kv: -kv[1]["self_s"])),
            "entries": reconcile,
            "reconciled": bool(reconcile) and all(r["ok"] for r in reconcile)}


def format_table(table: dict) -> str:
    """Human-readable rendering of :func:`self_time_table`."""
    lines = [f"{'layer':<28}{'calls':>9}{'self_s':>10}{'total_s':>10}"
             f"{'self/wall':>10}"]
    for name, row in table["layers"].items():
        lines.append(f"{name:<28}{row['calls']:>9}{row['self_s']:>10.4f}"
                     f"{row['total_s']:>10.4f}{row['self_share']:>10.3f}")
    for entry in table["entries"]:
        lines.append(
            f"{entry['entry']}: self {entry['self_s']:.4f}s + harness "
            f"{entry['harness_s']:.4f}s vs wall {entry['wall_s']:.4f}s "
            f"(error {entry['error_s']:.2e}s, allowed {entry['allowed_s']:.2e}s);"
            f" {entry['root_spans']} root spans for {entry['calls']} calls")
    return "\n".join(lines)
