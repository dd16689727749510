"""The benchmark's four workloads.

Each workload function takes a :class:`Context` and returns a
:class:`Outcome`: the end-to-end figures, the figures specific to that
workload (with units and sample counts), the output checks and, in the
traced run, the per-layer figures.  The program is driven only through the
public API of ``repro.data``, ``repro.core``, ``repro.eval`` and
``repro.serve``; the scenario and model settings below are a frozen copy of
the repository's ``full`` profile, so a later edit of that profile does not
silently change a workload.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from . import inputs
from .common import CpuWindow, fastest_sweeps, peak_rss_mb, summary
from .loadgen import PhaseResult, run_open_loop
from .trace import (END, ID, NAME, PARENT, REQUEST, SIZE, START, Tracer,
                    covered_time, install_program_wrappers, in_window,
                    self_time_table)

# Set-ups per run; setup_s is their median.  The train set-up takes a
# fraction of a second, so it is repeated more to steady its median.
SETUP_REPEATS = {"train": 7, "serve-hot": 3, "serve-miss": 3,
                 "retrieve-200k": 3}

# music_movie at the full profile (scale 1.0), split as the paper runners do.
SCENARIO = "music_movie"
MODEL = dict(embedding_dim=64, num_layers=2, batch_size=256, num_negatives=4,
             learning_rate=0.02, beta1=0.5, beta2=0.5, dropout=0.0,
             contrastive_weight=0.2)
EVAL_NEGATIVES = 199

# Serving: optimisation steps behind the served model, front-end settings,
# the reference rates of the two serve workloads (well below what a 2-core
# box sustains, so the reference latency is not measured on a queueing
# cliff), the share of the run spent at the reference rate, the requests
# per capacity burst, and the latency limit of max_rps with the fixed rate
# ladder it is searched on.
SERVE_TRAIN_STEPS = 20
MAX_BATCH = 256
MAX_DELAY_S = 0.005
REFERENCE_RPS = {"serve-hot": 1500.0, "serve-miss": 1000.0}
REFERENCE_SHARE = 0.6
CAPACITY_REQUESTS = 4000
LIMIT_P99_MS = 20.0
MIN_ACHIEVED = 0.98
LADDER = tuple(int(round(250 * 1.25 ** i)) for i in range(24))
LADDER_ATTEMPTS = 14
RUNG_S = 0.5
MISS_CACHE_SHARE = 0.1

# Retrieval: catalogue shape, query stream and batch size.
CATALOGUE_ITEMS = 200_000
CATALOGUE_DIM = 64
QUERY_BATCH = 64
QUERY_BATCHES = 32
EXACT_PER_ROUND = 2
RECALL_FLOOR = 0.95
TOP_K = 10

# Every per-layer metric, reported by every traced run (0 where the layer
# stays idle on that workload).
LAYER_UNITS = {
    "serve.frontend.queue_wait_p50_ms": "ms",
    "serve.frontend.queue_wait_p99_ms": "ms",
    "serve.frontend.submit_us": "us",
    "serve.frontend.resolve_ms": "ms",
    "serve.batching.batch_size_mean": "count",
    "serve.batching.batch_size_p99": "count",
    "serve.batching.flushes": "count",
    "serve.batching.useful_flush_ratio": "ratio",
    "serve.batching.busy_share": "share",
    "serve.cache.hit_rate": "ratio",
    "serve.cache.lookups": "count",
    "core.encode_ms": "ms",
    "core.encode.users_per_call": "count",
    "core.encode.busy_share": "share",
    "serve.server.recommend_ms": "ms",
    "serve.item_index.top_k_us_per_user": "us",
    "serve.item_index.busy_share": "share",
    "serve.ann.top_k_ms_per_query": "ms",
    "serve.ann.build_s": "s",
    "serve.ann.candidates_frac": "ratio",
    "data.sampling.busy_s": "s",
    "core.forward_ms": "ms",
    "autograd.backward_ms": "ms",
    "optim.step_ms": "ms",
    "trainer.other_ms": "ms",
    "setup.scenario_s": "s",
    "setup.train_s": "s",
    "setup.index_s": "s",
    "setup.warm_s": "s",
    "loadgen.lateness_p50_ms": "ms",
    "loadgen.lateness_p99_ms": "ms",
    "loadgen.achieved_rps": "1/s",
    "proc.cpu_share": "share",
}


@dataclass
class Context:
    """What a workload run is asked to do."""

    workload: str
    seed: int
    seconds: int
    tracer: Optional[Tracer] = None


@dataclass
class Outcome:
    """Everything one workload run measured and checked."""

    e2e: Dict[str, float] = field(default_factory=dict)
    figures: Dict[str, dict] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    checks: List[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    extra: Dict[str, object] = field(default_factory=dict)

    def figure(self, name: str, value: float, unit: str, n: int) -> None:
        """Record a workload figure with its unit and sample count."""
        self.figures[name] = {"value": value, "unit": unit, "n": int(n)}

    def check(self, name: str, ok: bool, failed_ops: int = 0,
              detail: str = "") -> None:
        """Record an output check; ``failed_ops`` count as failed operations."""
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            self.failed += max(1, failed_ops)

    @property
    def correct(self) -> bool:
        """Whether every output check passed."""
        return all(c["ok"] for c in self.checks)


# --------------------------------------------------------------------------- #
# Shared set-up
# --------------------------------------------------------------------------- #
def build_scenario():
    """The paper's Music-Movie scenario at full scale (fixed split seed)."""
    from repro.data import (SyntheticCrossDomainGenerator, build_scenario,
                            paper_scenario_config)

    data = SyntheticCrossDomainGenerator(
        paper_scenario_config(SCENARIO, scale=1.0)).generate()
    return build_scenario(data.table_x, data.table_y, cold_start_ratio=0.2,
                          min_user_interactions=5, min_item_interactions=3,
                          seed=0)


def make_trainer(scenario, seed: int):
    """A fused-engine trainer over a fresh CDRIB model seeded by ``seed``."""
    from repro.core import CDRIB, CDRIBConfig, CDRIBTrainer

    model = CDRIB(scenario, CDRIBConfig(seed=seed, **MODEL))
    return CDRIBTrainer(model, engine="fused")


def timed_setups(phases, repeats: int) -> Dict[str, object]:
    """Run the set-up ``phases`` ``repeats`` times; keep the last result.

    ``phases`` is a function taking a dict of phase timers and returning the
    set-up's product.  Returns the product plus per-phase and total median
    times.
    """
    totals, per_phase, product = [], {}, None
    for _ in range(repeats):
        product = None  # release the previous set-up before building anew
        times: Dict[str, float] = {}
        start = time.perf_counter()
        product = phases(times)
        totals.append(time.perf_counter() - start)
        for name, value in times.items():
            per_phase.setdefault(name, []).append(value)
    phase_medians = {name: statistics.median(values)
                     for name, values in per_phase.items()}
    return {"product": product, "setup_s": statistics.median(totals),
            "setup_all_s": totals, "phases": phase_medians}


class PhaseTimer:
    """Accumulates wall time of named set-up phases into a dict."""

    def __init__(self, times: Dict[str, float], name: str):
        self.times, self.name = times, name

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.times[self.name] = (self.times.get(self.name, 0.0)
                                 + time.perf_counter() - self.start)


def empty_layers() -> Dict[str, float]:
    """All per-layer metrics at 0 (idle layer)."""
    return {name: 0.0 for name in LAYER_UNITS}


def fill_setup_layers(layers: Dict[str, float], setup: dict) -> None:
    """Per-phase set-up medians into the per-layer metrics."""
    for phase in ("scenario", "train", "index", "warm"):
        layers[f"setup.{phase}_s"] = setup["phases"].get(phase, 0.0)


def _durations(spans, name: str) -> np.ndarray:
    return np.array([s[END] - s[START] for s in spans if s[NAME] == name])


def _sizes(spans, name: str) -> np.ndarray:
    return np.array([s[SIZE] for s in spans if s[NAME] == name], dtype=float)


def _mean(values: np.ndarray) -> float:
    return float(values.mean()) if values.size else 0.0


def finish_trace(ctx: Context, outcome: Outcome, windows: List[tuple],
                 timed: Dict[str, tuple]) -> List[tuple]:
    """Spans of the measured ``windows``, plus the self-time reconciliation.

    ``timed`` maps each entry point the harness called in the windows to
    the ``(calls, seconds)`` it counted and timed itself.
    """
    spans = [s for start, end in windows
             for s in in_window(ctx.tracer.spans, start, end)]
    table = self_time_table(spans, sum(end - start for start, end in windows),
                            timed)
    outcome.extra["self_time"] = table
    outcome.check("trace_reconciles", table["reconciled"],
                  detail=f"tolerance {table['tolerance']} of wall + "
                  f"{table['per_call_allowance_s'] * 1e6:.0f} us per call")
    return spans


# --------------------------------------------------------------------------- #
# train
# --------------------------------------------------------------------------- #
def run_train(ctx: Context) -> Outcome:
    """Fused-engine training for a fixed step count, then the X->Y test."""
    from repro.eval import LeaveOneOutEvaluator
    from repro.serve import ColdStartServer

    outcome = Outcome()

    def phases(times):
        with PhaseTimer(times, "scenario"):
            scenario = build_scenario()
        with PhaseTimer(times, "train"):
            trainer = make_trainer(scenario, ctx.seed)
            evaluator = LeaveOneOutEvaluator(
                scenario, num_negatives=EVAL_NEGATIVES, seed=ctx.seed)
        return scenario, trainer, evaluator

    setup = timed_setups(phases, SETUP_REPEATS[ctx.workload])
    scenario, trainer, evaluator = setup["product"]
    # Whole epochs, so every run pays the same number of epoch presamples.
    epochs = max(1, ctx.seconds // 4)
    steps = epochs * trainer.steps_per_epoch()
    step_s, losses = [], []
    with CpuWindow() as cpu:
        for _ in range(steps):
            begin = time.perf_counter()
            if ctx.tracer is None:
                losses.extend(trainer.run_steps(1))
            else:
                losses.extend(ctx.tracer.call("trainer.step",
                                              trainer.run_steps, (1,), {}))
            step_s.append(time.perf_counter() - begin)
    window = (cpu.wall0, cpu.wall0 + cpu.wall)
    outcome.attempted = steps

    source, target = scenario.domain_x.name, scenario.domain_y.name
    model = trainer.model
    model.refresh_eval_cache()
    result = evaluator.evaluate_direction(
        trainer.make_scorer(source, target), source, target, "test")
    # The same ranking through the serving path: its scores agree with the
    # training-time scorer up to float rounding, so at most one record's
    # rank may move.
    server = ColdStartServer(model, source, target)
    replay = evaluator.evaluate_direction(server.score_pairs, source, target,
                                          "test")
    records = result.metrics.num_records
    test_mrr = 100.0 * result.metrics.mrr
    replay_mrr = 100.0 * replay.metrics.mrr
    candidates = EVAL_NEGATIVES + 1
    random_mrr = 100.0 * sum(1.0 / r for r in range(1, candidates + 1)) / candidates
    outcome.attempted += 2 * records

    finite = int(np.sum(~np.isfinite(losses)))
    outcome.check("losses_finite", finite == 0, finite,
                  f"{finite} non-finite of {len(losses)}")
    outcome.check("test_mrr_reproduced",
                  abs(test_mrr - replay_mrr) <= 100.0 / max(1, records),
                  1, f"{test_mrr:.6f} vs serving path {replay_mrr:.6f}")
    outcome.check("test_mrr_above_random", test_mrr > 1.5 * random_mrr, 1,
                  f"{test_mrr:.4f} vs random {random_mrr:.4f}")

    # Epochs are the sweeps of fastest_sweeps: steps within an epoch differ
    # in cost (presampling, pools running dry), epochs do not.
    per_epoch = trainer.steps_per_epoch()
    fast = fastest_sweeps([step_s[i:i + per_epoch]
                           for i in range(0, steps, per_epoch)])
    step_ms = summary(fast * 1e3)
    rate = fast.size / float(fast.sum())
    outcome.e2e = {"setup_s": setup["setup_s"], "peak_rss_mb": peak_rss_mb(),
                   "throughput_per_s": rate, "p50_ms": step_ms["p50"]}
    outcome.extra.update(step_ms=step_ms, setup_all_s=setup["setup_all_s"],
                         all_steps_per_s=steps / float(np.sum(step_s)),
                         step_s=step_s)
    outcome.figure("setup_s", setup["setup_s"], "s",
                   SETUP_REPEATS[ctx.workload])
    outcome.figure("train_steps_per_s", rate, "steps/s", fast.size)
    outcome.figure("step_p50_ms", step_ms["p50"], "ms", step_ms["n"])
    outcome.figure(f"step_p{step_ms['tail_pct']}_ms", step_ms["tail"], "ms",
                   step_ms["n"])
    outcome.figure("test_mrr", test_mrr, "MRRx100", records)

    if ctx.tracer is not None:
        spans = finish_trace(ctx, outcome, [window],
                             {"trainer.step": (steps, float(np.sum(step_s)))})
        layers = empty_layers()
        fill_setup_layers(layers, setup)
        layers["data.sampling.busy_s"] = float(
            _durations(spans, "data.sampling").sum())
        for metric, name in (("core.forward_ms", "core.forward"),
                             ("autograd.backward_ms", "autograd.backward"),
                             ("optim.step_ms", "optim.step")):
            layers[metric] = 1e3 * float(_durations(spans, name).sum()) / steps
        own = outcome.extra["self_time"]["layers"].get("trainer.step", {})
        layers["trainer.other_ms"] = 1e3 * own.get("self_s", 0.0) / steps
        layers["proc.cpu_share"] = cpu.share
        outcome.layers = layers
    return outcome


# --------------------------------------------------------------------------- #
# serve-hot / serve-miss
# --------------------------------------------------------------------------- #
def _recording_server_class():
    from repro.serve import ColdStartServer

    class RecordingServer(ColdStartServer):
        """Logs every served batch so it can be replayed synchronously."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.log: List[tuple] = []

        def recommend(self, users, k=None):
            recommendations = super().recommend(users, k=k)
            self.log.append((np.array(users, dtype=np.int64), k,
                             recommendations))
            return recommendations

    return RecordingServer


def _passes(phase: PhaseResult) -> bool:
    latency = phase.latency_ms
    return (phase.failed == 0 and latency.size > 0
            and float(np.percentile(latency, 99)) <= LIMIT_P99_MS
            and phase.achieved_rps >= MIN_ACHIEVED * phase.offered_rps)


def run_serve(ctx: Context) -> Outcome:
    """Open-loop Poisson traffic through ServingFrontend on the exact index.

    ``serve-hot``: 80/20-skewed users, cache warmed with every source user.
    ``serve-miss``: uniform users, cache holding a tenth of them.
    """
    from repro.serve import ColdStartServer, RequestBatcher, ServingFrontend

    hot = ctx.workload == "serve-hot"
    outcome = Outcome()
    recording_server = _recording_server_class()

    def phases(times):
        with PhaseTimer(times, "scenario"):
            scenario = build_scenario()
        with PhaseTimer(times, "train"):
            trainer = make_trainer(scenario, ctx.seed)
            trainer.run_steps(SERVE_TRAIN_STEPS)
        source, target = scenario.domain_x.name, scenario.domain_y.name
        num_users = scenario.domain_x.graph.num_users
        capacity = (num_users if hot
                    else max(1, int(round(MISS_CACHE_SHARE * num_users))))
        with PhaseTimer(times, "index"):
            server = recording_server(trainer.model, source, target,
                                      top_k=TOP_K, cache_capacity=capacity,
                                      index_backend="exact")
        warm = (np.arange(num_users) if hot
                else inputs.warm_users(ctx.seed, num_users, capacity))
        with PhaseTimer(times, "warm"):
            server.user_latents(warm)
        return trainer.model, server, source, target, num_users, capacity, warm

    setup = timed_setups(phases, SETUP_REPEATS[ctx.workload])
    model, server, source, target, num_users, capacity, warm = setup["product"]

    def traffic(count: int, part: int):
        if hot:
            return inputs.skewed_users(ctx.seed, num_users, count, part)
        return inputs.uniform_users(ctx.seed, num_users, count, part)

    def run_phase(users: np.ndarray, offsets: np.ndarray) -> PhaseResult:
        # The harness keeps every served list for the replay check; freezing
        # what exists keeps garbage collection of that retained state (a
        # cost no real server pays) out of the measured latencies.
        gc.collect()
        gc.freeze()
        frontend = ServingFrontend(server, max_batch_size=MAX_BATCH,
                                   max_delay=MAX_DELAY_S)
        try:
            return run_open_loop(frontend, users, offsets, ctx.tracer)
        finally:
            frontend.close()

    def poisson_phase(rate: float, seconds: float, part: int) -> PhaseResult:
        count = max(200, int(round(rate * seconds)))
        return run_phase(traffic(count, part),
                         inputs.poisson_schedule(ctx.seed, rate, count, part))

    # The reference phase runs as one-second segments of Poisson traffic,
    # each followed by a capacity burst: the serving core's capacity is the
    # same traffic pushed through the synchronous batcher, flushing at the
    # full batch size, with one thread doing all the work (thread
    # hand-offs under the interpreter lock make front-end saturation runs
    # bimodal on 2 cores).  Interleaving spreads both figures over the
    # whole phase, so a slow spell of the machine moves one segment's
    # numbers rather than the run's medians.
    reference_rps = REFERENCE_RPS[ctx.workload]
    segments: List[PhaseResult] = []
    cpu_windows: List[CpuWindow] = []
    capacity_rps, served_sync = [], []
    for segment in range(max(1, int(round(REFERENCE_SHARE * ctx.seconds)))):
        with CpuWindow() as cpu:
            segments.append(poisson_phase(reference_rps, 1.0, part=segment))
        cpu_windows.append(cpu)
        users = traffic(CAPACITY_REQUESTS, 1000 + segment)
        gc.collect()
        gc.freeze()
        batcher = RequestBatcher(server, max_batch_size=MAX_BATCH)
        begin = time.perf_counter()
        tickets = [batcher.submit(int(user)) for user in users]
        batcher.flush()
        capacity_rps.append(len(users) / (time.perf_counter() - begin))
        served_sync.append((users, [t.result() for t in tickets]))
    # The fastest quarter of the bursts, as in fastest_sweeps.
    fastest = sorted(capacity_rps, reverse=True)
    serving_capacity = float(np.mean(fastest[:max(1, len(fastest) // 4)]))
    phases_run = list(segments)
    # Peak memory of serving at the reference rate; the ladder only adds
    # retained lists for the replay check.
    rss = peak_rss_mb()

    # max_rps: from the rung nearest the reference rate, walk the fixed
    # ladder up to the first rung that misses the limit twice (or, when
    # that first rung misses, down to the first that meets it), within
    # LADDER_ATTEMPTS rung runs.  Rung i always gets the same users and
    # schedule.
    rungs: List[dict] = []

    def rung_passes(rung: int) -> bool:
        for attempt in range(2):
            phase = poisson_phase(LADDER[rung], RUNG_S, part=100 + rung)
            phases_run.append(phase)
            passed = _passes(phase)
            rungs.append(_rung_health(phase, rung, attempt, passed))
            if passed:
                return True
        return False

    low = -1
    rung = int(np.argmin(np.abs(np.asarray(LADDER) - reference_rps)))
    step = 1 if rung_passes(rung) else -1
    if step == 1:
        low = rung
    while 0 <= rung + step < len(LADDER) and len(rungs) < LADDER_ATTEMPTS:
        rung += step
        passed = rung_passes(rung)
        if passed:
            low = rung
        if passed != (step == 1):
            break
    max_rps = float(LADDER[low]) if low >= 0 else 0.0
    # With the attempt budget spent while still climbing, max_rps is only a
    # lower bound.
    ladder_capped = step == 1 and bool(rungs) and rungs[-1]["pass"]

    # Output check: replay every served batch, in order, through a
    # synchronous server with the same cache capacity and warm-up; lists
    # must be bit-identical.  Every ticket must carry its own user's list,
    # and each served list must reach exactly one ticket.
    replay_server = ColdStartServer(model, source, target, top_k=TOP_K,
                                    cache_capacity=capacity,
                                    index_backend="exact")
    replay_server.user_latents(warm)
    mismatched = 0
    served_ids = {}
    for users, k, served in server.log:
        expected = replay_server.recommend(users, k=k)
        for got, want in zip(served, expected):
            served_ids[id(got)] = 0
            if not (got.user == want.user
                    and np.array_equal(got.items, want.items)
                    and np.array_equal(got.scores, want.scores)):
                mismatched += 1
    failed_requests, wrong_ticket = 0, 0
    answered = [(p.users, p.results) for p in phases_run] + served_sync
    for phase in phases_run:
        failed_requests += phase.failed
    for phase_users, results in answered:
        for user, result in zip(phase_users, results):
            if result is None:
                continue
            if result.user != int(user) or served_ids.get(id(result)) != 0:
                wrong_ticket += 1
            else:
                served_ids[id(result)] = 1
    total_requests = sum(len(users) for users, _ in answered)
    outcome.attempted = total_requests
    outcome.check("requests_succeeded", failed_requests == 0, failed_requests,
                  f"{failed_requests} of {total_requests} failed")
    outcome.check("bit_identical_to_synchronous", mismatched == 0, mismatched,
                  f"{mismatched} mismatching lists")
    outcome.check("each_list_to_its_ticket", wrong_ticket == 0, wrong_ticket,
                  f"{wrong_ticket} misrouted")

    latency = np.concatenate([p.latency_ms for p in segments])
    p50 = float(np.percentile(latency, 50))
    p99_segments = [float(np.percentile(p.latency_ms, 99)) for p in segments]
    p99 = statistics.median(p99_segments)
    outcome.e2e = {"setup_s": setup["setup_s"], "peak_rss_mb": rss,
                   "throughput_per_s": serving_capacity, "p50_ms": p50}
    outcome.figure("setup_s", setup["setup_s"], "s",
                   SETUP_REPEATS[ctx.workload])
    outcome.figure("p50_ms", p50, "ms", latency.size)
    outcome.figure("p99_ms", p99, "ms", latency.size)
    outcome.figure("max_rps", max_rps, "req/s", len(rungs))
    outcome.figure("serving_capacity_rps", serving_capacity, "req/s",
                   len(capacity_rps) * CAPACITY_REQUESTS)
    outcome.extra.update(reference_rps=reference_rps,
                         reference_achieved_rps=[p.achieved_rps
                                                 for p in segments],
                         reference_p99_whole_ms=float(np.percentile(latency, 99)),
                         reference_p99_segments_ms=p99_segments,
                         capacity_bursts_rps=capacity_rps, ladder=rungs,
                         ladder_capped=ladder_capped,
                         setup_all_s=setup["setup_all_s"])

    if ctx.tracer is not None:
        outcome.layers = _serve_layers(ctx, outcome, segments, cpu_windows,
                                       setup)
    return outcome


def _rung_health(phase: PhaseResult, rung: int, attempt: int,
                 passed: bool) -> dict:
    """Generator health and the limit's inputs for one ladder rung."""
    latency = phase.latency_ms
    return {"rung": rung, "attempt": attempt,
            "offered_rps": phase.offered_rps,
            "achieved_rps": phase.achieved_rps,
            "p99_ms": float(np.percentile(latency, 99))
            if latency.size else float("nan"),
            "lateness_p50_ms": float(np.percentile(phase.lateness_ms, 50)),
            "lateness_p99_ms": float(np.percentile(phase.lateness_ms, 99)),
            "requests": len(phase.users), "failed": phase.failed,
            "pass": bool(passed)}


def _serve_layers(ctx: Context, outcome: Outcome,
                  segments: List[PhaseResult], cpu_windows: List[CpuWindow],
                  setup: dict) -> Dict[str, float]:
    """Per-layer figures of the reference-rate segments."""
    layers = empty_layers()
    fill_setup_layers(layers, setup)
    submitted = [p.returned - p.submitted for p in segments]
    answered = [(p.woke - p.collected)[np.isfinite(p.collected)]
                for p in segments]
    spans = finish_trace(
        ctx, outcome, [(p.start, p.end) for p in segments],
        {"serve.frontend.submit": (sum(t.size for t in submitted),
                                   float(sum(t.sum() for t in submitted))),
         "serve.frontend.result": (sum(t.size for t in answered),
                                   float(sum(t.sum() for t in answered)))})
    wall = sum(p.end - p.start for p in segments)
    recommend = [s for s in spans if s[NAME] == "serve.server.recommend"]
    served_flush_ids = {s[PARENT] for s in recommend}
    flushes = sorted((s for s in spans if s[NAME] == "serve.batching.flush"
                      and s[ID] in served_flush_ids), key=lambda s: s[START])
    polls = [s for s in spans if s[NAME] == "serve.batching.poll"]
    poll_ids = {s[ID] for s in polls}
    direct_flushes = [s for s in spans if s[NAME] == "serve.batching.flush"
                      and s[PARENT] not in poll_ids]

    # Each request is served by the first flush to start after the batcher
    # enqueued it; the batcher is serialised by the front-end's lock, so
    # this order is exact.  Request indices restart in every segment.
    flush_starts = np.array([s[START] for s in flushes])
    waits, resolves = [], []
    for phase in segments:
        for s in in_window(spans, phase.start, phase.end):
            if s[NAME] != "serve.batching.submit" or s[REQUEST] < 0:
                continue
            j = int(np.searchsorted(flush_starts, s[START], side="right"))
            if j >= len(flushes):
                continue
            request = s[REQUEST]
            waits.append(max(0.0, flushes[j][START] - phase.returned[request]))
            resolves.append(phase.woke[request] - flushes[j][END])
    if waits:
        layers["serve.frontend.queue_wait_p50_ms"] = 1e3 * float(np.percentile(waits, 50))
        layers["serve.frontend.queue_wait_p99_ms"] = 1e3 * float(np.percentile(waits, 99))
        layers["serve.frontend.resolve_ms"] = 1e3 * float(np.median(resolves))
    submits = _durations(spans, "serve.frontend.submit")
    if submits.size:
        layers["serve.frontend.submit_us"] = 1e6 * float(np.median(submits))

    sizes = _sizes(spans, "serve.server.recommend")
    if sizes.size:
        layers["serve.batching.batch_size_mean"] = float(sizes.mean())
        layers["serve.batching.batch_size_p99"] = float(np.percentile(sizes, 99))
    layers["serve.batching.flushes"] = float(len(flushes))
    attempts = len(polls) + len(direct_flushes)
    layers["serve.batching.useful_flush_ratio"] = (
        len(flushes) / attempts if attempts else 0.0)
    layers["serve.batching.busy_share"] = covered_time(
        (s[START], s[END]) for s in flushes) / wall

    hits = _sizes(spans, "serve.cache.get")
    layers["serve.cache.lookups"] = float(hits.size)
    layers["serve.cache.hit_rate"] = _mean(hits)

    encode = _durations(spans, "core.encode")
    layers["core.encode_ms"] = 1e3 * _mean(encode)
    layers["core.encode.users_per_call"] = _mean(_sizes(spans, "core.encode"))
    layers["core.encode.busy_share"] = float(encode.sum()) / wall
    layers["serve.server.recommend_ms"] = 1e3 * _mean(
        _durations(spans, "serve.server.recommend"))
    top_k = _durations(spans, "serve.item_index.top_k")
    rows = _sizes(spans, "serve.item_index.top_k").sum()
    layers["serve.item_index.top_k_us_per_user"] = (
        1e6 * float(top_k.sum()) / rows if rows else 0.0)
    layers["serve.item_index.busy_share"] = float(top_k.sum()) / wall

    lateness = np.concatenate([p.lateness_ms for p in segments])
    layers["loadgen.lateness_p50_ms"] = float(np.percentile(lateness, 50))
    layers["loadgen.lateness_p99_ms"] = float(np.percentile(lateness, 99))
    layers["loadgen.achieved_rps"] = float(np.median(
        [p.achieved_rps for p in segments]))
    layers["proc.cpu_share"] = (sum(c.cpu for c in cpu_windows)
                                / sum(c.wall for c in cpu_windows)
                                / (os.cpu_count() or 1))
    return layers


# --------------------------------------------------------------------------- #
# retrieve-200k
# --------------------------------------------------------------------------- #
def run_retrieve(ctx: Context) -> Outcome:
    """Top-10 at batch 64 over a 200k-item clustered catalogue: IVF and exact."""
    from repro.eval import recall_against_exact
    from repro.serve import IVFIndex, ItemIndex, brute_force_ranking

    outcome = Outcome()
    num_queries = QUERY_BATCH * QUERY_BATCHES

    def phases(times):
        with PhaseTimer(times, "scenario"):
            catalogue, queries = inputs.clustered_catalogue(
                ctx.seed, CATALOGUE_ITEMS, CATALOGUE_DIM, num_queries)
        with PhaseTimer(times, "index"):
            exact = ItemIndex(catalogue)
            ivf = IVFIndex(catalogue)
        with PhaseTimer(times, "warm"):
            exact.top_k(queries[:QUERY_BATCH], TOP_K)
            ivf.top_k(queries[:QUERY_BATCH], TOP_K)
        return catalogue, queries, exact, ivf

    setup = timed_setups(phases, SETUP_REPEATS[ctx.workload])
    catalogue, queries, exact, ivf = setup["product"]
    batches = [queries[b:b + QUERY_BATCH]
               for b in range(0, num_queries, QUERY_BATCH)]
    # Each round sweeps every batch through IVF and EXACT_PER_ROUND of them
    # through exact search, so exact covers the stream once per
    # QUERY_BATCHES / EXACT_PER_ROUND rounds.
    rounds = max(1, ctx.seconds)
    ivf_s: List[List[float]] = []
    exact_s: List[List[float]] = []
    ivf_lists: List[np.ndarray] = [None] * len(batches)
    exact_lists: Dict[int, np.ndarray] = {}
    unstable = 0
    with CpuWindow() as cpu:
        for r in range(rounds):
            ivf_s.append([])
            for b, batch in enumerate(batches):
                begin = time.perf_counter()
                items, _ = ivf.top_k(batch, TOP_K)
                ivf_s[-1].append(time.perf_counter() - begin)
                if ivf_lists[b] is None:
                    ivf_lists[b] = items
                elif not np.array_equal(ivf_lists[b], items):
                    unstable += 1
            exact_s.append([])
            for b in range(r * EXACT_PER_ROUND, (r + 1) * EXACT_PER_ROUND):
                b %= len(batches)
                begin = time.perf_counter()
                items, _ = exact.top_k(batches[b], TOP_K)
                exact_s[-1].append(time.perf_counter() - begin)
                exact_lists.setdefault(b, items)
    window = (cpu.wall0, cpu.wall0 + cpu.wall)
    outcome.attempted = rounds * (len(batches) + EXACT_PER_ROUND)

    covered = sorted(exact_lists)
    recall = recall_against_exact(
        np.concatenate([ivf_lists[b] for b in covered]),
        np.concatenate([exact_lists[b] for b in covered]))
    sample = batches[covered[0]][:16]
    exact_sample, _ = exact.top_k(sample, TOP_K)
    brute_mismatch = sum(
        not np.array_equal(brute_force_ranking(catalogue @ q)[:TOP_K], row)
        for q, row in zip(sample, exact_sample))
    ivf_items, ivf_scores = ivf.top_k(sample, TOP_K)
    score_ok = all(np.allclose(catalogue[items] @ q, scores, rtol=1e-9,
                               atol=1e-12)
                   for q, items, scores in zip(sample, ivf_items, ivf_scores))
    outcome.check("ivf_recall_at_10", recall >= RECALL_FLOOR, 1,
                  f"{recall:.4f} vs floor {RECALL_FLOOR}")
    outcome.check("exact_matches_brute_force", brute_mismatch == 0,
                  brute_mismatch, f"{brute_mismatch} of {len(sample)} differ")
    outcome.check("ivf_scores_are_inner_products", score_ok, 1)
    outcome.check("ivf_deterministic", unstable == 0, unstable,
                  f"{unstable} repeated batches differ")

    # IVF figures come from each batch's fastest call of the run (best of
    # ``rounds``): a batch is the same work in every round, and other
    # tenants only ever add time to it, for spells longer than a round.
    # Every batch still weighs once.
    best = np.min(np.asarray(ivf_s), axis=0)
    ivf_qps = best.size * QUERY_BATCH / float(best.sum())
    p50 = float(np.median(best)) * 1e3
    all_ms = summary(np.concatenate(ivf_s) * 1e3)
    fast_exact = fastest_sweeps(exact_s, min_ops=1)
    exact_qps = fast_exact.size * QUERY_BATCH / float(fast_exact.sum())
    outcome.e2e = {"setup_s": setup["setup_s"], "peak_rss_mb": peak_rss_mb(),
                   "throughput_per_s": ivf_qps, "p50_ms": p50}
    outcome.figure("setup_s", setup["setup_s"], "s",
                   SETUP_REPEATS[ctx.workload])
    outcome.figure("ivf_qps", ivf_qps, "queries/s", best.size * QUERY_BATCH)
    outcome.figure("exact_qps", exact_qps, "queries/s",
                   fast_exact.size * QUERY_BATCH)
    outcome.figure("ivf_call_p50_ms", p50, "ms", best.size)
    outcome.figure(f"ivf_call_all_p{all_ms['tail_pct']}_ms", all_ms["tail"],
                   "ms", all_ms["n"])
    outcome.figure("ivf_recall_at_10", recall, "fraction",
                   len(covered) * QUERY_BATCH)
    outcome.extra.update(ivf_call_all_ms=all_ms, ivf_s=ivf_s, exact_s=exact_s,
                         exact_call_ms=summary(fast_exact * 1e3),
                         setup_all_s=setup["setup_all_s"],
                         num_clusters=ivf.num_clusters, nprobe=ivf.nprobe)

    if ctx.tracer is not None:
        spans = finish_trace(
            ctx, outcome, [window],
            {"serve.ann.top_k": (sum(map(len, ivf_s)),
                                 float(sum(map(sum, ivf_s)))),
             "serve.item_index.top_k": (sum(map(len, exact_s)),
                                        float(sum(map(sum, exact_s))))})
        layers = empty_layers()
        fill_setup_layers(layers, setup)
        wall = window[1] - window[0]
        ann = _durations(spans, "serve.ann.top_k")
        ann_rows = _sizes(spans, "serve.ann.top_k").sum()
        layers["serve.ann.top_k_ms_per_query"] = (
            1e3 * float(ann.sum()) / ann_rows if ann_rows else 0.0)
        builds = _durations(ctx.tracer.spans, "serve.ann.build")
        layers["serve.ann.build_s"] = float(np.median(builds)) if builds.size else 0.0
        layers["serve.ann.candidates_frac"] = candidates_fraction(ivf, queries)
        top_k = _durations(spans, "serve.item_index.top_k")
        rows = _sizes(spans, "serve.item_index.top_k").sum()
        layers["serve.item_index.top_k_us_per_user"] = (
            1e6 * float(top_k.sum()) / rows if rows else 0.0)
        layers["serve.item_index.busy_share"] = float(top_k.sum()) / wall
        layers["proc.cpu_share"] = cpu.share
        outcome.layers = layers
    return outcome


def candidates_fraction(index, queries: np.ndarray) -> float:
    """Expected share of the catalogue an IVF query scores.

    Derived from the index's public ``centroids``, ``nprobe`` and
    ``item_latents``: items are assigned to their nearest centroid, each
    query probes its ``nprobe`` best centroids by inner product, and the
    candidates are the items of those cells.
    """
    centroids = index.centroids
    half_norms = 0.5 * np.einsum("cf,cf->c", centroids, centroids)
    latents = np.asarray(index.item_latents, dtype=np.float64)
    cells = np.concatenate([
        np.argmax(latents[b:b + 65536] @ centroids.T - half_norms, axis=1)
        for b in range(0, latents.shape[0], 65536)])
    sizes = np.bincount(cells, minlength=centroids.shape[0])
    nprobe = min(index.nprobe, centroids.shape[0])
    coarse = queries @ centroids.T
    probed = np.argpartition(coarse, coarse.shape[1] - nprobe,
                             axis=1)[:, coarse.shape[1] - nprobe:]
    return float(sizes[probed].sum(axis=1).mean() / latents.shape[0])


WORKLOADS = {
    "train": run_train,
    "serve-hot": run_serve,
    "serve-miss": run_serve,
    "retrieve-200k": run_retrieve,
}


def run(ctx: Context) -> Outcome:
    """Run one workload; with a tracer, wrap the program's layers first."""
    if ctx.tracer is not None:
        install_program_wrappers(ctx.tracer)
    try:
        return WORKLOADS[ctx.workload](ctx)
    finally:
        if ctx.tracer is not None:
            ctx.tracer.uninstall()
