"""Served workloads: bulk-score and hot-score.

Load comes from this one process and its one asyncio thread.  Every
request goes through a ``ShardRouter`` (one connection per shard) to a
``ClusterSupervisor`` fleet, and passes ``backend="native"``.

The traced run peels the layers by replaying the same input stream at
the same concurrency at four entry points:

1. routed (``ShardRouter``), untraced and then traced;
2. an ``AsyncAlignmentClient`` straight to shard 0, sending only the
   inputs shard 0 owns, so its per-shard load and cache stay as routed;
3. an in-process ``AlignmentEngine`` fed batches of the mean batch size
   the shards were observed to dispatch;
4. the backend's own ``score_many`` on ``prepare``d, shape-bucketed pairs.

A layer's self cost is the difference between adjacent entry points.
Shard-side counts come only from the fleet's public surfaces: the
``metrics`` exposition, ``router_stats()`` and ``/proc``.
"""

from __future__ import annotations

import asyncio
import itertools
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import check
import gen
import measure
from fragalign.cluster.router import ShardRouter
from fragalign.cluster.supervisor import ClusterSupervisor
from fragalign.engine import AlignmentEngine, get_backend
from fragalign.obs.metrics import parse_exposition
from fragalign.service.client import AsyncAlignmentClient
from fragalign.service.protocol import decode_line, encode_line, parse_request

BACKEND = "native"
ROUTER_CONCURRENCY = 64  # ShardRouter.score_many's default per-call fan-out
WARM_CHUNK = 1024  # pairs per warm-up call
ANSWER_ITEMS = 2048  # leading stream items whose served scores make the answer total
IN_PROCESS_ITEMS = 4096  # items the traced run's in-process entry points replay
PROBE_ITERATIONS = 5_000  # about 0.5 ms: the host-speed probe in the load generator
PROBE_EVERY_TICKS = 20  # one probe per 20 lag ticks (>= 100 ms): 0.5% of the loop
PHASE_TIMEOUT_S = 120.0
COUNTERS = (
    "fragalign_batches_total", "fragalign_batched_pairs_total", "fragalign_coalesced_total",
    "fragalign_cache_hits", "fragalign_cache_misses", "fragalign_cache_evictions",
    "fragalign_kernel_calls_total", "fragalign_kernel_pairs_total",
    "fragalign_kernel_cells_total", "fragalign_kernel_seconds_total",
)


def knobs(item: dict) -> dict:
    return {k: item[k] for k in check.KNOBS if item.get(k) is not None}


# -- inputs ---------------------------------------------------------------

class Inputs:
    """One workload's seeded inputs with their expected answers.

    Operations (lists of items) come from one shared cursor over the
    item stream, so a later phase continues where the previous one
    stopped and never replays inputs the caches still hold.
    """

    def __init__(self, spec: dict, seed: int, engine: AlignmentEngine, cache_entries: int) -> None:
        self.spec = spec
        self.kind = spec["op"]
        self.limit_s = spec["latency_limit_ms"] / 1e3
        self.pos = 0
        g = spec["generator"]
        rng = np.random.default_rng([seed, 1])
        self.warm_items: list[dict] = []
        length = g["read_len"]
        base = {"op": "score", **spec["knobs"]}
        n = g.get("pool_pairs") or g["keyset_pairs"]
        pool = [dict(base, a=a, b=b) for a, b in
                gen.unique_pairs(rng, n, length, g["sub_rate"], g["indel_rate"])]
        self.items = pool
        if "zipf_s" in g:
            fresh = [dict(base, a=a, b=b) for a, b in gen.unique_pairs(
                rng, g["fresh_pool_pairs"], length, g["sub_rate"], g["indel_rate"],
                exclude={(i["a"], i["b"]) for i in pool})]
            ranks = gen.zipf_ranks(rng, len(pool), g["zipf_s"], g["stream_len"])
            is_fresh = rng.random(g["stream_len"]) < g["fresh_fraction"]
            fresh_idx = itertools.cycle(range(len(fresh)))
            self.items = [fresh[next(fresh_idx)] if f else pool[r] for r, f in zip(ranks, is_fresh)]
            # Warm the hottest keys the fleet's caches can hold, coldest
            # first: the caches end as a full warm of the keyset would
            # leave them, without the inserts that full warm evicts.
            self.warm_items = pool[:cache_entries][::-1]
            pool = pool + fresh
        # The set-up's first request: one pair no phase sends.
        a, b = gen.pair(np.random.default_rng([seed, 3]), 128, 0.08, 0.02)
        self.first = {"op": "score", "a": a, "b": b, "mode": "global"}
        todo = pool + [self.first]
        for item, score in zip(todo, check.expected_scores(engine, todo)):
            item["expected"] = score

    def stream(self, owner=None):
        """Operations forever: 256-item calls for bulk-score, single
        items otherwise, continuing from the shared cursor."""
        per_call = self.spec.get("pairs_per_call", 1)
        while True:
            op = []
            while len(op) < per_call:
                item = self.items[self.pos % len(self.items)]
                self.pos += 1
                if owner is None or owner(item):
                    op.append(item)
            yield op

    @staticmethod
    def wrong(items: list[dict], results) -> int:
        """Number of results that are not the expected score."""
        bad = sum(res != item["expected"] for item, res in zip(items, results))
        return bad + abs(len(items) - len(results))

    def answer_items(self) -> list[dict]:
        """The stream's first ``ANSWER_ITEMS`` items, which every run
        sends first: the sum of their served scores is the run's answer
        total.  Each is checked against its expected score, so the total
        is fixed by the seed; an item the run did not answer adds nothing."""
        return self.items[:ANSWER_ITEMS]


# -- calls ----------------------------------------------------------------

async def call(target, kind: str, items: list[dict]) -> list:
    """One operation against a router or a direct client."""
    if kind == "score_many":
        if isinstance(target, ShardRouter):
            return await target.score_many(
                [(i["a"], i["b"]) for i in items], backend=BACKEND, **knobs(items[0]))
        sem = asyncio.Semaphore(ROUTER_CONCURRENCY)

        async def one(i: dict) -> float:
            async with sem:
                return await target.score(i["a"], i["b"], backend=BACKEND, **knobs(i))

        out = await asyncio.gather(*(one(i) for i in items), return_exceptions=True)
        for res in out:
            if isinstance(res, BaseException):
                raise res
        return out
    item = items[0]
    return [await target.score(item["a"], item["b"], backend=BACKEND, **knobs(item))]


class Phase:
    """The tallies of one timed phase.

    Each operation is checked and counted as it completes, and only
    its latency (a float) is kept: a load generator that kept every
    request's items and answers would grow its heap by a few hundred
    thousand objects a run, and each pass of the garbage collector
    over them would stall every request in flight.
    """

    def __init__(self, inputs: Inputs, keep_sent: int = 0) -> None:
        self.inputs = inputs
        self.latencies: list[float] = []  # completed operations only
        self.lags: list[float] = []
        self.attempted = self.failed = self.wrong = self.in_limit = 0
        self.answer_ids = frozenset(id(i) for i in inputs.answer_items())
        self.answers: dict[int, float] = {}  # id(item) -> served score
        self.sent: list[dict] = []  # the first ``keep_sent`` items sent
        self.keep_sent = keep_sent
        self.errors: list[str] = []
        self.speed = measure.HostSpeed()
        self.start = self.end = 0.0

    def add(self, items: list[dict], results: list | None, start: float, end: float,
            error: Exception | None) -> None:
        n = len(items)
        self.attempted += n
        self.end = max(self.end, end)
        if len(self.sent) < self.keep_sent:
            self.sent.extend(items)
        if error is not None:
            self.failed += n
            if len(self.errors) < 5:
                self.errors.append(repr(error))
            return
        bad = self.inputs.wrong(items, results)
        self.wrong += bad
        latency = end - start
        self.latencies.append(latency)
        if latency <= self.inputs.limit_s:
            self.in_limit += n - bad
        for item, res in zip(items, results):
            if id(item) in self.answer_ids:
                self.answers[id(item)] = res

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def answer_total(self) -> float:
        return float(sum(self.answers.get(id(i), 0.0) for i in self.inputs.answer_items()))

    def throughput(self) -> float:
        return self.completed / (self.end - self.start)


async def _timed_call(phase: Phase, spans, name: str, target, kind, items, t0, rid) -> None:
    token = spans.open(name, rid=rid)
    try:
        res, err = await call(target, kind, items), None
    except Exception as exc:  # a failed request is counted, not fatal
        res, err = None, exc
    spans.close(token)
    phase.add(items, res, t0, time.perf_counter(), err)


async def closed_loop(phase: Phase, target, kind, ops, callers: int, seconds: float, spans,
                      name: str) -> Phase:
    rid = itertools.count()
    phase.start = time.perf_counter()
    end = phase.start + seconds

    async def caller() -> None:
        while (t0 := time.perf_counter()) < end:
            await _timed_call(phase, spans, name, target, kind, next(ops), t0, next(rid))

    async def ticker() -> None:  # event-loop lag of the load generator, and host speed
        for tick in itertools.count(1):
            if (t := time.perf_counter()) >= end:
                break
            await asyncio.sleep(0.005)
            phase.lags.append(time.perf_counter() - t - 0.005)
            if tick % PROBE_EVERY_TICKS == 0:
                phase.speed.probe(PROBE_ITERATIONS)

    await asyncio.wait_for(asyncio.gather(ticker(), *(caller() for _ in range(callers))),
                           PHASE_TIMEOUT_S)
    phase.speed.stop()
    return phase


# -- the fleet ------------------------------------------------------------

class Fleet:
    def __init__(self, sup: ClusterSupervisor, router: ShardRouter) -> None:
        self.sup, self.router = sup, router

    @classmethod
    async def boot(cls, base_dir: Path, cfg: dict, inputs: Inputs) -> "Fleet":
        """Boot, answer one request correctly, warm the caches."""
        sup = ClusterSupervisor(shards=cfg["shards"], cache_size=cfg["cache_size"],
                                base_dir=str(base_dir))
        await asyncio.to_thread(sup.start)
        fleet = cls(sup, ShardRouter(sup.addresses))
        try:
            first = await call(fleet.router, "score", [inputs.first])
            if inputs.wrong([inputs.first], first):
                raise RuntimeError("the fleet's first answer is wrong")
            for k in range(0, len(inputs.warm_items), WARM_CHUNK):
                chunk = inputs.warm_items[k:k + WARM_CHUNK]
                answers = await fleet.router.score_many(
                    [(i["a"], i["b"]) for i in chunk], concurrency=WARM_CHUNK // 4,
                    backend=BACKEND, **knobs(chunk[0]))
                if inputs.wrong(chunk, answers):
                    raise RuntimeError("a warm answer is wrong")
        except BaseException:
            await fleet.close()
            raise
        return fleet

    @property
    def pids(self) -> list[int]:
        return [p.pid for p in self.sup.procs]

    def snapshot(self) -> dict:
        return measure.proc_snapshot(self.pids, {p.port for p in self.sup.procs})

    async def counters(self, shards: list[str] | None = None) -> dict:
        """Summed shard counters from the ``metrics`` exposition."""
        shards = shards or self.router.configured_shards
        texts = await asyncio.gather(*(self.router.scrape_shard_metrics(s) for s in shards))
        out: dict[str, float] = defaultdict(float)
        for text in texts:
            for (name, _labels), value in parse_exposition(text)["samples"].items():
                if name in COUNTERS:
                    out[name] += value
        return out

    async def close(self) -> None:
        try:
            await self.router.close()
        finally:
            await asyncio.to_thread(self.sup.stop)


async def boot_fleets(base_dir: Path, cfg: dict, inputs: Inputs) -> tuple[Fleet, list[float]]:
    """Set up ``setup_repeats`` times; keep the last fleet."""
    times = []
    fleet = None
    for k in range(cfg["setup_repeats"]):
        if fleet is not None:
            await fleet.close()
        t0 = time.perf_counter()
        fleet = await Fleet.boot(base_dir / f"fleet-{k}", cfg, inputs)
        times.append(time.perf_counter() - t0)
    return fleet, times


# -- runs -----------------------------------------------------------------

async def measure_phase(target, inputs: Inputs, seconds: float, spans, name: str,
                        owner=None, share: int = 1, keep_sent: int = 0) -> Phase:
    """The workload's closed loop against a router or a client;
    ``share`` divides its callers (one shard of many)."""
    return await closed_loop(Phase(inputs, keep_sent), target, inputs.kind, inputs.stream(owner),
                             max(1, inputs.spec["loop"]["callers"] // share), seconds, spans, name)


def e2e_metrics(phase: Phase, setup: list[float], usage: dict, rss_mb: float) -> tuple[dict, dict, dict]:
    """The end-to-end metrics, the latency summary and the raw (unscaled) timings."""
    lat = measure.latency_summary(phase.latencies)
    raw = {
        "throughput_per_s": phase.throughput(),
        "latency_p50_ms": lat["p50_ms"],
        "latency_tail_ms": lat["tail_ms"],
        "cpu_ms_per_op": (usage["self_cpu"] + usage["cpu"]) / phase.completed * 1e3,
    }
    # Not the probes' wall time: it would count the moments the shards
    # held both CPUs, and so hide part of a busier shard's cost.
    slow = phase.speed.slowdown("cpu+steal")
    raw["setup_s"] = statistics.median(setup)
    return {
        # Set-up ran just before the phase, on the same host; scaled
        # alike, so work moved into set-up shows against the same reference.
        "setup_s": raw["setup_s"] / slow,
        "throughput_per_s": raw["throughput_per_s"] * slow,
        "latency_p50_ms": raw["latency_p50_ms"] / slow,
        "latency_tail_ms": raw["latency_tail_ms"] / slow,
        "slo_attainment": phase.in_limit / phase.attempted,
        "success_rate": phase.completed / phase.attempted,
        "cpu_ms_per_op": raw["cpu_ms_per_op"] / phase.speed.slowdown("cpu"),
        "peak_rss_mb": rss_mb,
        "csr_score_total": phase.answer_total(),
    }, lat, raw


async def run(inputs: Inputs, cfg: dict, seconds: float, trace: bool, base_dir: Path,
              spans: measure.Spans) -> dict:
    fleet, setup = await boot_fleets(base_dir, cfg, inputs)
    try:
        if trace:
            return await _traced(fleet, inputs, seconds, spans)
        before = fleet.snapshot()
        phase = await measure_phase(fleet.router, inputs, seconds, spans, "router." + inputs.kind)
        usage = measure.delta(fleet.snapshot(), before)
        rss = sum(measure.proc_hwm_mb(p) for p in fleet.pids)
        metrics, lat, raw = e2e_metrics(phase, setup, usage, rss)
        return {
            "metrics": metrics, "attempted": phase.attempted, "wrong": phase.wrong,
            "failed": phase.failed, "repeatable": {"csr_score_total": metrics["csr_score_total"]},
            "diagnostics": {"tail_pct": lat["tail_pct"], "latency_samples": lat["samples"],
                            "p99_ms": lat["p99_ms"], "max_ms": lat["max_ms"],
                            "tail_slices": lat["tail_slices"],
                            "raw": raw, "host_speed": phase.speed.summary(),
                            "setup_runs_s": setup, "error_rate": phase.failed / phase.attempted,
                            "errors": phase.errors,
                            "loadgen_lag_p99_ms": measure.p99(phase.lags) * 1e3},
        }
    finally:
        await fleet.close()


async def _traced(fleet: Fleet, inputs: Inputs, seconds: float, spans: measure.Spans) -> dict:
    half = seconds / 2
    router = fleet.router
    name = "router." + inputs.kind
    quiet = measure.Spans(False)
    untraced = await measure_phase(router, inputs, half, quiet, name)

    # Entry 1: routed, traced.
    c0, s0, p0 = await fleet.counters(), router.router_stats(), fleet.snapshot()
    routed = await measure_phase(router, inputs, half, spans, name)
    p1, s1, c1 = fleet.snapshot(), router.router_stats(), await fleet.counters()
    use, cnt = measure.delta(p1, p0), {k: c1[k] - c0.get(k, 0.0) for k in c1}
    ops = routed.completed

    # Entry 2: a direct client to shard 0, with shard 0's inputs only and
    # shard 0's share of the callers, so the shard sees its routed load.
    shard0 = router.configured_shards[0]
    owner = lambda i: router.shard_for(i["op"], i["a"], i["b"], **knobs(i)) == shard0  # noqa: E731
    host0, port0 = router.addresses[shard0]
    pid0 = next(p.pid for p in fleet.sup.procs if p.port == port0)
    client = await AsyncAlignmentClient.connect(host0, port0)
    try:
        d_c0, d_p0 = await fleet.counters([shard0]), measure.proc_snapshot([pid0], {port0})
        direct = await measure_phase(client, inputs, half, spans, "client." + inputs.kind, owner,
                                     share=len(fleet.pids), keep_sent=IN_PROCESS_ITEMS)
        d_p1, d_c1 = measure.proc_snapshot([pid0], {port0}), await fleet.counters([shard0])
    finally:
        await client.close()
    d_use = measure.delta(d_p1, d_p0)
    d_cnt = {k: d_c1[k] - d_c0.get(k, 0.0) for k in d_c1}
    d_ops = direct.completed
    batch = max(1, round(d_cnt["fragalign_batched_pairs_total"] / max(1.0, d_cnt["fragalign_batches_total"])))

    # Entries 3 and 4: in process, on the inputs the direct phase sent.
    sent = direct.sent[:IN_PROCESS_ITEMS]
    engine_us, kernel_us = _in_process(sent, batch, spans)

    wrong = untraced.wrong + routed.wrong + direct.wrong
    attempted = untraced.attempted + routed.attempted + direct.attempted
    failed = untraced.failed + routed.failed + direct.failed
    routed_counts = [s1["routed"].get(s, 0) - s0["routed"].get(s, 0) for s in router.configured_shards]
    hits, misses = cnt["fragalign_cache_hits"], cnt["fragalign_cache_misses"]
    kernel_s = cnt["fragalign_kernel_seconds_total"]
    client_us = d_use["self_cpu"] / d_ops * 1e6
    engine_share = d_cnt["fragalign_batched_pairs_total"] / d_ops
    layers = {
        "client.cpu_us_per_op": client_us,
        "router.self_us_per_op": use["self_cpu"] / ops * 1e6 - client_us,
        "shards.cpu_us_per_op": use["cpu"] / ops * 1e6,
        "shards.send_segs_per_op": use["segs"] / ops,
        "client.send_segs_per_op": use["self_segs"] / ops,
        "shards.ctx_switches_per_op": use["ctx"] / ops,
        "service.self_us_per_op": d_use["cpu"] / d_ops * 1e6 - engine_us * engine_share,
        "batcher.pairs_per_batch": cnt["fragalign_batched_pairs_total"] / cnt["fragalign_batches_total"],
        "cache.hit_ratio": hits / (hits + misses),
        "cache.evictions": cnt["fragalign_cache_evictions"],
        "ring.max_share": max(routed_counts) / sum(routed_counts),
        "engine.self_us_per_op": engine_us - kernel_us,
        "engine.kernel_calls_per_batch": cnt["fragalign_kernel_calls_total"] / cnt["fragalign_batches_total"],
        "kernel.us_per_op": kernel_us,
        "kernel.busy_s": kernel_s,
        "kernel.mcells_per_s": cnt["fragalign_kernel_cells_total"] / kernel_s / 1e6,
        "loadgen.lag_p99_ms": measure.p99(routed.lags) * 1e3,
        "trace.throughput_ratio": routed.throughput() / untraced.throughput(),
        **protocol_costs(inputs),
    }
    return {
        "metrics": layers, "attempted": attempted, "failed": failed, "wrong": wrong,
        "diagnostics": {
            "untraced_throughput_per_s": untraced.throughput(),
            "traced_throughput_per_s": routed.throughput(),
            "direct_batch_mean": batch, "engine_share_direct": engine_share,
            "in_process_ops": len(sent), "coalesced": cnt["fragalign_coalesced_total"],
        },
    }


def _in_process(items: list[dict], batch: int, spans: measure.Spans) -> tuple[float, float]:
    """CPU µs per op of entry 3 (engine facade) and entry 4 (the
    backend's own ``score_many`` on prepared pairs), medians of 3 passes."""
    groups: dict[tuple, list[dict]] = defaultdict(list)
    for item in items:
        groups[tuple(sorted(knobs(item).items()))].append(item)
    chunks = [(dict(key), grp[k:k + batch]) for key, grp in groups.items()
              for k in range(0, len(grp), batch)]
    engine_runs, kernel_runs = [], []
    for _ in range(3):
        with AlignmentEngine() as engine:  # fresh: no memoized encodings
            start = time.process_time()
            for kw, chunk in chunks:
                token = spans.open("engine.score_many")
                engine.score_many([(i["a"], i["b"]) for i in chunk], backend=BACKEND, **kw)
                spans.close(token)
            engine_runs.append((time.process_time() - start) / len(items) * 1e6)
        with AlignmentEngine() as prep:
            native = get_backend(BACKEND)
            calls = []
            for kw, chunk in chunks:
                mode = kw.get("mode", "global")
                extra = {k: v for k, v in kw.items() if k != "mode"}
                be = native if native.accelerates("score_many", prep.model, mode, **extra) else get_backend("numpy")
                shapes: dict[tuple, list] = defaultdict(list)
                for i in chunk:
                    p = prep.prepare(i["a"], i["b"])
                    shapes[p.shape].append(p)
                calls += [(be, bucket, mode, extra) for bucket in shapes.values()]
            start = time.process_time()
            for be, bucket, mode, extra in calls:
                token = spans.open("backend.score_many")
                be.score_many(bucket, prep.model, mode, **extra)
                spans.close(token)
            kernel_runs.append((time.process_time() - start) / len(items) * 1e6)
    return statistics.median(engine_runs), statistics.median(kernel_runs)


def protocol_costs(inputs: Inputs, frames: int = 2000) -> dict:
    """Per-frame µs of the wire codec on this workload's own requests."""
    reqs = [{"id": k, "op": "score", "a": i["a"], "b": i["b"], "backend": BACKEND, **knobs(i)}
            for k, i in enumerate(itertools.islice(itertools.cycle(inputs.items), frames))]
    lines = [encode_line(r) for r in reqs]
    objs = [decode_line(line) for line in lines]

    def per_frame(fn, xs) -> float:
        runs = []
        for _ in range(3):
            start = time.perf_counter()
            for x in xs:
                fn(x)
            runs.append((time.perf_counter() - start) / len(xs) * 1e6)
        return statistics.median(runs)

    return {
        "protocol.encode_us": per_frame(encode_line, reqs),
        "protocol.decode_us": per_frame(decode_line, lines),
        "protocol.parse_us": per_frame(parse_request, objs),
    }
