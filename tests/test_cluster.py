"""The sharded serving tier: ring, router, health, warm, supervisor.

Standing invariants:

* routing is an execution detail — every response through the cluster
  equals what a direct ``AlignmentEngine`` call produces, in request
  order, no matter which shard served it or whether failover rerouted
  it mid-flight;
* the ring keys on the same ``(op, pair, mode, band, model)`` tuple as
  the service result cache, so per-shard caches are disjoint;
* losing one of N shards remaps only that shard's keys (~1/N) and the
  survivors absorb its traffic with no wrong answers.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fragalign.cluster import (
    ClusterClient,
    ClusterError,
    ClusterSupervisor,
    HashRing,
    HealthMonitor,
    ShardRouter,
    dump_keyset,
    generate_keyset,
    load_keyset,
    ring_key,
    warm_router,
)
from fragalign.engine import AlignmentEngine
from fragalign.resilience.faults import FaultProxyThread
from fragalign.service import AlignmentClient, AlignmentService, ServiceConfig, ServiceError
from fragalign.service.protocol import MAX_LINE, alignment_to_dict, encode_line, frame_response
from fragalign.util.errors import DeadlineExceeded


class TestHashRing:
    KEYS = [ring_key("score", f"ACGT{i}", f"AGGT{i}") for i in range(2000)]

    def test_deterministic_and_membership_order_independent(self):
        ring_a = HashRing(["s0", "s1", "s2", "s3"])
        ring_b = HashRing(["s3", "s1", "s0", "s2"])
        assert [ring_a.node_for(k) for k in self.KEYS] == [
            ring_b.node_for(k) for k in self.KEYS
        ]

    def test_balance_over_four_nodes(self):
        ring = HashRing([f"s{i}" for i in range(4)], vnodes=96)
        spread = ring.spread(self.KEYS)
        assert set(spread) == {"s0", "s1", "s2", "s3"}
        for count in spread.values():
            # Perfect balance is 25%; vnode placement keeps every node
            # within a loose band of it.
            assert 0.10 <= count / len(self.KEYS) <= 0.45

    def test_node_loss_remaps_only_that_nodes_keys(self):
        ring = HashRing([f"s{i}" for i in range(4)], vnodes=96)
        before = {k: ring.node_for(k) for k in self.KEYS}
        ring.remove_node("s1")
        after = {k: ring.node_for(k) for k in self.KEYS}
        moved = [k for k in self.KEYS if before[k] != after[k]]
        # Exactly the lost node's keys move (the consistent-hash
        # guarantee), and that's ~1/N of the keyspace.
        assert all(before[k] == "s1" for k in moved)
        assert len(moved) / len(self.KEYS) <= 0.45
        # Readmission restores the original mapping bit-for-bit.
        ring.add_node("s1")
        assert {k: ring.node_for(k) for k in self.KEYS} == before

    def test_nodes_for_walks_distinct_replicas(self):
        ring = HashRing([f"s{i}" for i in range(4)])
        for key in self.KEYS[:50]:
            replicas = ring.nodes_for(key, 3)
            assert len(replicas) == 3
            assert len(set(replicas)) == 3
            assert replicas[0] == ring.node_for(key)
        assert len(ring.nodes_for(self.KEYS[0], 10)) == 4  # capped at N

    def test_ring_key_mirrors_cache_key_fields(self):
        base = ring_key("score", "ACGT", "AGGT", "global", None, "fp")
        assert base != ring_key("align", "ACGT", "AGGT", "global", None, "fp")
        assert base != ring_key("score", "ACGT", "AGGT", "local", None, "fp")
        assert base != ring_key("score", "ACGT", "AGGT", "banded", 4, "fp")
        assert base != ring_key("score", "ACGT", "AGGT", "global", None, "other")
        assert base == ring_key("score", "ACGT", "AGGT", "global", None, "fp")

    def test_ring_key_normalizes_like_the_server_cache_key(self):
        # The server resolves mode=None to its default and drops band
        # for non-banded modes before keying its cache; the routing
        # key must normalize identically or warmed results would sit
        # on a different shard than live traffic asks.
        explicit = ring_key("score", "ACGT", "AGGT", "global", None, "fp")
        assert ring_key("score", "ACGT", "AGGT", None, None, "fp") == explicit
        assert ring_key("score", "ACGT", "AGGT", "global", 8, "fp") == explicit
        assert (
            ring_key("score", "ACGT", "AGGT", None, None, "fp", default_mode="local")
            == ring_key("score", "ACGT", "AGGT", "local", None, "fp")
        )
        # band still keys banded requests.
        assert ring_key("score", "AC", "GT", "banded", 4, "fp") != ring_key(
            "score", "AC", "GT", "banded", 6, "fp"
        )

    def test_empty_ring_raises(self):
        ring = HashRing()
        with pytest.raises(LookupError, match="empty"):
            ring.node_for("anything")
        ring.add_node("only")
        ring.remove_node("only")
        with pytest.raises(LookupError):
            ring.node_for("anything")


def _serve_in_thread(config: ServiceConfig, engine: AlignmentEngine | None = None):
    """Start one service on a daemon thread; return its control handle."""
    holder: dict = {}
    ready = threading.Event()

    def target():
        async def main():
            service = AlignmentService(config, engine)
            await service.start()
            holder["service"] = service
            holder["port"] = service.port
            holder["loop"] = asyncio.get_running_loop()
            ready.set()
            await service.wait_closed()
            service.close()

        asyncio.run(main())

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    assert ready.wait(10), "service failed to start"
    holder["thread"] = thread
    return holder


def _stop_shard(holder) -> None:
    try:
        holder["loop"].call_soon_threadsafe(holder["service"].stop)
    except RuntimeError:
        pass  # loop already closed
    holder["thread"].join(timeout=10)
    assert not holder["thread"].is_alive()


@pytest.fixture()
def three_shards():
    holders = [
        _serve_in_thread(
            ServiceConfig(port=0, max_batch=16, max_delay=0.002, cache_size=256)
        )
        for _ in range(3)
    ]
    yield holders
    for holder in holders:
        _stop_shard(holder)


def _addresses(holders) -> list[tuple[str, int]]:
    return [("127.0.0.1", h["port"]) for h in holders]


class TestShardRouter:
    PAIRS = [("ACGTACGTAC", "ACGTAGGTAC" + "T" * k) for k in range(24)]

    def test_fan_out_merge_preserves_request_order(self, three_shards):
        async def run():
            async with ShardRouter(_addresses(three_shards)) as router:
                scores = await router.score_many(self.PAIRS, concurrency=8)
                alns = await router.align_many(self.PAIRS[:6], concurrency=4)
                return scores, alns, dict(router.routed)

        scores, alns, routed = asyncio.run(run())
        with AlignmentEngine() as eng:
            assert scores == [eng.score(a, b) for a, b in self.PAIRS]
            assert alns == eng.align_many(self.PAIRS[:6])
        # The batch actually fanned out: more than one shard served.
        assert len(routed) >= 2
        assert sum(routed.values()) == len(self.PAIRS) + 6

    def test_routing_is_deterministic_and_mode_aware(self, three_shards):
        async def run():
            async with ShardRouter(_addresses(three_shards)) as router:
                first = router.shard_for("score", "ACGTACGT", "AGGTACGT")
                again = router.shard_for("score", "ACGTACGT", "AGGTACGT")
                spread = {
                    router.shard_for(op, "ACGTACGT", "AGGTACGT", mode)
                    for op in ("score", "align")
                    for mode in ("global", "local", "overlap")
                }
                return first, again, spread

        first, again, spread = asyncio.run(run())
        assert first == again  # same request -> same shard, always
        # op/mode are part of the routing key: with 6 combinations over
        # 3 shards at least two distinct shards appear (probabilistic
        # in general, deterministic for this fixed key set).
        assert len(spread) >= 2

    def test_default_mode_routes_like_explicit_mode(self, three_shards):
        async def run():
            async with ShardRouter(_addresses(three_shards)) as router:
                return (
                    router.shard_for("score", "ACGTACGT", "AGGTACGT"),
                    router.shard_for("score", "ACGTACGT", "AGGTACGT", "global"),
                    router.shard_for("score", "ACGTACGT", "AGGTACGT", "global", 8),
                )

        implicit, explicit, with_band = asyncio.run(run())
        # A warmed default-mode entry and live explicit-global traffic
        # must land on the same shard cache.
        assert implicit == explicit == with_band

    def test_per_request_modes_route_and_verify(self, three_shards):
        pairs = [("TTTTTACGTACGT", "ACGTACGTCCCC"), ("ACGTACGT", "ACGTAGGT")]

        async def run():
            async with ShardRouter(_addresses(three_shards)) as router:
                overlap = await router.score_many(pairs, mode="overlap")
                banded = await router.score_many(pairs, mode="banded", band=4)
                return overlap, banded

        overlap, banded = asyncio.run(run())
        with AlignmentEngine() as eng:
            assert overlap == [eng.score(a, b, mode="overlap") for a, b in pairs]
            assert banded == [
                eng.score(a, b, mode="banded", band=4) for a, b in pairs
            ]

    def test_shard_kill_failover_no_wrong_answers(self, three_shards):
        with AlignmentEngine() as eng:
            expected = [eng.score(a, b) for a, b in self.PAIRS]

        async def run():
            router = ShardRouter(_addresses(three_shards), max_attempts=3)
            try:
                warm = await router.score_many(self.PAIRS, concurrency=8)
                # Kill one shard that demonstrably owns traffic, then
                # replay: every request must still answer correctly.
                victim = max(router.routed, key=router.routed.get)
                holder = three_shards[
                    [f"127.0.0.1:{h['port']}" for h in three_shards].index(victim)
                ]
                _stop_shard(holder)
                replay = await router.score_many(self.PAIRS, concurrency=8)
                return warm, replay, router.router_stats()
            finally:
                await router.close()

        warm, replay, stats = asyncio.run(run())
        assert warm == expected
        assert replay == expected  # failed requests retried, no drift
        assert stats["evictions"] >= 1
        assert stats["failovers"] >= 1
        assert stats["failed_requests"] == 0
        assert len(stats["live_shards"]) == 2

    def test_bad_request_is_not_retried_as_failover(self, three_shards):
        async def run():
            async with ShardRouter(_addresses(three_shards)) as router:
                with pytest.raises(ServiceError, match="too narrow"):
                    await router.score("ACGTACGTACGT", "AC", mode="banded", band=2)
                return router.router_stats()

        stats = asyncio.run(run())
        # The shard answered (with an error): it stays live, and the
        # router must not have burned retries on a doomed request.
        assert stats["retries"] == 0
        assert stats["evictions"] == 0
        assert len(stats["live_shards"]) == 3

    def test_all_shards_down_raises_cluster_error(self):
        holders = [_serve_in_thread(ServiceConfig(port=0)) for _ in range(2)]
        addresses = _addresses(holders)
        for holder in holders:
            _stop_shard(holder)

        async def run():
            async with ShardRouter(addresses, max_attempts=2) as router:
                with pytest.raises(ClusterError, match="no shard could serve"):
                    await router.score("ACGT", "AGGT")
                return router.router_stats()

        stats = asyncio.run(run())
        assert stats["failed_requests"] == 1
        assert stats["live_shards"] == []


class TestHealthMonitor:
    def test_eviction_and_readmission_on_same_port(self):
        holder = _serve_in_thread(ServiceConfig(port=0))
        port = holder["port"]

        async def run():
            router = ShardRouter([("127.0.0.1", port)])
            monitor = HealthMonitor(router, interval=0.05, fail_after=1)
            try:
                assert (await monitor.probe_round())[f"127.0.0.1:{port}"]
                _stop_shard(holder)
                assert not (await monitor.probe_round())[f"127.0.0.1:{port}"]
                assert router.live_shards == []
                assert router.evictions == 1
                # The shard comes back on its configured port; the next
                # probe readmits it.
                revived = _serve_in_thread(ServiceConfig(port=port))
                try:
                    assert (await monitor.probe_round())[f"127.0.0.1:{port}"]
                    assert router.live_shards == [f"127.0.0.1:{port}"]
                    assert router.readmissions == 1
                    assert await router.score("ACGT", "AGGT") == 2.0
                finally:
                    await router.close()
                    _stop_shard(revived)
            except BaseException:
                await router.close()
                raise

        asyncio.run(run())

    def test_fail_after_threshold_tolerates_one_blip(self):
        calls = {"n": 0}

        class FlakyRouter:
            configured_shards = ["s0"]

            async def probe_shard(self, shard):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise ConnectionError("one blip")
                return {}

            def mark_shard_down(self, shard):
                raise AssertionError("one blip must not evict at fail_after=2")

            def mark_shard_up(self, shard):
                pass

        async def run():
            monitor = HealthMonitor(FlakyRouter(), fail_after=2)
            assert not (await monitor.probe_round())["s0"]
            assert (await monitor.probe_round())["s0"]
            assert monitor.records["s0"].consecutive_failures == 0

        asyncio.run(run())


class TestWarm:
    def test_keyset_round_trip(self, tmp_path):
        entries = generate_keyset(12, length=24, seed=7, op="align", mode="overlap")
        path = tmp_path / "keys.jsonl"
        assert dump_keyset(path, entries) == 12
        loaded = load_keyset(path)
        assert loaded == [
            {"op": "align", "a": e["a"], "b": e["b"], "mode": "overlap"}
            for e in entries
        ]

    def test_keyset_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"op": "shutdown", "a": "A", "b": "C"}\n')
        with pytest.raises(ValueError, match="bad keyset entry"):
            load_keyset(path)

    def test_warm_then_hit(self, three_shards):
        entries = generate_keyset(30, length=32, seed=11)

        async def run():
            async with ShardRouter(_addresses(three_shards)) as router:
                report = await warm_router(router, entries, concurrency=8)
                before = (await router.cluster_stats())["aggregate"]["cache"]
                # Replay the exact keyset as live traffic: every
                # request must be answered by the owning shard's cache.
                pairs = [(e["a"], e["b"]) for e in entries]
                await router.score_many(pairs, concurrency=8)
                after = (await router.cluster_stats())["aggregate"]["cache"]
                return report, before, after

        report, before, after = asyncio.run(run())
        assert report["warmed"] == 30 and report["errors"] == 0
        # Every shard that owns keys got warmed, and the warm is what
        # makes the replay hit: >= 30 new aggregate hits.
        assert sum(report["per_shard"].values()) == 30
        assert after["hits"] - before["hits"] >= 30


class TestClusterStatsAggregation:
    def test_aggregate_sums_and_quantiles(self, three_shards):
        async def run():
            async with ShardRouter(_addresses(three_shards)) as router:
                pairs = [("ACGT" * 3, "AGGT" * 3 + "A" * k) for k in range(12)]
                await router.score_many(pairs, concurrency=6)
                await router.score_many(pairs, concurrency=6)  # cache food
                return await router.cluster_stats()

        report = asyncio.run(run())
        agg = report["aggregate"]
        assert agg["shards_reporting"] == 3
        assert agg["requests_total"] >= 24
        assert agg["cache"]["hits"] >= 12
        assert agg["cache"]["maxsize"] == 3 * 256
        assert agg["requests_by_mode"].get("global", 0) >= 24
        assert (
            agg["latency_ms"]["worst_p99"]
            >= agg["latency_ms"]["worst_p95"]
            >= agg["latency_ms"]["worst_p50"]
            >= 0
        )
        assert set(report["shards"]) == set(report["router"]["configured_shards"])


class TestProcessCluster:
    """The supervisor path: real ``fragalign serve`` child processes."""

    def test_supervisor_cluster_end_to_end(self, tmp_path):
        pairs = [("ACGTAC" * 3, "AGGTAC" * 3 + "T" * k) for k in range(10)]
        with AlignmentEngine() as eng:
            expected = [eng.score(a, b) for a, b in pairs]
        with ClusterSupervisor(
            shards=2, cache_size=128, base_dir=str(tmp_path)
        ) as sup:
            assert len(sup.addresses) == 2
            cluster_file = tmp_path / "cluster.json"
            sup.write_cluster_file(cluster_file)
            layout = json.loads(cluster_file.read_text())
            assert [s["port"] for s in layout["shards"]] == [
                p for _, p in sup.addresses
            ]
            with ClusterClient(sup.addresses, max_attempts=2) as cluster:
                assert cluster.score_many(pairs, concurrency=8) == expected
                # SIGKILL one shard mid-run: the replay must fail over
                # with no wrong answers.
                sup.kill_shard(0)
                assert cluster.score_many(pairs, concurrency=8) == expected
                stats = cluster.stats()
                assert stats["router"]["evictions"] >= 1
                assert stats["router"]["failed_requests"] == 0
                assert stats["aggregate"]["shards_reporting"] == 1
        assert sup.alive_count == 0


class TestRingKeyGapFields:
    """Routing keys mirror the widened cache key (gaps in, memory out)."""

    def test_gap_fields_partition_the_keyspace(self):
        base = ring_key("score", "ACGT", "AGGT", "global", None, "fp")
        affine = ring_key(
            "score", "ACGT", "AGGT", "global", None, "fp",
            gap_open=-4.0, gap_extend=-1.0,
        )
        assert base != affine
        assert affine == ring_key(
            "score", "ACGT", "AGGT", "global", None, "fp",
            gap_open=-4, gap_extend=-1,  # ints normalize to floats
        )
        assert affine != ring_key(
            "score", "ACGT", "AGGT", "global", None, "fp",
            gap_open=-4.0, gap_extend=-2.0,
        )

    def test_router_normalizes_gap_defaults(self):
        router = ShardRouter(
            [("127.0.0.1", 1)],
            default_gap_open=-4.0,
            default_gap_extend=-1.0,
        )
        explicit = router.key_for("score", "AC", "GT", gap_open=-4.0, gap_extend=-1.0)
        defaulted = router.key_for("score", "AC", "GT")
        assert explicit == defaulted
        other = router.key_for("score", "AC", "GT", gap_open=-2.0, gap_extend=-1.0)
        assert other != defaulted

    def test_keyset_entries_carry_gap_fields(self, tmp_path):
        entries = generate_keyset(
            4, length=16, op="score", gap_open=-3.0, gap_extend=-1.0
        )
        path = tmp_path / "keys.jsonl"
        dump_keyset(path, entries)
        loaded = load_keyset(path)
        assert all(e["gap_open"] == -3.0 and e["gap_extend"] == -1.0 for e in loaded)
        with pytest.raises(ValueError, match="together"):
            dump_keyset(path, [{"op": "score", "a": "AC", "b": "GT", "gap_open": -1}])


class TestClusterAffineEndToEnd:
    """Affine knobs through a real (in-process) shard fleet."""

    def test_affine_routes_and_matches_engine(self, three_shards):
        pairs = [("ACGTACGTAC", "ACGTAGGTAC"), ("AAAATTTT", "AAATTTT"), ("GGGG", "GGCG")]
        with AlignmentEngine() as eng, ClusterClient(_addresses(three_shards)) as cluster:
            got = cluster.score_many(pairs, gap_open=-3.0, gap_extend=-1.0)
            want = [eng.score(a, b, gap_open=-3.0, gap_extend=-1.0) for a, b in pairs]
            assert got == want
            got_al = cluster.align_many(pairs, gap_open=-3.0, gap_extend=-1.0)
            want_al = [eng.align(a, b, gap_open=-3.0, gap_extend=-1.0) for a, b in pairs]
            assert got_al == want_al
            # memory hint flows through without changing results
            assert cluster.align(
                pairs[0][0], pairs[0][1], memory="linear"
            ) == eng.align(pairs[0][0], pairs[0][1])


# -- frames through the router --------------------------------------------

_KNOBS = st.sampled_from([
    {"mode": "global"},
    {"mode": "local"},
    {"mode": "overlap"},
    {"mode": "banded", "band": 40},
    {"mode": "global", "gap_open": -3.0, "gap_extend": -1.0},
    {"mode": "local", "gap_open": -2.0, "gap_extend": -0.5},
])


def _random_pairs(seed: int, n: int) -> list[tuple[str, str]]:
    rng = np.random.default_rng(seed)
    return [
        ("".join(rng.choice(list("ACGT"), int(rng.integers(0, 40)))),
         "".join(rng.choice(list("ACGT"), int(rng.integers(0, 40)))))
        for _ in range(n)
    ]


class TestFrameRouting:
    """score_many/align_many/request_many travel as per-shard frames:
    results equal an in-process engine's, in request order, through
    shard deaths between and during frames."""

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(0, 2**31), st.integers(1, 48), _KNOBS, st.sampled_from(["score", "align"]))
    def test_routed_frames_match_the_engine(self, three_shards, seed, n, knobs, op):
        pairs = _random_pairs(seed, n)

        async def run():
            async with ShardRouter(_addresses(three_shards)) as router:
                many = router.score_many if op == "score" else router.align_many
                return await many(pairs, **knobs), router.router_stats()

        got, stats = asyncio.run(run())
        with AlignmentEngine(backend="numpy") as eng:
            if op == "score":
                assert got == [float(s) for s in eng.score_many(pairs, **knobs)]
            else:
                assert got == eng.align_many(pairs, **knobs)
        assert stats["routed_total"] == n and stats["failed_requests"] == 0

    def test_mixed_request_many_spans_every_shard(self, three_shards):
        pairs = _random_pairs(7, 60)
        modes = ("global", "local", "overlap")
        entries = [
            {"op": ("score", "align")[k % 2], "a": a, "b": b, "mode": modes[k % 3]}
            for k, (a, b) in enumerate(pairs)
        ]

        async def run():
            async with ShardRouter(_addresses(three_shards)) as router:
                return await router.request_many(entries), router.router_stats()

        got, stats = asyncio.run(run())
        with AlignmentEngine(backend="numpy") as eng:
            for entry, value in zip(entries, got):
                verb = eng.score if entry["op"] == "score" else eng.align
                assert value == verb(entry["a"], entry["b"], mode=entry["mode"])
        assert len(stats["routed"]) == 3  # the frame reached every shard
        assert sum(stats["routed"].values()) == len(entries)

    def test_spent_deadline_fails_every_pair_typed(self, three_shards):
        async def run():
            async with ShardRouter(_addresses(three_shards)) as router:
                with pytest.raises(DeadlineExceeded):
                    await router.score_many(_random_pairs(3, 12), deadline_ms=1e-6)
                return router.router_stats()

        stats = asyncio.run(run())
        assert stats["deadline_gaveups"] == 12 and stats["evictions"] == 0

    def test_shard_killed_between_frames(self, three_shards):
        pairs = _random_pairs(11, 48)
        with AlignmentEngine(backend="numpy") as eng:
            scores = [float(s) for s in eng.score_many(pairs)]
            alns = eng.align_many(pairs)

        async def run():
            router = ShardRouter(_addresses(three_shards), max_attempts=3)
            try:
                first = await router.score_many(pairs)
                _stop_shard(three_shards[0])
                return first, await router.score_many(pairs), \
                    await router.align_many(pairs), router.router_stats()
            finally:
                await router.close()

        first, again, aligned, stats = asyncio.run(run())
        assert first == again == scores
        assert aligned == alns
        assert stats["evictions"] == 1 and stats["failovers"] >= 1
        assert stats["failed_requests"] == 0

    def test_shard_killed_mid_frame(self, three_shards):
        # Each shard behind a fault proxy; the victim's proxy holds the
        # sub-frame in flight, then dies with it.
        proxies = [FaultProxyThread("127.0.0.1", h["port"]) for h in three_shards]
        for proxy in proxies:
            proxy.start()
        pairs = _random_pairs(13, 64)
        with AlignmentEngine(backend="numpy") as eng:
            scores = [float(s) for s in eng.score_many(pairs)]

        async def run():
            router = ShardRouter([("127.0.0.1", p.port) for p in proxies], max_attempts=2)
            try:
                await router.score_many(pairs[:1])  # connections up
                proxies[1].set_faults(latency_ms=400)
                frame = asyncio.ensure_future(router.score_many(pairs))
                await asyncio.sleep(0.15)
                assert not frame.done()
                await asyncio.to_thread(proxies[1].stop)  # in-flight sub-frame dies
                return await asyncio.wait_for(frame, 20), router.router_stats()
            finally:
                await router.close()

        try:
            got, stats = asyncio.run(run())
        finally:
            for proxy in proxies:
                proxy.stop()
        assert got == scores
        assert stats["evictions"] == 1 and stats["retries"] >= 1
        assert stats["failovers"] >= 1 and stats["failed_requests"] == 0
        assert f"127.0.0.1:{proxies[1].port}" not in stats["live_shards"]

    def test_align_answers_over_the_line_cap_direct_and_routed(self):
        # About 1.1 KB of answer per 128 bp pair: each shard's sub-frame
        # of these, and the direct frame, would answer past MAX_LINE if
        # sent unsplit.  (Large engine batches only keep the test quick.)
        holders = [_serve_in_thread(ServiceConfig(port=0, max_batch=1024)) for _ in range(2)]
        rng = np.random.default_rng(17)
        pairs = []
        for _ in range(2400):
            a = rng.choice(list("ACGT"), int(rng.integers(120, 137)))
            b = np.where(rng.random(len(a)) < 0.08, rng.choice(list("ACGT"), len(a)), a)
            pairs.append(("".join(a), "".join(b)))

        async def run():
            async with ShardRouter(_addresses(holders)) as router:
                owners = [router.shard_for("align", a, b) for a, b in pairs]
                return await router.align_many(pairs), owners, router.router_stats()

        try:
            with AlignmentClient("127.0.0.1", holders[0]["port"]) as client:
                direct = client.align_many(pairs[:1000])
            routed, owners, stats = asyncio.run(run())
        finally:
            for holder in holders:
                _stop_shard(holder)
        with AlignmentEngine(backend="numpy") as eng:
            expected = eng.align_many(pairs)
        assert direct == expected[:1000]
        assert routed == expected
        assert stats["failed_requests"] == 0 and stats["evictions"] == 0
        assert len(set(owners)) == 2
        for shard in set(owners):
            answers = [alignment_to_dict(x) for x, o in zip(expected, owners) if o == shard]
            assert len(encode_line(frame_response(0, answers, [], [], []))) > MAX_LINE

    def test_big_frame_under_small_timeout_evicts_no_healthy_shard(self):
        # Each shard needs ~0.5 s for its ~320 pairs: longer than one
        # request_timeout, well within one per 64 pairs.
        holders = [
            _serve_in_thread(ServiceConfig(port=0, cache_size=0), engine=_SlowEngine())
            for _ in range(2)
        ]
        pairs = _random_pairs(19, 640)
        try:
            async def run():
                async with ShardRouter(_addresses(holders), request_timeout=0.25) as router:
                    return await router.score_many(pairs), router.router_stats()

            got, stats = asyncio.run(run())
        finally:
            for holder in holders:
                _stop_shard(holder)
        with AlignmentEngine(backend="numpy") as eng:
            assert got == [float(s) for s in eng.score_many(pairs)]
        assert min(stats["routed"].values()) > 4 * 64  # over one timeout's worth each
        assert stats["evictions"] == 0 and stats["retries"] == 0
        assert stats["failed_requests"] == 0


class _SlowEngine(AlignmentEngine):
    """An engine that takes 1.5 ms more per scored pair."""

    def score_many(self, pairs, *args, **kwargs):
        time.sleep(0.0015 * len(pairs))
        return super().score_many(pairs, *args, **kwargs)

