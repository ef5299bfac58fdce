"""The shard router: fan out batches over N service instances.

:class:`ShardRouter` fronts N running :mod:`fragalign.service`
servers.  Each request is keyed exactly like the service result cache
(``op, pair, mode, band, model``), hashed onto the consistent ring,
and sent to the owning shard over that shard's pipelined
:class:`~fragalign.service.client.AsyncAlignmentClient`.  Batch calls
(``score_many``/``align_many``/``request_many``) travel as frames:
the pairs are split by owning shard, each shard gets one sub-frame
(one wire line, which its server hands to its batcher as one group),
and the answers merge back **in request order**.  Failover for frames
is per pair: a failed shard's sub-frame is re-split over the ring's
survivors (:meth:`ShardRouter._route_frame`).

Failover: a connection-level failure (refused, reset, mid-stream
close, probe timeout) evicts the shard from the ring and retries the
request on the next distinct shard in ring order, up to
``max_attempts`` shards.  Server-side *answers* that are errors are
split by the :mod:`fragalign.util.errors` taxonomy: a **retryable**
answer (an ``OVERLOADED`` shed — the shard is healthy, just loaded)
retries on the next replica *without* evicting anything, while a
non-retryable answer (a band too narrow, an expired deadline) is
raised as-is — every replica would reject the same request the same
way.  Readmission is the health monitor's job
(:mod:`fragalign.cluster.health`) — except for breaker-tripped shards
(below), which readmit themselves.

Each shard additionally sits behind a :class:`CircuitBreaker`
(:mod:`fragalign.resilience.breaker`): consecutive connection-level
failures or timeouts trip it open, an open breaker excludes the shard
from candidate selection (fast-fail, no connection attempt), and
after ``breaker_recovery`` seconds the half-open breaker readmits the
shard for exactly one trial request — success closes it, failure
re-opens it.

Deadlines: pass ``deadline_ms`` and the router pins an absolute
monotonic deadline on entry, clamps every per-attempt timeout to the
remaining budget, forwards the *remaining* budget (relative,
gRPC-style) to the shard on each attempt, and gives up with
:class:`~fragalign.util.errors.DeadlineExceeded` instead of starting
a retry the budget can no longer cover.

Hedging (off by default): with ``hedge_delay`` set, a ``score``
request whose first attempt is still unanswered after that many
seconds fires a second copy at the next replica and takes whichever
answers first — scores are idempotent and cheap, so the duplicate
only costs one batch slot.  ``hedge_max_fraction`` caps hedges as a
fraction of routed requests so a slow cluster can't double its own
load.

The blocking :class:`ClusterClient` wrapper runs the router (plus an
optional health monitor) on a private event-loop thread, mirroring
:class:`~fragalign.service.client.AlignmentClient`.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import Counter
from typing import Any, Sequence

from fragalign.align.pairwise import Alignment
from fragalign.cluster.ring import HashRing, ring_key
from fragalign.obs.logs import get_logger
from fragalign.obs.metrics import MetricsRegistry, merge_expositions, parse_exposition
from fragalign.obs.slo import SLOEngine
from fragalign.obs.trace import TraceContext, Tracer
from fragalign.resilience.breaker import CLOSED, HALF_OPEN, STATE_CODES, CircuitBreaker
from fragalign.resilience.deadline import deadline_from_budget_ms, remaining_ms
from fragalign.service.client import AlignmentClient, AsyncAlignmentClient
from fragalign.service.fields import group_key_fields
from fragalign.service.protocol import ServiceError
from fragalign.service.server import ServiceConfig
from fragalign.util.errors import (
    CircuitOpen,
    DeadlineExceeded,
    FragalignError,
    RetryableError,
)

__all__ = ["ClusterError", "ShardRouter", "ClusterClient"]

_MISS = object()  # sentinel: no attempt has produced a value yet

# The entry fields one frame shares (its batch-group knobs plus one
# deadline): request_many groups entries by them.
_FRAME_KNOBS = (*group_key_fields(), "deadline_ms")

# request_timeout bounds one request's attempt: the wait for one engine
# batch of at most a shard's max_batch pairs.  A sub-frame carries many
# pairs' work, so its attempt gets one request_timeout per this many
# pairs (the shards' default max_batch): a big frame on a healthy shard
# must not read as a dead shard.
_PAIRS_PER_TIMEOUT = ServiceConfig.max_batch

# Failures that mean "this shard, not this request": worth a retry on
# the next replica.  ServiceError is deliberately absent.
_SHARD_FAILURES = (ConnectionError, OSError, EOFError, asyncio.TimeoutError)

_log = get_logger("cluster")

_perf = time.perf_counter
_wall = time.time


class ClusterError(FragalignError):
    """No shard could serve a request (ring empty / all replicas failed)."""


class ShardRouter:
    """Health-aware consistent-hash router over N service shards.

    Parameters
    ----------
    addresses:
        ``(host, port)`` per shard.  The shard's ring name is
        ``"host:port"``.
    vnodes:
        Virtual nodes per shard on the ring.
    model_fp:
        Substitution-model fingerprint mixed into routing keys.  For a
        homogeneous cluster any constant works (it shifts every key's
        hash identically); pass the real fingerprint when routing for
        multiple models so their keyspaces interleave.
    max_attempts:
        Maximum number of *distinct* shards tried per request.
    request_timeout:
        Optional per-attempt budget in seconds, covering connection
        establishment *and* the round trip; a timeout counts as a
        shard failure and triggers failover.  A frame's sub-frame gets
        one such budget per ``_PAIRS_PER_TIMEOUT`` (64) pairs it
        carries.
    connect_timeout:
        Budget for opening a new shard connection even when
        ``request_timeout`` is unset — a black-holing host (dropped
        SYNs) must fail over, not hang the router for the OS TCP
        timeout.
    default_mode / default_band:
        The shards' configured defaults.  Routing keys are normalized
        with them (``mode=None`` hashes as the default mode, ``band``
        is dropped unless the mode is banded) so requests that the
        *server* resolves to the same cache key also hash to the same
        shard.
    breaker_threshold / breaker_recovery:
        Consecutive connection-level failures (or timeouts) that trip
        a shard's circuit open, and the cool-off in seconds before the
        half-open breaker readmits the shard for one trial request.
    hedge_delay:
        Seconds to wait on a first ``score`` attempt before firing a
        duplicate at the next replica (``None`` disables hedging).
    hedge_max_fraction:
        Cap on hedges as a fraction of routed requests.
    retry_min_budget:
        Seconds of deadline budget a retry must have left to be worth
        starting (the observed cost of this request's failed attempts
        raises the bar further).
    """

    def __init__(
        self,
        addresses: Sequence[tuple[str, int]],
        vnodes: int = 96,
        model_fp: str = "",
        max_attempts: int = 2,
        request_timeout: float | None = None,
        connect_timeout: float = 5.0,
        default_mode: str = "global",
        default_band: int | None = None,
        default_gap_open: float | None = None,
        default_gap_extend: float | None = None,
        breaker_threshold: int = 3,
        breaker_recovery: float = 5.0,
        hedge_delay: float | None = None,
        hedge_max_fraction: float = 0.1,
        retry_min_budget: float = 0.0,
    ) -> None:
        if not addresses:
            raise ValueError("at least one shard address is required")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.addresses: dict[str, tuple[str, int]] = {
            f"{host}:{port}": (host, port) for host, port in addresses
        }
        self.ring = HashRing(self.addresses, vnodes=vnodes)
        self.model_fp = model_fp
        self.max_attempts = max_attempts
        self.request_timeout = request_timeout
        self.connect_timeout = connect_timeout
        self.default_mode = default_mode
        self.default_band = default_band
        self.default_gap_open = default_gap_open
        self.default_gap_extend = default_gap_extend
        if breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if breaker_recovery <= 0:
            raise ValueError("breaker_recovery must be > 0")
        if hedge_delay is not None and hedge_delay < 0:
            raise ValueError("hedge_delay must be >= 0")
        if not 0 < hedge_max_fraction <= 1:
            raise ValueError("hedge_max_fraction must be in (0, 1]")
        if retry_min_budget < 0:
            raise ValueError("retry_min_budget must be >= 0")
        self.breaker_threshold = breaker_threshold
        self.breaker_recovery = breaker_recovery
        self.hedge_delay = hedge_delay
        self.hedge_max_fraction = hedge_max_fraction
        self.retry_min_budget = retry_min_budget
        self._breakers: dict[str, CircuitBreaker] = {}
        self._clients: dict[str, AsyncAlignmentClient] = {}
        self._connecting: dict[str, asyncio.Lock] = {}
        self._closing: set[asyncio.Task] = set()  # strong refs to close tasks
        self._orphans: list[AsyncAlignmentClient] = []  # dropped without a loop
        # Router-side spans (fan-out, per-attempt, failover) land here;
        # collect_trace() merges them with the shards' buffers.
        self.tracer = Tracer()
        # Cluster-level SLO engine: fed from the merged shard scrape on
        # each cluster_slo() call (lazily built so the targets can come
        # from the first caller).
        self._slo_engine: SLOEngine | None = None
        self._slo_specs: tuple | None = None
        # -- router-level counters (the cluster's own stats surface) --
        self.routed: Counter[str] = Counter()  # completed requests per shard
        self.retries = 0  # extra attempts made (failover hops)
        self.failovers = 0  # requests that succeeded on a non-first shard
        self.evictions = 0  # ring removals (reactive + health-driven)
        self.readmissions = 0  # ring re-additions (health-driven)
        self.failed_requests = 0  # requests that exhausted every replica
        self.shed_retries = 0  # OVERLOADED answers retried elsewhere
        self.hedges = 0  # duplicate attempts fired
        self.hedge_wins = 0  # requests won by the hedged copy
        self.deadline_gaveups = 0  # retries abandoned for lack of budget
        self.breaker_fast_fails = 0  # requests refused with every circuit open

    # -- membership / keying ------------------------------------------

    @property
    def configured_shards(self) -> list[str]:
        """Every shard this router knows about, live or not."""
        return sorted(self.addresses)

    @property
    def live_shards(self) -> list[str]:
        return self.ring.nodes

    def key_for(
        self,
        op: str,
        a: str,
        b: str,
        mode: str | None = None,
        band: int | None = None,
        gap_open: float | None = None,
        gap_extend: float | None = None,
    ) -> str:
        mode = mode or self.default_mode
        if mode == "banded" and band is None:
            band = self.default_band
        if gap_open is None and gap_extend is None:
            gap_open, gap_extend = self.default_gap_open, self.default_gap_extend
        return ring_key(
            op, a, b, mode, band, self.model_fp,
            gap_open=gap_open, gap_extend=gap_extend,
        )

    def shard_for(
        self,
        op: str,
        a: str,
        b: str,
        mode: str | None = None,
        band: int | None = None,
        gap_open: float | None = None,
        gap_extend: float | None = None,
    ) -> str:
        """The shard currently owning one request (tests, warm reports)."""
        return self.ring.node_for(
            self.key_for(op, a, b, mode, band, gap_open, gap_extend)
        )

    def mark_shard_down(self, shard: str) -> None:
        """Evict a shard from the ring (idempotent); its keys fall to
        their ring successors until readmission."""
        if shard in self.ring:
            self.ring.remove_node(shard)
            self.evictions += 1
            _log.warning(
                "shard evicted",
                extra={"shard": shard, "live_shards": len(self.ring.nodes)},
            )
        self._drop_client(shard)

    def mark_shard_up(self, shard: str) -> None:
        """Readmit a configured shard (idempotent)."""
        if shard in self.addresses and shard not in self.ring:
            self.ring.add_node(shard)
            self.readmissions += 1
            _log.info(
                "shard readmitted",
                extra={"shard": shard, "live_shards": len(self.ring.nodes)},
            )

    # -- circuit breakers ---------------------------------------------

    def _breaker(self, shard: str) -> CircuitBreaker:
        breaker = self._breakers.get(shard)
        if breaker is None:
            breaker = self._breakers[shard] = CircuitBreaker(
                failure_threshold=self.breaker_threshold,
                recovery_time=self.breaker_recovery,
            )
        return breaker

    def _breaker_readmit(self) -> None:
        """Readmit evicted shards whose breaker has cooled into
        half-open; the next request routed there is the trial.  Only
        breaker-tripped shards come back this way — a shard evicted
        while its breaker stayed closed (a one-off hard death) is the
        health monitor's to readmit, so breaker recovery can never
        flip-flop a shard the monitor keeps finding dead."""
        for shard, breaker in self._breakers.items():
            if breaker.state == HALF_OPEN and shard not in self.ring:
                self.mark_shard_up(shard)

    def _drop_client(self, shard: str) -> None:
        client = self._clients.pop(shard, None)
        if client is None:
            return
        try:
            task = asyncio.get_running_loop().create_task(client.close())
            # The loop keeps only a weak reference to tasks: hold one
            # until the close completes or it could be GC'd mid-await.
            self._closing.add(task)
            task.add_done_callback(self._closing.discard)
        except RuntimeError:
            # No running loop (sync teardown): park the client so
            # close() can release its socket later.
            self._orphans.append(client)

    # -- connections --------------------------------------------------

    async def _client(self, shard: str) -> AsyncAlignmentClient:
        client = self._clients.get(shard)
        if client is not None and not client.closed:
            return client
        lock = self._connecting.setdefault(shard, asyncio.Lock())
        async with lock:
            client = self._clients.get(shard)
            if client is not None and not client.closed:
                return client
            host, port = self.addresses[shard]
            client = await asyncio.wait_for(
                AsyncAlignmentClient.connect(host, port),
                timeout=self.connect_timeout,
            )
            self._clients[shard] = client
            return client

    async def probe_shard(self, shard: str) -> dict:
        """Health probe: fresh connection, ``stats`` op, close.  Raises
        on any failure; returns the shard's stats snapshot.  The whole
        round trip is bounded by ``connect_timeout`` — a wedged shard
        whose listen socket still accepts must fail the probe, not
        hang ``cluster_stats()``."""
        host, port = self.addresses[shard]

        async def probe() -> dict:
            client = await AsyncAlignmentClient.connect(host, port)
            try:
                return await client.stats()
            finally:
                await client.close()

        return await asyncio.wait_for(probe(), timeout=self.connect_timeout)

    # -- request path -------------------------------------------------

    async def _call_shard(
        self, shard: str, op: str, request, timeout: float | None = None
    ) -> Any:
        async def attempt() -> Any:
            client = await self._client(shard)
            return await request(client)

        if timeout is None:
            timeout = self.request_timeout
        if timeout is not None:
            # The budget covers connect + round trip: a black-holing
            # shard times out here and fails over like any other death.
            return await asyncio.wait_for(attempt(), timeout=timeout)
        return await attempt()

    async def _abandon(self, tasks: dict) -> None:
        """Cancel attempt tasks we no longer care about and reap them,
        so a losing hedge can never log "exception was never
        retrieved".  Its orphaned wire response (if one arrives) is
        dropped by the client's done-future check.  Each abandoned
        shard's breaker gets the cancellation reported: a cancelled
        request is neither success nor failure, but it may have been
        holding the half-open trial slot."""
        for task, (t_shard, _ctx, _start) in tasks.items():
            task.cancel()
            self._breaker(t_shard).record_abandon()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    def _hedge_allowed(self) -> bool:
        total = sum(self.routed.values()) + 1
        return self.hedges < max(1.0, self.hedge_max_fraction * total)

    # -- failover policy (shared by single requests and frames) -------

    def _budget_spent(
        self, deadline: float | None, attempt: int, cheapest: float | None
    ) -> bool:
        """Whether the deadline budget can no longer cover an attempt.
        A first attempt runs on any positive budget; a retry must clear
        ``retry_min_budget`` and the fastest failed attempt so far — no
        point starting an attempt the budget provably can't cover."""
        if deadline is None:
            return False
        floor = max(self.retry_min_budget, cheapest or 0.0) if attempt else 0.0
        return deadline - time.monotonic() <= floor

    def _next_replica(
        self, key: str, tried, admits: dict[str, bool]
    ) -> tuple[str | None, bool]:
        """The first untried replica of ``key`` whose circuit admits a
        request, and whether an open circuit was skipped on the way.
        The ring is re-read on every call: evictions (ours or a
        concurrent request's) reshape it.  ``admits`` memoizes each
        shard's breaker answer, so a half-open breaker grants its one
        trial once per ``admits``."""
        try:
            candidates = self.ring.nodes_for(key, len(self.addresses))
        except LookupError:
            return None, False  # ring empty: nothing left to try
        blocked = False
        for shard in candidates:
            if shard in tried:
                continue
            if shard not in admits:
                admits[shard] = self._breaker(shard).allow()
            if admits[shard]:
                return shard, blocked
            blocked = True
        return None, blocked

    def _settle(self, shard: str, exc: BaseException | None) -> str:
        """Report an attempt's outcome to ``shard``'s breaker and name
        it: ``ok``; ``shed`` (answered ``OVERLOADED``: healthy but
        loaded — the circuit tracks connectivity, not load);
        ``rejected`` (answered with an error every replica would give:
        circuit-wise a healthy shard); ``failed`` (connection-level:
        the shard is evicted from the ring); or ``unknown`` (not
        evidence about the shard: only its trial slot is released)."""
        breaker = self._breaker(shard)
        if exc is None:
            breaker.record_success()
            return "ok"
        if isinstance(exc, ServiceError):
            breaker.record_success()
            return "shed" if isinstance(exc, RetryableError) else "rejected"
        if isinstance(exc, _SHARD_FAILURES):
            breaker.record_failure()
            self.mark_shard_down(shard)
            return "failed"
        breaker.record_abandon()
        return "unknown"

    def _give_up(
        self, op: str, what: str, count: int, tried, last_error: Exception | None,
        blocked: bool,
    ) -> Exception:
        """Count ``count`` requests (or frame pairs) as failed on every
        replica and type the error they fail with: the replicas' own
        ``OVERLOADED`` when the last one reached shed them (so callers
        can back off), :class:`CircuitOpen` when open circuits left
        nothing to try, else :class:`ClusterError`."""
        self.failed_requests += count
        _log.error(
            "request failed on every replica",
            extra={"op": op, "count": count, "tried": sorted(tried),
                   "error": str(last_error)},
        )
        if isinstance(last_error, ServiceError) and isinstance(last_error, RetryableError):
            return last_error
        if blocked:
            self.breaker_fast_fails += count
            return CircuitOpen(
                f"every untried replica's circuit is open for {op} {what} "
                f"(tried {sorted(tried) or 'none'})"
            )
        return ClusterError(
            f"no shard could serve {op} {what} "
            f"(tried {sorted(tried) or 'none'}): {last_error}"
        )

    def _deadline_gaveup(
        self, op: str, what: str, count: int, attempts: int,
        last_error: Exception | None,
    ) -> DeadlineExceeded:
        self.deadline_gaveups += count
        return DeadlineExceeded(
            f"deadline budget exhausted routing {op} {what} after "
            f"{attempts} attempt(s) (last error: {last_error})"
        )

    async def _route(
        self, op: str, a: str, b: str, mode, band, request,
        gap_open=None, gap_extend=None, trace: TraceContext | None = None,
        deadline_ms: float | None = None,
    ) -> Any:
        """Send one request to its owning shard, failing over along
        the ring; ``request(client, ctx, budget_ms)`` builds the
        coroutine (``ctx`` is the per-attempt trace context the shard
        parents under, or ``None`` when untraced; ``budget_ms`` is the
        deadline budget still remaining when the attempt launches, or
        ``None`` when the request carries no deadline)."""
        key = self.key_for(op, a, b, mode, band, gap_open, gap_extend)
        deadline = deadline_from_budget_ms(deadline_ms)
        self._breaker_readmit()
        # Fan-out span for the whole routing decision; each attempt is
        # a child, so a failover reads as sibling attempt spans.
        route_ctx = trace.child() if trace is not None else None
        route_start = _perf()
        tried: set[str] = set()
        last_error: Exception | None = None
        blocked = False  # last candidate scan skipped an open circuit
        cheapest: float | None = None  # fastest failed attempt: retry floor
        for attempt in range(self.max_attempts):
            if self._budget_spent(deadline, attempt, cheapest):
                if route_ctx is not None:
                    self._finish_route(route_ctx, route_start, op, tried, False)
                raise self._deadline_gaveup(op, "request", 1, len(tried), last_error)
            admits: dict[str, bool] = {}
            shard, blocked = self._next_replica(key, tried, admits)
            if shard is None:
                break
            tried.add(shard)
            if attempt > 0:
                self.retries += 1
                _log.warning(
                    "failover retry",
                    extra={"op": op, "shard": shard, "attempt": attempt + 1,
                           "tried": sorted(tried)},
                )
            budget_ms = remaining_ms(deadline) if deadline is not None else None
            timeout = self.request_timeout
            if deadline is not None:
                rem = deadline - time.monotonic()
                timeout = rem if timeout is None else min(timeout, rem)
            attempt_ctx = route_ctx.child() if route_ctx is not None else None
            attempt_start = _perf()
            # One task per in-flight copy of this attempt: the primary,
            # plus (maybe) a hedge.  Value: (shard, trace ctx, start).
            tasks: dict[asyncio.Task, tuple[str, Any, float]] = {}
            primary = asyncio.ensure_future(self._call_shard(
                shard, op,
                lambda c, ctx=attempt_ctx: request(c, ctx, budget_ms),
                timeout=timeout,
            ))
            tasks[primary] = (shard, attempt_ctx, attempt_start)
            if self.hedge_delay is not None and op == "score" and attempt == 0:
                done, _ = await asyncio.wait({primary}, timeout=self.hedge_delay)
                if not done and self._hedge_allowed():
                    hedge_shard, _ = self._next_replica(key, tried, admits)
                    if hedge_shard is not None:
                        tried.add(hedge_shard)
                        self.hedges += 1
                        hedge_ctx = route_ctx.child() if route_ctx is not None else None
                        hedge_start = _perf()
                        hedge = asyncio.ensure_future(self._call_shard(
                            hedge_shard, op,
                            lambda c, ctx=hedge_ctx: request(c, ctx, budget_ms),
                            timeout=timeout,
                        ))
                        tasks[hedge] = (hedge_shard, hedge_ctx, hedge_start)
            value, winner = _MISS, None
            while tasks and value is _MISS:
                done, _ = await asyncio.wait(
                    tasks, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    t_shard, t_ctx, t_start = tasks.pop(task)
                    exc = task.exception()
                    # Settled even when another copy already won — a
                    # half-open trial must never leak its slot.
                    outcome = self._settle(t_shard, exc)
                    if outcome == "ok":
                        if value is _MISS:
                            # The task is done: this await just unwraps it.
                            value, winner = await task, t_shard
                            self._finish_attempt(t_ctx, t_start, t_shard, attempt, "ok")
                        continue
                    if outcome == "unknown":
                        # Surface it unchanged.
                        await self._abandon(tasks)
                        raise exc
                    if outcome == "rejected":
                        # The request itself is bad: every replica
                        # would reject it the same way.
                        await self._abandon(tasks)
                        self._finish_attempt(t_ctx, t_start, t_shard, attempt, "rejected")
                        if route_ctx is not None:
                            self._finish_route(route_ctx, route_start, op, tried, False)
                        raise exc
                    # shed or failed: retry elsewhere.
                    elapsed = _perf() - t_start
                    cheapest = elapsed if cheapest is None else min(cheapest, elapsed)
                    last_error = exc
                    if outcome == "shed":
                        self.shed_retries += 1
                    self._finish_attempt(
                        t_ctx, t_start, t_shard, attempt,
                        "shed" if outcome == "shed" else f"failed: {type(exc).__name__}",
                    )
            if value is _MISS:
                continue  # every copy of this attempt failed
            await self._abandon(tasks)
            self.routed[winner] += 1
            if attempt > 0:
                self.failovers += 1
            if winner != shard:
                self.hedge_wins += 1
            if route_ctx is not None:
                self._finish_route(
                    route_ctx, route_start, op, tried,
                    attempt > 0 or winner != shard,
                )
            return value
        if route_ctx is not None:
            self._finish_route(route_ctx, route_start, op, tried, False)
        raise self._give_up(op, "request", 1, tried, last_error, blocked)

    def _finish_attempt(
        self, ctx: TraceContext | None, started: float, shard: str, attempt: int,
        outcome: str,
    ) -> None:
        if ctx is None:  # untraced
            return
        self.tracer.record_raw(
            ctx, "router.attempt", _wall() - (_perf() - started),
            _perf() - started,
            {"shard": shard, "attempt": attempt + 1, "outcome": outcome},
        )

    def _finish_route(
        self, ctx: TraceContext, started: float, op: str, tried: set,
        failover: bool,
    ) -> None:
        self.tracer.record_raw(
            ctx, "router.route", _wall() - (_perf() - started),
            _perf() - started,
            {"op": op, "attempts": len(tried), "failover": failover},
        )

    async def score(
        self,
        a: str,
        b: str,
        mode: str | None = None,
        band: int | None = None,
        gap_open: float | None = None,
        gap_extend: float | None = None,
        backend: str | None = None,
        trace: TraceContext | None = None,
        deadline_ms: float | None = None,
    ) -> float:
        # backend is an execution hint, not part of the routing key —
        # backends are parity-tested to return identical scores.
        return await self._route(
            "score", a, b, mode, band,
            lambda c, ctx, budget: c.score(
                a, b, mode=mode, band=band, gap_open=gap_open,
                gap_extend=gap_extend, backend=backend, trace=ctx,
                deadline_ms=budget,
            ),
            gap_open, gap_extend, trace=trace, deadline_ms=deadline_ms,
        )

    async def align(
        self,
        a: str,
        b: str,
        mode: str | None = None,
        band: int | None = None,
        gap_open: float | None = None,
        gap_extend: float | None = None,
        memory: str | None = None,
        backend: str | None = None,
        trace: TraceContext | None = None,
        deadline_ms: float | None = None,
    ) -> Alignment:
        # memory and backend are execution hints, not part of the
        # routing key — the result is byte-identical either way.
        return await self._route(
            "align", a, b, mode, band,
            lambda c, ctx, budget: c.align(
                a, b, mode=mode, band=band, gap_open=gap_open,
                gap_extend=gap_extend, memory=memory, backend=backend,
                trace=ctx, deadline_ms=budget,
            ),
            gap_open, gap_extend, trace=trace, deadline_ms=deadline_ms,
        )

    async def request_many(
        self, entries: Sequence[dict], concurrency: int = 64
    ) -> list:
        """Route a heterogeneous batch as frames; results in request
        order.

        Each entry is ``{"op", "a", "b"}`` plus any knobs (the
        keyset-file shape, and what the CLI's mixed workloads use).
        Entries are grouped by op and knob set, each group is split by
        owning shard, and each shard gets one sub-frame per group
        (:meth:`_route_frame`).  Position ``i`` of the returned list
        answers entry ``i`` — regardless of which shard served it or
        whether failover rerouted it.  If any entry failed, the first
        failed entry's typed error is raised once every frame is done.
        """
        groups: dict[tuple, list[int]] = {}
        for k, entry in enumerate(entries):
            knobs = tuple(entry.get(name) for name in _FRAME_KNOBS)
            groups.setdefault((entry["op"], knobs), []).append(k)
        results: list = [None] * len(entries)
        errors: dict[int, Exception] = {}
        limit = asyncio.Semaphore(max(1, concurrency))

        async def group(op: str, knobs: tuple, idxs: list[int]) -> None:
            kwargs = dict(zip(_FRAME_KNOBS, knobs))
            if op != "align":
                kwargs.pop("memory")
            values, failed = await self._route_frame(
                op, [(entries[k]["a"], entries[k]["b"]) for k in idxs], limit, **kwargs
            )
            for k, value in zip(idxs, values):
                results[k] = value
            errors.update((idxs[j], exc) for j, exc in failed.items())

        await asyncio.gather(*(group(op, knobs, idxs) for (op, knobs), idxs in groups.items()))
        if errors:
            raise errors[min(errors)]
        return results

    async def _route_frame(
        self,
        op: str,
        pairs: Sequence[tuple[str, str]],
        limit: asyncio.Semaphore,
        mode: str | None = None,
        band: int | None = None,
        gap_open: float | None = None,
        gap_extend: float | None = None,
        memory: str | None = None,
        backend: str | None = None,
        trace: TraceContext | None = None,
        deadline_ms: float | None = None,
    ) -> tuple[list, dict[int, Exception]]:
        """Route one frame: split ``pairs`` by owning shard, send each
        shard one sub-frame, and fail over per pair.

        A sub-frame whose shard fails (connection-level) evicts the
        shard and is re-split over the ring's survivors; pairs the
        shard shed (``OVERLOADED``) go to their next replica without an
        eviction.  Each pair is tried on at most ``max_attempts``
        distinct shards, and a retry starts only while the deadline
        budget covers it (the policy of :meth:`_route`).  Frames are
        not hedged.  ``request_timeout`` bounds one pair's attempt, so
        a sub-frame's attempt gets one ``request_timeout`` per
        :data:`_PAIRS_PER_TIMEOUT` pairs it carries (see there).
        ``limit`` bounds the frame lines in flight.  Returns
        ``(results, errors)`` as :meth:`AsyncAlignmentClient.frame`
        does; counters count pairs (``routed``, ``failovers``,
        ``failed_requests``, ``shed_retries``, ``deadline_gaveups``)
        or sub-frame attempts (``retries``).
        """
        keys = [self.key_for(op, a, b, mode, band, gap_open, gap_extend) for a, b in pairs]
        deadline = deadline_from_budget_ms(deadline_ms)
        knobs = {"mode": mode, "band": band, "gap_open": gap_open,
                 "gap_extend": gap_extend, "backend": backend}
        if op == "align":
            knobs["memory"] = memory
        results: list = [None] * len(pairs)
        errors: dict[int, Exception] = {}
        self._breaker_readmit()
        route_ctx = trace.child() if trace is not None else None
        route_start = _perf()
        cheapest: list[float] = []  # failed attempts' durations: the retry floor

        def fail(idxs: list[int], exc: Exception) -> None:
            errors.update((i, exc) for i in idxs)

        async def send(idxs: list[int], tried: frozenset, attempt: int,
                       last_error: Exception | None) -> None:
            if self._budget_spent(deadline, attempt, min(cheapest, default=None)):
                fail(idxs, self._deadline_gaveup(op, "frame", len(idxs), len(tried), last_error))
                return
            # Split by each pair's next admissible replica; breakers are
            # asked once per shard per split, so a half-open breaker's
            # one trial is the whole sub-frame.
            admits: dict[str, bool] = {}
            by_shard: dict[str, list[int]] = {}
            stuck: dict[bool, list[int]] = {}  # no replica left, by "circuit open"
            for i in idxs:
                shard, blocked = self._next_replica(keys[i], tried, admits)
                if shard is None:
                    stuck.setdefault(blocked, []).append(i)
                else:
                    by_shard.setdefault(shard, []).append(i)
            for blocked, sub in stuck.items():
                fail(sub, self._give_up(op, "frame", len(sub), tried, last_error, blocked))
            await asyncio.gather(*(
                attempt_shard(shard, sub, tried, attempt) for shard, sub in by_shard.items()
            ))

        async def attempt_shard(shard: str, idxs: list[int], tried: frozenset,
                                attempt: int) -> None:
            if attempt:
                self.retries += 1
                _log.warning(
                    "failover retry",
                    extra={"op": op, "shard": shard, "attempt": attempt + 1,
                           "pairs": len(idxs)},
                )
            budget_ms = remaining_ms(deadline) if deadline is not None else None
            timeout = self.request_timeout
            if timeout is not None:
                timeout *= -(-len(idxs) // _PAIRS_PER_TIMEOUT)
            if deadline is not None:
                rem = deadline - time.monotonic()
                timeout = rem if timeout is None else min(timeout, rem)
            ctx = route_ctx.child() if route_ctx is not None else None
            start = _perf()
            sub = [pairs[i] for i in idxs]
            try:
                values, failed = await self._call_shard(
                    shard, op,
                    lambda c: c.frame(op, sub, limit, ctx, deadline_ms=budget_ms, **knobs),
                    timeout=timeout,
                )
            except BaseException as exc:
                outcome = self._settle(shard, exc)
                if outcome == "unknown":
                    raise
                if outcome == "rejected":
                    # A bad frame: every replica would reject it the same way.
                    self._finish_attempt(ctx, start, shard, attempt, "rejected")
                    fail(idxs, exc)
                    return
                cheapest.append(_perf() - start)
                self._finish_attempt(ctx, start, shard, attempt, f"failed: {type(exc).__name__}")
                await retry(idxs, tried | {shard}, attempt, exc)
                return
            self._settle(shard, None)
            self._finish_attempt(ctx, start, shard, attempt, "ok")
            shed: list[int] = []
            for j, i in enumerate(idxs):
                exc = failed.get(j)
                if exc is None:
                    results[i] = values[j]
                elif isinstance(exc, RetryableError):
                    shed.append(i)  # healthy but loaded: next replica
                    last = exc
                else:
                    errors[i] = exc
            served = len(idxs) - len(failed)
            self.routed[shard] += served
            if attempt:
                self.failovers += served
            if shed:
                self.shed_retries += len(shed)
                cheapest.append(_perf() - start)
                await retry(shed, tried | {shard}, attempt, last)

        async def retry(idxs: list[int], tried: frozenset, attempt: int,
                        exc: Exception) -> None:
            if attempt + 1 < self.max_attempts:
                await send(idxs, tried, attempt + 1, exc)
            else:
                fail(idxs, self._give_up(op, "frame", len(idxs), tried, exc, False))

        await send(list(range(len(pairs))), frozenset(), 0, None)
        if route_ctx is not None:
            self.tracer.record_raw(
                route_ctx, "router.route", _wall() - (_perf() - route_start),
                _perf() - route_start,
                {"op": op + "_many", "pairs": len(pairs), "failed": len(errors)},
            )
        return results, errors

    async def _many(self, op: str, pairs, concurrency: int, **knobs) -> list:
        results, errors = await self._route_frame(
            op, pairs, asyncio.Semaphore(max(1, concurrency)), **knobs
        )
        if errors:
            raise errors[min(errors)]
        return results

    async def score_many(
        self,
        pairs: Sequence[tuple[str, str]],
        concurrency: int = 64,
        mode: str | None = None,
        band: int | None = None,
        gap_open: float | None = None,
        gap_extend: float | None = None,
        backend: str | None = None,
        deadline_ms: float | None = None,
        trace: TraceContext | None = None,
    ) -> list[float]:
        """Scores for every pair, in order, routed as one frame
        (``concurrency`` bounds the sub-frames in flight).  Raises the
        first failed pair's typed error, if any."""
        return await self._many(
            "score", pairs, concurrency, mode=mode, band=band, gap_open=gap_open,
            gap_extend=gap_extend, backend=backend, deadline_ms=deadline_ms, trace=trace,
        )

    async def align_many(
        self,
        pairs: Sequence[tuple[str, str]],
        concurrency: int = 64,
        mode: str | None = None,
        band: int | None = None,
        gap_open: float | None = None,
        gap_extend: float | None = None,
        memory: str | None = None,
        backend: str | None = None,
        deadline_ms: float | None = None,
        trace: TraceContext | None = None,
    ) -> list[Alignment]:
        """Alignments for every pair, in order, routed as one frame."""
        return await self._many(
            "align", pairs, concurrency, mode=mode, band=band, gap_open=gap_open,
            gap_extend=gap_extend, memory=memory, backend=backend,
            deadline_ms=deadline_ms, trace=trace,
        )

    # -- stats --------------------------------------------------------

    def router_stats(self) -> dict:
        return {
            "configured_shards": self.configured_shards,
            "live_shards": self.live_shards,
            "vnodes": self.ring.vnodes,
            "routed": dict(self.routed),
            "routed_total": sum(self.routed.values()),
            "retries": self.retries,
            "failovers": self.failovers,
            "evictions": self.evictions,
            "readmissions": self.readmissions,
            "failed_requests": self.failed_requests,
            "shed_retries": self.shed_retries,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "deadline_gaveups": self.deadline_gaveups,
            "breaker_fast_fails": self.breaker_fast_fails,
            "breaker_opens": sum(b.opens for b in self._breakers.values()),
            "breakers": {
                shard: self._breakers[shard].state if shard in self._breakers
                else CLOSED
                for shard in self.configured_shards
            },
        }

    async def cluster_stats(self) -> dict:
        """Aggregated cluster stats: per-shard snapshots (each probed
        over a fresh connection), router counters, and cross-shard
        aggregates (summed counters, pooled cache hit rate, worst-case
        latency quantiles)."""
        shards: dict[str, dict] = {}

        async def grab(shard: str) -> None:
            try:
                shards[shard] = await self.probe_shard(shard)
            except Exception as exc:
                shards[shard] = {"error": f"{type(exc).__name__}: {exc}"}

        await asyncio.gather(*(grab(s) for s in self.configured_shards))
        live = [s for s in shards.values() if "error" not in s]
        agg: dict[str, Any] = {"shards_reporting": len(live)}
        if live:
            requests = sum(s["requests"]["total"] for s in live)
            errors = sum(s["requests"]["errors"] for s in live)
            by_mode: Counter[str] = Counter()
            for s in live:
                by_mode.update(s["requests"].get("by_mode", {}))
            hits = sum(s["cache"]["hits"] for s in live)
            misses = sum(s["cache"]["misses"] for s in live)
            dispatched = sum(s["batches"]["dispatched"] for s in live)
            pairs = sum(s["batches"]["pairs"] for s in live)
            agg.update(
                {
                    "requests_total": requests,
                    "errors": errors,
                    "requests_by_mode": dict(by_mode),
                    "cache": {
                        "hits": hits,
                        "misses": misses,
                        "size": sum(s["cache"]["size"] for s in live),
                        "maxsize": sum(s["cache"]["maxsize"] for s in live),
                        "hit_rate": round(hits / (hits + misses), 4)
                        if hits + misses
                        else 0.0,
                    },
                    "batches": {
                        "dispatched": dispatched,
                        "pairs": pairs,
                        "mean_size": round(pairs / dispatched, 2) if dispatched else 0.0,
                        "max_size": max(s["batches"]["max_size"] for s in live),
                    },
                    "latency_ms": {
                        "worst_p50": max(s["latency_ms"]["p50"] for s in live),
                        "worst_p95": max(s["latency_ms"]["p95"] for s in live),
                        "worst_p99": max(
                            s["latency_ms"].get("p99", 0.0) for s in live
                        ),
                    },
                }
            )
        return {"router": self.router_stats(), "aggregate": agg, "shards": shards}

    # -- observability ------------------------------------------------

    def render_router_metrics(self) -> str:
        """The router's own counters as a Prometheus exposition, so a
        cluster scrape carries routing health (retries, failovers,
        evictions) alongside the shards' request metrics."""
        registry = MetricsRegistry()
        routed = registry.counter(
            "fragalign_router_requests_total",
            "Requests completed per shard.", labels=("shard",),
        )
        for shard, count in self.routed.items():
            routed.inc(count, shard=shard)
        registry.counter(
            "fragalign_router_retries_total", "Failover attempts made."
        ).inc(self.retries)
        registry.counter(
            "fragalign_router_failovers_total",
            "Requests served by a non-first replica.",
        ).inc(self.failovers)
        registry.counter(
            "fragalign_router_evictions_total", "Shards evicted from the ring."
        ).inc(self.evictions)
        registry.counter(
            "fragalign_router_readmissions_total", "Shards readmitted to the ring."
        ).inc(self.readmissions)
        registry.counter(
            "fragalign_router_failed_requests_total",
            "Requests that exhausted every replica.",
        ).inc(self.failed_requests)
        registry.counter(
            "fragalign_router_shed_retries_total",
            "OVERLOADED answers retried on another replica.",
        ).inc(self.shed_retries)
        registry.counter(
            "fragalign_router_hedges_total", "Duplicate (hedged) attempts fired."
        ).inc(self.hedges)
        registry.counter(
            "fragalign_router_hedge_wins_total",
            "Requests won by the hedged copy.",
        ).inc(self.hedge_wins)
        registry.counter(
            "fragalign_router_deadline_gaveups_total",
            "Retries abandoned because the deadline budget ran out.",
        ).inc(self.deadline_gaveups)
        registry.counter(
            "fragalign_router_breaker_fast_fails_total",
            "Requests refused because every untried circuit was open.",
        ).inc(self.breaker_fast_fails)
        registry.counter(
            "fragalign_router_breaker_opens_total",
            "Circuit-breaker trips across all shards.",
        ).inc(sum(b.opens for b in self._breakers.values()))
        breaker_state = registry.gauge(
            "fragalign_router_breaker_state",
            "Circuit state per shard (0 closed, 1 half-open, 2 open).",
            labels=("shard",),
        )
        for shard in self.configured_shards:
            breaker = self._breakers.get(shard)
            state = breaker.state if breaker is not None else CLOSED
            breaker_state.set(STATE_CODES[state], shard=shard)
        registry.gauge(
            "fragalign_router_live_shards", "Shards currently on the ring."
        ).set(len(self.ring.nodes))
        return registry.render()

    async def scrape_shard_metrics(self, shard: str) -> str:
        """Scrape one shard's ``metrics`` op over a fresh, bounded
        connection (mirrors :meth:`probe_shard`)."""
        host, port = self.addresses[shard]

        async def scrape() -> str:
            client = await AsyncAlignmentClient.connect(host, port)
            try:
                return await client.metrics()
            finally:
                await client.close()

        return await asyncio.wait_for(scrape(), timeout=self.connect_timeout)

    async def cluster_metrics(self) -> dict:
        """Scrape every configured shard's exposition and merge them
        (plus the router's own counters) into one cluster-wide text.

        Returns ``{"merged": text, "shards": {shard: text | None},
        "errors": {shard: message}}`` — unreachable shards are reported,
        not fatal, so a degraded cluster still exposes metrics."""
        shards: dict[str, str | None] = {}
        errors: dict[str, str] = {}

        async def grab(shard: str) -> None:
            try:
                shards[shard] = await self.scrape_shard_metrics(shard)
            except Exception as exc:
                shards[shard] = None
                errors[shard] = f"{type(exc).__name__}: {exc}"

        await asyncio.gather(*(grab(s) for s in self.configured_shards))
        texts = [t for t in shards.values() if t] + [self.render_router_metrics()]
        return {
            "merged": merge_expositions(texts),
            "shards": shards,
            "errors": errors,
        }

    async def cluster_slo(self, specs: Sequence[str] | None = None) -> dict:
        """Cluster-level SLO evaluation over the merged shard scrape.

        The router holds its own :class:`~fragalign.obs.slo.SLOEngine`
        fed from :meth:`cluster_metrics` — per-op histograms and
        request/error counters sum across shards under merge, so the
        burn rates here are the *cluster's*, not any one shard's.
        ``specs`` (spec strings) configure the engine on first use; a
        different set later rebuilds it (history restarts).
        """
        specs_key = tuple(specs) if specs else None
        if self._slo_engine is None or (
            specs_key is not None and specs_key != self._slo_specs
        ):
            self._slo_engine = SLOEngine.from_specs(specs_key)
            self._slo_specs = specs_key
        report = await self.cluster_metrics()
        self._slo_engine.sample(parse_exposition(report["merged"]))
        return {
            "slos": self._slo_engine.evaluate(),
            "errors": report["errors"],
            "shards_reporting": sum(1 for t in report["shards"].values() if t),
        }

    async def collect_trace(self, trace_id: str) -> dict:
        """Assemble one request's full span tree: drain the router's
        local spans for ``trace_id`` and fan a ``trace`` op out to every
        configured shard (evicted shards included — the failed attempt's
        server-side spans live there).  Unreachable shards are skipped:
        a trace should degrade, not fail, when a shard is down."""
        spans = [s.to_dict() for s in self.tracer.buffer.drain(trace_id)]
        dropped = self.tracer.buffer.dropped
        errors: dict[str, str] = {}

        async def grab(shard: str) -> None:
            nonlocal dropped
            host, port = self.addresses[shard]

            async def ask() -> dict:
                client = await AsyncAlignmentClient.connect(host, port)
                try:
                    return await client.trace_spans(trace_id)
                finally:
                    await client.close()

            try:
                reply = await asyncio.wait_for(ask(), timeout=self.connect_timeout)
            except Exception as exc:
                errors[shard] = f"{type(exc).__name__}: {exc}"
                return
            spans.extend(reply.get("spans", ()))
            dropped += reply.get("dropped", 0)

        await asyncio.gather(*(grab(s) for s in self.configured_shards))
        spans.sort(key=lambda s: (s.get("start_s", 0.0), s.get("span_id", "")))
        return {"trace_id": trace_id, "spans": spans, "dropped": dropped,
                "errors": errors}

    # -- lifecycle ----------------------------------------------------

    async def shutdown_shards(self) -> dict[str, bool]:
        """Send ``shutdown`` to every configured shard (live or not),
        concurrently and each bounded by ``connect_timeout`` so one
        black-holed host can't stall the teardown; return
        {shard: acknowledged}."""

        async def one(shard: str) -> bool:
            host, port = self.addresses[shard]

            async def ask() -> None:
                client = await AsyncAlignmentClient.connect(host, port)
                try:
                    await client.shutdown()
                finally:
                    await client.close()

            try:
                await asyncio.wait_for(ask(), timeout=self.connect_timeout)
                return True
            except Exception:
                return False

        shards = self.configured_shards
        outcomes = await asyncio.gather(*(one(s) for s in shards))
        return dict(zip(shards, outcomes))

    async def close(self) -> None:
        clients = list(self._clients.values()) + self._orphans
        self._clients, self._orphans = {}, []
        for client in clients:
            try:
                await client.close()
            except Exception:
                pass
        if self._closing:
            await asyncio.gather(*list(self._closing), return_exceptions=True)

    async def __aenter__(self) -> "ShardRouter":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()


class ClusterClient:
    """Blocking facade over :class:`ShardRouter` (+ optional health
    monitor), on a private event-loop thread — the cluster-tier twin of
    :class:`~fragalign.service.client.AlignmentClient`::

        with ClusterClient([("127.0.0.1", p) for p in ports]) as cluster:
            scores = cluster.score_many(pairs, concurrency=64)
            report = cluster.stats()
    """

    def __init__(
        self,
        addresses: Sequence[tuple[str, int]],
        vnodes: int = 96,
        model_fp: str = "",
        max_attempts: int = 2,
        request_timeout: float | None = None,
        default_mode: str = "global",
        default_band: int | None = None,
        default_gap_open: float | None = None,
        default_gap_extend: float | None = None,
        health_interval: float | None = None,
        health_fail_after: int = 2,
        breaker_threshold: int = 3,
        breaker_recovery: float = 5.0,
        hedge_delay: float | None = None,
        hedge_max_fraction: float = 0.1,
        retry_min_budget: float = 0.0,
    ) -> None:
        self.router = ShardRouter(
            addresses,
            vnodes=vnodes,
            model_fp=model_fp,
            max_attempts=max_attempts,
            request_timeout=request_timeout,
            default_mode=default_mode,
            default_band=default_band,
            default_gap_open=default_gap_open,
            default_gap_extend=default_gap_extend,
            breaker_threshold=breaker_threshold,
            breaker_recovery=breaker_recovery,
            hedge_delay=hedge_delay,
            hedge_max_fraction=hedge_max_fraction,
            retry_min_budget=retry_min_budget,
        )
        self._monitor = None
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="fragalign-cluster", daemon=True
        )
        self._thread.start()
        try:
            if health_interval is not None:
                from fragalign.cluster.health import HealthMonitor

                self._monitor = HealthMonitor(
                    self.router,
                    interval=health_interval,
                    fail_after=health_fail_after,
                )
                self._call(self._start_monitor())
        except BaseException:
            # Construction failed after the loop thread started:
            # release it before re-raising or it leaks for the
            # process lifetime (mirrors AlignmentClient.__init__).
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=5)
            self._loop.close()
            raise

    async def _start_monitor(self) -> None:
        self._monitor.start()

    def _call(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    # -- operations ---------------------------------------------------

    def score(
        self, a, b, mode=None, band=None, gap_open=None, gap_extend=None,
        backend=None, trace=None, deadline_ms=None,
    ) -> float:
        return self._call(
            self.router.score(
                a, b, mode=mode, band=band, gap_open=gap_open,
                gap_extend=gap_extend, backend=backend, trace=trace,
                deadline_ms=deadline_ms,
            )
        )

    def align(
        self, a, b, mode=None, band=None, gap_open=None, gap_extend=None,
        memory=None, backend=None, trace=None, deadline_ms=None,
    ) -> Alignment:
        return self._call(
            self.router.align(
                a, b, mode=mode, band=band, gap_open=gap_open,
                gap_extend=gap_extend, memory=memory, backend=backend,
                trace=trace, deadline_ms=deadline_ms,
            )
        )

    def score_many(
        self, pairs, concurrency=64, mode=None, band=None, gap_open=None,
        gap_extend=None, backend=None, deadline_ms=None,
    ) -> list[float]:
        return self._call(
            self.router.score_many(
                pairs, concurrency=concurrency, mode=mode, band=band,
                gap_open=gap_open, gap_extend=gap_extend, backend=backend,
                deadline_ms=deadline_ms,
            )
        )

    def align_many(
        self, pairs, concurrency=64, mode=None, band=None, gap_open=None,
        gap_extend=None, memory=None, backend=None, deadline_ms=None,
    ) -> list[Alignment]:
        return self._call(
            self.router.align_many(
                pairs, concurrency=concurrency, mode=mode, band=band,
                gap_open=gap_open, gap_extend=gap_extend, memory=memory,
                backend=backend, deadline_ms=deadline_ms,
            )
        )

    def request_many(self, entries, concurrency=64) -> list:
        """Blocking mixed-batch fan-out (see :meth:`ShardRouter.request_many`)."""
        return self._call(self.router.request_many(entries, concurrency=concurrency))

    def warm(self, entries, concurrency=32) -> dict:
        """Replay keyset entries into the owning shards; returns the
        warm report (see :func:`fragalign.cluster.warm.warm_router`)."""
        from fragalign.cluster.warm import warm_router

        return self._call(warm_router(self.router, entries, concurrency=concurrency))

    def shard_for(self, op, a, b, mode=None, band=None, gap_open=None, gap_extend=None) -> str:
        return self.router.shard_for(op, a, b, mode, band, gap_open, gap_extend)

    def stats(self) -> dict:
        report = self._call(self.router.cluster_stats())
        if self._monitor is not None:
            report["health"] = self._monitor.snapshot()
        return report

    def metrics(self) -> dict:
        """Scrape + merge every shard's Prometheus exposition (see
        :meth:`ShardRouter.cluster_metrics`)."""
        return self._call(self.router.cluster_metrics())

    def slo(self, specs: Sequence[str] | None = None) -> dict:
        """Cluster-merged SLO evaluation (see :meth:`ShardRouter.cluster_slo`)."""
        return self._call(self.router.cluster_slo(specs))

    def collect_trace(self, trace_id: str) -> dict:
        """Assemble one trace's spans from the router and every shard
        (see :meth:`ShardRouter.collect_trace`)."""
        return self._call(self.router.collect_trace(trace_id))

    def probe_round(self) -> dict:
        """Run one synchronous health-probe round (even when no
        periodic monitor is configured)."""
        if self._monitor is None:
            from fragalign.cluster.health import HealthMonitor

            self._monitor = HealthMonitor(self.router)
        return self._call(self._monitor.probe_round())

    def shutdown_shards(self) -> dict[str, bool]:
        return self._call(self.router.shutdown_shards())

    # -- lifecycle ----------------------------------------------------

    def close(self) -> None:
        async def teardown():
            if self._monitor is not None:
                await self._monitor.stop()
            await self.router.close()

        try:
            self._call(teardown())
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=5)
            self._loop.close()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
