"""Service observability: request counters, batch shapes, latency.

One :class:`ServiceStats` instance lives on the server; the batcher
and connection handlers feed it, and the ``stats`` request type
returns :meth:`ServiceStats.snapshot`.  Since the obs subsystem
landed, the counters and the latency distribution are backed by a
:class:`~fragalign.obs.metrics.MetricsRegistry` — the same instruments
the ``metrics`` op renders as Prometheus text — so the ``stats`` JSON
surface and the exposition can never disagree.

The latency quantiles come from a **fixed-bucket log-spaced
histogram**, not a sample reservoir.  The old implementation kept the
most recent 4096 samples in a deque and took nearest-rank quantiles
over them; once traffic exceeds the reservoir that estimator only
sees the newest window, so a latency regression that happened
*earlier* in the run vanishes from p95/p99 (recency bias — the
regression test in ``tests/test_obs.py`` demonstrates the
under-report).  The histogram keeps every observation since boot in
O(#buckets) memory and its quantile estimate is exact to within one
bucket width (bounds ratio ~1.33).
"""

from __future__ import annotations

import time
from collections import Counter as _TallyCounter

from fragalign.obs.metrics import MetricsRegistry

__all__ = ["ServiceStats"]


class ServiceStats:
    """Mutable counters for one server instance.

    ``registry`` is the shared metrics registry the instruments live
    in (the server passes its own so the kernel profiler and the
    ``metrics`` op see one coherent set); omitted, a private registry
    is created — the standalone behaviour tests rely on.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.started = time.monotonic()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._requests = self.registry.counter(
            "fragalign_requests_total", "Requests received, by op.", labels=("op",)
        )
        self._modes = self.registry.counter(
            "fragalign_requests_by_mode_total",
            "Pair-op requests by resolved alignment mode.",
            labels=("mode",),
        )
        self._frames = self.registry.counter(
            "fragalign_frames_total",
            "score_many/align_many frames received, by pair op.",
            labels=("op",),
        )
        self._errors = self.registry.counter(
            "fragalign_errors_total", "Requests answered with ok=false."
        )
        # Per-op error split: the availability SLO's bad-event counter
        # (fragalign.obs.slo reads it out of the exposition).
        self._errors_by_op = self.registry.counter(
            "fragalign_errors_by_op_total",
            "Requests answered with ok=false, by op.",
            labels=("op",),
        )
        self._conn_open = self.registry.gauge(
            "fragalign_connections_open", "Currently open client connections."
        )
        self._conn_total = self.registry.counter(
            "fragalign_connections_total", "Client connections ever accepted."
        )
        self._writes = self.registry.counter(
            "fragalign_socket_writes_total",
            "Socket writes of answer lines (one per connection per loop turn).",
        )
        self._batches = self.registry.counter(
            "fragalign_batches_total", "Micro-batches dispatched to the engine."
        )
        self._batched_pairs = self.registry.counter(
            "fragalign_batched_pairs_total", "Jobs dispatched inside micro-batches."
        )
        self._max_batch = self.registry.gauge(
            "fragalign_batch_max_size", "Largest micro-batch dispatched."
        )
        self._coalesced = self.registry.counter(
            "fragalign_coalesced_total",
            "Requests folded into an identical in-flight job.",
        )
        self._latency = self.registry.histogram(
            "fragalign_request_latency_seconds",
            "Request service time, parse to response-ready.",
        )
        # Per-op latency lives in separate histograms (histograms are
        # unlabeled): the latency SLOs read their good/total counts
        # from these, one per pair op.
        self._op_latency = {
            "score": self.registry.histogram(
                "fragalign_score_latency_seconds",
                "score request service time, parse to response-ready.",
            ),
            "align": self.registry.histogram(
                "fragalign_align_latency_seconds",
                "align request service time, parse to response-ready.",
            ),
        }
        # Resilience counters (fragalign.resilience): the chaos drill
        # asserts on these names in the merged cluster exposition.
        self._shed = self.registry.counter(
            "fragalign_shed_total", "Requests shed at admission (OVERLOADED)."
        )
        self._deadline_exceeded = self.registry.counter(
            "fragalign_deadline_exceeded_total",
            "Requests rejected or dropped because their deadline expired.",
        )
        self._degraded_responses = self.registry.counter(
            "fragalign_degraded_responses_total",
            "Align requests answered in degraded (score-only) form.",
        )
        self._degraded_mode = self.registry.gauge(
            "fragalign_degraded_mode",
            "1 while the server is past its load watermark, else 0.",
        )
        self._inflight_cells = self.registry.gauge(
            "fragalign_inflight_cells",
            "Estimated DP cells currently admitted to compute.",
        )

    # -- feeders ------------------------------------------------------

    def observe_request(self, op: str, count: int = 1) -> None:
        self._requests.inc(count, op=op)

    def observe_frame(self, op: str) -> None:
        """Count one ``score_many``/``align_many`` frame under its pair
        op (its pairs count as requests through :meth:`observe_request`)."""
        self._frames.inc(op=op)

    def observe_mode(self, mode: str, count: int = 1) -> None:
        """Count pair-op requests under their *resolved* alignment
        mode (the server's default already substituted), so cluster
        aggregation can break traffic down by mode."""
        self._modes.inc(count, mode=mode)

    def observe_error(self, op: str | None = None, count: int = 1) -> None:
        self._errors.inc(count)
        if op is not None:
            self._errors_by_op.inc(count, op=op)

    def observe_connection(self, delta: int) -> None:
        self._conn_open.add(delta)
        if delta > 0:
            self._conn_total.inc(delta)

    def observe_write(self) -> None:
        """Count one corked socket write (see ``service.outbox``)."""
        self._writes.inc()

    def observe_batch(self, size: int) -> None:
        self._batches.inc()
        self._batched_pairs.inc(size)
        self._max_batch.set_max(size)

    def observe_coalesced(self) -> None:
        self._coalesced.inc()

    def observe_latency(
        self, seconds: float, op: str | None = None, exemplar: str | None = None,
        count: int = 1,
    ) -> None:
        """Record the service time of ``count`` requests (a frame's
        pairs share one).  ``exemplar`` is a retained trace id attached
        to the histogram bucket the observation lands in — the
        p99-to-trace jump."""
        self._latency.observe(seconds, exemplar=exemplar, count=count)
        per_op = self._op_latency.get(op)
        if per_op is not None:
            per_op.observe(seconds, exemplar=exemplar, count=count)

    def observe_shed(self) -> None:
        self._shed.inc()

    def observe_deadline_exceeded(self) -> None:
        self._deadline_exceeded.inc()

    def observe_degraded_response(self) -> None:
        self._degraded_responses.inc()

    def set_degraded_mode(self, degraded: bool) -> None:
        self._degraded_mode.set(1 if degraded else 0)

    def set_inflight_cells(self, cells: int) -> None:
        self._inflight_cells.set(cells)

    # -- surface ------------------------------------------------------

    def snapshot(self, cache_stats: dict | None = None, engine: dict | None = None,
                 admission: dict | None = None) -> dict:
        """The JSON-able stats object served by the ``stats`` op.

        Schema-compatible with the pre-obs surface (additive only):
        ``latency_ms`` quantiles are now histogram-derived, and the
        additive ``latency_ms.estimator`` key says so.
        """
        requests = _TallyCounter(
            {dict(key)["op"]: int(value) for key, value in self._requests.values().items()}
        )
        modes = {dict(key)["mode"]: int(value) for key, value in self._modes.values().items()}
        batches = int(self._batches.value())
        batched_pairs = int(self._batched_pairs.value())
        samples = self._latency.count
        out = {
            "uptime_s": round(time.monotonic() - self.started, 3),
            "connections": {
                "open": int(self._conn_open.value()),
                "total": int(self._conn_total.value()),
            },
            "requests": {
                "total": sum(requests.values()),
                "errors": int(self._errors.value()),
                **requests,
                # Additive key (older clients ignore it): pair-op
                # traffic by resolved alignment mode.
                "by_mode": modes,
            },
            "batches": {
                "dispatched": batches,
                "pairs": batched_pairs,
                "mean_size": round(batched_pairs / batches, 2) if batches else 0.0,
                "max_size": int(self._max_batch.value()),
                "coalesced": int(self._coalesced.value()),
            },
            "latency_ms": {
                "samples": samples,
                "p50": round(self._latency.quantile(0.50) * 1e3, 3),
                "p95": round(self._latency.quantile(0.95) * 1e3, 3),
                "p99": round(self._latency.quantile(0.99) * 1e3, 3),
                "mean": round(self._latency.mean() * 1e3, 3),
                "estimator": "histogram",  # additive: was a 4096-sample deque
            },
        }
        # Additive block (older clients ignore it): resilience counters
        # plus the admission controller's view when the server has one.
        out["resilience"] = {
            "shed": int(self._shed.value()),
            "deadline_exceeded": int(self._deadline_exceeded.value()),
            "degraded_responses": int(self._degraded_responses.value()),
            "degraded_mode": bool(self._degraded_mode.value()),
        }
        if admission is not None:
            out["resilience"]["admission"] = admission
        if cache_stats is not None:
            out["cache"] = cache_stats
        if engine is not None:
            out["engine"] = engine
        return out
