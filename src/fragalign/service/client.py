"""Client library for the alignment service (async and sync).

:class:`AsyncAlignmentClient` speaks the JSON-lines protocol over one
connection and **pipelines**: many requests can be in flight at once,
and a reader task routes each response back to its awaiting caller by
``id``.  Firing requests concurrently from one client is exactly what
lets the server's micro-batcher fill batches.

:class:`AlignmentClient` is the blocking wrapper: it runs a private
event loop on a background thread and exposes plain methods.  Both
carry ``score_many``/``align_many``, which send a pair list as one
wire frame (the CLI load generator is built on these).
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Sequence

from fragalign.align.pairwise import Alignment
from fragalign.obs.trace import TraceContext
from fragalign.service.outbox import Outbox
from fragalign.service.protocol import (
    MAX_LINE,
    ProtocolError,
    alignment_from_dict,
    decode_line,
    encode_line,
    frame_errors,
    frame_reply_bound,
    service_error_from,
)

__all__ = ["AsyncAlignmentClient", "AlignmentClient"]


class AsyncAlignmentClient:
    """One pipelined connection to a running alignment service."""

    # Bound on a request-write drain: a server that leaves the write
    # buffer above its high-water mark (not reading) for this long fails
    # the request instead of pinning it.
    WRITE_TIMEOUT = 30.0

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        # Requests issued in one loop turn leave in one socket write.
        self._outbox = Outbox(writer)
        self._waiting: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._conn_error: Exception | None = None
        self.degraded_responses = 0  # answers flagged degraded by the server
        self._reader_task = asyncio.create_task(self._read_responses())

    @classmethod
    async def connect(
        cls, host: str = "127.0.0.1", port: int = 8765,
        connect_timeout: float = 10.0,
    ) -> "AsyncAlignmentClient":
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port, limit=MAX_LINE),
            timeout=connect_timeout,
        )
        return cls(reader, writer)

    @property
    def closed(self) -> bool:
        """True once the connection is unusable (reader task finished:
        server closed the stream, or :meth:`close` ran)."""
        return self._reader_task.done()

    # -- response routing ---------------------------------------------

    async def _read_responses(self) -> None:
        error: Exception = ConnectionError("connection closed by server")
        try:
            while True:
                # io-timeout: response arrival is unbounded by design; per-request bounds live in the router
                line = await self._reader.readline()
                if not line:
                    break
                obj = decode_line(line)
                fut = self._waiting.pop(obj.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result(obj)
        except Exception as exc:  # feed the failure to every waiter
            error = exc
        finally:
            # Runs even when the task is *cancelled* (close() racing
            # in-flight requests): every waiter must be released, or a
            # request sharing this client would hang forever.  The
            # stored error also makes requests issued after the close
            # fail fast instead of writing into a dead socket.
            self._conn_error = error
            for fut in self._waiting.values():
                if not fut.done():
                    fut.set_exception(error)
            self._waiting.clear()

    async def _request(self, op: str, **fields: Any) -> dict:
        payload = {k: v for k, v in fields.items() if v is not None}
        if op == "align" and frame_reply_bound(op, [(fields["a"], fields["b"])]) > MAX_LINE:
            # The answer could outgrow the reader's line limit, which
            # would fail every request sharing this connection.
            raise ProtocolError(f"{op} answer may exceed one {MAX_LINE}-byte line")
        response = await self._exchange({"op": op, **payload}, max_line=MAX_LINE)
        if response is None:
            raise ProtocolError(f"{op} request exceeds one {MAX_LINE}-byte line")
        return response

    async def _exchange(self, obj: dict, max_line: int | None = None) -> dict | None:
        """Send one request object, await its response.  With
        ``max_line``, a line that would exceed it is not sent and
        ``None`` is returned."""
        if self._reader_task.done():
            # The connection is gone (server closed mid-stream, or we
            # closed): surface a clean error instead of writing into a
            # dead socket and awaiting a response nobody will route.
            raise self._conn_error or ConnectionError("client connection closed")
        rid = self._next_id
        self._next_id += 1
        line = encode_line({"id": rid, **obj})
        if max_line is not None and len(line) > max_line:
            return None
        fut = asyncio.get_running_loop().create_future()
        self._waiting[rid] = fut
        try:
            self._outbox.send(line)
            if self._outbox.backed_up():
                # Bounded: a server that stopped reading must fail this
                # request, not pin it forever.
                await self._outbox.drain_within(self.WRITE_TIMEOUT)
            response = await fut
        except BaseException:
            # Any exit — send failure, cancellation of a timed-out or
            # abandoned attempt — must clear the slot and observe the
            # future: a connection error set later on an unobserved
            # future would warn "exception was never retrieved" at GC.
            self._waiting.pop(rid, None)
            if fut.done() and not fut.cancelled():
                fut.exception()
            else:
                fut.cancel()
            raise
        if not response.get("ok"):
            raise service_error_from(response)
        if response.get("degraded"):
            self.degraded_responses += (
                len(response["degraded"]) if isinstance(response["degraded"], list) else 1
            )
        return response

    async def frame(
        self,
        op: str,
        pairs: Sequence[tuple[str, str]],
        limit: asyncio.Semaphore | None = None,
        trace: TraceContext | None = None,
        **knobs: Any,
    ) -> tuple[list, dict[int, Exception]]:
        """Send ``pairs`` as one ``score_many``/``align_many`` frame
        (``op`` is ``"score"`` or ``"align"``; ``knobs`` are the pair
        ops' keyword arguments, shared by every pair).

        Returns ``(results, errors)``: results in request order (a
        float or an :class:`Alignment`, ``None`` where the pair
        failed) and the typed per-pair errors by index.  A frame whose
        request line, or whose answer's :func:`frame_reply_bound`,
        would exceed :data:`MAX_LINE` is split in halves, sent
        concurrently; ``limit`` bounds the lines in flight.  A single
        pair too long for any line fails alone with a
        :class:`ProtocolError`.  A failure of the frame as a whole
        (connection loss, a bad knob) raises.
        """
        response = None
        if frame_reply_bound(op, pairs) <= MAX_LINE:
            obj = {"op": op + "_many", "pairs": pairs}
            obj.update((k, v) for k, v in knobs.items() if v is not None)
            if trace is not None:
                obj["trace_id"], obj["span_id"] = trace.trace_id, trace.span_id
            if limit is None:
                response = await self._exchange(obj, max_line=MAX_LINE)
            else:
                async with limit:
                    response = await self._exchange(obj, max_line=MAX_LINE)
        if response is None:
            if len(pairs) == 1:
                return [None], {0: ProtocolError(f"pair too long for one {MAX_LINE}-byte line")}
            mid = len(pairs) // 2
            (left, left_errors), (right, right_errors) = await asyncio.gather(
                self.frame(op, pairs[:mid], limit, trace, **knobs),
                self.frame(op, pairs[mid:], limit, trace, **knobs),
            )
            left_errors.update((mid + k, exc) for k, exc in right_errors.items())
            return left + right, left_errors
        results = response["result"]
        if op == "align":
            results = [None if r is None else alignment_from_dict(r) for r in results]
        return results, frame_errors(response)

    async def _many(self, op: str, pairs, concurrency: int | None, **knobs) -> list:
        results, errors = await self.frame(
            op, list(pairs),
            asyncio.Semaphore(concurrency) if concurrency else None, **knobs,
        )
        if errors:
            raise errors[min(errors)]
        return results

    # -- operations ---------------------------------------------------
    # mode/band/gap_open/gap_extend (and memory, for align) select the
    # per-request knobs (None = server default); see
    # fragalign.service.protocol for the wire fields.  `trace` is a
    # TraceContext whose trace_id/span_id ride along as non-semantic
    # fields — the server's span tree parents under it.

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
        response = await self._request(
            "score", a=a, b=b, mode=mode, band=band,
            gap_open=gap_open, gap_extend=gap_extend, backend=backend,
            trace_id=trace.trace_id if trace is not None else None,
            span_id=trace.span_id if trace is not None else None,
            deadline_ms=deadline_ms,
        )
        return float(response["result"])

    async def score_detail(
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
    ) -> tuple[float, bool]:
        """Score plus whether the server answered from its cache."""
        response = await self._request(
            "score", a=a, b=b, mode=mode, band=band,
            gap_open=gap_open, gap_extend=gap_extend, backend=backend,
            trace_id=trace.trace_id if trace is not None else None,
            span_id=trace.span_id if trace is not None else None,
            deadline_ms=deadline_ms,
        )
        return float(response["result"]), bool(response.get("cached"))

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
        response = await self._request(
            "align", a=a, b=b, mode=mode, band=band,
            gap_open=gap_open, gap_extend=gap_extend, memory=memory,
            backend=backend,
            trace_id=trace.trace_id if trace is not None else None,
            span_id=trace.span_id if trace is not None else None,
            deadline_ms=deadline_ms,
        )
        return alignment_from_dict(response["result"])

    async def align_detail(
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
    ) -> tuple[Alignment, bool]:
        """Alignment plus whether the server answered from its cache."""
        response = await self._request(
            "align", a=a, b=b, mode=mode, band=band,
            gap_open=gap_open, gap_extend=gap_extend, memory=memory,
            backend=backend,
            trace_id=trace.trace_id if trace is not None else None,
            span_id=trace.span_id if trace is not None else None,
            deadline_ms=deadline_ms,
        )
        return alignment_from_dict(response["result"]), bool(response.get("cached"))

    async def score_many(
        self,
        pairs: Sequence[tuple[str, str]],
        mode: str | None = None,
        band: int | None = None,
        gap_open: float | None = None,
        gap_extend: float | None = None,
        backend: str | None = None,
        trace: TraceContext | None = None,
        deadline_ms: float | None = None,
        concurrency: int | None = None,
    ) -> list[float]:
        """Scores for every pair, in order, from one ``score_many``
        frame (split only to stay under :data:`MAX_LINE`;
        ``concurrency`` bounds the split frames in flight).  Raises the
        first pair's error, if any pair failed."""
        return await self._many(
            "score", pairs, concurrency, mode=mode, band=band, gap_open=gap_open,
            gap_extend=gap_extend, backend=backend, trace=trace, deadline_ms=deadline_ms,
        )

    async def align_many(
        self,
        pairs: Sequence[tuple[str, str]],
        mode: str | None = None,
        band: int | None = None,
        gap_open: float | None = None,
        gap_extend: float | None = None,
        memory: str | None = None,
        backend: str | None = None,
        trace: TraceContext | None = None,
        deadline_ms: float | None = None,
        concurrency: int | None = None,
    ) -> list[Alignment]:
        """Alignments for every pair, in order, from one ``align_many``
        frame (see :meth:`score_many`)."""
        return await self._many(
            "align", pairs, concurrency, mode=mode, band=band, gap_open=gap_open,
            gap_extend=gap_extend, memory=memory, backend=backend, trace=trace,
            deadline_ms=deadline_ms,
        )

    async def stats(self) -> dict:
        return (await self._request("stats"))["result"]

    async def metrics(self) -> str:
        """The server's Prometheus text exposition (``metrics`` op)."""
        return (await self._request("metrics"))["result"]

    async def slo(self) -> dict:
        """The server's SLO burn-rate evaluation (``slo`` op)."""
        return (await self._request("slo"))["result"]

    async def trace_spans(self, trace_id: str | None = None) -> dict:
        """Drain the server's span ring buffer (``trace`` op).

        With ``trace_id``, only that trace's spans are drained (others
        stay buffered).  Returns ``{"spans": [...], "dropped": n}``.
        """
        return (await self._request("trace", trace_id=trace_id))["result"]

    async def ping(self) -> bool:
        return (await self._request("ping"))["result"] == "pong"

    async def shutdown(self) -> None:
        """Ask the server to stop (it answers, then winds down)."""
        await self._request("shutdown")

    # -- lifecycle ----------------------------------------------------

    async def close(self) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        self._outbox.close()
        # The close waiter is retrieved via a done-callback rather than
        # only by the await below: if this coroutine is cancelled (or
        # times out) before a broken peer's flush error lands on the
        # waiter, the un-retrieved exception would warn at GC.
        waiter = asyncio.ensure_future(self._writer.wait_closed())
        waiter.add_done_callback(
            lambda t: None if t.cancelled() else t.exception()
        )
        try:
            # Bounded: closing must never hang on a wedged peer.
            await asyncio.wait_for(asyncio.shield(waiter), timeout=5.0)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            pass

    async def __aenter__(self) -> "AsyncAlignmentClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()


class AlignmentClient:
    """Blocking facade over :class:`AsyncAlignmentClient`.

    Runs its own event loop on a daemon thread, so it works from plain
    synchronous code (scripts, the CLI) while still pipelining batch
    calls::

        with AlignmentClient(port=8765) as client:
            s = client.score("ACGT", "AGGT")
            scores = client.score_many(pairs, concurrency=64)

    ``reconnect=True`` opts into transparent recovery from connection
    loss: an operation that fails with a connection-level error
    reconnects (capped exponential backoff, ``reconnect_attempts``
    tries) and retries.  The default stays **fail-fast** — a dead
    connection raises a clean :class:`ConnectionError` — so failover
    logic layered on top (the cluster router, the failover drills)
    keeps seeing failures immediately.  Retried batch operations are
    replayed whole; the server's result cache and in-flight dedup make
    the replayed prefix cheap.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        reconnect: bool = False,
        reconnect_attempts: int = 5,
        reconnect_base_delay: float = 0.05,
        reconnect_max_delay: float = 2.0,
    ) -> None:
        self._host = host
        self._port = port
        self._reconnect = reconnect
        self._reconnect_attempts = reconnect_attempts
        self._reconnect_base_delay = reconnect_base_delay
        self._reconnect_max_delay = reconnect_max_delay
        self.reconnects = 0  # successful transparent reconnections
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="fragalign-client", daemon=True
        )
        self._thread.start()
        try:
            self._client: AsyncAlignmentClient = self._call(
                AsyncAlignmentClient.connect(host, port)
            )
        except BaseException:
            # Connect failed: release the loop thread before re-raising.
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=5)
            self._loop.close()
            raise

    def _call(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    @property
    def degraded_responses(self) -> int:
        """Answers the server flagged degraded (resets on reconnect)."""
        return self._client.degraded_responses

    def _with_retry(self, make_coro):
        """Run ``make_coro()`` on the loop; on connection loss, either
        fail fast (default) or reconnect with capped exponential
        backoff and retry the whole operation."""
        import time

        attempts = 0
        delay = self._reconnect_base_delay
        while True:
            try:
                return self._call(make_coro())
            except (ConnectionError, OSError):
                if not self._reconnect or attempts >= self._reconnect_attempts:
                    raise
                attempts += 1
                time.sleep(delay)
                delay = min(delay * 2, self._reconnect_max_delay)
                try:
                    fresh = self._call(
                        AsyncAlignmentClient.connect(self._host, self._port)
                    )
                except (ConnectionError, OSError):
                    continue  # server still down; next attempt backs off more
                old, self._client = self._client, fresh
                self.reconnects += 1
                try:
                    self._call(old.close())
                except Exception:
                    pass

    # -- operations ---------------------------------------------------

    def score(
        self, a, b, mode=None, band=None, gap_open=None, gap_extend=None,
        backend=None, trace=None, deadline_ms=None,
    ) -> float:
        return self._with_retry(
            lambda: self._client.score(
                a, b, mode=mode, band=band, gap_open=gap_open,
                gap_extend=gap_extend, backend=backend, trace=trace,
                deadline_ms=deadline_ms,
            )
        )

    def align(
        self, a, b, mode=None, band=None, gap_open=None, gap_extend=None,
        memory=None, backend=None, trace=None, deadline_ms=None,
    ) -> Alignment:
        return self._with_retry(
            lambda: self._client.align(
                a, b, mode=mode, band=band, gap_open=gap_open,
                gap_extend=gap_extend, memory=memory, backend=backend,
                trace=trace, deadline_ms=deadline_ms,
            )
        )

    def score_detail(
        self, a, b, mode=None, band=None, gap_open=None, gap_extend=None,
        backend=None, trace=None, deadline_ms=None,
    ) -> tuple[float, bool]:
        return self._with_retry(
            lambda: self._client.score_detail(
                a, b, mode=mode, band=band, gap_open=gap_open,
                gap_extend=gap_extend, backend=backend, trace=trace,
                deadline_ms=deadline_ms,
            )
        )

    def align_detail(
        self, a, b, mode=None, band=None, gap_open=None, gap_extend=None,
        memory=None, backend=None, trace=None, deadline_ms=None,
    ) -> tuple[Alignment, bool]:
        return self._with_retry(
            lambda: self._client.align_detail(
                a, b, mode=mode, band=band, gap_open=gap_open,
                gap_extend=gap_extend, memory=memory, backend=backend,
                trace=trace, deadline_ms=deadline_ms,
            )
        )

    def stats(self) -> dict:
        return self._with_retry(lambda: self._client.stats())

    def metrics(self) -> str:
        return self._with_retry(lambda: self._client.metrics())

    def slo(self) -> dict:
        return self._with_retry(lambda: self._client.slo())

    def trace_spans(self, trace_id: str | None = None) -> dict:
        return self._with_retry(lambda: self._client.trace_spans(trace_id=trace_id))

    def ping(self) -> bool:
        return self._with_retry(lambda: self._client.ping())

    def shutdown(self) -> None:
        self._with_retry(lambda: self._client.shutdown())

    def score_many(
        self,
        pairs: Sequence[tuple[str, str]],
        concurrency: int = 32,
        mode: str | None = None,
        band: int | None = None,
        gap_open: float | None = None,
        gap_extend: float | None = None,
        backend: str | None = None,
        deadline_ms: float | None = None,
        trace: TraceContext | None = None,
    ) -> list[float]:
        """Scores for all pairs from one ``score_many`` frame
        (``concurrency`` bounds frames in flight when the pairs need
        more than one line)."""
        return self._with_retry(
            lambda: self._client.score_many(
                pairs, mode=mode, band=band, gap_open=gap_open, gap_extend=gap_extend,
                backend=backend, trace=trace, deadline_ms=deadline_ms,
                concurrency=concurrency,
            )
        )

    def align_many(
        self,
        pairs: Sequence[tuple[str, str]],
        concurrency: int = 32,
        mode: str | None = None,
        band: int | None = None,
        gap_open: float | None = None,
        gap_extend: float | None = None,
        memory: str | None = None,
        backend: str | None = None,
        deadline_ms: float | None = None,
        trace: TraceContext | None = None,
    ) -> list[Alignment]:
        """Alignments for all pairs from one ``align_many`` frame."""
        return self._with_retry(
            lambda: self._client.align_many(
                pairs, mode=mode, band=band, gap_open=gap_open, gap_extend=gap_extend,
                memory=memory, backend=backend, trace=trace, deadline_ms=deadline_ms,
                concurrency=concurrency,
            )
        )

    # -- lifecycle ----------------------------------------------------

    def close(self) -> None:
        try:
            self._call(self._client.close())
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=5)
            self._loop.close()

    def __enter__(self) -> "AlignmentClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
