"""The micro-batcher: coalesce concurrent requests into engine batches.

Concurrent ``score``/``align`` submissions are queued for at most
``max_delay`` seconds (or until ``max_batch`` jobs are waiting — the
flush-by-size path), then dispatched as *one* ``score_many`` /
``align_many`` call on the engine, whose batch kernels amortize the
per-row Python sweep across the whole batch.  Results fan back out to
the awaiting tasks through per-job futures.

A frame's cache misses arrive pre-formed through :meth:`MicroBatcher.submit_group`:
one call, dispatched at once as its own engine batch, with no flush
window to wait out.

Identical in-flight jobs are deduplicated: N concurrent requests for
the same ``(op, a, b)`` share one future and cost one backend slot
(the ``coalesced`` stat counts the N-1 free riders).

Engine calls are CPU-bound, so they run on a dedicated single worker
thread: the event loop keeps accepting (and queueing) the *next* batch
while the current one computes — exactly the overlap that makes
micro-batching pay off under sustained load.  The single worker also
serializes engine access, so the engine's memoized prep needs no lock.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from operator import itemgetter
from typing import Any

from fragalign.engine.facade import AlignmentEngine
from fragalign.obs.trace import TraceContext, Tracer
from fragalign.service.fields import group_key_fields
from fragalign.util.errors import DeadlineExceeded

__all__ = ["MicroBatcher", "GROUP_FIELDS"]

# One dispatch group = one engine batch call.  The knob fields that
# split groups come from the shared request-field registry — adding a
# knob there extends every group key here automatically.
GROUP_FIELDS = group_key_fields()  # ("mode", "band", "gap_open", "gap_extend", "memory", "backend")

Key = tuple  # (op, *GROUP_FIELDS values, a, b)
_GROUP = 1 + len(GROUP_FIELDS)  # leading key fields that define one engine batch
# C-speed knob extraction for the per-request side channels (trace_job,
# note_deadline) — a genexpr over GROUP_FIELDS costs ~1us per call.
_GROUP_VALUES = itemgetter(*GROUP_FIELDS)


class MicroBatcher:
    """Coalesce awaitable ``score``/``align`` jobs into batch calls.

    Parameters
    ----------
    engine:
        Any object with ``score_many(pairs)`` / ``align_many(pairs)``
        (normally an :class:`AlignmentEngine`; tests substitute
        counting wrappers).
    max_batch:
        Flush as soon as this many distinct jobs are queued.
    max_delay:
        Flush at most this many seconds after the first queued job;
        ``<= 0`` flushes after every submission (per-request serving,
        the foil the benchmark measures against).
    stats:
        Optional :class:`~fragalign.service.stats.ServiceStats` feeder.
    """

    def __init__(
        self,
        engine: AlignmentEngine,
        max_batch: int = 64,
        max_delay: float = 0.002,
        stats=None,
        tracer: Tracer | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.engine = engine
        self.max_batch = max_batch
        self.max_delay = max_delay
        self._stats = stats
        self._tracer = tracer
        # Trace interest registered out-of-band (trace_job) so the
        # analyzer-checked submit signature stays exactly the group-key
        # fields: tracing must not look like a batching knob.
        self._trace_interest: dict[
            Key, list[tuple[TraceContext, list | None, float]]
        ] = {}
        # Deadlines likewise ride a side-channel (note_deadline), keyed
        # like trace interest: a deadline is not a batching knob.
        self._deadlines: dict[Key, float] = {}  # key -> absolute monotonic deadline
        # Degraded-mode widening: the server scales the flush window up
        # under load so batches amortize better (trading latency for
        # throughput).  Multiplies max_delay; 1.0 = no widening.
        self.delay_scale: float = 1.0
        self._pending: dict[Key, asyncio.Future] = {}  # queued and in-flight
        self._queue: list[Key] = []  # queued, not yet dispatched
        self._timer: asyncio.TimerHandle | None = None
        self._groups: set[asyncio.Task] = set()  # submit_group dispatches in flight
        self._loop: asyncio.AbstractEventLoop | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="fragalign-batch"
        )

    # -- submission ---------------------------------------------------

    async def submit(
        self,
        op: str,
        a: str,
        b: str,
        mode: str | None = None,
        band: int | None = None,
        gap_open: float | None = None,
        gap_extend: float | None = None,
        memory: str | None = None,
        backend: str | None = None,
    ) -> Any:
        """Queue one job; await its batched result.

        Returns a float for ``op="score"`` and an
        :class:`~fragalign.align.pairwise.Alignment` for ``op="align"``.
        ``mode``/``band``/``gap_open``/``gap_extend``/``memory``/
        ``backend`` select the per-job knobs (``None`` means the
        engine's default); one flush dispatches each distinct ``(op,
        mode, band, gaps, memory, backend)`` group as its own engine
        batch — in particular a batch never mixes backends.
        """
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
        knobs = {
            "mode": mode,
            "band": band,
            "gap_open": gap_open,
            "gap_extend": gap_extend,
            "memory": memory,
            "backend": backend,
        }
        key = (op, *(knobs[name] for name in GROUP_FIELDS), a, b)
        fut = self._pending.get(key)
        if fut is not None:
            # Identical job already queued or computing: share its future.
            if self._stats is not None:
                self._stats.observe_coalesced()
            return await fut
        fut = self._loop.create_future()
        self._pending[key] = fut
        self._queue.append(key)
        # The flush window is the configured delay (widened under
        # degraded mode) clamped to the tightest registered deadline —
        # a job must not sit in the queue past its budget.
        delay = self.max_delay * self.delay_scale
        deadline = self._deadlines.get(key)
        if deadline is not None:
            # Clamp to *half* the remaining budget, not the deadline
            # itself: a timer that fires on the deadline hands
            # ``_run_batch`` an already-expired job, so a lone request
            # tighter than the flush window could never succeed.  Half
            # leaves the engine the other half to actually compute.
            delay = min(delay, (deadline - time.monotonic()) / 2.0)
        if len(self._queue) >= self.max_batch or delay <= 0:
            self.flush()
        elif self._timer is None or self._loop.time() + delay < self._timer.when():
            if self._timer is not None:
                self._timer.cancel()
            self._timer = self._loop.call_later(delay, self.flush)
        return await fut

    async def submit_group(
        self,
        op: str,
        pairs: list[tuple[str, str]],
        mode: str | None = None,
        band: int | None = None,
        gap_open: float | None = None,
        gap_extend: float | None = None,
        memory: str | None = None,
        backend: str | None = None,
    ) -> list:
        """Dispatch a pre-formed group of jobs (one frame's cache
        misses, sharing one knob set) as one engine batch, now.

        Returns one entry per pair, in order: the result (as
        :meth:`submit` returns it) or the exception that job failed
        with.  A pair identical to a job already queued or computing
        shares that job's future instead (``coalesced``), exactly as a
        :meth:`submit` would.  Deadlines and trace interest ride the
        same side-channels as for :meth:`submit`.
        """
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
        knobs = {
            "mode": mode,
            "band": band,
            "gap_open": gap_open,
            "gap_extend": gap_extend,
            "memory": memory,
            "backend": backend,
        }
        head = (op, *(knobs[name] for name in GROUP_FIELDS))
        futures = []
        fresh: list[Key] = []
        for pair in pairs:
            key = head + tuple(pair)
            fut = self._pending.get(key)
            if fut is None:
                fut = self._pending[key] = self._loop.create_future()
                fresh.append(key)
            elif self._stats is not None:
                self._stats.observe_coalesced()
            futures.append(fut)
        if fresh:
            # Its own batch, not the queue: the group is already formed,
            # so waiting out the flush window would only add latency.
            task = self._loop.create_task(self._run_batch(fresh))
            self._groups.add(task)  # the loop holds tasks weakly
            task.add_done_callback(self._groups.discard)
        return await asyncio.gather(*futures, return_exceptions=True)

    def trace_job(
        self,
        op: str,
        a: str,
        b: str,
        knobs: dict,
        ctx: TraceContext | None,
        sink: list | None = None,
    ) -> None:
        """Register trace interest for the job an imminent ``submit``
        with the same arguments will queue (``knobs`` maps every
        ``GROUP_FIELDS`` name).  A side-channel, not a knob: the job's
        identity and batching are completely unaffected.  Interest is
        consumed — spans recorded under ``ctx`` — when the job's batch
        runs; a job that never reaches ``submit`` after an interest
        registration would leak it, so callers pair the two calls
        (the server does, right next to each other).

        ``sink``, when given, receives the deferred span entries
        instead of the shared trace buffer.  The batch resolves every
        job future *after* recording its spans, so by the time the
        submitter's await returns the sink is complete — the caller
        can then buffer or drop the whole trace atomically.  Without a
        sink the entries go straight to the tracer (standalone use).
        """
        if ctx is None or self._tracer is None:
            return
        key = (op, *_GROUP_VALUES(knobs), a, b)
        self._trace_interest.setdefault(key, []).append(
            (ctx, sink, time.perf_counter())
        )

    def note_deadline(
        self,
        op: str,
        a: str,
        b: str,
        knobs: dict,
        deadline: float,
    ) -> None:
        """Register an absolute monotonic deadline for the job an
        imminent ``submit`` with the same arguments will queue.  Same
        side-channel contract as :meth:`trace_job`: a deadline never
        changes the job's identity or batching; callers pair the call
        with ``submit``.  If coalesced jobs carry different deadlines,
        the tightest one governs the shared dispatch.
        """
        key = (op, *_GROUP_VALUES(knobs), a, b)
        current = self._deadlines.get(key)
        self._deadlines[key] = deadline if current is None else min(current, deadline)

    def flush(self) -> None:
        """Dispatch everything queued right now as one batch."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._queue:
            return
        batch, self._queue = self._queue, []
        assert self._loop is not None
        self._loop.create_task(self._run_batch(batch))

    # -- dispatch -----------------------------------------------------

    async def _run_batch(self, keys: list[Key]) -> None:
        # Jobs whose deadline expired while queued are dropped before
        # the engine sees them: computing an answer nobody is waiting
        # for only steals worker time from live requests.
        now_mono = time.monotonic()
        live: list[Key] = []
        for key in keys:
            key_deadline = self._deadlines.pop(key, None)
            if key_deadline is not None and now_mono >= key_deadline:
                self._trace_interest.pop(key, None)
                fut = self._pending.pop(key, None)
                if self._stats is not None:
                    self._stats.observe_deadline_exceeded()
                if fut is not None and not fut.done():
                    fut.set_exception(
                        DeadlineExceeded("deadline expired while queued for batch dispatch")
                    )
                continue
            live.append(key)
        keys = live
        if not keys:
            return
        if self._stats is not None:
            self._stats.observe_batch(len(keys))
        # Consume trace interest up front: "batcher.wait" is the
        # coalesce delay (trace_job → dispatch), recorded even when the
        # engine call below fails.
        dispatched = time.perf_counter()
        interest = {
            key: self._trace_interest.pop(key)
            for key in keys
            if key in self._trace_interest
        }
        if self._tracer is not None and interest:
            now = time.time()
            n_keys = len(keys)
            shared: list = []
            for key, watchers in interest.items():
                # One tags dict per job, shared by its watchers — the
                # entries are read-only downstream (leaf_entry's "takes
                # ownership" contract), so aliasing is safe.
                tags = {"op": key[0], "batch": n_keys}
                for ctx, sink, enqueued in watchers:
                    wait = dispatched - enqueued
                    entry = (
                        ctx.trace_id, ctx.span_id, "batcher.wait",
                        now - wait, wait, tags,
                    )
                    (shared if sink is None else sink).append(entry)
            if shared:
                self._tracer.extend(shared)
        groups: dict[tuple, list[Key]] = {}
        for key in keys:
            groups.setdefault(key[:_GROUP], []).append(key)
        results: dict[Key, Any] = {}
        try:
            for group_key, group in groups.items():
                op = group_key[0]
                # Registry field names match the engine verbs' keyword
                # arguments one-to-one (a knob-propagation invariant).
                knobs = dict(zip(GROUP_FIELDS, group_key[1:]))
                pairs = [key[_GROUP:] for key in group]
                if op == "score":
                    knobs.pop("memory", None)  # execution hint: align only
                    call = partial(self.engine.score_many, pairs, **knobs)
                else:
                    call = partial(self.engine.align_many, pairs, **knobs)
                compute_start = time.perf_counter()
                values = await self._loop.run_in_executor(self._executor, call)
                if self._tracer is not None and interest:
                    compute_s = time.perf_counter() - compute_start
                    start = time.time() - compute_s
                    # Worker-thread engine call for this job's whole
                    # dispatch group (queue + kernels); one shared tags
                    # dict for the group — read-only downstream.
                    tags = {
                        "op": op, "group": len(group), "mode": knobs.get("mode")
                    }
                    shared = []
                    for key in group:
                        for ctx, sink, _ in interest.get(key, ()):
                            entry = (
                                ctx.trace_id, ctx.span_id, "batcher.compute",
                                start, compute_s, tags,
                            )
                            (shared if sink is None else sink).append(entry)
                    if shared:
                        self._tracer.extend(shared)
                if op == "score":
                    values = [float(v) for v in values]
                results.update(zip(group, values))
        except Exception as exc:
            for key in keys:
                fut = self._pending.pop(key, None)
                if fut is not None and not fut.done():
                    fut.set_exception(exc)
            return
        for key in keys:
            fut = self._pending.pop(key, None)
            if fut is not None and not fut.done():
                fut.set_result(results[key])

    # -- lifecycle ----------------------------------------------------

    async def drain(self) -> None:
        """Flush and wait for every in-flight job (shutdown path)."""
        self.flush()
        pending = list(self._pending.values())
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    def close(self) -> None:
        """Release the worker thread (does not close the engine)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._executor.shutdown(wait=True)
