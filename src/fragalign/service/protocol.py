"""The ``fragalign.service`` wire protocol: JSON lines over a stream.

Every request and response is one UTF-8 JSON object on one
``\\n``-terminated line.  Responses may arrive **out of order** (the
server answers cache hits immediately while batched misses are still
computing), so every request carries a client-chosen ``id`` that the
server echoes back.

Requests::

    {"id": 1, "op": "score", "a": "ACGT", "b": "AGGT"}
    {"id": 2, "op": "align", "a": "ACGT", "b": "AGGT"}
    {"id": 3, "op": "score", "a": "ACGT", "b": "AGGT", "mode": "overlap"}
    {"id": 4, "op": "align", "a": "ACGT", "b": "AGGT", "mode": "banded", "band": 8}
    {"id": 5, "op": "score", "a": "ACGT", "b": "AGGT",
              "gap_open": -4, "gap_extend": -1}
    {"id": 6, "op": "align", "a": "ACGT", "b": "AGGT", "memory": "linear"}
    {"id": 7, "op": "stats"}     # service counters / latency / cache
    {"id": 8, "op": "ping"}
    {"id": 9, "op": "shutdown"}  # answered, then the server stops
    {"id": 10, "op": "metrics"}  # Prometheus text exposition (string)
    {"id": 11, "op": "trace", "trace_id": "..."}  # drain buffered spans
    {"id": 12, "op": "slo"}      # SLO burn-rate evaluation (fragalign.obs.slo)

``mode`` selects the alignment mode per request (``global``,
``local``, ``overlap`` or ``banded``); omitted, the server's
configured default applies.  ``band`` is the banded half-width —
required for ``mode="banded"`` unless the server was started with a
default band, and it must satisfy ``band >= abs(len(a) - len(b))``
(validated before the request joins a batch, so one bad request can
never poison a batch of good ones).

``gap_open``/``gap_extend`` switch the request to affine (Gotoh) gap
costs — both together, both non-positive; omitted, the server's
configured defaults apply (linear gaps unless the server was started
with affine defaults).  ``memory`` (align requests only) selects the
traceback strategy: ``"auto"``, ``"tensor"`` or ``"linear"`` — it
never changes the result (the linear walker returns byte-identical
alignments), so it is *not* part of the result-cache key, but
``memory="linear"`` with banded mode or affine gaps is rejected
before batching.

``backend`` (pair ops) selects the engine backend for the request
(``numpy``, ``native``, ``naive``, ``parallel``); omitted, the
server's configured backend applies.  Backends are parity-tested to
return identical scores, so the field is *not* part of the
result-cache or routing keys — but it is part of the batch group key,
because one engine batch dispatches to one backend.  Unknown names are
rejected before the request joins a batch.

``trace_id``/``span_id`` are the **non-semantic** trace-context
fields (:mod:`fragalign.obs.trace`): any request may carry them, the
server records per-stage spans under the given trace with the
caller's ``span_id`` as parent, and the ``trace`` op drains the span
ring buffer (optionally filtered to one ``trace_id``).  They are
registered in :mod:`fragalign.service.fields` with every
participation flag off — tracing can never split a batch or enter a
cache/routing key, and the static analyzer enforces that.

``deadline_ms`` (pair ops) is the request's **remaining end-to-end
budget** in milliseconds — relative, gRPC-style, so it survives hops
without synchronized clocks.  The server converts it to an absolute
monotonic deadline on receipt, rejects already-expired work before it
joins a batch (error code ``DEADLINE_EXCEEDED``), and the batcher
clamps its flush window to the tightest deadline in the group.  Like
the trace fields it is registered with every participation flag off:
a deadline can never split a batch or enter a cache/routing key.

Error responses may carry a machine-readable ``code``
(``DEADLINE_EXCEEDED``, ``OVERLOADED``); clients raise the matching
typed exception (:func:`service_error_from`) so retry policy is an
``isinstance`` check against the :mod:`fragalign.util.errors`
taxonomy, never a string match.

Responses::

    {"id": 1, "ok": true, "result": 2.0, "cached": false}
    {"id": 2, "ok": true, "result": {"score": 2.0, "pairs": [[0, 0], ...],
                                     "a_interval": [0, 4], "b_interval": [0, 4]}}
    {"id": 9, "ok": false, "error": "unknown op 'frobnicate'"}

``cached`` is only present on ``score``/``align`` responses and says
whether the result came from the server's LRU result cache.  Lines are
capped at :data:`MAX_LINE` bytes (both sides configure their stream
reader with it), which bounds sequence length to roughly half a
megabyte per request.

Frames (``score_many``/``align_many``) carry a pair list plus *one*
set of the knobs above, which apply to every pair; ``deadline_ms`` and
the trace context likewise cover the whole frame::

    {"id": 13, "op": "score_many", "pairs": [["ACGT", "AGGT"], ["AC", "AG"]],
               "mode": "overlap", "deadline_ms": 200}
    {"id": 14, "op": "align_many", "pairs": [["ACGT", "AGGT"]], "memory": "linear"}

Each pair counts as one ``score``/``align`` request (cache, admission,
batching and metrics are per pair, so a frame may be partly cached).
The answer is one line, results in request order::

    {"id": 13, "ok": true, "result": [2.0, null], "cached": [0],
     "errors": [{"i": 1, "error": "deadline expired ...",
                 "code": "DEADLINE_EXCEEDED"}]}

The per-pair error envelope: a failed pair's ``result`` slot is
``null`` and ``errors`` holds ``{"i": index, "error": message}`` plus
the ``code`` when there is one (``DEADLINE_EXCEEDED``, ``OVERLOADED``;
none for a bad pair, e.g. an entry that is not two strings or a band
too narrow for it).  One bad pair never fails the rest.  ``cached``
and ``degraded`` list the indices answered from the cache or in
degraded form; ``cached``, ``degraded`` and ``errors`` are omitted when
empty.  A frame that is malformed as a whole (``pairs`` not a list, a
bad knob) is answered like any bad request: ``ok: false``.

The answer line is capped at :data:`MAX_LINE` like the request, and an
``align_many`` answer is several times the size of its request (about
ten bytes per aligned column against two).  A per-pair error message
is clipped to :data:`PAIR_ERROR_CHARS` printable ASCII characters, so
:func:`frame_reply_bound` is a hard upper bound on the answer's size,
computed from the request alone; clients split a frame until both its
request and that bound fit in one line.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Any

from fragalign.align.pairwise import Alignment, check_affine_gaps
from fragalign.engine.backends import MEMORY_MODES, MODES
from fragalign.service.fields import FIELD_NAMES
from fragalign.util.errors import DeadlineExceeded, FragalignError, Overloaded

__all__ = [
    "MAX_LINE",
    "MEMORY_MODES",
    "MODES",
    "OPS",
    "PAIR_OPS",
    "FRAME_OPS",
    "FIELD_NAMES",
    "ProtocolError",
    "ServiceError",
    "DeadlineExceededError",
    "OverloadedError",
    "service_error_from",
    "Request",
    "Frame",
    "parse_request",
    "parse_frame",
    "encode_line",
    "decode_line",
    "ok_response",
    "error_response",
    "frame_response",
    "frame_errors",
    "frame_reply_bound",
    "clip_error",
    "PAIR_ERROR_CHARS",
    "alignment_to_dict",
    "alignment_from_dict",
]

MAX_LINE = 1 << 20  # 1 MiB per protocol line (reader buffer limit)

OPS = ("score", "align", "stats", "metrics", "trace", "slo", "ping", "shutdown")
PAIR_OPS = ("score", "align")
FRAME_OPS = ("score_many", "align_many")  # each carries its pair op + "_many"


class ProtocolError(FragalignError):
    """A malformed protocol line or request object."""


class ServiceError(FragalignError):
    """The server answered ``ok: false`` (raised client-side).

    ``code`` carries the machine-readable error code when the server
    sent one (``DEADLINE_EXCEEDED``, ``OVERLOADED``) — clients and the
    router branch on the *exception type*, never on the message text.
    """

    def __init__(self, message: str, code: str | None = None) -> None:
        super().__init__(message)
        self.code = code


class DeadlineExceededError(ServiceError, DeadlineExceeded):
    """Server-reported ``DEADLINE_EXCEEDED`` — non-retryable."""


class OverloadedError(ServiceError, Overloaded):
    """Server-reported ``OVERLOADED`` shed — retryable on another replica."""


# Wire error code -> client-side exception class.  The typed classes
# multiply inherit from the fragalign.util.errors taxonomy so retry
# policy is an isinstance check against RetryableError/NonRetryableError.
ERROR_CODES: dict[str, type[ServiceError]] = {
    "DEADLINE_EXCEEDED": DeadlineExceededError,
    "OVERLOADED": OverloadedError,
}


def service_error_from(response: dict) -> ServiceError:
    """Typed client-side exception for an ``ok: false`` response."""
    message = response.get("error", "unknown service error")
    code = response.get("code")
    cls = ERROR_CODES.get(code, ServiceError) if isinstance(code, str) else ServiceError
    return cls(message, code=code if isinstance(code, str) else None)


@dataclass(frozen=True)
class Request:
    """One validated request: an op plus (for pair ops) the sequences.

    ``mode``/``band``/``gap_open``/``gap_extend``/``memory`` are
    ``None`` when the request didn't set them — the server substitutes
    its configured defaults.
    """

    id: Any
    op: str
    a: str = ""
    b: str = ""
    mode: str | None = None
    band: int | None = None
    gap_open: float | None = None
    gap_extend: float | None = None
    memory: str | None = None
    backend: str | None = None  # engine backend override for this request
    trace_id: str | None = None  # non-semantic: tracing only annotates
    span_id: str | None = None  # caller's span — the server span's parent
    deadline_ms: float | None = None  # remaining budget (non-semantic)


# The wire request must carry exactly the registered knobs (plus the
# structural id/op/a/b).  The static analyzer enforces this at check
# time; this guard keeps an import of a drifted copy from even loading.
assert {f.name for f in dataclasses.fields(Request)} == {"id", "op", "a", "b", *FIELD_NAMES}, (
    "Request fields out of sync with the service.fields registry"
)


@dataclass(frozen=True)
class Frame:
    """One validated ``score_many``/``align_many`` frame: a pair list
    plus one set of knobs (``None`` = the server's default).

    Each ``pairs`` entry is an ``(a, b)`` tuple, or the
    :class:`ProtocolError` that rejected that entry.
    """

    id: Any
    op: str
    pairs: tuple = ()
    mode: str | None = None
    band: int | None = None
    gap_open: float | None = None
    gap_extend: float | None = None
    memory: str | None = None
    backend: str | None = None
    trace_id: str | None = None  # one trace context for the whole frame
    span_id: str | None = None
    deadline_ms: float | None = None  # one remaining budget for every pair

    @property
    def pair_op(self) -> str:
        return self.op.removesuffix("_many")


assert {f.name for f in dataclasses.fields(Frame)} == {"id", "op", "pairs", *FIELD_NAMES}, (
    "Frame fields out of sync with the service.fields registry"
)


def encode_line(obj: dict) -> bytes:
    """Serialize one protocol object to a compact JSON line."""
    return json.dumps(obj, separators=(",", ":")).encode() + b"\n"


def decode_line(line: bytes | str) -> dict:
    """Parse one protocol line; raise :class:`ProtocolError` if broken."""
    try:
        obj = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"invalid JSON line: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(f"protocol line must be a JSON object, got {type(obj).__name__}")
    return obj


def _parse_trace(obj: dict) -> tuple[str | None, str | None]:
    """The trace-context fields, accepted on *every* op: pair ops and
    frames propagate them, and the trace op uses trace_id as its drain
    filter."""
    trace_id, span_id = obj.get("trace_id"), obj.get("span_id")
    if trace_id is not None and not isinstance(trace_id, str):
        raise ProtocolError(f"trace_id must be a string, got {trace_id!r}")
    if span_id is not None and not isinstance(span_id, str):
        raise ProtocolError(f"span_id must be a string, got {span_id!r}")
    return trace_id, span_id


def _parse_knobs(obj: dict, op: str) -> dict:
    """The per-request knobs of a pair request or frame (``op`` is the
    pair op, ``score`` or ``align``), validated and coerced."""
    mode = obj.get("mode")
    if mode is not None and mode not in MODES:
        raise ProtocolError(f"unknown mode {mode!r} (expected one of {MODES})")
    band = obj.get("band")
    if band is not None and (
        isinstance(band, bool) or not isinstance(band, int) or band < 0
    ):
        raise ProtocolError(f"band must be a non-negative integer, got {band!r}")
    gap_open, gap_extend = obj.get("gap_open"), obj.get("gap_extend")
    if gap_open is not None or gap_extend is not None:
        try:
            # One source of truth for the gap rules (and the float
            # coercion that makes 4 and 4.0 key identically).
            gap_open, gap_extend = check_affine_gaps(gap_open, gap_extend)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
    memory = obj.get("memory")
    if memory is not None:
        if memory not in MEMORY_MODES:
            raise ProtocolError(
                f"unknown memory mode {memory!r} (expected one of {MEMORY_MODES})"
            )
        if op != "align":
            raise ProtocolError("memory only applies to align requests")
    backend = obj.get("backend")
    if backend is not None and not isinstance(backend, str):
        # Membership in the registry is validated server-side
        # (available_backends() is a runtime set, not a wire constant).
        raise ProtocolError(f"backend must be a string, got {backend!r}")
    deadline_ms = obj.get("deadline_ms")
    if deadline_ms is not None:
        if (
            isinstance(deadline_ms, bool)
            or not isinstance(deadline_ms, (int, float))
            or not math.isfinite(deadline_ms)
            or deadline_ms <= 0
        ):
            raise ProtocolError(
                f"deadline_ms must be a positive finite number, got {deadline_ms!r}"
            )
        deadline_ms = float(deadline_ms)
    return {
        "mode": mode, "band": band, "gap_open": gap_open, "gap_extend": gap_extend,
        "memory": memory, "backend": backend, "deadline_ms": deadline_ms,
    }


def parse_request(obj: dict) -> Request | Frame:
    """Validate a decoded request object (a frame op yields a :class:`Frame`)."""
    op = obj.get("op")
    if op in FRAME_OPS:
        return parse_frame(obj)
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r} (expected one of {(*OPS, *FRAME_OPS)})")
    trace_id, span_id = _parse_trace(obj)
    if op in PAIR_OPS:
        a, b = obj.get("a"), obj.get("b")
        if not isinstance(a, str) or not isinstance(b, str):
            raise ProtocolError(f"op {op!r} needs string fields 'a' and 'b'")
        return Request(
            id=obj.get("id"), op=op, a=a, b=b, trace_id=trace_id, span_id=span_id,
            **_parse_knobs(obj, op),
        )
    return Request(id=obj.get("id"), op=op, trace_id=trace_id, span_id=span_id)


def parse_frame(obj: dict) -> Frame:
    """Validate a decoded ``score_many``/``align_many`` frame.

    A malformed frame (unknown op, ``pairs`` not a list, a bad knob)
    raises :class:`ProtocolError`; a malformed *entry* only marks that
    entry: its slot in ``Frame.pairs`` holds the ``ProtocolError``, so
    the server answers it with a per-pair error and serves the rest.
    """
    op = obj.get("op")
    if op not in FRAME_OPS:
        raise ProtocolError(f"unknown frame op {op!r} (expected one of {FRAME_OPS})")
    trace_id, span_id = _parse_trace(obj)
    raw = obj.get("pairs")
    if not isinstance(raw, list):
        raise ProtocolError(f"op {op!r} needs a list field 'pairs'")
    pairs: list = []
    for entry in raw:
        if (
            isinstance(entry, list)
            and len(entry) == 2
            and isinstance(entry[0], str)
            and isinstance(entry[1], str)
        ):
            pairs.append((entry[0], entry[1]))
        else:
            pairs.append(ProtocolError(f"a pair must be a list of two strings, got {entry!r:.60}"))
    return Frame(
        id=obj.get("id"), op=op, pairs=tuple(pairs), trace_id=trace_id, span_id=span_id,
        **_parse_knobs(obj, op.removesuffix("_many")),
    )


def ok_response(request_id: Any, result: Any, cached: bool | None = None,
                degraded: bool | None = None) -> dict:
    obj: dict = {"id": request_id, "ok": True, "result": result}
    if cached is not None:
        obj["cached"] = cached
    if degraded:
        obj["degraded"] = True
    return obj


def error_response(request_id: Any, message: str, code: str | None = None) -> dict:
    obj: dict = {"id": request_id, "ok": False, "error": message}
    if code is not None:
        obj["code"] = code
    return obj


def frame_response(request_id: Any, results: list, errors: list, cached: list,
                   degraded: list) -> dict:
    """A frame's one response line.  ``errors`` holds the per-pair
    error entries (``{"i", "error"[, "code"]}``); ``cached`` and
    ``degraded`` list the indices answered from the cache or in
    degraded form.  Empty lists are elided."""
    obj: dict = {"id": request_id, "ok": True, "result": results}
    if cached:
        obj["cached"] = cached
    if degraded:
        obj["degraded"] = degraded
    if errors:
        obj["errors"] = errors
    return obj


PAIR_ERROR_CHARS = 160  # per-pair error message cap (see clip_error)

# Answer bytes per pair besides its result: the index in ``cached`` or
# ``degraded`` (at most one of them; a frame line holds < 10**7 pairs).
_INDEX_BYTES = 8
# A failed pair: ``null,`` in ``result`` plus its envelope
# ``{"i":<index>,"error":"<message>","code":"<code>"},`` with every
# message character JSON-escaped to at most two bytes.
_ERROR_BYTES = 5 + 2 * PAIR_ERROR_CHARS + 64
# One score (a JSON float is at most 24 characters) and its comma.
_SCORE_BYTES = 25
_FRAME_REPLY_OVERHEAD = 128  # id, ok, the four keys, brackets


def clip_error(message: str) -> str:
    """A per-pair error message as at most :data:`PAIR_ERROR_CHARS`
    printable ASCII characters (others become ``?``), so its share of a
    frame answer is bounded."""
    text = message[:PAIR_ERROR_CHARS]
    if text.isascii() and text.isprintable():
        return text
    return "".join(c if " " <= c <= "~" else "?" for c in text)


def frame_reply_bound(op: str, pairs) -> int:
    """Upper bound, in bytes, on the answer line of a frame of ``pairs``
    (``op`` is the pair op, ``score`` or ``align``).  An alignment
    aligns at most ``min(len(a), len(b))`` columns, each ``[i,j],``."""
    if op != "align":
        return _FRAME_REPLY_OVERHEAD + len(pairs) * (
            max(_SCORE_BYTES, _ERROR_BYTES) + _INDEX_BYTES
        )
    total = _FRAME_REPLY_OVERHEAD
    for a, b in pairs:
        digits = len(str(max(len(a), len(b))))
        # score + keys + intervals, then the aligned columns.
        result = 80 + 4 * (digits + 1) + min(len(a), len(b)) * (2 * digits + 4)
        total += max(result, _ERROR_BYTES) + _INDEX_BYTES
    return total


def frame_errors(response: dict) -> dict[int, ServiceError]:
    """Typed client-side exceptions for a frame response's per-pair
    errors, keyed by pair index."""
    return {entry["i"]: service_error_from(entry) for entry in response.get("errors", ())}


def alignment_to_dict(aln: Alignment) -> dict:
    """JSON-able form of an :class:`Alignment` (plain ints/floats)."""
    return {
        "score": float(aln.score),
        "pairs": [[int(i), int(j)] for i, j in aln.pairs],
        "a_interval": [int(aln.a_interval[0]), int(aln.a_interval[1])],
        "b_interval": [int(aln.b_interval[0]), int(aln.b_interval[1])],
    }


def alignment_from_dict(obj: dict) -> Alignment:
    """Rebuild an :class:`Alignment` from its wire form."""
    return Alignment(
        score=float(obj["score"]),
        pairs=tuple((int(i), int(j)) for i, j in obj["pairs"]),
        a_interval=(int(obj["a_interval"][0]), int(obj["a_interval"][1])),
        b_interval=(int(obj["b_interval"][0]), int(obj["b_interval"][1])),
    )
