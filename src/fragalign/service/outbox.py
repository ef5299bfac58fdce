"""Corked line writes: one socket write per event-loop turn per connection.

Both ends of the wire answer many short lines at once: a micro-batch
resolves dozens of requests in one loop turn, and a pipelining client
fires dozens of requests in one turn.  Writing each line on its own
costs one ``send(2)`` and one loopback delivery per line.  An
:class:`Outbox` queues the lines instead; the first line queued in a
turn schedules a flush with ``loop.call_soon``, and the flush hands
every queued line to the transport in one ``write``.  The loop turn is
the flush point, so corking adds no latency and needs no timer.

Backpressure is the transport's own: a sender waits only while the
transport's buffer plus the queued lines exceed the transport's
high-water mark (:meth:`Outbox.backed_up`), and the caller bounds that
wait (:meth:`Outbox.drain_within`).
"""

from __future__ import annotations

import asyncio
from typing import Callable

__all__ = ["Outbox"]


class Outbox:
    """The corked write side of one :class:`asyncio.StreamWriter`.

    ``on_flush`` is called once per transport write (the server counts
    its socket writes with it).
    """

    def __init__(
        self, writer: asyncio.StreamWriter, on_flush: Callable[[], None] | None = None
    ) -> None:
        self.writer = writer
        self._lines: list[bytes] = []
        self._queued = 0  # bytes in self._lines
        self._on_flush = on_flush
        self._high_water = writer.transport.get_write_buffer_limits()[1]

    def send(self, line: bytes) -> None:
        """Queue one encoded line; it leaves with this turn's flush."""
        if not self._lines:
            asyncio.get_running_loop().call_soon(self.flush)
        self._lines.append(line)
        self._queued += len(line)

    def flush(self) -> None:
        """Write every queued line in one transport write (a no-op when
        nothing is queued or the connection is already closing)."""
        if not self._lines:
            return
        lines, self._lines, self._queued = self._lines, [], 0
        if self.writer.transport.is_closing():
            return  # the peer is gone: nobody reads these lines
        self.writer.write(b"".join(lines))
        if self._on_flush is not None:
            self._on_flush()

    def backed_up(self) -> bool:
        """True when the transport's buffer plus the queued lines exceed
        the transport's high-water mark: the peer is not keeping up, and
        the sender should :meth:`drain_within`."""
        return self._queued + self.writer.transport.get_write_buffer_size() > self._high_water

    async def drain_within(self, timeout: float) -> None:
        """Let this turn's flush reach the transport, then wait until its
        buffer falls below the low-water mark.  Raises
        :class:`asyncio.TimeoutError` when the peer has not read enough
        for ``timeout`` seconds."""
        await asyncio.sleep(0)
        await asyncio.wait_for(self.writer.drain(), timeout=timeout)

    def close(self) -> None:
        """Flush what is queued, then close the stream."""
        self.flush()
        self.writer.close()
