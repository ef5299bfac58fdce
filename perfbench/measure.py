"""Measurement helpers: latency summaries, ``/proc`` counters, the
host-speed probe and the in-memory span recorder."""

from __future__ import annotations

import itertools
import json
import os
import re
import statistics
import subprocess
import time
from pathlib import Path

_TICK = os.sysconf("SC_CLK_TCK")


# -- latency --------------------------------------------------------------

TAIL_SLICE = 2000  # samples per slice of a long run's tail


def latency_summary(samples_s: list[float]) -> dict:
    """Median and tail, in ms, of latencies in completion order.

    The tail is the highest percentile with at least ten samples beyond
    it, never below the median.  A run of at least two ``TAIL_SLICE``
    slices is cut into consecutive slices of that many samples, and its
    tail is the median of the slices' p99s: a CPU the host steals for a
    moment stalls every request in flight, so the p99 of a whole long
    run (and any higher percentile) follows how often the shared host
    stalled, while most slices see no stall.
    """
    xs = sorted(samples_s)
    n = len(xs)
    p50 = statistics.median(xs)
    slices = n // TAIL_SLICE
    k = n - 11  # index with exactly ten samples above it
    if slices >= 2:
        tail, pct = statistics.median(
            p99(samples_s[i * TAIL_SLICE:(i + 1) * TAIL_SLICE]) for i in range(slices)), 99.0
    elif k >= (n - 1) / 2:
        tail, pct = xs[k], 100.0 * (k + 1) / n
    else:
        tail, pct = p50, 50.0
    return {"p50_ms": p50 * 1e3, "tail_ms": tail * 1e3, "tail_pct": round(pct, 2), "samples": n,
            "tail_slices": slices if slices >= 2 else 1, "p99_ms": p99(xs) * 1e3,
            "max_ms": xs[-1] * 1e3}


def p99(samples: list[float]) -> float:
    if len(samples) < 2:
        return max(samples, default=0.0)
    return statistics.quantiles(samples, n=100, method="inclusive")[98]


# -- /proc ----------------------------------------------------------------

def proc_cpu_s(pid: int | str = "self") -> float:
    """User + system CPU seconds of a whole process (all threads)."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def proc_ctx_switches(pid: int | str = "self") -> int:
    """Voluntary + involuntary context switches summed over threads."""
    total = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/status") as f:
                for line in f:
                    if "ctxt_switches" in line:
                        total += int(line.split()[1])
        except FileNotFoundError:  # thread exited between listdir and open
            continue
    return total


def proc_hwm_mb(pid: int | str = "self") -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def tcp_data_segments(ports: set[int]) -> tuple[int, int]:
    """Data segments sent so far on the open TCP connections to
    ``ports``: (by the servers, by their clients).

    Per-socket ``data_segs_out`` from ``ss``.  ``/proc/<pid>/io``'s
    ``syscw`` would be the natural write count, but the kernel does
    not count ``send(2)`` there, and asyncio writes sockets with it.
    With ``TCP_NODELAY`` a small write leaves as one data segment.
    """
    out = subprocess.run(["ss", "-tinH", "state", "established"], capture_output=True,
                         text=True, timeout=10, check=True).stdout
    served = clients = 0
    local = peer = None
    for line in out.splitlines():
        if not line[:1].isspace():
            fields = line.split()
            local, peer = (int(f.rsplit(":", 1)[1]) for f in fields[-2:])
            continue
        match = re.search(r"\bdata_segs_out:(\d+)", line)
        segs = int(match.group(1)) if match else 0
        if local in ports:
            served += segs
        elif peer in ports:
            clients += segs
    return served, clients


def proc_snapshot(pids: list[int], ports: set[int]) -> dict:
    """CPU and context switches of this process and of ``pids`` (the
    shards), and data segments sent to and from ``ports``."""
    served, clients = tcp_data_segments(ports)
    return {
        "self_cpu": time.process_time(),
        "self_ctx": proc_ctx_switches(),
        "cpu": sum(proc_cpu_s(p) for p in pids),
        "ctx": sum(proc_ctx_switches(p) for p in pids),
        "segs": served,
        "self_segs": clients,
    }


def delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


# -- host-speed probe -----------------------------------------------------

def host_cpu_ticks() -> tuple[int, int]:
    """(stolen, total) CPU ticks of the whole machine so far, from
    ``/proc/stat``: time the host ran someone else on our CPUs."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def _probe_loop(iterations: int) -> int:
    acc = 0
    for i in range(iterations):
        acc = (acc * 31 + i) % 1_000_003
    return acc


def host_probe_ms(iterations: int = 2_000_000) -> float:
    """CPU time of a fixed pure-Python loop that calls no project code:
    a slowed host moves it, a slowed commit does not."""
    start = time.process_time()
    _probe_loop(iterations)
    return (time.process_time() - start) * 1e3


REFERENCE_PROBE_NS = 100.0  # probe ns per iteration on the host timings are scaled to


class HostSpeed:
    """How fast the host ran a timed phase: short probes of the same
    loop taken throughout it, and the share of CPU time the host stole
    from the machine while it lasted.

    The phase's timing metrics are scaled by :meth:`slowdown` to a host
    on which the probe takes ``REFERENCE_PROBE_NS`` per iteration and
    steals nothing: a slowed host moves the probes and the program
    alike, a slowed commit moves only the program.  Create it when the
    phase starts and call :meth:`stop` when it ends.
    """

    def __init__(self) -> None:
        self.wall_ns: list[float] = []
        self.cpu_ns: list[float] = []
        self.steal_share = 0.0
        self._ticks = host_cpu_ticks()

    def probe(self, iterations: int) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        _probe_loop(iterations)
        self.cpu_ns.append((time.process_time() - cpu) / iterations * 1e9)
        self.wall_ns.append((time.perf_counter() - wall) / iterations * 1e9)

    def stop(self) -> None:
        stolen, total = (a - b for a, b in zip(host_cpu_ticks(), self._ticks))
        self.steal_share = stolen / max(1, total)

    def slowdown(self, clock: str) -> float:
        """How much slower than the reference the host ran, above 1 when
        slower, by the probes' mean time on ``clock``:

        * ``"wall"``: the wall clock, which counts stolen time too; for a
          program alone on its CPU, like the probe;
        * ``"cpu"``: CPU time, which does not: for CPU-time metrics;
        * ``"cpu+steal"``: CPU time, and the stolen share of the
          machine's time on top: for wall-clock metrics of programs
          that share the CPUs with the probe, where the probe's wall
          time would count their CPU use too.

        The mean, not the median: the program pays for every stall, and
        so do the probes on average.
        """
        xs = self.wall_ns if clock == "wall" else self.cpu_ns
        slow = statistics.mean(xs) / REFERENCE_PROBE_NS
        return slow / (1.0 - self.steal_share) if clock == "cpu+steal" else slow

    def summary(self) -> dict:
        return {"probes": len(self.cpu_ns), "steal_share": self.steal_share,
                **{f"{c}_slowdown": self.slowdown(c) for c in ("wall", "cpu", "cpu+steal")}}


# -- spans ----------------------------------------------------------------

class Spans:
    """Span recorder for the benchmark's own calls into each layer.

    A span is ``(id, name, start, end, parent, request id)``; spans stay
    in memory until :meth:`dump`.  Disabled, :meth:`open` and
    :meth:`close` cost one attribute test.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.rows: list[tuple] = []
        self._ids = itertools.count()

    def open(self, name: str, parent: int | None = None, rid=None) -> tuple | None:
        """Start a span; the token's first field is its id (for children)."""
        if not self.enabled:
            return None
        return (next(self._ids), name, time.perf_counter(), parent, rid)

    def close(self, token: tuple | None) -> None:
        if token is not None:
            sid, name, start, parent, rid = token
            self.rows.append((sid, name, start, time.perf_counter(), parent, rid))

    def add(self, name: str, start: float, end: float, parent: int | None, rid=None) -> None:
        """Record a span whose interval was timed elsewhere."""
        if self.enabled:
            self.rows.append((next(self._ids), name, start, end, parent, rid))

    def self_times(self) -> dict[str, dict]:
        """Per span name: count, total duration and self time (duration
        minus the part of it covered by child spans), in seconds."""
        children: dict[int, list[tuple[float, float]]] = {}
        for sid, _n, start, end, parent, _r in self.rows:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out: dict[str, dict] = {}
        for sid, name, start, end, _p, _r in self.rows:
            covered, reach = 0.0, start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach, start), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for sid, name, start, end, parent, rid in self.rows:
                f.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                    "parent": parent, "rid": rid}) + "\n")
