"""genome-csr: the paper's pipeline, in process, one caller.

Each operation is ``run_pipeline`` with alignment discovery, the
``csr_improve`` solver and the native backend, on a seeded genome.
Instances cycle ``n_blocks`` through the configured sizes and every
cycle has fresh genomes; the run measures whole cycles only, so each
size is equally represented.  ``csr_score_total`` sums the solution
scores of the first ``score_cycles`` cycles, which every run completes,
so it is fixed by the seed.

A short host-speed probe (``measure.HostSpeed``) runs before every
instance, and the timing metrics are scaled by it: wall-clock metrics
by the probes' wall time, which counts CPU time the host stole, and
``cpu_ms_per_op`` by their CPU time.  Nothing else runs in the process
or competes for its CPU while a probe runs, so the program cannot slow
the probe.  The raw figures are in the diagnostics.

The traced run repeats the untraced cycle's instances through
``run_pipeline`` itself.  While it lasts, the step functions that
``run_pipeline`` looks up in its module (simulate, discover, build,
solve, evaluate) are swapped for wrappers that record a span around
each call, and its ``AlignmentEngine`` for a subclass that records a
span around each engine call plus, through the engine's profiler hook,
one child span per kernel dispatch.  Every traced instance must
reproduce the untraced solution's score.
"""

from __future__ import annotations

import functools
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import measure
from fragalign.core.conjecture import score_pair
from fragalign.core.consistency import check_consistent
from fragalign.engine import AlignmentEngine
from fragalign.genome import pipeline
from fragalign.genome.pipeline import PipelineConfig, run_pipeline
from fragalign.util.errors import FragalignError

PROBE_ITERATIONS = 100_000  # about 10 ms

# run_pipeline's steps, by the names it calls them in its module, and
# the layer span each records.
STEPS = {
    "make_ancestor": "genome.simulate",
    "evolve": "genome.simulate",
    "fragment_into_contigs": "genome.simulate",
    "find_conserved_regions": "genome.discovery",
    "build_csr_instance": "core.build",
    "csr_improve": "core.solve",
    "evaluate_solution": "genome.evaluate",
}


def solution_error(solution) -> str | None:
    """None when a CSR solution is consistent and its reported score is
    the score its layout realizes, else why not."""
    try:
        check_consistent(solution.state)
    except FragalignError as exc:
        return f"inconsistent: {exc}"
    realized = score_pair(solution.state.instance, solution.arr_h, solution.arr_m)
    if realized != solution.score:
        return f"reports score {solution.score}, its layout realizes {realized}"
    return None


class Workload:
    def __init__(self, spec: dict, seed: int) -> None:
        self.spec, self.seed = spec, seed
        self.sizes = spec["generator"]["n_blocks_cycle"]
        self.score_cycles = spec["generator"]["score_cycles"]
        self.limit_s = spec["latency_limit_ms"] / 1e3

    def config(self, n_blocks: int) -> PipelineConfig:
        return PipelineConfig(n_blocks=n_blocks, **self.spec["pipeline"])

    def rng(self, cycle: int, n_blocks: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, cycle, n_blocks])

    def solve(self, cycle: int, n_blocks: int) -> tuple[float | None, str | None]:
        """One instance: its solution's score (None if the pipeline failed
        with a typed error), and why the solution is wrong if it is."""
        try:
            solution = run_pipeline(self.config(n_blocks), rng=self.rng(cycle, n_blocks)).solution
        except FragalignError:
            return None, None
        return solution.score, solution_error(solution)

    def setup(self, repeats: int) -> list[float]:
        """Set-up, timed ``repeats`` times: a cold start (a fresh
        interpreter importing the pipeline) plus a first, small answer.
        The repeats must agree on the answer."""
        import fragalign

        env = dict(os.environ, PYTHONPATH=str(Path(fragalign.__file__).resolve().parents[1]))
        times, scores = [], set()
        for _ in range(repeats):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import fragalign.genome.pipeline"],
                           env=env, check=True, timeout=60)
            score, error = self.solve(0, self.spec["setup_n_blocks"])
            if score is None or error:
                raise RuntimeError(f"the set-up instance failed or is wrong: {error}")
            scores.add(score)
            times.append(time.perf_counter() - start)
        if len(scores) != 1:
            raise RuntimeError(f"the set-up instance solved to different scores: {sorted(scores)}")
        return times

    def cycles(self, seconds: float, min_cycles: int = 1,
               speed: measure.HostSpeed | None = None) -> tuple[list[tuple], dict]:
        """Whole cycles until ``seconds`` have passed and at least
        ``min_cycles`` ran: [(cycle, n_blocks, seconds, score, error)],
        and the loop's totals: elapsed seconds and CPU seconds spent in
        instances.  With ``speed``, probe the host before each instance."""
        rows = []
        cpu = 0.0
        start = time.perf_counter()
        cycle = 0
        while cycle < min_cycles or time.perf_counter() - start < seconds:
            for n in self.sizes:
                if speed is not None:
                    speed.probe(PROBE_ITERATIONS)
                c0, t0 = time.process_time(), time.perf_counter()
                score, error = self.solve(cycle, n)
                rows.append((cycle, n, time.perf_counter() - t0, score, error))
                cpu += time.process_time() - c0
            cycle += 1
        return rows, {"elapsed_s": time.perf_counter() - start, "cpu_s": cpu}


def run(spec: dict, seed: int, seconds: float, trace: bool, repeats: int, spans: measure.Spans) -> dict:
    wl = Workload(spec, seed)
    setup = wl.setup(repeats)
    if trace:
        return _traced(wl, seconds, spans)
    speed = measure.HostSpeed()
    rows, loop = wl.cycles(seconds, wl.score_cycles, speed)
    speed.stop()
    busy = sum(row[2] for row in rows)  # the loop's time less the probes'
    lat = measure.latency_summary([row[2] for row in rows])
    # Each size's median, averaged over the sizes: the pooled median of
    # three overlapping size clusters falls where few instances lie, so
    # it jumped with the seed's instances (a spread of 16% over ten
    # seeds, against 6% for this).
    by_size: dict[int, list[float]] = {}
    for _c, n, s, _sc, _e in rows:
        by_size.setdefault(n, []).append(s)
    p50_ms = statistics.mean(statistics.median(v) for v in by_size.values()) * 1e3
    total = sum(score or 0.0 for c, _n, _s, score, _e in rows if c < wl.score_cycles)
    wrong = [row for row in rows if row[4]]
    failed = sum(row[3] is None for row in rows)
    raw = {
        "throughput_per_s": len(rows) / busy,
        "latency_p50_ms": p50_ms,
        "latency_tail_ms": lat["tail_ms"],
        "cpu_ms_per_op": loop["cpu_s"] / len(rows) * 1e3,
    }
    slow = speed.slowdown("wall")
    raw["setup_s"] = statistics.median(setup)
    metrics = {
        # Set-up ran just before the loop, on the same host; scaled alike.
        "setup_s": raw["setup_s"] / slow,
        "throughput_per_s": raw["throughput_per_s"] * slow,
        "latency_p50_ms": raw["latency_p50_ms"] / slow,
        "latency_tail_ms": raw["latency_tail_ms"] / slow,
        "slo_attainment": sum(sc is not None and not e and s <= wl.limit_s
                              for _c, _n, s, sc, e in rows) / len(rows),
        "success_rate": 1.0 - failed / len(rows),
        "cpu_ms_per_op": raw["cpu_ms_per_op"] / speed.slowdown("cpu"),
        "peak_rss_mb": measure.proc_hwm_mb(),
        "csr_score_total": total,
    }
    return {
        "metrics": metrics, "attempted": len(rows), "failed": failed, "wrong": len(wrong),
        "diagnostics": {"tail_pct": lat["tail_pct"], "latency_samples": lat["samples"],
                        "pooled_p50_ms": lat["p50_ms"], "p99_ms": lat["p99_ms"], "max_ms": lat["max_ms"],
                        "raw": raw, "host_speed": speed.summary(),
                        "elapsed_s": loop["elapsed_s"],
                        "setup_runs_s": setup, "error_rate": failed / len(rows), "wrong": wrong[:5],
                        "instances": [[c, n, round(s, 4), sc] for c, n, s, sc, _e in rows]},
        "repeatable": {"csr_score_total": total},
    }


class _KernelSpans:
    """Engine profiler sink: one span per kernel dispatch, parented to
    the engine call that made it."""

    def __init__(self, spans: measure.Spans) -> None:
        self.spans = spans
        self.parent: int | None = None
        self.calls = self.pairs = self.cells = 0
        self.seconds = 0.0

    def record(self, family, backend, mode, shapes, seconds) -> None:
        now = time.perf_counter()
        self.spans.add(f"kernel.{family}", now - seconds, now, self.parent)
        self.calls += 1
        self.pairs += len(shapes)
        self.cells += sum(n * m for n, m in shapes)
        self.seconds += seconds


class _TracedEngine(AlignmentEngine):
    """An engine whose batch and single-pair verbs record spans under
    the pipeline step that is running."""

    def __init__(self, tracer: "_StepTracer", **kw) -> None:
        super().__init__(**kw)
        self.tracer = tracer
        self.profiler = tracer.sink

    def _traced(self, verb: str, *args, **kw):
        tracer = self.tracer
        token = tracer.spans.open(f"engine.{verb}", tracer.current)
        tracer.sink.parent = token[0] if token else None
        tracer.engine_calls += 1
        try:
            return getattr(super(), verb)(*args, **kw)
        finally:
            tracer.spans.close(token)

    def score(self, *a, **kw):
        return self._traced("score", *a, **kw)

    def align(self, *a, **kw):
        return self._traced("align", *a, **kw)

    def score_many(self, *a, **kw):
        return self._traced("score_many", *a, **kw)

    def align_many(self, *a, **kw):
        return self._traced("align_many", *a, **kw)


class _StepTracer:
    """Within ``with``, ``run_pipeline`` calls span-recording wrappers of
    its own step functions and engine; the originals are put back on
    exit.  Steps the module no longer has are listed in ``missing``."""

    def __init__(self, spans: measure.Spans) -> None:
        self.spans, self.sink = spans, _KernelSpans(spans)
        self.root: int | None = None
        self.current: int | None = None
        self.engine_calls = 0
        self.missing = sorted(name for name in STEPS if not hasattr(pipeline, name))
        self._saved: dict = {}

    def _wrap(self, fn, span: str):
        @functools.wraps(fn)
        def step(*args, **kw):
            token = self.spans.open(span, self.root)
            self.current = token[0] if token else None
            try:
                return fn(*args, **kw)
            finally:
                self.spans.close(token)
                self.current = self.root
        return step

    def __enter__(self) -> "_StepTracer":
        for name, span in STEPS.items():
            if name not in self.missing:
                self._saved[name] = getattr(pipeline, name)
                setattr(pipeline, name, self._wrap(self._saved[name], span))
        self._saved["AlignmentEngine"] = pipeline.AlignmentEngine
        pipeline.AlignmentEngine = functools.partial(_TracedEngine, self)
        return self

    def __exit__(self, *exc) -> None:
        for name, fn in self._saved.items():
            setattr(pipeline, name, fn)

    def solve(self, wl: Workload, cycle: int, n: int, rid: int) -> tuple[float | None, str | None]:
        """``wl.solve`` under one root span per instance."""
        token = self.spans.open("genome.pipeline", rid=rid)
        self.root = self.current = token[0] if token else None
        try:
            return wl.solve(cycle, n)
        finally:
            self.spans.close(token)


def _traced(wl: Workload, seconds: float, spans: measure.Spans) -> dict:
    rows, loop = wl.cycles(seconds / 2)
    elapsed = loop["elapsed_s"]
    wrong = 0
    start = time.perf_counter()
    with _StepTracer(spans) as tracer:
        for rid, (cycle, n, _s, score, error) in enumerate(rows):
            if score is None:  # failed untraced; nothing to reproduce
                continue
            traced_score, traced_error = tracer.solve(wl, cycle, n, rid)
            wrong += bool(error or traced_error) or traced_score != score
    traced_elapsed = time.perf_counter() - start
    sink = tracer.sink
    st = spans.self_times()
    per = len(rows)

    def ms(name: str) -> float:  # 0 when the pipeline no longer has the step
        return st.get(name, {"total_s": 0.0})["total_s"] / per * 1e3

    engine_self = sum(v["self_s"] for k, v in st.items() if k.startswith("engine."))
    layers = {
        "genome.simulate_ms": ms("genome.simulate"),
        "genome.discovery_ms": ms("genome.discovery"),
        "core.build_ms": ms("core.build"),
        "core.solve_ms": ms("core.solve"),
        "genome.evaluate_ms": ms("genome.evaluate"),
        "engine.self_us_per_op": engine_self / sink.pairs * 1e6,
        "engine.kernel_calls_per_batch": sink.calls / tracer.engine_calls,
        "kernel.us_per_op": sink.seconds / sink.pairs * 1e6,
        "kernel.busy_s": sink.seconds,
        "kernel.mcells_per_s": sink.cells / sink.seconds / 1e6,
        "trace.throughput_ratio": elapsed / traced_elapsed,  # same instances, both ways
    }
    return {
        "metrics": layers, "attempted": 2 * per, "failed": sum(r[3] is None for r in rows),
        "wrong": wrong,
        "diagnostics": {"self_times": st, "kernel_pairs": sink.pairs, "missing_steps": tracer.missing},
    }
