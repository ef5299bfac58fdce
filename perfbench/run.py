"""fragalign benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload bulk-score --seed 1 --seconds 12 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` is the separate traced run
that peels the layers and prints the per-layer metrics.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Lines before it are diagnostics.  The full
record (diagnostics included: which kernel implementation answered,
compile time, the host-speed probe before and after, the share of
CPU time the host stole during the run, the tail
percentile and its sample count) is appended to
``.bench_build/results.jsonl``; traced runs write their spans to
``.bench_build/traces/``.

The workloads are defined in ``perfbench/workloads.json``.  Metric
names, units and bounds are in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import signal
import sys
import time
from pathlib import Path

import build
import measure

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / build.BUILD_DIR
RUN_DEADLINE_S = 170

UNITS = {
    "setup_s": "s", "throughput_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
    "slo_attainment": "share", "success_rate": "share", "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB", "csr_score_total": "score",
}
LAYER_UNITS = {
    "client.cpu_us_per_op": "us", "router.self_us_per_op": "us",
    "protocol.encode_us": "us", "protocol.decode_us": "us", "protocol.parse_us": "us",
    "shards.cpu_us_per_op": "us", "shards.send_segs_per_op": "count", "client.send_segs_per_op": "count",
    "shards.ctx_switches_per_op": "count", "service.self_us_per_op": "us",
    "batcher.pairs_per_batch": "count", "cache.hit_ratio": "share", "cache.evictions": "count",
    "ring.max_share": "share", "engine.self_us_per_op": "us", "engine.kernel_calls_per_batch": "count",
    "kernel.us_per_op": "us", "kernel.busy_s": "s", "kernel.mcells_per_s": "Mcells/s",
    "genome.simulate_ms": "ms", "genome.discovery_ms": "ms", "core.build_ms": "ms",
    "core.solve_ms": "ms", "genome.evaluate_ms": "ms", "loadgen.lag_p99_ms": "ms",
    "trace.throughput_ratio": "ratio",
}


def _interrupt(signum, frame):
    raise KeyboardInterrupt(signal.Signals(signum).name)


def _previous(workload: str, trace: int) -> list[dict]:
    path = OUT / "results.jsonl"
    if not path.exists():
        return []
    rows = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    return [r for r in rows if r["workload"] == workload and r["trace"] == trace]


def run(args) -> dict:
    spec_all = json.loads((HERE / "workloads.json").read_text())
    fleet_cfg, spec = spec_all["fleet"], spec_all["workloads"][args.workload]
    record = build.prepare(ROOT)
    signal.alarm(RUN_DEADLINE_S)  # the build above may take longer; a run may not
    spans = measure.Spans(enabled=bool(args.trace))
    probe_before, ticks_before = measure.host_probe_ms(), measure.host_cpu_ticks()
    if args.workload == "genome-csr":
        import genome

        result = genome.run(spec, args.seed, args.seconds, bool(args.trace),
                            fleet_cfg["setup_repeats"], spans)
    else:
        import served
        from fragalign.engine import AlignmentEngine

        with AlignmentEngine(backend="numpy") as oracle:
            inputs = served.Inputs(spec, args.seed, oracle, fleet_cfg["shards"] * fleet_cfg["cache_size"])
        base = OUT / "fleet"
        result = asyncio.run(served.run(inputs, fleet_cfg, args.seconds, bool(args.trace), base, spans))
    ticks_after, probe_after = measure.host_cpu_ticks(), measure.host_probe_ms()
    stolen, total = (a - b for a, b in zip(ticks_after, ticks_before))
    if args.trace:
        spans.dump(OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        result["diagnostics"]["span_self_times"] = spans.self_times()
    # Runs of the same code, workload definition, seed and length must
    # repeat their seed-determined results exactly.
    key = hashlib.sha256(json.dumps(
        [record["source_hash"], spec, args.seed, args.seconds], sort_keys=True).encode()).hexdigest()[:16]
    result.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "impl": record["impl"], "source_hash": record["source_hash"], "repeat_key": key,
        "compile_s": record["compile_s"], "host_probe_ms": [probe_before, probe_after],
        "host_steal_share": stolen / max(1, total),
        "time": time.time(),
    })
    earlier = _previous(args.workload, args.trace)
    # Runs answered by another kernel implementation are not comparable.
    result["comparable"] = all(r["impl"] == record["impl"] for r in earlier)
    for r in earlier:
        if r.get("repeat_key") == key and r.get("repeatable") != result.get("repeatable"):
            result["wrong"] += 1
            result["diagnostics"]["not_repeated"] = r.get("repeatable")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["bulk-score", "hot-score", "genome-csr"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM and the run deadline unwind like Ctrl-C, so every
    # ``finally`` runs and the fleet is stopped before exit.
    signal.signal(signal.SIGTERM, _interrupt)
    signal.signal(signal.SIGALRM, _interrupt)
    try:
        result = run(args)
    except build.BuildError as exc:
        print(f"perfbench: cannot build the package under test: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("perfbench: interrupted or past the run deadline", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
    units = LAYER_UNITS if args.trace else UNITS
    metrics = result["metrics"]
    absent = sorted(set(units) - set(metrics))
    for name in absent:  # layers this workload's path never enters
        metrics[name] = 0.0
    result["diagnostics"]["absent_layers"] = absent
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a") as f:
        f.write(json.dumps(result, default=str) + "\n")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} impl={result['impl']} "
          f"comparable={result['comparable']} compile_s={result['compile_s']:.2f} "
          f"host_probe_ms={result['host_probe_ms'][0]:.1f}/{result['host_probe_ms'][1]:.1f} "
          f"host_steal_share={result['host_steal_share']:.3f} "
          f"wrong={result['wrong']}")
    print("# " + json.dumps(result["diagnostics"], default=str)[:4000])
    correct = result["wrong"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"] + result["wrong"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
