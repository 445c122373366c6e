"""Benchmark of the lehmer package in src/: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The run times every operation of the
workload from outside, round after round, until S seconds of operations
have been measured, then checks every output against an independent
reference. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (BENCHMARK.json
"end_to_end"); with --trace 1 the same operations run with spans around
the calls between lehmer's modules and the metrics are the per-layer ones.
A traced run also writes both metric sets and the spans of its first round
to perfbench/out/trace-<workload>-seed<N>.json.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy loads, for this process and the
# set-up probes it starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("search-n3", "curve", "inflect-cli")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    return args


def _set_up(workload: str, seed: int):
    """Imports, input generation and warm-up: everything before the first timed op."""
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.BUILDERS[workload](seed)
    wl.warmup.call()
    return wl


def _probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process until it has set up and is ready to time."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            ready = perf_counter()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return ready - start


def _run_rounds(wl, seconds: float, tracer):
    """Whole rounds until `seconds` of op time is measured.

    Returns the latency of every op, the op time of each round, the outputs
    of the first round, and every later output that differs from the first
    round's output of the same op. Keeping one round of outputs keeps the
    benchmark's own memory out of the peak RSS.
    """
    latencies: list[float] = []
    round_times: list[float] = []
    first: list = []
    others: list[tuple[int, object]] = []
    while sum(round_times) < seconds:
        measured = 0.0
        for index, op in enumerate(wl.ops):
            if tracer is not None:
                tracer.op = len(latencies)
            start = perf_counter()
            out = op.call()
            elapsed = perf_counter() - start
            latencies.append(elapsed)
            measured += elapsed
            if not round_times:
                first.append(out)
            elif out != first[index]:
                others.append((index, out))
        round_times.append(measured)
    return latencies, round_times, first, others


def _check(wl, rounds: int, first: list, others: list):
    """Checks every op's output; returns (failed, unexpected, reason per op label).

    A later output equal to the first round's output of its op gets that
    output's verdict.
    """
    import workloads

    failed = unexpected = 0
    reasons: dict[str, str] = {}
    verdicts = [wl.ops[index].check(wl.ops[index].summarize(out)) for index, out in enumerate(first)]
    counts = [rounds] * len(first)
    for index, out in others:
        counts[index] -= 1
        counts.append(1)
        verdicts.append(wl.ops[index].check(wl.ops[index].summarize(out)))
    labels = [op.label for op in wl.ops] + [wl.ops[index].label for index, _ in others]
    for label, verdict, count in zip(labels, verdicts, counts):
        if verdict is not None:
            failed += count
            if not verdict.startswith(workloads.KNOWN_FAULT):
                unexpected += count
            reasons.setdefault(label, verdict)
    return failed, unexpected, reasons


def _nearest_rank(sorted_xs, q: float) -> float:
    return sorted_xs[max(0, math.ceil(q * len(sorted_xs)) - 1)]


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "lehmer" / "__init__.py").is_file():
        print(f"error: no lehmer package under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    if args.setup_probe:
        _set_up(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    setup_times = [_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    wl = _set_up(args.workload, args.seed)

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        latencies, round_times, first, others = _run_rounds(wl, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.remove()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rounds = len(round_times)

    failed, unexpected, reasons = _check(wl, rounds, first, others)
    for label, reason in reasons.items():
        print(f"{wl.name}: {label}: {reason}", file=sys.stderr)

    # Means over the whole run, then ranks over the round's ops. The
    # machine's speed drifts in spells of seconds to a minute; a mean takes
    # in every spell of the run, where a median picks one of them.
    per_op = sorted(statistics.fmean(latencies[index :: len(wl.ops)]) for index in range(len(wl.ops)))
    end_to_end = {
        "ops_per_s": {"value": len(latencies) / sum(round_times), "unit": "op/s"},
        "op_ms_p50": {"value": 1e3 * _nearest_rank(per_op, 0.50), "unit": "ms"},
        "op_ms_p90": {"value": 1e3 * _nearest_rank(per_op, 0.90), "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    metrics = end_to_end
    if tracer is not None:
        metrics = _per_layer(wl, tracer, rounds, first)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        record = {
            "workload": wl.name,
            "seed": args.seed,
            "rounds": rounds,
            "end_to_end_traced": end_to_end,
            "per_layer": metrics,
            # later rounds repeat the same calls; the metrics above use them all
            "span_fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans_first_round": [span for span in tracer.spans if span[4] < len(wl.ops)],
        }
        (out_dir / f"trace-{wl.name}-seed{args.seed}.json").write_text(json.dumps(record), encoding="utf-8")
    print(
        f"{wl.name}: seed {args.seed}, {rounds} rounds, {len(latencies)} ops in {sum(round_times):.2f} s, "
        f"{failed} failed ({unexpected} unexpected)",
        file=sys.stderr,
    )
    result = {"correct": unexpected == 0, "attempted": len(latencies), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def _per_layer(wl, tracer, rounds: int, first: list) -> dict:
    from spans import PER_LAYER_UNITS

    trials = sum(op.trials for op in wl.ops)
    hits = sum(len(hits) for hits in first) if trials else 0
    output_bytes = [len(out[1].encode()) for out in first] if wl.name == "inflect-cli" else []
    values = tracer.per_layer(rounds, trials, hits, output_bytes)
    return {name: {"value": value, "unit": PER_LAYER_UNITS[name]} for name, value in values.items()}


if __name__ == "__main__":
    sys.exit(main())
