"""Benchmark of the nlsid identification road map.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process.  Set-up (imports, input generation,
fixture loading) is repeated ``SETUP_REPEATS`` times and never fits a model.
Then the workload's round, a fixed list of seeded operations, is repeated
until ``--seconds`` have passed (at least ``MIN_ROUNDS`` times); every round
does the same work on the same inputs.  The outputs of the first round are
checked after the timing ends.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Details go to
``bench/out/``.  The exit code is 0 once a result is printed, 3 when the
traced run finds a metric of this workload without a single call behind it,
and another non-zero code on a usage or set-up error (no result is printed).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback

import bootstrap

SETUP_REPEATS = 3
MIN_ROUNDS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_workloads():
    import w_bla_sweep
    import w_cli_pipeline
    import w_pnlss

    return {w.name: w for w in (w_pnlss.PnlssFit(), w_pnlss.PnlssReduce(),
                                w_bla_sweep.BlaSweep(), w_cli_pipeline.CliPipeline())}


def run_rounds(workload, state, seconds: float, log):
    """Repeat the round until ``seconds`` have passed; time every operation."""
    op_times, round_times, first = [], [], None
    attempted = failed = 0
    start = time.perf_counter()
    while len(round_times) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        results, round_s = [], 0.0
        for label, op in workload.ops(state):
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = op()
            except Exception:  # a failed operation is counted, not fatal
                failed += 1
                result = None
                log.write(f"operation '{label}' failed:\n{traceback.format_exc()}")
            dt = time.perf_counter() - t0
            op_times.append(dt)
            round_s += dt
            results.append(result)
        round_times.append(round_s)
        if first is None:
            first = results
        if hasattr(workload, "end_round"):
            workload.end_round(state)
    return op_times, round_times, first, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    t_import = time.perf_counter()
    nlsid = bootstrap.import_nlsid()   # numpy and scipy load here and count as set-up
    import tracing

    workloads = load_workloads()
    import_s = time.perf_counter() - t_import
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}",
              file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    out_dir = bootstrap.BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(nlsid)
        before = tracer.snapshot()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)
    if tracer:
        after_setup = tracer.snapshot()
    try:
        op_times, round_times, first, attempted, failed = run_rounds(
            workload, state, args.seconds, sys.stderr)
        if tracer:
            after_ops = tracer.snapshot()
            tracer.uninstall()
        problems, values = workload.check(state, first, args.seed)
    finally:
        if hasattr(workload, "cleanup"):
            workload.cleanup(state)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    detail = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "import_s": import_s, "setup_times": setup_times, "op_times": op_times,
              "round_times": round_times, "checked_values": values, "problems": problems}
    if tracer:
        setup_t = tracing.scaled(tracing.difference(after_setup, before), 1 / SETUP_REPEATS)
        ops_t = tracing.difference(after_ops, after_setup)
        round_t = tracing.scaled(ops_t, 1 / len(round_times))
        per_round = tracing.combined(setup_t, round_t)
        missing = tracing.uncalled(workload.metrics, per_round)
        metrics = {}
        for name, (unit, _, compute) in tracing.PER_LAYER.items():
            value = compute(per_round)
            if unit == "count" and float(value).is_integer():
                value = int(value)
            metrics[name] = {"value": value, "unit": unit}
        detail["trace"] = {
            "per_setup": setup_t, "per_round": round_t,
            "round_layer_self_s": tracing.layer_self(round_t),
            "round_outside_layers_s": statistics.fmean(round_times) - round_t["top_s"],
            "round_mean_s": statistics.fmean(round_times),
            "spans": tracer.spans,
        }
        if missing:
            print(f"traced run: no calls behind {missing} on {workload.name}", file=sys.stderr)
            (out_dir / f"{stem}.json").write_text(json.dumps(detail))
            return 3
        print_breakdown(detail["trace"], sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(round_times), "unit": "s"},
            "op_p50_s": {"value": statistics.median(op_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    (out_dir / f"{stem}.json").write_text(json.dumps(detail))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def print_breakdown(trace: dict, stream) -> None:
    layers = trace["round_layer_self_s"]
    total = trace["round_mean_s"]
    stream.write(f"traced round {total:.3f} s; self time per layer:\n")
    for layer, secs in sorted(layers.items(), key=lambda kv: -kv[1]):
        if secs > 0:
            stream.write(f"  {layer:<11} {secs:8.3f} s  {100 * secs / total:5.1f}%\n")
    outside = trace["round_outside_layers_s"]
    stream.write(f"  {'(benchmark)':<11} {outside:8.3f} s  {100 * outside / total:5.1f}%\n")


if __name__ == "__main__":
    sys.exit(main())
