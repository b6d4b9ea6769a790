"""One workload in a fresh interpreter: set up, then run the closed loop.

Started by run.py with single-threaded BLAS and a fixed PYTHONHASHSEED.
Prints "ready" once ncphase.cli is imported and the warm-up is done, then
one JSON line with speed-kernel samples and, unless --mode is setup, the
run's raw results.

    python3 perfbench/worker.py --workload eigen --seed 1 --seconds 20 --mode run
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

import workloads
from metrics import MIN_OPS, speed_kernel

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MAX_LOOP_S = 120.0  # stop a pathologically slow loop; run.py allows a run 170 s
KERNEL_EVERY_S = 0.1  # speed-kernel samples between operations in the loop
SETUP_KERNELS = 10  # speed-kernel samples right after set-up


def _import_library():
    """Import ncphase from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import ncphase.cli  # noqa: F401  (the import is part of set-up)
    import ncphase
    if SRC.resolve() not in Path(ncphase.__file__).resolve().parents:
        raise ImportError(f"ncphase resolved outside {SRC}: {ncphase.__file__}")
    return ncphase


def closed_loop(run, workload: str, seed: int, seconds: float,
                min_ops: int = MIN_OPS, max_s: float = MAX_LOOP_S):
    """Whole blocks, each operation after the previous one returns, until
    both the time and the operation count are reached (or max_s passes).

    Between operations, at most every KERNEL_EVERY_S, the speed kernel runs;
    its time is left out of the loop time."""
    latencies, outcomes, kernels = [], [], []
    clock = time.perf_counter
    start = next_kernel = clock()
    paused = 0.0
    k = 0
    while True:
        for op in workloads.block(workload, seed, k):
            if clock() >= next_kernel:
                t0 = clock()
                kernels.append(speed_kernel())
                next_kernel = clock()
                paused += next_kernel - t0
                next_kernel += KERNEL_EVERY_S
            t0 = clock()
            outcomes.append(run(op))
            latencies.append(clock() - t0)
        k += 1
        elapsed = clock() - start - paused
        if (elapsed >= seconds and len(outcomes) >= min_ops) or elapsed >= max_s:
            return latencies, outcomes, elapsed, kernels


def summarize(outcomes) -> dict:
    failures = Counter(o.reason for o in outcomes if not o.passed)
    margins = [o.margin for o in outcomes if o.margin is not None]
    worst: dict[str, float] = {}
    for o in outcomes:
        for key, err in o.errors.items():
            worst[key] = max(worst.get(key, 0.0), err)
    return {
        "attempted": len(outcomes),
        "failed": sum(failures.values()),
        "failures": dict(failures),
        "margins": margins,
        "errors_max": worst,
    }


def census(run, probes) -> dict:
    """Run the defect probes once and count failures by region and reason."""
    outcomes = [(op, run(op)) for op in probes]
    failed = [(op, o) for op, o in outcomes if not o.passed]
    return {
        "attempted": len(outcomes),
        "failed": len(failed),
        "by_region": dict(Counter(op.region for op, _ in failed)),
        "attempted_by_region": dict(Counter(op.region for op, _ in outcomes)),
        "reasons": dict(Counter(o.reason for _, o in failed)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    args = parser.parse_args(argv)

    ncphase = _import_library()
    import numpy
    import ops

    for op in workloads.warmup(args.workload):
        outcome = ops.run(op)
        if not outcome.passed:
            print(f"warm-up failed: {op} -> {outcome.reason}", file=sys.stderr)
            return 3
    print("ready", flush=True)
    result = {"setup_kernels": [speed_kernel() for _ in range(SETUP_KERNELS)]}
    if args.mode == "setup":
        print(json.dumps(result), flush=True)
        return 0

    result.update(numpy=numpy.__version__, ncphase=ncphase.__version__)
    if args.mode == "run":
        latencies, outcomes, elapsed, kernels = closed_loop(
            ops.run, args.workload, args.seed, args.seconds)
        result.update(summarize(outcomes), latencies=latencies, elapsed_s=elapsed,
                      kernels=kernels)
    else:
        import tracing
        # a fixed number of whole blocks, so work counts repeat for a seed
        blocks = workloads.blocks_for(MIN_OPS, args.workload)
        oplist = [op for k in range(blocks)
                  for op in workloads.block(args.workload, args.seed, k)]
        t0 = time.perf_counter()
        plain = [ops.run(op) for op in oplist]
        untraced_s = time.perf_counter() - t0
        tracer = tracing.Tracer()
        with tracing.interpose(tracer, ops.TRACE_TARGETS):
            t0 = time.perf_counter()
            traced = []
            for k, op in enumerate(oplist):
                tracer.request = k
                traced.append(tracer.call("bench.op", ops.run, (op,)))
            traced_s = time.perf_counter() - t0
        mismatches = sum(repr((a.reason, a.fingerprint)) != repr((b.reason, b.fingerprint))
                         for a, b in zip(plain, traced))
        result.update(summarize(traced), layers=tracing.reduce_spans(tracer.spans),
                      untraced_s=untraced_s, traced_s=traced_s, mismatches=mismatches)
    # peak memory of the measured loop, before the probes add theirs
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["defects"] = census(ops.run, workloads.probes(args.workload, args.seed))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
