"""ncphase benchmark: seeded, correctness-checked workloads, end to end and per layer.

    python3 perfbench/run.py --workload eigen --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in fresh interpreters started from the checkout root,
single-threaded, with ncphase imported from ./src. With --trace 0 the last
line holds the end-to-end metrics, with --trace 1 the per-layer metrics. The
lines before it give the machine, every metric with its unit, the sample
count, the failure classes and the defect census. `--workload all` runs every
workload with and without tracing. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_LAUNCHES = 5  # set-up only; the measuring launch adds a sixth sample
RUN_TIMEOUT_S = 170.0
ENV_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


def launch(workload: str, seed: int, seconds: float, mode: str, deadline: float):
    """Start a worker; return (seconds until it was ready, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, **ENV_PINS},
                            stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - start))
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - start
        if line.strip() != "ready":
            raise BenchError(f"{workload} worker never got ready ({mode})")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker passed the time limit ({mode})") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode} ({mode})")
    return setup_s, json.loads(out.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: set-up launches, then the measuring launch, reduced to metrics."""
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    launches = [launch(workload, seed, seconds, "setup", deadline)
                for _ in range(SETUP_LAUNCHES)]
    launches.append(launch(workload, seed, seconds, "trace" if trace else "run", deadline))
    raw = launches[-1][1]
    raw["setups"] = [s for s, _ in launches]
    # each launch's set-up in reference seconds, by the kernel samples it took
    setups = [s * metrics.speed_scale(r["setup_kernels"]) for s, r in launches]
    failed = raw["failed"]
    if trace:
        values = dict(raw["layers"])
        for key, name in metrics.ERROR_MAXIMA.items():
            values[name] = raw["errors_max"].get(key, 0.0)
        values["err_margin_min_digits"] = min(raw["margins"], default=0.0)
        values["fail_ratio"] = failed / raw["attempted"]
        values["trace.ops"] = raw["attempted"]
        values["trace.overhead_ratio"] = raw["traced_s"] / raw["untraced_s"]
        values["trace.mismatches"] = raw["mismatches"]
        defects = raw["defects"]
        values["defects.attempted"] = defects["attempted"]
        values["defects.failed"] = defects["failed"]
        values["defects.band_failed"] = (defects["by_region"].get("band", 0)
                                         + defects["by_region"].get("near_singular", 0))
        values["defects.high_order_failed"] = defects["by_region"].get("high_order", 0)
        values["defects.fail_ratio"] = defects["failed"] / defects["attempted"]
        names = [name for name, _, _ in metrics.PER_LAYER]
        failed += raw["mismatches"]
    else:
        raw["scale"] = metrics.speed_scale(raw["kernels"])
        values = metrics.end_to_end(raw["latencies"], raw["elapsed_s"], raw["margins"],
                                    raw["rss_kb"], setups, raw["scale"])
        names = [name for name, _, _ in metrics.END_TO_END]
    return {"raw": raw, "setups": setups, "failed": failed,
            "metrics": metrics.with_units(values, names)}


def machine(numpy_version: str) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, check=False)
        commit = git.stdout.strip() or None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version,
            "commit": commit, "src_sha256": digest.hexdigest()}


def report(workload: str, run: dict, trace: bool) -> None:
    raw = run["raw"]
    print(f"[{workload}] {'per-layer (traced)' if trace else 'end-to-end'} metrics:")
    for name, entry in run["metrics"].items():
        print(f"  {name:40s} {entry['value']:>14.6g} {entry['unit']}")
    if trace:
        print(f"  {raw['attempted']} operations traced; traced and untraced results "
              f"{'identical' if raw['mismatches'] == 0 else 'DIFFER'} "
              f"({raw['mismatches']} mismatches)")
    else:
        n = len(raw["latencies"])
        print(f"  {n} operations in {raw['elapsed_s']:.2f} s; "
              f"{metrics.beyond(raw['latencies'], 0.9)} samples beyond p90; "
              f"{len(raw['margins'])} with a numeric margin; set-up is the median "
              f"of {len(run['setups'])} launches")
        lat = raw["latencies"]
        print(f"  times are reference seconds: measured x {raw['scale']:.4f}, from "
              f"{len(raw['kernels'])} speed-kernel samples (mean "
              f"{statistics.fmean(raw['kernels']) * 1e3:.3f} ms; reference "
              f"{metrics.REFERENCE_KERNEL_S * 1e3:g} ms)")
        print(f"  as measured: setup_s {statistics.median(raw['setups']):.6g}, "
              f"ops_per_s {n / raw['elapsed_s']:.6g}, latency_p50_s "
              f"{statistics.median(lat):.6g}, latency_p90_s "
              f"{metrics.nearest_rank(lat, 0.9):.6g}")
        if n < metrics.MIN_OPS:
            print(f"  warning: fewer than {metrics.MIN_OPS} operations")
    print(f"  failures: {raw['failures'] or 'none'}")
    d = raw["defects"]
    print(f"  defect census (untimed probes outside the certified envelope): "
          f"{d['failed']} of {d['attempted']} failed; failed by region {d['by_region']} "
          f"of {d['attempted_by_region']}; reasons {d['reasons']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ncphase" / "__init__.py").is_file():
        print(f"error: no ncphase sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        plan = [(w, t) for w in workloads.WORKLOADS for t in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]

    print(f"perfbench seed={args.seed} seconds={args.seconds:g} env={ENV_PINS}")
    runs = []
    try:
        for workload, trace in plan:
            run = measure(workload, args.seed, args.seconds, trace)
            if not runs:
                print("machine:", json.dumps(machine(run["raw"]["numpy"])))
            report(workload, run, trace)
            runs.append((workload, run))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(run["raw"]["attempted"] for _, run in runs)
    failed = sum(run["failed"] for _, run in runs)
    if len(runs) == 1:
        out_metrics = runs[0][1]["metrics"]
    else:
        out_metrics = {f"{w}.{name}": entry for w, run in runs
                       for name, entry in run["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
