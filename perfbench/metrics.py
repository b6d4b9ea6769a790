"""Metric catalogue and the statistics behind the end-to-end metrics.

The catalogue here is the one BENCHMARK.json lists; the tests keep the two
equal. Standard library only.
"""

from __future__ import annotations

import math
import statistics
import time

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_s", "s", "lower"),
    ("latency_p90_s", "s", "lower"),
    ("err_margin_p50_digits", "digits", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("starcalc.star_product_poly.calls", "count", "lower"),
    ("starcalc.star_product_poly.busy_s", "s", "lower"),
    ("starcalc.star_product_poly.terms_out", "count", "lower"),
    ("starcalc.value.busy_s", "s", "lower"),
    ("starcalc.value.term_points", "count", "lower"),
    ("starcalc.pointwise_mul.busy_s", "s", "lower"),
    ("starcalc.pointwise_mul.terms_out", "count", "lower"),
    ("starcalc.star_power.busy_s", "s", "lower"),
    ("starcalc.star_power.steps", "count", "lower"),
    ("starcalc.star_log.busy_s", "s", "lower"),
    ("wigner.wigner_state.busy_s", "s", "lower"),
    ("wigner.wigner_state.terms", "count", "lower"),
    ("wigner.genvalue_residual.busy_s", "s", "lower"),
    ("wigner.oscillator_hamiltonian.busy_s", "s", "lower"),
    ("wigner.residual_grid.busy_s", "s", "lower"),
    ("wigner.reduce.busy_s", "s", "lower"),
    ("params.derive.calls", "count", "lower"),
    ("params.derive.busy_s", "s", "lower"),
    ("moments.integrate.busy_s", "s", "lower"),
    ("moments.integrate.monomials", "count", "lower"),
    ("moments.integrate.max_degree", "count", "lower"),
    ("moments.marginalize.busy_s", "s", "lower"),
    ("moments.marginalize.monomials_in", "count", "lower"),
    ("moments.marginalize.monomials_out", "count", "lower"),
    ("entropy.closed.busy_s", "s", "lower"),
    ("entropy.numeric.busy_s", "s", "lower"),
    ("darboux.cell_size.busy_s", "s", "lower"),
    ("cli.verify.busy_s", "s", "lower"),
    ("cli.figure.busy_s", "s", "lower"),
    ("cli.figure.rows", "count", "lower"),
    ("cli.spectrum.busy_s", "s", "lower"),
    ("cli.entropy.busy_s", "s", "lower"),
    ("bench.op.busy_s", "s", "lower"),
    ("wigner.genvalue_rel_err_max", "rel", "lower"),
    ("moments.norm_err_max", "abs", "lower"),
    ("entropy.closed_vs_numeric_err_max", "nats", "lower"),
    ("err_margin_min_digits", "digits", "higher"),
    ("fail_ratio", "ratio", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.mismatches", "count", "lower"),
    ("defects.attempted", "count", "lower"),
    ("defects.failed", "count", "lower"),
    ("defects.band_failed", "count", "lower"),
    ("defects.high_order_failed", "count", "lower"),
    ("defects.fail_ratio", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

# worst errors of the per-layer maxima, keyed by Outcome.errors names
ERROR_MAXIMA = {
    "genvalue_rel": "wigner.genvalue_rel_err_max",
    "norm": "moments.norm_err_max",
    "entropy_diff": "entropy.closed_vs_numeric_err_max",
}

MIN_OPS = 100  # so that at least ten latency samples lie beyond p90

# End-to-end times are reported in reference seconds: seconds on a machine
# where speed_kernel takes REFERENCE_KERNEL_S. A shared machine's CPU speed
# shifts by up to 1.7x for minutes at a time; the kernel, timed between
# operations, measures the shift so that it cancels out of the comparison.
REFERENCE_KERNEL_S = 0.006
_KERNEL_A = {(i, j, k, m): float(i + j + k + m + 1)
             for i in range(4) for j in range(4) for k in range(3) for m in range(3)}
_KERNEL_B = {(i, j, k, 0): 1.0 / (i + j + k + 1)
             for i in range(3) for j in range(3) for k in range(3)}


def speed_kernel() -> float:
    """Seconds for one fixed pure-Python sparse polynomial product (no ncphase)."""
    start = time.perf_counter()
    out: dict = {}
    for k1, c1 in _KERNEL_A.items():
        for k2, c2 in _KERNEL_B.items():
            key = tuple(x + y for x, y in zip(k1, k2))
            out[key] = out.get(key, 0.0) + c1 * c2
    return time.perf_counter() - start


def speed_scale(kernel_samples) -> float:
    """Factor from seconds measured alongside these samples to reference seconds."""
    return REFERENCE_KERNEL_S / statistics.fmean(kernel_samples)

def nearest_rank(values, q: float) -> float:
    """The q-quantile (0 < q <= 1) by the nearest-rank rule."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def beyond(values, q: float) -> int:
    """How many samples lie above the nearest-rank q-quantile's rank."""
    return len(values) - max(1, math.ceil(q * len(values)))


def end_to_end(latencies, elapsed_s: float, margins, rss_kb: float,
               setup_samples, scale: float = 1.0) -> dict[str, float]:
    """The end-to-end metrics of one untraced run.

    Loop times are multiplied by scale (see speed_scale); setup_samples are
    already in reference seconds, one per launch.
    """
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(latencies) / (elapsed_s * scale),
        "latency_p50_s": statistics.median(latencies) * scale,
        "latency_p90_s": nearest_rank(latencies, 0.9) * scale,
        "err_margin_p50_digits": statistics.median(margins),
        "peak_rss_mb": rss_kb * 1024 / 1e6,
    }


def with_units(values: dict[str, float], names) -> dict[str, dict]:
    """{name: {"value", "unit"}} for the given names; absent layers read 0."""
    return {name: {"value": values.get(name, 0), "unit": UNITS[name]} for name in names}
