"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import math
import types
from collections import Counter
from pathlib import Path

import pytest

import metrics
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 12345)


def _ops(workload: str, seed: int, blocks: int = 3):
    timed = [op for k in range(blocks) for op in workloads.block(workload, seed, k)]
    return timed, workloads.probes(workload, seed)


def _commands(op):
    return op.args if op.kind == "session" else (op,)


def _theta(op) -> float:
    hbar, _, _, mu, nu = op.params
    return mu * nu / hbar**2


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_operations(workload):
    assert _ops(workload, 7) == _ops(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_other_operations_with_anchors(workload):
    seen = []
    for seed in SEEDS:
        timed, probes = _ops(workload, seed)
        seen.append((timed, probes))
        # the ROADMAP anchors are in every seed, timed or probed
        points = {cmd.params for op in workloads.block(workload, seed, 0) + probes
                  for cmd in _commands(op)}
        assert set(workloads.ANCHORS.values()) <= points
    assert all(a != b for i, a in enumerate(seen) for b in seen[i + 1:])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_block_has_the_same_shapes(workload):
    def shapes(ops):
        return Counter((op.kind, op.args if op.kind == "eigen" else
                        op.args[:2] if op.kind == "tower" else
                        op.args[1].args if op.kind == "session" else len(op.args))
                       for op in ops)
    first = shapes(workloads.block(workload, 1, 0))
    for seed in SEEDS:
        for k in range(3):
            assert shapes(workloads.block(workload, seed, k)) == first


def test_timed_points_stay_in_their_envelopes():
    for seed in SEEDS:
        for op in _ops("eigen", seed)[0]:
            assert -1.0 < _theta(op) <= workloads.EIGEN_THETA_MAX
        for op in _ops("tower", seed)[0]:
            hbar, mass, omega, _, _ = op.params
            assert abs(_theta(op)) <= workloads.TOWER_THETA_MAX
            assert 1 / 1.4 - 1e-12 <= mass * omega <= 1.4 + 1e-12
        commands = [cmd for op in _ops("cli", seed)[0] for cmd in _commands(op)]
        for op in commands:
            if op.kind == "verify":
                assert _theta(op) <= workloads.VERIFY_THETA_MAX
        for op in _ops("entropy", seed)[0] + commands:
            if op.kind in ("entropy", "cli-entropy"):
                assert -1.0 < _theta(op) <= workloads.THETA_BAND[1]
                if op.args[0] == "von-neumann":
                    assert workloads.purity_gap(op.params) >= workloads.VN_PURITY_GAP
                else:
                    assert 2 <= op.args[1] <= workloads.ORDER_RANGE[1]


def test_band_share_is_present():
    timed, _ = _ops("entropy", 3, blocks=20)
    band = sum(op.region == "band" for op in timed) / len(timed)
    assert 0.1 < band < 0.3
    assert all(workloads.THETA_BAND[0] <= _theta(op) <= workloads.THETA_BAND[1]
               for op in timed if op.region == "band")


def test_probes_cover_the_known_defects():
    regions = {w: Counter(op.region for op in workloads.probes(w, 5))
               for w in workloads.WORKLOADS}
    assert regions["eigen"]["band"] and regions["cli"]["band"]
    assert regions["entropy"]["high_order"] and regions["cli"]["high_order"]
    assert all(op.args[1] > workloads.ORDER_RANGE[1]
               for op in workloads.probes("entropy", 5) if op.region == "high_order")


def test_purity_gap_matches_the_direct_formula():
    params = (1.3, 0.8, 1.7, 0.4, 0.9)
    hbar, mass, omega, mu, nu = params
    u, v = mass * omega * mu / hbar, nu / (hbar * mass * omega)
    d2 = (u - v) ** 2
    lam = math.sqrt((4 + d2) / (4 + (2 - u * v) * d2))
    assert workloads.purity_gap(params) == pytest.approx(1 - lam, rel=1e-12)
    assert workloads.purity_gap((1.0, 1.0, 1.0, 0.5, 0.5)) == 0.0


@pytest.mark.parametrize("n", [metrics.MIN_OPS, 101, 109, 110, 157, 1000])
def test_p90_has_ten_samples_beyond_it(n):
    values = list(range(n, 0, -1))  # unsorted on purpose
    p90 = metrics.nearest_rank(values, 0.9)
    assert sum(v > p90 for v in values) == metrics.beyond(values, 0.9) >= 10


def test_nearest_rank_and_end_to_end():
    values = [0.5, 0.1, 0.4, 0.2, 0.3]
    assert metrics.nearest_rank(values, 0.5) == 0.3
    assert metrics.nearest_rank(values, 0.9) == 0.5
    e2e = metrics.end_to_end(values, 2.0, [3.0, 1.0, 2.0], 2000, [0.3, 0.1, 0.2])
    assert e2e == {"setup_s": 0.2, "ops_per_s": 2.5, "latency_p50_s": 0.3,
                   "latency_p90_s": 0.5, "err_margin_p50_digits": 2.0,
                   "peak_rss_mb": 2.048}
    # a machine at half the reference speed: reported times halve, rates double
    scale = metrics.speed_scale([2 * metrics.REFERENCE_KERNEL_S] * 3)
    scaled = metrics.end_to_end(values, 2.0, [1.0], 2000, [0.2], scale)
    assert scale == pytest.approx(0.5)
    assert scaled["ops_per_s"] == pytest.approx(5.0)
    assert scaled["latency_p90_s"] == pytest.approx(0.25)


def _span(name, start, end, parent=None, **counts):
    return tracing.Span(name, start, end, parent, 0, counts)


def test_span_reduction_on_a_synthetic_trace():
    spans = [
        _span("bench.op", 0.0, 10.0),
        _span("wigner.genvalue_residual", 1.0, 9.0, 0),
        _span("starcalc.star_product_poly", 2.0, 4.0, 1, terms_out=5),
        _span("starcalc.star_product_poly", 4.0, 7.0, 1, terms_out=7),
        _span("moments.integrate", 9.0, 9.5, 0, monomials=3, max_degree=4),
        _span("moments.integrate", 9.5, 10.0, 0, monomials=2, max_degree=6),
    ]
    out = tracing.reduce_spans(spans)
    assert out["bench.op.busy_s"] == pytest.approx(1.0)  # 10 - 8 - 0.5 - 0.5
    assert out["wigner.genvalue_residual.busy_s"] == pytest.approx(3.0)
    assert out["starcalc.star_product_poly.calls"] == 2
    assert out["starcalc.star_product_poly.busy_s"] == pytest.approx(5.0)
    assert out["starcalc.star_product_poly.terms_out"] == 12
    assert out["moments.integrate.monomials"] == 5
    assert out["moments.integrate.max_degree"] == 6
    # self times add up to the wall time of the root span
    assert sum(v for k, v in out.items() if k.endswith(".busy_s")) == pytest.approx(10.0)


def test_tracer_records_nesting_and_interpose_restores():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    lib = types.SimpleNamespace(inner=lambda x: x + 1)
    lib.outer = lambda x: lib.inner(x) * 2
    original = lib.inner, lib.outer
    targets = [(lib, "outer", "outer", None),
               (lib, "inner", "inner", lambda r, x: {"work": x})]
    with tracing.interpose(tracer, targets):
        assert lib.outer(3) == 8
    assert (lib.inner, lib.outer) == original
    (outer, inner) = tracer.spans
    assert (outer.name, outer.parent, inner.name, inner.parent) == ("outer", None, "inner", 0)
    assert inner.counts == {"work": 3}
    assert outer.start < inner.start < inner.end < outer.end


def test_tracer_closes_a_span_that_raises():
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        tracer.call("boom", lambda: 1 / 0)
    tracer.call("after", lambda: None)
    assert [s.parent for s in tracer.spans] == [None, None]
    assert tracer.spans[0].end >= tracer.spans[0].start


def test_catalogue_matches_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(metrics.PER_LAYER)
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_operations_are_checked_and_failures_classified(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    ops = pytest.importorskip("ops")
    Op, anchors = workloads.Op, workloads.ANCHORS
    passing = [
        Op("eigen", anchors["small"], (1, 1)),
        Op("tower", anchors["origin"], (4, 0, 2)),
        Op("entropy", anchors["negative"], ("tsallis", 5)),
        Op("verify", anchors["small"], ()),
        Op("cli-entropy", anchors["small"], ("renyi", 3, "numeric")),
    ]
    for op in passing:
        outcome = ops.run(op)
        assert outcome.passed and outcome.margin > 0, (op, outcome.reason)
    for op in (Op("figure", None, (4,)), Op("spectrum", anchors["negative"], (2, 3, True))):
        outcome = ops.run(op)
        assert outcome.passed and outcome.margin is None, (op, outcome.reason)
    session = workloads.block("cli", 1, 0)[0]
    outcome = ops.run(session)
    assert session.kind == "session" and outcome.passed and len(outcome.fingerprint) == 4
    failing = {
        Op("verify", anchors["near_singular"], ()): "exit_code:1",
        Op("entropy", anchors["origin"], ("renyi", 700)): "exception:OverflowError",
        Op("entropy", anchors["origin"], ("von-neumann", 1)): "exception:ValueError",
        Op("cli-entropy", anchors["small"], ("renyi", 700, "numeric")):
            "exception:OverflowError",
    }
    for op, reason in failing.items():
        assert ops.run(op).reason == reason
    # tracing every layer changes no result, and each workload reaches its layers
    for workload, layer in (("eigen", "starcalc.star_product_poly.calls"),
                            ("tower", "moments.marginalize.calls"),
                            ("entropy", "starcalc.star_power.calls"),
                            ("cli", "cli.figure.calls")):
        op = workloads.block(workload, 1, 0)[0]
        plain = ops.run(op)
        tracer = tracing.Tracer()
        with tracing.interpose(tracer, ops.TRACE_TARGETS):
            traced = ops.run(op)
        assert traced.passed and repr(traced) == repr(plain), workload
        assert tracing.reduce_spans(tracer.spans)[layer] > 0, workload
    monkeypatch.setitem(ops.FIGURE_SHA256, 4, "0" * 64)
    assert ops.run(Op("figure", None, (4,))).reason == "digest"
