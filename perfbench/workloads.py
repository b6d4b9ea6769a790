"""Seeded operation lists of the four benchmark workloads.

Standard library only, so the lists can be built and tested without numpy.
A workload is an endless sequence of blocks. Every block holds the same
multiset of operation shapes (index pairs, entropy strata, CLI commands) in a
seeded order with seeded parameter points, so any run of whole blocks has the
same mix of work whatever the seed. Block k depends only on (workload, seed,
k). Block 0 carries the ROADMAP anchor points that lie inside the workload's
certified envelope; the anchors outside it, and seeded points from the rest of
the domain, form the workload's defect probes.

Envelopes, measured at the commit that added this benchmark:

* eigen: mu*nu/hbar^2 <= 0.5. Above it the i+j = 3 states miss the 1e-9
  normalization of W*W (from about 0.6) and the 1e-8 eigen-equation gate.
* tower: |mu*nu|/hbar^2 <= 1e-3 and mass*omega within [1/1.4, 1.4]. The
  (6,6) state keeps about one digit of margin on integrate(W) = 1 only this
  close to the undeformed point. Even there it loses every digit once
  mass*omega leaves that range: at mu = nu = 0 from about 2.4 (or 1/2.4),
  with mu*nu ~ 1e-4 already from 1.7 (or 1/2).
* entropy: the whole theta range, band included, at orders 2..256; the
  numeric route overflows from order 1 + 308.25/log10(2 pi hbar), which is
  281 at hbar = 2 and 387 at hbar = 1; the closed form works up to order
  1024. The von Neumann
  numeric route loses one digit per decade as the purity parameter lam
  nears 1 and misses 1e-9 from 1 - lam ~ 1e-8, so von Neumann points keep
  1 - lam >= 1e-6.
* cli: `verify` at mu*nu/hbar^2 <= 0.95; it exits 1 from about 0.99.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("eigen", "tower", "entropy", "cli")

# (hbar, mass, omega, mu, nu); the fourth one sits at mu*nu = 1 - 1e-3
ANCHORS = {
    "origin": (1.0, 1.0, 1.0, 0.0, 0.0),
    "small": (1.0, 1.0, 1.0, 0.2, 0.1),
    "negative": (1.0, 1.0, 1.0, 3.0, -0.3),
    "near_singular": (1.0, 1.0, 1.0, 1.0, 0.999),
}

THETA_BAND = (0.99, 1.0 - 1e-6)
THETA_MIN = -1.0 + 1e-9
SPLIT_RANGE = (0.1, 10.0)  # |u/v| in natural oscillator units
SCALE_RANGE = (0.5, 2.0)  # hbar, mass, omega
# mass and omega of tower points: mass*omega within [1/1.4, 1.4]
TOWER_SCALE_RANGE = (1.4 ** -0.5, 1.4 ** 0.5)

EIGEN_THETA_MAX = 0.5
TOWER_THETA_MAX = 1e-3
VERIFY_THETA_MAX = 0.95
ORDER_RANGE = (2, 256)
HIGH_ORDER_RANGE = (257, 1024)
# past the numeric route's overflow edge for every hbar in SCALE_RANGE
OVERFLOW_ORDERS = (622, 1024)
BAND_SHARE = 0.2  # of the entropy and CLI entropy/spectrum points
VN_PURITY_GAP = 1e-6  # von Neumann points keep 1 - lam at least this

EIGEN_PAIRS = tuple((i, j) for i in range(4) for j in range(4) if i + j <= 3)
TOWER_PAIRS = tuple((i, j) for i in range(7) for j in range(7) if i + j >= 4)
DEEP_PAIRS = tuple((i, j) for i, j in TOWER_PAIRS if i + j >= 10)
ENTROPY_ORDERED = 12  # renyi/tsallis operations per block, one per order stratum
ENTROPY_VN = 3  # von Neumann operations per block
FIGURES = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class Op:
    """One benchmark operation.

    kind is the workload's operation type; args its arguments (for a CLI
    "session", the Ops of its commands); region says
    where its parameter point lies: "envelope" (certified), an anchor name,
    "band" (theta in [0.99, 1 - 1e-6]), "above" (between the envelope and
    the band), "wide_scale" (mass*omega past the tower envelope),
    "high_order" (entropy order past 256) or "pure_state".
    """

    kind: str
    params: tuple[float, float, float, float, float] | None
    args: tuple
    region: str = "envelope"


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def point(rng: random.Random, theta: float, scale=SCALE_RANGE, split=None
          ) -> tuple[float, float, float, float, float]:
    """A parameter point with mu*nu/hbar^2 = theta and seeded scales and split.

    hbar is log-uniform over SCALE_RANGE, mass and omega over scale, the
    split |u/v| over SPLIT_RANGE unless given.
    """
    hbar = _log_uniform(rng, *SCALE_RANGE)
    mass, omega = (_log_uniform(rng, *scale) for _ in range(2))
    split = _log_uniform(rng, *SPLIT_RANGE) if split is None else split
    sign = rng.choice((1.0, -1.0))
    u = sign * math.sqrt(abs(theta) * split)
    v = theta / u if u else 0.0
    return (hbar, mass, omega, u * hbar / (mass * omega), v * hbar * mass * omega)


def band_theta(rng: random.Random) -> float:
    """theta with 1 - theta log-uniform over the near-singular band."""
    return 1.0 - _log_uniform(rng, 1.0 - THETA_BAND[1], 1.0 - THETA_BAND[0])


def _full_point(rng: random.Random) -> tuple[tuple, str]:
    """A point over the whole domain, with a fixed share in the band."""
    if rng.random() < BAND_SHARE:
        return point(rng, band_theta(rng)), "band"
    return point(rng, rng.uniform(THETA_MIN, THETA_BAND[0])), "envelope"


def purity_gap(params: tuple) -> float:
    """1 - lam of a parameter point, without cancellation."""
    hbar, mass, omega, mu, nu = params
    u, v = mass * omega * mu / hbar, nu / (hbar * mass * omega)
    d2 = (u - v) ** 2
    denom = 4.0 + (2.0 - u * v) * d2
    return (1.0 - u * v) * d2 / denom / (1.0 + math.sqrt((4.0 + d2) / denom))


def _vn_point(rng: random.Random) -> tuple[tuple, str]:
    """A full-domain point kept away from the pure state (see the envelopes)."""
    while True:
        params, region = _full_point(rng)
        if purity_gap(params) >= VN_PURITY_GAP:
            return params, region


def _stratified_orders(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """One log-uniform integer order from each of n equal log strata of [lo, hi]."""
    a, b = math.log(lo), math.log(hi + 1)
    width = (b - a) / n
    return [min(hi, int(math.exp(a + (k + rng.random()) * width))) for k in range(n)]


def _rng(workload: str, seed: int, tag: str) -> random.Random:
    # string seeds hash with sha512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{tag}")


def _takes_anchor(op: Op) -> bool:
    # von Neumann at the pure-state origin is a probe
    if op.kind == "entropy":
        return op.args[0] != "von-neumann"
    return op.kind in ("eigen", "tower", "session")


def _anchored(op: Op, name: str) -> Op:
    if op.kind == "session":  # the anchor goes to verify, the flagship command
        return Op("session", None, (_anchored(op.args[0], name),) + op.args[1:], name)
    return Op(op.kind, ANCHORS[name], op.args, name)


def _with_anchors(ops: list[Op], names: tuple[str, ...]) -> list[Op]:
    """Move the first eligible operations of a shuffled block onto the anchors."""
    out = list(ops)
    slots = [k for k, op in enumerate(out) if _takes_anchor(op)]
    for k, name in zip(slots, names):
        out[k] = _anchored(out[k], name)
    return out


def _eigen_block(rng: random.Random) -> list[Op]:
    pairs = list(EIGEN_PAIRS)
    rng.shuffle(pairs)
    return [Op("eigen", point(rng, rng.uniform(THETA_MIN, EIGEN_THETA_MAX)), pair)
            for pair in pairs]


def _tower_block(rng: random.Random) -> list[Op]:
    # Cost grows about 1.8x per step of i+j. With each pair once, the median
    # would sit at the gap between i+j = 6 and 7; the i+j = 4 and 5 pairs
    # appear twice, which puts it in the middle of the seven i+j = 6 pairs.
    pairs = list(TOWER_PAIRS) + [pair for pair in TOWER_PAIRS if sum(pair) <= 5]
    rng.shuffle(pairs)
    return [Op("tower", point(rng, rng.uniform(-TOWER_THETA_MAX, TOWER_THETA_MAX),
                              TOWER_SCALE_RANGE),
               pair + (rng.choice((1, 2)),))
            for pair in pairs]


def _entropy_block(rng: random.Random) -> list[Op]:
    ops = []
    for order in _stratified_orders(rng, ENTROPY_ORDERED, *ORDER_RANGE):
        params, region = _full_point(rng)
        ops.append(Op("entropy", params, (rng.choice(("renyi", "tsallis")), order), region))
    for _ in range(ENTROPY_VN):
        params, region = _vn_point(rng)
        ops.append(Op("entropy", params, ("von-neumann", 1), region))
    rng.shuffle(ops)
    return ops


def _cli_entropy_args(rng: random.Random) -> tuple:
    lo, hi = ORDER_RANGE
    kind = rng.choice(("renyi", "tsallis", "von-neumann"))
    order = 1 if kind == "von-neumann" else min(hi, int(_log_uniform(rng, lo, hi + 1)))
    return (kind, order, rng.choice(("closed", "numeric")))


def _cli_block(rng: random.Random) -> list[Op]:
    """One user session per figure: verify a point, regenerate the figure,
    tabulate a spectrum and query an entropy."""
    sessions = []
    for number in FIGURES:
        verify = Op("verify", point(rng, rng.uniform(THETA_MIN, VERIFY_THETA_MAX)), ())
        params, region = _full_point(rng)
        spectrum = Op("spectrum", params,
                      (rng.randint(0, 6), rng.randint(0, 6), rng.random() < 0.5), region)
        args = _cli_entropy_args(rng)
        params, region = (_vn_point if args[0] == "von-neumann" else _full_point)(rng)
        query = Op("cli-entropy", params, args, region)
        sessions.append(Op("session", None, (verify, Op("figure", None, (number,)),
                                             spectrum, query)))
    rng.shuffle(sessions)
    return sessions


_BLOCKS = {
    "eigen": (_eigen_block, ("origin", "small", "negative")),
    "tower": (_tower_block, ("origin",)),
    "entropy": (_entropy_block, ("origin", "small", "negative", "near_singular")),
    "cli": (_cli_block, ("origin", "small", "negative")),
}


def block(workload: str, seed: int, k: int) -> list[Op]:
    """Block k of the workload's timed operation sequence."""
    make, anchors = _BLOCKS[workload]
    ops = make(_rng(workload, seed, f"block{k}"))
    return _with_anchors(ops, anchors) if k == 0 else ops


def warmup(workload: str) -> list[Op]:
    """The untimed warm-up: one small operation, so that first-call costs
    are paid in set-up rather than in the first timed operation."""
    origin = ANCHORS["origin"]
    return {
        "eigen": [Op("eigen", origin, (0, 0), "origin")],
        "tower": [Op("tower", origin, (4, 0, 1), "origin")],
        "entropy": [Op("entropy", origin, ("renyi", 2), "origin")],
        "cli": [Op("cli-entropy", origin, ("renyi", 2, "closed"), "origin")],
    }[workload]


def probes(workload: str, seed: int) -> list[Op]:
    """Seeded points outside the certified envelope: the defect census.

    They are run once per run, untimed, and their failures are reported as
    defects: they are where the code is known to fail.
    """
    rng = _rng(workload, seed, "probes")
    singular = ANCHORS["near_singular"]
    if workload == "eigen":
        ops = [Op("eigen", singular, rng.choice(EIGEN_PAIRS), "near_singular")]
        ops += [Op("eigen", point(rng, band_theta(rng)), rng.choice(EIGEN_PAIRS), "band")
                for _ in range(4)]
        ops += [Op("eigen", point(rng, rng.uniform(EIGEN_THETA_MAX, THETA_BAND[0])),
                   rng.choice(EIGEN_PAIRS), "above") for _ in range(3)]
        return ops
    if workload == "tower":
        def deep():
            return rng.choice(DEEP_PAIRS) + (rng.choice((1, 2)),)
        theta = rng.uniform(-TOWER_THETA_MAX, TOWER_THETA_MAX)
        return [
            Op("tower", singular, deep(), "near_singular"),
            Op("tower", ANCHORS["small"], deep(), "small"),
            Op("tower", ANCHORS["negative"], deep(), "negative"),
            Op("tower", point(rng, band_theta(rng), TOWER_SCALE_RANGE), deep(), "band"),
            Op("tower", point(rng, rng.uniform(TOWER_THETA_MAX, THETA_BAND[0]),
                              TOWER_SCALE_RANGE), deep(), "above"),
            Op("tower", point(rng, theta, (1.5, 2.0)), deep(), "wide_scale"),
        ]
    if workload == "entropy":
        ops = [Op("entropy", ANCHORS["origin"], ("von-neumann", 1), "pure_state"),
               Op("entropy", point(rng, rng.uniform(0.0, THETA_BAND[0]), split=1.0),
                  ("von-neumann", 1), "pure_state")]
        for order in _stratified_orders(rng, 4, *HIGH_ORDER_RANGE):
            params, _ = _full_point(rng)
            ops.append(Op("entropy", params, (rng.choice(("renyi", "tsallis")), order),
                          "high_order"))
        return ops
    if workload == "cli":
        ops = [Op("verify", singular, (), "near_singular")]
        ops += [Op("verify", point(rng, band_theta(rng)), (), "band") for _ in range(3)]
        ops += [Op("cli-entropy", point(rng, rng.uniform(THETA_MIN, THETA_BAND[0])),
                   (rng.choice(("renyi", "tsallis")),
                    int(_log_uniform(rng, *OVERFLOW_ORDERS)), "numeric"), "high_order")
                for _ in range(2)]
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def blocks_for(min_ops: int, workload: str) -> int:
    """Fewest whole blocks that hold at least min_ops operations."""
    size = len(block(workload, 0, 1))
    return -(-min_ops // size)
