"""Entanglement entropies of the oscillator ground state.

Every ground-state entropy is a function of the single purity parameter
lam in (sqrt(3)/3, 1]. With r = (1-lam)/(1+lam), the closed forms are

    Renyi, integer alpha >= 2:   [alpha ln(1+lam) + ln(1 - r^alpha)
                                  - alpha ln(2 lam)] / (alpha-1)
    von Neumann (alpha = 1):     [(1+lam)ln(1+lam) - (1-lam)ln(1-lam)]/(2 lam)
                                 - ln(2 lam)
    Tsallis, integer q >= 2:     [1 - (2 lam/(1+lam))^q / (1 - r^q)] / (q-1)

the paper's ln(beta_alpha)/(alpha-1) - ln(2 lam) and
[1 - (2 lam)^(q-1)/beta_q]/(q-1) rewritten with
beta_n(lam) = [(1+lam)^n - (1-lam)^n] / (2 lam). beta/gamma are the exact
integer-coefficient polynomials in lam^2 of beta_n and
gamma_n = [(1+lam)^n + (1-lam)^n] / 2, the odd and the even binomial terms of
(1+lam)^n; the log-sum forms need no such table, so every integer order that
converts to a double has a value. A second, independent route evaluates the
same quantities through star powers of the reduced Gaussian and exact moment
integration.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import moments
from .darboux import cell_size
from .params import LAMBDA_MIN, ModelParams, derive
from .starcalc import (GaussPoly, PhaseVariables, QuadraticForm, _integer_at_least,
                       star_log_gaussian, star_power)
from .wigner import ReducedState, WignerState, hamiltonians_pm, phase_variables


@dataclass(frozen=True)
class BetaGamma:
    """Exact integer coefficient lists (in powers of lam^2) at recursion depth n."""

    n: int
    beta: tuple[int, ...]
    gamma: tuple[int, ...]

    def beta_at(self, lam: float) -> float:
        return _eval_in_lam_sq(self.beta, lam)

    def gamma_at(self, lam: float) -> float:
        return _eval_in_lam_sq(self.gamma, lam)


def _eval_in_lam_sq(coeffs: tuple[int, ...], lam) -> float:
    lam_sq = np.asarray(lam) ** 2
    acc = np.zeros_like(lam_sq, dtype=float)
    for c in reversed(coeffs):
        acc = acc * lam_sq + c
    return acc if acc.ndim else float(acc)


@dataclass(frozen=True)
class EntropyResult:
    """An entropy value in nats, together with how it was obtained."""

    kind: str  # "renyi" | "tsallis" | "von-neumann"
    order: int
    value: float
    lam: float
    method: str  # "closed-form" | "star-power-numeric"


def beta_gamma(n: int) -> BetaGamma:
    """Exact coefficient polynomials at depth n >= 1: the odd and the even
    binomial terms of (1 + lam)^n, C(n, 2k + 1) and C(n, 2k) on lam^(2k)."""
    n = _integer_at_least(n, 1, "recursion depth n must be a positive integer")
    return BetaGamma(n, tuple(math.comb(n, k) for k in range(1, n + 1, 2)),
                     tuple(math.comb(n, k) for k in range(0, n + 1, 2)))


def _check_lambda(lam: float) -> None:
    if not LAMBDA_MIN < lam <= 1.0:
        raise ValueError("purity parameter must lie in (sqrt(3)/3, 1]")


def _check_integer_order(order) -> int:
    return _integer_at_least(order, 2, f"unsupported order {order!r}: integer >= 2 required")


def _finite_at_order(order: int, compute) -> float:
    """compute(), or ValueError when the order pushes it out of double range."""
    try:
        with np.errstate(over="raise"):
            value = compute()
    except (OverflowError, FloatingPointError):
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"unsupported order {order}: the result overflows "
                         "double precision")
    return value


def _positive_trace(order: int, total: float, rounding: float = 0.0) -> float:
    """total, the trace of a state's order-th star power, or ValueError when
    it is not positive beyond rounding, machine epsilon times a bound on the
    magnitudes its sum adds (0.0 where the sum has one term): then the state's
    overlap has lost its digits, and a positive total is no closer to the
    trace than a negative one."""
    if not total > rounding:
        power = "W*W" if order == 2 else f"the order-{order} star power of W"
        raise ValueError(f"the trace of {power} is {total!r}, not positive beyond the "
                         f"rounding of its terms ({rounding:.2g}): the state's overlap "
                         "has lost its digits")
    return total


def _elementwise_in_lam(formula):
    """formula(*orders, lam) for a float or an array lam.

    A float runs as a one-element array, so a single query and a figure
    column go through the same numpy loops and round the same way.
    """
    def wrapped(*args):
        *orders, lam = args
        shape = np.shape(lam)
        flat = np.asarray(lam, dtype=float).reshape(-1)
        value = formula(*orders, flat).reshape(shape)
        return value if shape else float(value)
    return wrapped


@_elementwise_in_lam
def _renyi_of(alpha: int, lam):
    """Renyi entropy of integer order alpha >= 2 at lam, float or array."""
    a = float(alpha)
    r = (1.0 - lam) / (1.0 + lam)
    return (a * np.log1p(lam) + np.log1p(-r ** a) - a * np.log(2.0 * lam)) / (a - 1.0)


@_elementwise_in_lam
def _tsallis_of(q: int, lam):
    """Tsallis entropy of integer order q >= 2 at lam, float or array."""
    a = float(q)
    r = (1.0 - lam) / (1.0 + lam)
    return (1.0 - (2.0 * lam / (1.0 + lam)) ** a / (1.0 - r ** a)) / (a - 1.0)


@_elementwise_in_lam
def _von_neumann_of(lam):
    """von Neumann entropy at lam, float or array; 0 at lam = 1."""
    out = np.zeros_like(lam)
    mask = lam < 1.0  # (1-lam) ln(1-lam) -> 0 analytic limit at lam = 1
    lm = lam[mask]
    out[mask] = (((1.0 + lm) * np.log1p(lm) - (1.0 - lm) * np.log1p(-lm))
                 / (2.0 * lm) - np.log(2.0 * lm))
    return out


def renyi_entanglement(alpha: int, lam: float) -> EntropyResult:
    """Closed-form Renyi entanglement entropy of the ground state, alpha >= 2."""
    alpha = _check_integer_order(alpha)
    _check_lambda(lam)
    value = _finite_at_order(alpha, lambda: _renyi_of(alpha, lam))
    return EntropyResult("renyi", alpha, value, lam, "closed-form")


def von_neumann_entanglement(lam: float) -> EntropyResult:
    """Closed-form von Neumann entanglement entropy of the ground state."""
    _check_lambda(lam)
    return EntropyResult("von-neumann", 1, _von_neumann_of(lam), lam,
                         "closed-form")


def tsallis_entanglement(q: int, lam: float) -> EntropyResult:
    """Closed-form Tsallis entanglement entropy of the ground state, q >= 2."""
    q = _check_integer_order(q)
    _check_lambda(lam)
    value = _finite_at_order(q, lambda: _tsallis_of(q, lam))
    return EntropyResult("tsallis", q, value, lam, "closed-form")


def renyi_supremum(alpha: int) -> float:
    """Open upper bound of the Renyi entropy, approached as lam -> sqrt(3)/3."""
    alpha = _check_integer_order(alpha)
    return _finite_at_order(alpha, lambda: _renyi_of(alpha, LAMBDA_MIN))


def von_neumann_supremum() -> float:
    """Open upper bound of the von Neumann entropy at lam -> sqrt(3)/3."""
    return _von_neumann_of(LAMBDA_MIN)


def _same_phase_space(func: GaussPoly, variables: PhaseVariables) -> None:
    if func.variables != variables:
        raise ValueError("the state and params belong to different phase spaces")


def _reduced_form(reduced: ReducedState, params: ModelParams) -> QuadraticForm:
    """The form of a reduced state of params: its hbar is checked, while its
    mu and nu, which a reduced state does not carry, are not."""
    variables = PhaseVariables(2, hbar=params.hbar)
    _same_phase_space(reduced.function, variables)
    return QuadraticForm.from_matrix(variables, -reduced.function.exponent)


def _star_power_numeric(kind: str, reduced: ReducedState, order: int,
                        params: ModelParams, entropy_of) -> EntropyResult:
    """entropy_of(order, int W^order_*, (2 pi hbar)^(order-1)), W reduced."""
    order = _check_integer_order(order)
    power = star_power(reduced.function, order, forms=[_reduced_form(reduced, params)])
    total = moments.integrate(power)
    value = _finite_at_order(order, lambda: entropy_of(
        order, total, (2.0 * math.pi * params.hbar) ** (order - 1)))
    return EntropyResult(kind, order, value, derive(params).lam,
                         "star-power-numeric")


def _renyi_of_trace(order: int, total: float, scale: float) -> float:
    if not total >= sys.float_info.min:  # subnormal digits are lost, 0 has no log
        raise ValueError(f"unsupported order {order}: the star-power trace "
                         "underflows double precision")
    return math.log(scale * total) / (1 - order)


def renyi_numeric(reduced: ReducedState, alpha: int,
                  params: ModelParams) -> EntropyResult:
    """Renyi entropy through star powers of the reduced Gaussian.

    Independent of the closed form: the alpha-fold star power is integrated
    exactly and normalized by the 2D minimal cell 2*pi*hbar.
    """
    return _star_power_numeric("renyi", reduced, alpha, params, _renyi_of_trace)


def tsallis_numeric(reduced: ReducedState, q: int,
                    params: ModelParams) -> EntropyResult:
    """Tsallis entropy through the same star-power route."""
    return _star_power_numeric("tsallis", reduced, q, params,
                               lambda n, total, scale: (1.0 - scale * total) / (n - 1))


def von_neumann_numeric(reduced: ReducedState,
                        params: ModelParams) -> EntropyResult:
    """von Neumann entropy as -int W ln_star(2 pi hbar W), evaluated exactly."""
    hbar = params.hbar
    form = _reduced_form(reduced, params)
    scaled = reduced.function.scaled(2.0 * math.pi * hbar)
    const, quad = star_log_gaussian(scaled, form=form)
    norm = moments.integrate(reduced.function)
    cross = float(moments.gram([reduced.function], [quad])[0, 0])
    value = -(const * norm + cross)
    return EntropyResult("von-neumann", 1, value, derive(params).lam,
                         "star-power-numeric")


def renyi_total(state: WignerState | GaussPoly, alpha: int,
                params: ModelParams) -> EntropyResult:
    """Total Renyi entropy of a 4D state; zero for every eigenstate.

    alpha = 2 uses the trace identity int W*W = int W^2, valid for any state
    in the class. Higher integer orders run the two-mode Gaussian star-power
    route and therefore require a Gaussian state (the ground-state family).
    A trace that cancellation leaves no digit of is refused (`_positive_trace`).
    """
    alpha = _check_integer_order(alpha)
    func = state.function if isinstance(state, WignerState) else state
    _same_phase_space(func, phase_variables(params))
    cell = cell_size(params)  # 4 pi^2 (hbar^2 - mu nu), normalizing 4D entropies
    if alpha == 2:
        total = float(moments.gram([func], [func])[0, 0])
        rounding = sys.float_info.epsilon * moments._overlap_bound(func)
    elif func.is_pure_gaussian():
        h_plus, h_minus = hamiltonians_pm(params)
        power = star_power(func, alpha, forms=[h_plus, h_minus])
        total, rounding = moments.integrate(power), 0.0
    else:
        raise ValueError(
            "unsupported state class: star powers beyond order 2 are "
            "implemented for Gaussian states only"
        )
    total = _positive_trace(alpha, total, rounding)
    value = _finite_at_order(
        alpha, lambda: _renyi_of_trace(alpha, total, cell ** (alpha - 1)))
    lam = derive(params).lam
    return EntropyResult("renyi", alpha, value, lam, "star-power-numeric")


def e1_nu_zero(u: float) -> float:
    """von Neumann entanglement entropy for the position-only deformation.

    Expressed directly in u = m*omega*mu/hbar; vanishes at u = 0 and grows
    with |u| toward sqrt(2) ln(1+sqrt(2)) - ln 2.
    """
    if u == 0.0:
        return 0.0
    u_sq = u * u
    ratio = math.sqrt((4.0 + 2.0 * u_sq) / (4.0 + u_sq))
    return (0.5 * (1.0 - ratio) * math.log(u_sq)
            - math.log(2.0 * math.sqrt(4.0 + u_sq))
            + ratio * math.log(math.sqrt(4.0 + u_sq) + math.sqrt(4.0 + 2.0 * u_sq)))


def e1_nu_zero_supremum() -> float:
    """Limit of e1_nu_zero as |u| -> infinity."""
    return math.sqrt(2.0) * math.log1p(math.sqrt(2.0)) - math.log(2.0)
