"""Entanglement entropies of the oscillator ground state.

Every ground-state entropy is a function of the single purity parameter
lam in (sqrt(3)/3, 1]:

    Renyi, integer alpha >= 2:   ln(beta_alpha(lam)) / (alpha-1) - ln(2 lam)
    von Neumann (alpha = 1):     [(1+lam)ln(1+lam) - (1-lam)ln(1-lam)]/(2 lam)
                                 - ln(2 lam)
    Tsallis, integer q >= 2:     [1 - (2 lam)^(q-1)/beta_q(lam)] / (q-1)

with beta/gamma the exact integer-coefficient polynomials in lam^2 generated
by beta_n = beta_{n-1} + gamma_{n-1}, gamma_n = lam^2 beta_{n-1} + gamma_{n-1}.
A second, independent route evaluates the same quantities through star powers
of the reduced Gaussian and exact moment integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import moments
from .darboux import cell_size
from .params import LAMBDA_MIN, ModelParams, derive
from .starcalc import GaussPoly, QuadraticForm, star_log_gaussian, star_power
from .wigner import ReducedState, WignerState, hamiltonians_pm


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
    """Exact coefficient polynomials at depth n >= 1."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("recursion depth n must be a positive integer")

    def strip(coeffs: list[int]) -> list[int]:
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        return coeffs

    beta, gamma = [1], [1]
    for _ in range(n - 1):
        new_beta = [0] * max(len(beta), len(gamma))
        for i, c in enumerate(beta):
            new_beta[i] += c
        for i, c in enumerate(gamma):
            new_beta[i] += c
        new_gamma = [0] * max(len(beta) + 1, len(gamma))
        for i, c in enumerate(beta):
            new_gamma[i + 1] += c  # lam^2 shift
        for i, c in enumerate(gamma):
            new_gamma[i] += c
        beta, gamma = strip(new_beta), strip(new_gamma)
    return BetaGamma(n, tuple(beta), tuple(gamma))


def _check_lambda(lam: float) -> None:
    if not LAMBDA_MIN < lam <= 1.0:
        raise ValueError("purity parameter must lie in (sqrt(3)/3, 1]")


def _check_integer_order(order, minimum: int = 2) -> int:
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)):
        raise ValueError(f"unsupported order {order!r}: integer >= {minimum} required")
    if order < minimum:
        raise ValueError(f"unsupported order {order}: integer >= {minimum} required")
    return int(order)


def _order_overflow(order: int) -> ValueError:
    return ValueError(f"unsupported order {order}: the result overflows "
                      "double precision")


def _finite_at_order(order: int, compute) -> float:
    """compute(), or ValueError when the order pushes it out of double range."""
    try:
        with np.errstate(over="raise"):
            value = compute()
    except (OverflowError, FloatingPointError):
        value = math.inf
    if not math.isfinite(value):
        raise _order_overflow(order)
    return value


def _beta_at(order: int, lam: float) -> float:
    """beta_order(lam); ValueError at once when a coefficient overflows a double.

    beta_n(lam) = sum_k comb(n, 2k+1) lam^(2k), and beta_at turns every
    coefficient into a float. The largest, comb(n, m) with m the odd number
    nearest n/2, overflows from n = 1030, and then every lam fails; checking
    it first saves building beta_gamma(n), which is O(n^2) big-integer work.
    From n = 2048 it is at least the mean 2^(n-1)/ceil(n/2) > 2^1024, so it
    is not computed.
    """
    try:
        if order >= 2048:
            raise OverflowError
        float(math.comb(order, order // 2 | 1))
    except OverflowError:
        raise _order_overflow(order) from None
    return beta_gamma(order).beta_at(lam)


def renyi_entanglement(alpha: int, lam: float) -> EntropyResult:
    """Closed-form Renyi entanglement entropy of the ground state, alpha >= 2."""
    alpha = _check_integer_order(alpha)
    _check_lambda(lam)
    value = _finite_at_order(alpha, lambda: math.log(_beta_at(alpha, lam))
                             / (alpha - 1) - math.log(2.0 * lam))
    return EntropyResult("renyi", alpha, value, lam, "closed-form")


def von_neumann_entanglement(lam: float) -> EntropyResult:
    """Closed-form von Neumann entanglement entropy of the ground state."""
    _check_lambda(lam)
    if lam == 1.0:
        value = 0.0  # (1-lam) ln(1-lam) -> 0 analytic limit
    else:
        value = ((1.0 + lam) * math.log1p(lam)
                 - (1.0 - lam) * math.log1p(-lam)) / (2.0 * lam) - math.log(2.0 * lam)
    return EntropyResult("von-neumann", 1, value, lam, "closed-form")


def tsallis_entanglement(q: int, lam: float) -> EntropyResult:
    """Closed-form Tsallis entanglement entropy of the ground state, q >= 2."""
    q = _check_integer_order(q)
    _check_lambda(lam)
    value = _finite_at_order(q, lambda: (1.0 - (2.0 * lam) ** (q - 1)
                                         / _beta_at(q, lam)) / (q - 1))
    return EntropyResult("tsallis", q, value, lam, "closed-form")


def renyi_supremum(alpha: int) -> float:
    """Open upper bound of the Renyi entropy, approached as lam -> sqrt(3)/3."""
    alpha = _check_integer_order(alpha)
    return _finite_at_order(alpha, lambda: math.log(_beta_at(alpha, LAMBDA_MIN))
                            / (alpha - 1) - math.log(2.0 * LAMBDA_MIN))


def von_neumann_supremum() -> float:
    """Open upper bound of the von Neumann entropy at lam -> sqrt(3)/3."""
    lam = LAMBDA_MIN
    return ((1.0 + lam) * math.log1p(lam)
            - (1.0 - lam) * math.log1p(-lam)) / (2.0 * lam) - math.log(2.0 * lam)


def _reduced_form(reduced: ReducedState) -> QuadraticForm:
    return QuadraticForm.from_matrix(reduced.function.variables,
                                     -reduced.function.exponent)


def _star_power_numeric(kind: str, reduced: ReducedState, order: int,
                        params: ModelParams, entropy_of) -> EntropyResult:
    """entropy_of(order, (2 pi hbar)^(order-1) * int W^order_*), W reduced."""
    order = _check_integer_order(order)
    power = star_power(reduced.function, order, forms=[_reduced_form(reduced)])
    total = moments.integrate(power)
    value = _finite_at_order(order, lambda: entropy_of(
        order, (2.0 * math.pi * params.hbar) ** (order - 1) * total))
    return EntropyResult(kind, order, value, derive(params).lam,
                         "star-power-numeric")


def renyi_numeric(reduced: ReducedState, alpha: int,
                  params: ModelParams) -> EntropyResult:
    """Renyi entropy through star powers of the reduced Gaussian.

    Independent of the closed form: the alpha-fold star power is integrated
    exactly and normalized by the 2D minimal cell 2*pi*hbar.
    """
    return _star_power_numeric("renyi", reduced, alpha, params,
                               lambda n, trace: math.log(trace) / (1 - n))


def tsallis_numeric(reduced: ReducedState, q: int,
                    params: ModelParams) -> EntropyResult:
    """Tsallis entropy through the same star-power route."""
    return _star_power_numeric("tsallis", reduced, q, params,
                               lambda n, trace: (1.0 - trace) / (n - 1))


def von_neumann_numeric(reduced: ReducedState,
                        params: ModelParams) -> EntropyResult:
    """von Neumann entropy as -int W ln_star(2 pi hbar W), evaluated exactly."""
    hbar = params.hbar
    form = _reduced_form(reduced)
    scaled = reduced.function.scaled(2.0 * math.pi * hbar)
    const, quad = star_log_gaussian(scaled, form=form)
    norm = moments.integrate(reduced.function)
    cross = moments.integrate(reduced.function.pointwise_mul(quad))
    value = -(const * norm + cross)
    return EntropyResult("von-neumann", 1, value, derive(params).lam,
                         "star-power-numeric")


# the phase-space volume 4 pi^2 (hbar^2 - mu nu) normalizing 4D entropies
minimal_cell = cell_size


def renyi_total(state: WignerState | GaussPoly, alpha: int,
                params: ModelParams) -> EntropyResult:
    """Total Renyi entropy of a 4D state; zero for every eigenstate.

    alpha = 2 uses the trace identity int W*W = int W^2, valid for any state
    in the class. Higher integer orders run the two-mode Gaussian star-power
    route and therefore require a Gaussian state (the ground-state family).
    """
    alpha = _check_integer_order(alpha)
    func = state.function if isinstance(state, WignerState) else state
    cell = minimal_cell(params)
    if alpha == 2:
        total = moments.integrate(func.pointwise_mul(func))
    elif func.is_pure_gaussian():
        h_plus, h_minus = hamiltonians_pm(params)
        power = star_power(func, alpha, forms=[h_plus, h_minus])
        total = moments.integrate(power)
    else:
        raise ValueError(
            "unsupported state class: star powers beyond order 2 are "
            "implemented for Gaussian states only"
        )
    value = _finite_at_order(
        alpha, lambda: math.log(cell ** (alpha - 1) * total) / (1 - alpha))
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
