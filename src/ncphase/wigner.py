"""Wigner eigenfunctions of the isotropic oscillator pair on the deformed space.

The Hamiltonian splits into two star-commuting quadratic forms H+ and H-
obtained by a half-angle rotation; the Wigner functions are Laguerre towers
over them and the spectrum is E_ij = hbar*omega*[(i+j+1)*sqrt(1+delta^2)
+ (i-j)*eta]. The rotation uses the complementary half-angle pi/2 - c: that
branch is the one under which the eigenvalue equation H*W = W*H = E*W holds
(checked to machine precision), and it reduces to the same pi/4 rotation as
c itself in the undeformed limit.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .params import ModelParams, derive
from .starcalc import (
    GaussPoly,
    PhaseVariables,
    PolyMap,
    QuadraticForm,
    grid_values,
    star_product_poly_left,
    star_product_poly_right,  # unused here; perfbench's trace wraps this name
    _accumulate,
    _poly_mul,
)

MAX_INDEX = 12

RESIDUAL_GRID_POINTS = 11
RESIDUAL_GRID_SIGMAS = 3.0


@dataclass(frozen=True)
class WignerState:
    """Wigner eigenfunction with its quantum numbers, energy and origin."""

    i: int
    j: int
    function: GaussPoly
    energy: float
    params: ModelParams


@dataclass(frozen=True)
class ReducedState:
    """Gaussian Wigner function of one oscillator after tracing out the other."""

    subsystem: int
    function: GaussPoly


def phase_variables(params: ModelParams) -> PhaseVariables:
    return PhaseVariables(4, hbar=params.hbar, mu=params.mu, nu=params.nu)


def hamiltonians_pm(params: ModelParams) -> tuple[QuadraticForm, QuadraticForm]:
    """The star-commuting mode Hamiltonians H+ and H- with H+ + H- = H."""
    dq = derive(params)
    variables = phase_variables(params)
    m, w = params.mass, params.omega
    r = 0.5 * math.pi - dq.c  # complementary half-angle branch
    sr, cr = math.sin(r), math.cos(r)
    sm = math.sqrt(m)
    rt2 = math.sqrt(2.0)

    h_plus = QuadraticForm(
        variables,
        a=(0.0, w * sm * sr / rt2),
        b=(cr / (sm * rt2), 0.0),
        c=(w * sm * sr / rt2, 0.0),
        d=(0.0, -cr / (sm * rt2)),
    )
    h_minus = QuadraticForm(
        variables,
        a=(w * sm * cr / rt2, 0.0),
        b=(0.0, sr / (sm * rt2)),
        c=(0.0, w * sm * cr / rt2),
        d=(-sr / (sm * rt2), 0.0),
    )
    return h_plus, h_minus


def oscillator_hamiltonian(params: ModelParams) -> GaussPoly:
    """The full Hamiltonian p^2/2m + m w^2 x^2/2 as a pure polynomial."""
    variables = phase_variables(params)
    m, w = params.mass, params.omega
    poly: PolyMap = {
        (2, 0, 0, 0): 0.5 * m * w**2,
        (0, 2, 0, 0): 0.5 * m * w**2,
        (0, 0, 2, 0): 0.5 / m,
        (0, 0, 0, 2): 0.5 / m,
    }
    return GaussPoly(variables, 1.0, np.zeros((4, 4)), poly)


def energy_level(i: int, j: int, params: ModelParams) -> float:
    dq = derive(params)
    root = math.sqrt(1.0 + dq.delta**2)
    return params.hbar * params.omega * ((i + j + 1) * root + (i - j) * dq.eta)


@functools.cache
def _laguerre_coefficients(n: int) -> tuple[Fraction, ...]:
    """Coefficients of L_n by the three-term recurrence, exact."""
    if n == 0:
        return (Fraction(1),)
    prev = [Fraction(1)]
    curr = [Fraction(1), Fraction(-1)]
    for m in range(1, n):
        # (m+1) L_{m+1} = (2m+1 - x) L_m - m L_{m-1}
        nxt = [Fraction(0)] * (m + 2)
        for idx, cm in enumerate(curr):
            nxt[idx] += (2 * m + 1) * cm
            nxt[idx + 1] -= cm
        for idx, cp in enumerate(prev):
            nxt[idx] -= m * cp
        prev, curr = curr, [c / (m + 1) for c in nxt]
    return tuple(curr)


def _laguerre_of_form(n: int, form_poly: PolyMap, scale: float, dim: int) -> PolyMap:
    """L_n(scale * H) expanded over the monomials of the quadratic form H."""
    coeffs = _laguerre_coefficients(n)
    out: PolyMap = {(0,) * dim: float(coeffs[0])}
    powers = itertools.accumulate(itertools.repeat(form_poly, n), _poly_mul)
    for k, power in enumerate(powers, 1):
        _accumulate(out, power.items(), scale=float(coeffs[k]) * scale**k)
    return out


def wigner_state(i: int, j: int, params: ModelParams) -> WignerState:
    """Build the (i, j) Wigner eigenfunction and its energy.

    The function is (-1)^(i+j)/(pi^2 h+ h-) * exp(-2H+/(h+ w) - 2H-/(h- w))
    * L_i(4H+/(h+ w)) * L_j(4H-/(h- w)), all expanded in the sparse
    polynomial class; indices above 12 are rejected. README "Known limits"
    lists where the accepted indices and points lose accuracy.
    """
    for name, idx in (("i", i), ("j", j)):
        if not isinstance(idx, int) or isinstance(idx, bool) or idx < 0:
            raise ValueError(f"index {name} must be a nonnegative integer")
        if idx > MAX_INDEX:
            raise ValueError(f"index {name} exceeds the supported maximum {MAX_INDEX}")
    dq = derive(params)
    h_plus, h_minus = hamiltonians_pm(params)
    w = params.omega

    exponent = (-2.0 / (dq.h_plus * w)) * h_plus.matrix \
        + (-2.0 / (dq.h_minus * w)) * h_minus.matrix
    lag_i = _laguerre_of_form(i, h_plus.poly().poly, 4.0 / (dq.h_plus * w), 4)
    lag_j = _laguerre_of_form(j, h_minus.poly().poly, 4.0 / (dq.h_minus * w), 4)
    # L_0 = 1, so a zero index leaves the other factor as it is
    poly = lag_j if i == 0 else lag_i if j == 0 else _poly_mul(lag_i, lag_j)
    prefactor = (-1.0) ** (i + j) / (math.pi**2 * dq.h_plus * dq.h_minus)
    function = GaussPoly(phase_variables(params), prefactor, exponent, poly)
    return WignerState(i, j, function, energy_level(i, j, params), params)


def reduce(state: WignerState, subsystem: int) -> ReducedState:
    """Closed-form reduced Gaussian of the ground state for one oscillator."""
    if (state.i, state.j) != (0, 0):
        raise ValueError("closed-form reduced states exist for the ground state only")
    if subsystem not in (1, 2):
        raise ValueError("subsystem must be 1 or 2")
    params = state.params
    dq = derive(params)
    hbar, m, w = params.hbar, params.mass, params.omega
    root = math.sqrt(1.0 + dq.delta**2)
    dd, de = dq.delta**2, dq.delta * dq.eta
    # exponent of Eq-style reduced Gaussian over (x, p) of the kept oscillator
    qx = -root * m * w / (hbar * (1.0 + dd + de))
    qp = -root / (hbar * m * w * (1.0 + dd - de))
    variables = PhaseVariables(2, hbar=hbar)
    function = GaussPoly.gaussian(variables, dq.lam / (math.pi * hbar),
                                  np.diag([qx, qp]))
    return ReducedState(subsystem, function)


def _residual_axes(function: GaussPoly,
                   points_per_axis: int = RESIDUAL_GRID_POINTS,
                   sigmas: float = RESIDUAL_GRID_SIGMAS) -> list[np.ndarray]:
    """Per-axis points of the residual grid: +-sigmas marginal widths."""
    cov = -0.5 * np.linalg.inv(function.exponent)
    widths = np.sqrt(np.diag(cov))
    return [np.linspace(-sigmas * s, sigmas * s, points_per_axis) for s in widths]


def residual_grid(function: GaussPoly,
                  points_per_axis: int = RESIDUAL_GRID_POINTS,
                  sigmas: float = RESIDUAL_GRID_SIGMAS) -> np.ndarray:
    """Deterministic evaluation grid spanning +-sigmas marginal widths."""
    axes = _residual_axes(function, points_per_axis, sigmas)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def genvalue_residual(state: WignerState, params: ModelParams,
                      energy: float | None = None) -> float:
    """Sup-norm of H*W - E W and W*H - E W over the deterministic grid.

    The grid has 11 points per axis within three marginal widths. Complex
    parts of the star product enter the modulus, so a wrong energy or a
    wrong state cannot hide in the real part. W*H - E W is the conjugate of
    H*W - E W, so one product gives both norms.
    """
    e = state.energy if energy is None else energy
    return _genvalue_residuals_and_scales([state], params, [e])[0][0]


def _genvalue_residuals_and_scales(states: Sequence[WignerState], params: ModelParams,
                                   energies: Sequence[float],
                                   ) -> list[tuple[float, float]]:
    """(genvalue_residual, max|W|) of each state at its energy in energies.

    Only H*W is built: for real coefficients the deformed Moyal product is
    Hermitian, W*H = conj(H*W), and `wigner_state` builds only real ones, so
    |W*H - E W| = |H*W - E W| at every point. The states share W's exponent,
    so one `grid_values` call evaluates every W and H*W on one grid, with one
    Hamiltonian and one Gaussian factor; each state's values are those of a
    call for it alone.
    """
    h_poly = oscillator_hamiltonian(params)
    funcs = []
    for state in states:
        funcs += [state.function, star_product_poly_left(h_poly, state.function)]
    values = grid_values(funcs, _residual_axes(states[0].function))
    return [(float(np.abs(hw - e * w_vals).max()), float(np.abs(w_vals).max()))
            for e, w_vals, hw in zip(energies, values[::2], values[1::2])]
