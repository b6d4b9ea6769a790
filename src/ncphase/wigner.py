"""Wigner eigenfunctions of the isotropic oscillator pair on the deformed space.

The Hamiltonian splits into two star-commuting quadratic forms H+ and H-
obtained by a half-angle rotation; the Wigner functions are Laguerre towers
over them, whose powers H^k are built on the graded monomial index of
`starcalc` (`_form_powers`), and the spectrum is
E_ij = hbar*omega*[(i+j+1)*sqrt(1+delta^2) + (i-j)*eta]. The rotation uses
the complementary half-angle pi/2 - c: that branch is the one under which
the eigenvalue equation H*W = W*H = E*W holds (checked to machine
precision), and it reduces to the same pi/4 rotation as c itself in the
undeformed limit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .params import ModelParams, derive
from .starcalc import (
    GaussPoly,
    PhaseVariables,
    QuadraticForm,
    grid_values,
    star_product_poly_left,
    star_product_poly_right,  # unused here; perfbench's trace wraps this name
    _graded_lattice,
    _integer_at_least,
    _poly_mul,
)

MAX_INDEX = 12


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
    return GaussPoly(variables, 1.0, np.zeros((4, 4)), 2 * np.eye(4, dtype=np.int64),
                     [0.5 * m * w**2, 0.5 * m * w**2, 0.5 / m, 0.5 / m])


def _indices(i: int, j: int) -> tuple[int, int]:
    """i and j as ints, each refused unless it is a nonnegative integer."""
    return tuple(_integer_at_least(idx, 0, f"index {name} must be a nonnegative integer")
                 for name, idx in (("i", i), ("j", j)))


def energy_level(i: int, j: int, params: ModelParams) -> float:
    i, j = _indices(i, j)
    dq = derive(params)
    return params.hbar * params.omega * ((i + j + 1) * dq.root + (i - j) * dq.eta)


@functools.cache
def _laguerre_coefficients(n: int) -> tuple[Fraction, ...]:
    """Coefficients of L_n, (-1)^k C(n, k) / k! for k = 0..n, exact."""
    return tuple(Fraction((-1) ** k * math.comb(n, k), math.factorial(k))
                 for k in range(n + 1))


def _form_powers(h: GaussPoly, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Terms of H^2, ..., H^n for the quadratic polynomial h of a form H, in
    that order and each in ascending order (first axis slowest), and the
    power k of each term.

    H^k is built in one dense vector over the graded index of every
    monomial up to degree 2n (`starcalc._graded_lattice`), H^0 = 1 first:
    each term c x_a x_b of H, in h's row order, adds c H^(k-1), moved one
    step up on a and one on b, into the zeroed degree-2k slice (np.add.at,
    term after term). h's rows descend, so each coefficient of H^k is added
    in the order in which the product of H^(k-1), whose rows ascend, and h
    adds its term pairs (`starcalc._poly_mul`), to the same bits; for H^2
    the two orders are mirror images, pair (a, b) against (b, a), with
    equal products. Only the nonzero coefficients come back: a sum that is
    exactly zero, or a monomial no pair reaches, adds nothing but a zero to
    W, and `GaussPoly` drops W's zeros anyway.
    """
    d = h.variables.dimension
    lattice = _graded_lattice(d, 2 * n)
    first = [math.comb(m + d - 1, d) for m in range(2 * n + 2)]  # members of degree < m
    on = h.exps > 0
    a, b = on.argmax(axis=1), d - 1 - on[:, ::-1].argmax(axis=1)  # the term x_a x_b
    steps = lattice.up[b[:, None], lattice.up[a, :first[2 * n - 1]]]
    vector = np.zeros(first[2 * n + 1])
    vector[0] = 1.0
    for k in range(1, n + 1):
        lo, hi = first[2 * k - 2], first[2 * k - 1]
        np.add.at(vector, steps[:, lo:hi].ravel(),
                  (h.coeffs[:, None] * vector[lo:hi]).ravel())
    keep = np.flatnonzero(vector[first[4]:] != 0) + first[4]
    exps = lattice.exps.take(keep, axis=1)  # narrow, so lexsort takes a radix sort
    power = exps.sum(axis=0, dtype=exps.dtype) // 2
    order = np.lexsort((*exps[::-1], power))  # first axis slowest within a power
    return exps.take(order, axis=1).T.astype(np.int64), vector[keep[order]], power[order]


def _laguerre_of_form(n: int, form: QuadraticForm, scale: float
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Terms of L_n(scale * H) over the monomials of the quadratic form H:
    the constant, then H^k for k = 1..n. H^k has degree 2k, so no two powers
    share a monomial and none is summed. L_0 = 1 builds no polynomial of H,
    H is the rows of `QuadraticForm.poly` in their order, and the higher
    powers come from `_form_powers`, so L_1 touches no graded index."""
    d = form.variables.dimension
    factors = np.array([float(c) * scale**k
                        for k, c in enumerate(_laguerre_coefficients(n))])
    exps, coeffs = [np.zeros((1, d), dtype=np.int64)], [factors[:1]]
    if n:
        h = form.poly()
        exps.append(h.exps)
        coeffs.append(factors[1] * h.coeffs)
    if n > 1:
        rows, terms, power = _form_powers(h, n)
        exps.append(rows)
        coeffs.append(factors[power] * terms)
    return np.concatenate(exps), np.concatenate(coeffs)


def wigner_state(i: int, j: int, params: ModelParams) -> WignerState:
    """Build the (i, j) Wigner eigenfunction and its energy.

    The function is (-1)^(i+j)/(pi^2 h+ h-) * exp(-2H+/(h+ w) - 2H-/(h- w))
    * L_i(4H+/(h+ w)) * L_j(4H-/(h- w)), all expanded in the sparse
    polynomial class: each tower by `_laguerre_of_form`, their product by
    `starcalc._poly_mul`; indices above 12 are rejected. README "Known
    limits" lists where the accepted indices and points lose accuracy.
    """
    i, j = _indices(i, j)
    for name, idx in (("i", i), ("j", j)):
        if idx > MAX_INDEX:
            raise ValueError(f"index {name} exceeds the supported maximum {MAX_INDEX}")
    dq = derive(params)
    h_plus, h_minus = hamiltonians_pm(params)
    w = params.omega

    exponent = (-2.0 / (dq.h_plus * w)) * h_plus.matrix \
        + (-2.0 / (dq.h_minus * w)) * h_minus.matrix
    lag_i = _laguerre_of_form(i, h_plus, 4.0 / (dq.h_plus * w))
    lag_j = _laguerre_of_form(j, h_minus, 4.0 / (dq.h_minus * w))
    # L_0 = 1, so a zero index leaves the other factor as it is
    terms = lag_j if i == 0 else lag_i if j == 0 else _poly_mul(*lag_i, *lag_j)
    prefactor = (-1.0) ** (i + j) / (math.pi**2 * dq.h_plus * dq.h_minus)
    function = GaussPoly(phase_variables(params), prefactor, exponent, *terms)
    return WignerState(i, j, function, energy_level(i, j, params), params)


def reduce(state: WignerState, subsystem: int) -> ReducedState:
    """Closed-form reduced Gaussian of the ground state for one oscillator."""
    if (state.i, state.j) != (0, 0):
        raise ValueError("closed-form reduced states exist for the ground state only")
    subsystem = _integer_at_least(subsystem, 1, "subsystem must be 1 or 2", maximum=2)
    params = state.params
    dq = derive(params)
    hbar, m, w = params.hbar, params.mass, params.omega
    dd, de = dq.delta**2, dq.delta * dq.eta
    # exponent of Eq-style reduced Gaussian over (x, p) of the kept oscillator
    qx = -dq.root * m * w / (hbar * (1.0 + dd + de))
    qp = -dq.root / (hbar * m * w * (1.0 + dd - de))
    variables = PhaseVariables(2, hbar=hbar)
    function = GaussPoly.gaussian(variables, dq.lam / (math.pi * hbar),
                                  np.diag([qx, qp]))
    return ReducedState(subsystem, function)


def _residual_axes(function: GaussPoly) -> list[np.ndarray]:
    """Per-axis points of the residual grid: 11 within +-3 marginal widths."""
    cov = -0.5 * np.linalg.inv(function.exponent)
    return [np.linspace(-3.0 * s, 3.0 * s, 11) for s in np.sqrt(np.diag(cov))]


def residual_grid(function: GaussPoly) -> np.ndarray:
    """Deterministic evaluation grid, the points of _residual_axes, as (n, d)."""
    mesh = np.meshgrid(*_residual_axes(function), indexing="ij")
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
