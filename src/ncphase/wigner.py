"""Wigner eigenfunctions of the isotropic oscillator pair on the deformed space.

The Hamiltonian splits into two star-commuting quadratic forms H+ and H-
obtained by a half-angle rotation; the Wigner functions are products of
Laguerre polynomials of them, expanded from the rotation invariants R, P, L
(`_Invariants`), and the spectrum is E_ij = hbar*omega*[(i+j+1)*sqrt(1+delta^2)
+ (i-j)*eta]. The rotation uses the complementary half-angle pi/2 - c: that
branch is the one under which the eigenvalue equation H*W = W*H = E*W holds
(checked to machine precision), and it reduces to the same pi/4 rotation as
c itself in the undeformed limit.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .moments import _require_negative_definite
from .params import ModelParams, derive
from .starcalc import (
    GaussPoly,
    PhaseVariables,
    QuadraticForm,
    grid_values,
    star_product_poly_left,
    star_product_poly_right,  # unused here; perfbench's trace wraps this name
    _graded_exps,
    _integer_at_least,
    _ragged,
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


# R^p P^q L^r, p + q + r <= top, in lab monomials (R = x1^2 + x2^2, P = p1^2 +
# p2^2, L = x1 p2 - x2 p1): the k-th (p, q, r), degree first, is cell box[k] =
# (p b + q) b + r, b = top + 1 = len(ends), the first ends[k] entries have degree
# <= k, and entry e adds coef[e] times cell term[e] to rows[slot[e]] (ascending).
# The parameter-free parts of the Laguerre tensors ride along: pqrk[:, k] is
# the k-th (p, q, r, p + q + r), multinomial[k] its (p + q + r)!/(p! q! r!),
# and laguerre[n] the coefficients of L_n as floats, n <= top.
_Invariants = namedtuple("_Invariants",
                         "box ends term slot coef rows pqrk multinomial laguerre")
_INVARIANTS: list[_Invariants] = []


def _invariants_up_to(top: int) -> _Invariants:
    """The one read-only `_Invariants`, built again, higher, only for a higher
    top. Term (u, v, t) of R^p = sum C(p, u) x1^2u x2^(2p-2u), P^q alike and L^r
    = sum C(r, t) (-1)^t (x1 p2)^(r-t) (x2 p1)^t is x1^(2u+r-t) x2^(2p-2u+t)
    p1^(2v+t) p2^(2q-2v+r-t); those that meet are summed exactly."""
    if _INVARIANTS and len(_INVARIANTS[0].ends) > top:
        return _INVARIANTS[0]
    base, radix = top + 1, 2 * top + 1  # radix: above every lab exponent
    pqr = _graded_exps(3, top).astype(np.intp)  # degree first
    column, at = _ragged(np.prod(pqr + 1, axis=0))
    (p, q, r), (uv, t) = pqr[:, column], np.divmod(at, pqr[2, column] + 1)
    u, v = np.divmod(uv, q + 1)
    comb = np.array([[math.comb(n, k) for k in range(base)] for n in range(base)])
    mono = np.ravel_multi_index((2 * u + r - t, 2 * (p - u) + t, 2 * v + t,
                                 2 * (q - v) + r - t), (radix,) * 4)  # ascends as the rows
    keys, at = np.unique(column * radix**4 + mono, return_inverse=True)
    sums = np.bincount(at, comb[p, u] * comb[q, v] * comb[r, t] * (1 - 2 * (t & 1)))
    column, mono = np.divmod(keys[sums != 0], radix**4)
    mono, slot = np.unique(mono, return_inverse=True)
    rows = np.stack(np.unravel_index(mono, (radix,) * 4), axis=1).astype(np.int64)
    box = np.ravel_multi_index(pqr, (base,) * 3)
    pqrk = np.vstack([pqr, pqr.sum(axis=0)])
    multinomial = np.array([math.factorial(k) // math.prod(map(math.factorial, (p, q, r)))
                            for p, q, r, k in pqrk.T.tolist()], dtype=float)
    laguerre = tuple(np.array([float(c) for c in _laguerre_coefficients(n)]) for n in range(base))
    tables = (box, column.searchsorted([math.comb(k + 3, 3) for k in range(base)]),
              box[column], slot, sums[sums != 0], rows, pqrk, multinomial)
    for table in (*tables, *laguerre):
        table.flags.writeable = False
    _INVARIANTS[:] = [_Invariants(*tables, laguerre)]
    return _INVARIANTS[0]


def _laguerre_cells(n: int, form: QuadraticForm, scale: float, table: _Invariants
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Cells (`_Invariants` box) and entries of the tensor T[p, q, r] =
    c_k s^k k!/(p! q! r!) A^p B^q C^r, k = p + q + r <= n, of L_n(s H), c_k
    those of L_n, for H = A R + B P + C L: S[0, 0] = S[1, 1] = A, S[2, 2] =
    S[3, 3] = B, S[0, 3] = -S[1, 2] = C/2, the rest 0. Others are refused."""
    s = form.matrix.tolist()  # Python floats: a tenth of the checks' cost on the array
    if (len(s) != 4 or s[0][0] != s[1][1] or s[2][2] != s[3][3] or s[0][3] != -s[1][2]
            or s[0][1] or s[0][2] or s[1][3] or s[2][3]):
        raise ValueError("form is not A R + B P + C L in the rotation invariants")
    if not n:  # L_0 = 1
        return table.box[:1], np.ones(1)
    end, steps = math.comb(n + 3, 3), np.arange(n + 1)
    p, q, r, k = table.pqrk[:, :end]
    c_k = table.laguerre[n] * scale**steps
    a, b, c = (x**steps for x in (s[0][0], s[2][2], 2.0 * s[0][3]))
    return table.box[:end], c_k[k] * table.multinomial[:end] * a[p] * b[q] * c[r]


def _cell_sums(keys: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sums per key of the outer product of a and b, each within about a
    rounding of exact: a product is its rounded value and exact error (Dekker),
    a rounded value a head on the grid of eps sigma, sigma a power of two at
    least twice its key's sum of magnitudes, whose sums are exact, and a rest
    (Rump, Ogita and Oishi, 2008). A factor L_0 = [1] leaves plain sums exact;
    plain sums are also taken where the split (a factor of 2^995 or more) or
    sigma (a sum of magnitudes of 2^1021 or more) would overflow."""
    product = np.outer(a, b)
    if min(product.shape) == 1:
        return np.bincount(keys, product.ravel())
    magnitude = np.bincount(keys, np.abs(product.ravel()))
    if not (magnitude.max() < 2.0**1021 and max(np.abs(a).max(), np.abs(b).max()) < 2.0**995):
        return np.bincount(keys, product.ravel())
    a_hi, b_hi = (x * 134217729.0 - (x * 134217729.0 - x) for x in (a, b))  # 26 bits
    a_lo, b_lo = a - a_hi, b - b_hi
    error = ((np.outer(a_hi, b_hi) - product) + np.outer(a_hi, b_lo) + np.outer(a_lo, b_hi)
             + np.outer(a_lo, b_lo)).ravel()
    product = product.ravel()
    sigma = np.ldexp(1.0, np.frexp(magnitude)[1] + 1)[keys]
    head = (product + sigma) - sigma
    return np.bincount(keys, head) + np.bincount(keys, (product - head) + error)


def wigner_state(i: int, j: int, params: ModelParams) -> WignerState:
    """Build the (i, j) Wigner eigenfunction and its energy.

    The function is (-1)^(i+j)/(pi^2 h+ h-) * exp(-2H+/(h+ w) - 2H-/(h- w))
    * L_i(4H+/(h+ w)) * L_j(4H-/(h- w)); indices above 12 are rejected. The
    towers' tensors in R, P and L (`_laguerre_cells`) multiply cell by cell
    (`_cell_sums`) and go through the table of R^p P^q L^r (`_Invariants`);
    W(0,0) is the constant 1 and reads no table. A coefficient that leaves
    double range is refused with ValueError. At (0.2, 0.1), best of 5 on a
    2-core x86-64 machine, W(6,6), W(8,8) and W(12,12) build 3-7, 6-10 and
    18-27 times as fast as lab towers multiplied pair by pair. README "Known
    limits" lists where indices and points lose accuracy."""
    i, j = _indices(i, j)
    for name, idx in (("i", i), ("j", j)):
        if idx > MAX_INDEX:
            raise ValueError(f"index {name} exceeds the supported maximum {MAX_INDEX}")
    dq = derive(params)
    h_plus, h_minus = hamiltonians_pm(params)
    w = params.omega

    exponent = (-2.0 / (dq.h_plus * w)) * h_plus.matrix \
        + (-2.0 / (dq.h_minus * w)) * h_minus.matrix
    if i + j:
        table = _invariants_up_to(i + j)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            cells_i, t_i = _laguerre_cells(i, h_plus, 4.0 / (dq.h_plus * w), table)
            cells_j, t_j = _laguerre_cells(j, h_minus, 4.0 / (dq.h_minus * w), table)
            product = _cell_sums(np.add.outer(cells_i, cells_j).ravel(), t_i, t_j)
            end = table.ends[i + j]
            sums = np.bincount(table.slot[:end], product[table.term[:end]] * table.coef[:end])
        live = np.flatnonzero(sums != 0)
        rows, coeffs = table.rows[live], sums[live]
        if not np.isfinite(coeffs).all():  # inf, or inf - inf, where a term overflows
            raise ValueError(f"a coefficient of W({i}, {j}) leaves double precision range")
    else:  # L_0 L_0 = 1
        rows, coeffs = np.zeros((1, 4), dtype=np.int64), np.ones(1)
    prefactor = (-1.0) ** (i + j) / (math.pi**2 * dq.h_plus * dq.h_minus)
    function = GaussPoly(phase_variables(params), prefactor, exponent, rows, coeffs)
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
    """Per-axis points of the residual grid: 11 within +-3 marginal widths.
    An exponent that is not negative definite has no widths, and is refused
    before any value is taken on the grid."""
    _require_negative_definite(function.exponent)
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
