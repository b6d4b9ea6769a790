"""Exact integration of polynomial-times-Gaussian functions.

Convention, stated once and used everywhere: a function prefactor * poly *
exp(z^T Q z) with Q negative definite corresponds to a centered normal weight
with covariance -Q^{-1}/2 and total mass pi^{d/2}/sqrt(det(-Q)). Polynomial
parts are contracted against the weight through the Isserlis moment recursion,
memoized per multi-index. Dense quadrature exists only in the test suite as
an independent oracle.
"""

from __future__ import annotations

from functools import cache
from math import comb, pi, sqrt

import numpy as np

from .starcalc import GaussPoly, Monomial, PhaseVariables, PolyMap, _accumulate, _shift

MAX_MOMENT_DEGREE = 48

_IMAG_TOL = 1e-10


class MomentTable:
    """Memoized even moments of a centered Gaussian with a given covariance."""

    def __init__(self, covariance: np.ndarray):
        cov = np.asarray(covariance, dtype=float)
        if cov.shape[0] != cov.shape[1]:
            raise ValueError("covariance must be square")
        self.covariance = cov
        self._memo: dict[Monomial, float] = {(0,) * cov.shape[0]: 1.0}

    def moment(self, alpha: Monomial) -> float:
        """E[z^alpha] under N(0, covariance); zero for odd total degree."""
        total = sum(alpha)
        if total > MAX_MOMENT_DEGREE:
            raise ValueError(f"moment degree {total} exceeds {MAX_MOMENT_DEGREE}")
        if total % 2:
            return 0.0
        memo = self._memo
        if alpha in memo:
            return memo[alpha]
        cov = self.covariance
        i = next(j for j, n in enumerate(alpha) if n)
        acc = 0.0
        reduced = _shift(alpha, i, -1)
        for j in range(len(alpha)):
            cij = cov[i, j]
            if cij == 0.0 or reduced[j] == 0:
                continue
            acc += cij * reduced[j] * self.moment(_shift(reduced, j, -1))
        memo[alpha] = acc
        return acc


def _check_negative_definite(Q: np.ndarray) -> None:
    try:
        np.linalg.cholesky(-Q)
    except np.linalg.LinAlgError:
        raise ValueError("exponent matrix must be negative definite") from None


def _real_coefficients(poly: PolyMap) -> dict[Monomial, float]:
    if not poly:
        return {}
    top = max(abs(c) for c in poly.values())
    out = {}
    for k, c in poly.items():
        c = complex(c)
        if abs(c.imag) > _IMAG_TOL * max(1.0, top):
            raise ValueError("cannot integrate a function with complex coefficients")
        out[k] = c.real
    return out


def integrate(func: GaussPoly) -> float:
    """Integral of a GaussPoly over all of its variables, exactly."""
    Q = func.exponent
    _check_negative_definite(Q)
    d = Q.shape[0]
    mass = pi ** (d / 2) / sqrt(np.linalg.det(-Q))
    table = MomentTable(-0.5 * np.linalg.inv(Q))
    total = 0.0
    for mono, coeff in _real_coefficients(func.poly).items():
        total += coeff * table.moment(mono)
    return func.prefactor * mass * total


def marginalize(func: GaussPoly, keep: int) -> GaussPoly:
    """Integrate out one oscillator of a 4-variable function, exactly.

    keep = 1 retains (x1, p1), keep = 2 retains (x2, p2); the survivor is
    returned over a reduced 2-variable block. The Gaussian part reduces by a
    Schur complement; the polynomial part is shifted to the conditional mean
    and contracted against the conditional covariance.
    """
    if func.variables.dimension != 4:
        raise ValueError("marginalize expects a 4-variable function")
    if keep not in (1, 2):
        raise ValueError("keep must be 1 or 2")
    keep_idx = (0, 2) if keep == 1 else (1, 3)
    int_idx = (1, 3) if keep == 1 else (0, 2)

    Q = func.exponent
    QKK = Q[np.ix_(keep_idx, keep_idx)]
    QII = Q[np.ix_(int_idx, int_idx)]
    QKI = Q[np.ix_(keep_idx, int_idx)]
    _check_negative_definite(QII)

    # completing the square: z_I = w - A z_K with A = QII^{-1} QKI^T
    A = np.linalg.solve(QII, QKI.T)
    Q_red = QKK - QKI @ A
    mass_i = pi / sqrt(np.linalg.det(-QII))
    table = MomentTable(-0.5 * np.linalg.inv(QII))

    @cache
    def shifted_powers(var: int, n: int) -> dict[tuple[int, int, int], float]:
        """Expand z_I[var]^n into w^j * zK0^r * zK1^(m-r) coefficients."""
        out: dict[tuple[int, int, int], float] = {}
        for j in range(n + 1):
            rem = n - j
            lead = comb(n, j)
            for r in range(rem + 1):
                coeff = lead * comb(rem, r) * (-A[var, 0]) ** r * (-A[var, 1]) ** (rem - r)
                if coeff != 0.0:
                    out[(j, r, rem - r)] = coeff
        return out

    out_poly: PolyMap = {}
    for mono, coeff in _real_coefficients(func.poly).items():
        k0, k1 = mono[keep_idx[0]], mono[keep_idx[1]]
        _accumulate(out_poly, (
            ((k0 + r0 + r1, k1 + s0 + s1), coeff * c0 * c1 * m)
            for (j0, r0, s0), c0 in shifted_powers(0, mono[int_idx[0]]).items()
            for (j1, r1, s1), c1 in shifted_powers(1, mono[int_idx[1]]).items()
            if (m := table.moment((j0, j1))) != 0.0))

    reduced_vars = PhaseVariables(2, hbar=func.variables.hbar)
    return GaussPoly(reduced_vars, func.prefactor * mass_i, Q_red, out_poly)
