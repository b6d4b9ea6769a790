"""Exact integration of polynomial-times-Gaussian functions.

Convention, stated once and used everywhere: a function prefactor * poly *
exp(z^T Q z) with Q negative definite corresponds to a centered normal weight
with covariance -Q^{-1}/2 and total mass pi^{d/2}/sqrt(det(-Q)). Polynomial
parts are contracted against the weight through the Isserlis moment recursion,
run as arrays one even degree at a time over the multi-indices it reaches.
Dense quadrature exists only in the test suite as an independent oracle.

The array kernels give the same bits as the per-term loops they replaced:
every product keeps its operand order, and every sum adds its terms one by one
in the loop's order (never pairwise). marginalize returns its monomials in
ascending order, as the star series does, and drops a monomial whose sum is
exactly zero, as the dict accumulation did.
"""

from __future__ import annotations

from functools import cache
from math import comb, pi, sqrt

import numpy as np

from .starcalc import (GaussPoly, Monomial, PhaseVariables, PolyMap, _key_sums,
                       _radix_weights, _ragged, _terms)

MAX_MOMENT_DEGREE = 48

_IMAG_TOL = 1e-10

# marginalize expands at most this many terms per block of monomials (or one
# monomial); the running sums carry over from block to block
_MARG_BLOCK = 1 << 12


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct keys (numpy 2.4's unique takes 3-10x longer here)."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=keys[:1] - 1) != 0]


def _sequential_sum(values: np.ndarray) -> float:
    """values added one by one from +0.0, as a Python loop adds them.

    np.sum adds pairwise, and the builtin sum compensates from Python 3.12.
    """
    return np.add.accumulate(np.concatenate(([0.0], values)))[-1]


class MomentTable:
    """Moments of a centered Gaussian with a given covariance."""

    def __init__(self, covariance: np.ndarray):
        cov = np.asarray(covariance, dtype=float)
        if cov.shape[0] != cov.shape[1]:
            raise ValueError("covariance must be square")
        self.covariance = cov

    def moment(self, alpha: Monomial) -> float:
        """E[z^alpha] under N(0, covariance); zero for odd total degree."""
        return float(self.moments(np.array([alpha], dtype=np.int64))[0])

    def moments(self, exps: np.ndarray) -> np.ndarray:
        """E[z^alpha] for each row alpha of the exponent matrix exps.

        Isserlis recursion: with i the first axis where alpha_i > 0 and
        beta = alpha - e_i, E[z^alpha] is the sum over j of
        (cov[i, j] * beta_j) * E[z^(beta - e_j)], added in j order from +0.0,
        where a term with cov[i, j] = 0 or beta_j = 0 is skipped. Degree 2
        gives a covariance entry; each higher even degree is one array pass
        over the multi-indices that the recursion reaches from exps.
        """
        exps = np.asarray(exps, dtype=np.int64)
        degree = exps.sum(axis=1)
        top = degree.max(initial=0)
        if top > MAX_MOMENT_DEGREE:
            raise ValueError(f"moment degree {degree[degree > MAX_MOMENT_DEGREE][0]} "
                             f"exceeds {MAX_MOMENT_DEGREE}")
        out = (degree == 0).astype(float)
        second = degree == 2
        out[second] = self._second_moments(exps[second])
        if top < 4:
            return out
        radix = exps.max(axis=0) + 1
        weight = _radix_weights(radix)
        keys = exps @ weight

        # top down: the multi-indices of each even degree, the rows' and those
        # the recursion reaches from above, with their recursion terms
        passes = []
        below = np.empty(0, dtype=np.int64)
        for deg in range(top - top % 2, 2, -2):
            level = _distinct(np.concatenate((keys[degree == deg], below)))
            beta = level[:, None] // weight % radix
            pivot = (beta > 0).argmax(axis=1)
            beta[np.arange(len(level)), pivot] -= 1
            cij = self.covariance[pivot]
            live = (beta > 0) & (cij != 0.0)
            child = level[:, None] - weight[pivot, None] - weight
            below = _distinct(child[live])
            passes.append((deg, level, np.where(live, cij * beta, 0.0), live, child))

        # bottom up from the second moments; a skipped term is 0.0 times the
        # 0.0 appended to the values below, and adding it to a sum from +0.0
        # changes nothing
        known, values = below, self._second_moments(below[:, None] // weight % radix)
        for deg, level, factor, live, child in reversed(passes):
            at = np.where(live, np.searchsorted(known, child), len(known))
            terms = factor * np.append(values, 0.0)[at]
            # left to right from the first term, which is +0.0 or nonzero (a
            # skipped term, or cov[0, 0] >= 0 times a moment), so the same sum
            # as from +0.0
            values = np.add.accumulate(terms, axis=1)[:, -1]
            known = level
            rows = degree == deg
            out[rows] = values[np.searchsorted(level, keys[rows])]
        return out

    def _second_moments(self, exps: np.ndarray) -> np.ndarray:
        """The recursion at degree 2: E[z_i z_j] = 0.0 + cov[i, j] * 1 * 1.0."""
        nonzero = exps > 0
        first = nonzero.argmax(axis=1)
        last = exps.shape[1] - 1 - nonzero[:, ::-1].argmax(axis=1)
        return self.covariance[first, last] + 0.0


def _check_negative_definite(Q: np.ndarray) -> None:
    try:
        np.linalg.cholesky(-Q)
    except np.linalg.LinAlgError:
        raise ValueError("exponent matrix must be negative definite") from None


def _real_coefficients(poly: PolyMap, dimension: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponent matrix and real coefficients of poly, in its key order."""
    exps, coeffs = _terms(poly, dimension)
    if np.iscomplexobj(coeffs):
        if np.abs(coeffs.imag).max() > _IMAG_TOL * max(1.0, np.abs(coeffs).max()):
            raise ValueError("cannot integrate a function with complex coefficients")
        coeffs = coeffs.real
    return exps, coeffs


def integrate(func: GaussPoly) -> float:
    """Integral of a GaussPoly over all of its variables, exactly."""
    Q = func.exponent
    _check_negative_definite(Q)
    d = Q.shape[0]
    mass = pi ** (d / 2) / sqrt(np.linalg.det(-Q))
    exps, coeffs = _real_coefficients(func.poly, d)
    if exps.any():  # a constant has moment 1 and needs no covariance
        coeffs = coeffs * MomentTable(-0.5 * np.linalg.inv(Q)).moments(exps)
    return func.prefactor * mass * _sequential_sum(coeffs)


@cache
def _trinomial_terms(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponents (j, r, s), j then r ascending, and comb(n, j) comb(n-j, r) as
    floats for the terms of (w + u + v)^n; read-only, shared by every call."""
    jrs = np.array([(j, r, n - j - r) for j in range(n + 1) for r in range(n - j + 1)],
                   dtype=np.int64)
    binom = np.array([float(comb(n, j) * comb(n - j, r)) for j, r, _ in jrs.tolist()])
    jrs.flags.writeable = binom.flags.writeable = False
    return jrs, binom


def _shifted_powers(a: np.ndarray, ns: np.ndarray) -> tuple[np.ndarray, ...]:
    """Terms of z^n with z = w - a[0]*u - a[1]*v expanded, for each n in ns.

    z^n is the sum of comb(n, j) comb(n-j, r) (-a[0])^r (-a[1])^s w^j u^r v^s
    over j, then r, with s = n-j-r; terms with a zero coefficient are dropped.
    The powers are scalar `**` (numpy's array power may round differently)
    and a coefficient rounds as ((comb product) * (-a[0])^r) * (-a[1])^s.
    Returns the terms' j, r, s and coefficient arrays, then each n's first
    term and term count (indexed by n).
    """
    top = int(ns.max())
    p0 = np.array([(-a[0]) ** r for r in range(top + 1)])
    p1 = np.array([(-a[1]) ** s for s in range(top + 1)])
    parts = [_trinomial_terms(n) for n in ns.tolist()]
    j, r, s = np.concatenate([jrs for jrs, _ in parts]).T
    coeff = np.concatenate([binom for _, binom in parts]) * p0[r] * p1[s]
    nonzero = coeff != 0.0
    full = (ns + 1) * (ns + 2) // 2
    count = np.zeros(top + 1, dtype=np.int64)
    count[ns] = np.add.reduceat(nonzero, np.cumsum(full) - full)
    start = np.cumsum(count) - count
    return j[nonzero], r[nonzero], s[nonzero], coeff[nonzero], start, count


def _marginal_poly(kept: np.ndarray, integrated: np.ndarray, coeffs: np.ndarray,
                   A: np.ndarray, table: MomentTable) -> PolyMap:
    """Polynomial part of marginalize: the dict loop's coefficients to the
    last bit, in ascending monomial order.

    A monomial coeff * u^k0 v^k1 x^n0 y^n1, with (x, y) = w - A (u, v) and w
    distributed by table, adds coeff * c0 * c1 * E[w0^j0 w1^j1] to
    u^(k0+r0+r1) v^(k1+s0+s1) for each term (j0, r0, s0, c0) of x^n0 and
    (j1, r1, s1, c1) of y^n1. Terms run monomial by monomial, then x-term,
    then y-term, and those with a zero moment are skipped. `_key_sums` adds
    each block behind the running sums in that order; a sum that passes
    through exactly zero and goes on from it matches the dict loop, which
    removed the key and started it again from 0.0. Exact-zero sums drop.
    """
    if not len(coeffs):
        return {}
    n0, n1 = integrated.T
    # the moments first: they raise for a degree above MAX_MOMENT_DEGREE
    j0, j1 = np.nonzero(np.add.outer(np.arange(n0.max() + 1), np.arange(n1.max() + 1))
                        <= (n0 + n1).max())
    moment = np.zeros((n0.max() + 1, n1.max() + 1))
    moment[j0, j1] = table.moments(np.stack((j0, j1), axis=1))
    J0, R0, S0, C0, start0, count0 = _shifted_powers(A[0], _distinct(n0))
    J1, R1, S1, C1, start1, count1 = _shifted_powers(A[1], _distinct(n1))
    radix = kept[:, 1].max() + n0.max() + n1.max() + 1
    base = kept[:, 0] * radix + kept[:, 1]

    count = count0[n0] * count1[n1]
    ends = np.cumsum(count)
    keys, sums = np.empty(0, dtype=np.int64), np.empty(0)
    lo = 0
    while lo < len(coeffs):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - count[lo] + _MARG_BLOCK,
                                             side="right")))
        mono, offset = _ragged(count[lo:hi])
        mono += lo
        width = count1[n1[mono]]
        e0 = start0[n0[mono]] + offset // width
        e1 = start1[n1[mono]] + offset % width
        m = moment[J0[e0], J1[e1]]
        live = m != 0.0
        mono, e0, e1, m = mono[live], e0[live], e1[live], m[live]
        block_keys = base[mono] + (R0[e0] + R1[e1]) * radix + S0[e0] + S1[e1]
        block_values = coeffs[mono] * C0[e0] * C1[e1] * m
        keys, sums = _key_sums(np.concatenate((keys, block_keys)),
                               np.concatenate((sums, block_values)))
        lo = hi
    nonzero = sums != 0.0
    keys, sums = keys[nonzero], sums[nonzero]
    exps = zip((keys // radix).tolist(), (keys % radix).tolist())
    return dict(zip(exps, sums.tolist()))


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
    keep_idx = [0, 2] if keep == 1 else [1, 3]
    int_idx = [1, 3] if keep == 1 else [0, 2]

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
    exps, coeffs = _real_coefficients(func.poly, 4)
    poly = _marginal_poly(exps[:, keep_idx], exps[:, int_idx], coeffs, A, table)

    reduced_vars = PhaseVariables(2, hbar=func.variables.hbar)
    return GaussPoly(reduced_vars, func.prefactor * mass_i, Q_red, poly)
