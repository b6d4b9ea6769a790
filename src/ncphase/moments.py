"""Exact integration of polynomial-times-Gaussian functions.

Convention, stated once and used everywhere: a function prefactor * poly *
exp(z^T Q z) with Q negative definite corresponds to a centered normal weight
with covariance -Q^{-1}/2 and total mass pi^{d/2}/sqrt(det(-Q)). Polynomial
parts are contracted against the weight through its moments: in two
variables by counting cross pairings over an integer table per top degree,
with the 2x2 weight from the 2x2 formulas; otherwise through the Isserlis
recursion over the one monomial index per dimension that the star series
reads too (`starcalc._graded_lattice`), its factors formed once per call;
marginalize reads its shifted powers from one cached table and its moments
with one take. Dense quadrature exists only in the test suite as an
independent oracle.

The array kernels give the same bits as the per-term loops they replaced
(for two variables, loops over the same formulas): every product keeps its
operand order, and every sum adds its terms one by one
in the loop's order (never pairwise). marginalize returns its monomials in
ascending order, as the star series does, and drops a monomial whose sum is
exactly zero, as the dict accumulation did. integrate and gram share one
sum, `_moment_sums`. gram integrates products without building them, equals
integrate of the built product exactly, and refuses a product above
MAX_MOMENT_DEGREE before it sums anything.
"""

from __future__ import annotations

from functools import cache, reduce
from math import comb, factorial, frexp, pi, prod, sqrt
from typing import Sequence

import numpy as np

from .starcalc import (GaussPoly, PhaseVariables, _block_sums, _exponent_rows,
                       _graded_exps, _graded_lattice, _graded_rank, _integer_at_least,
                       _pair_sums, _runs)

MAX_MOMENT_DEGREE = 48

_IMAG_TOL = 1e-10


class MomentTable:
    """Moments of a centered Gaussian with a given covariance."""

    def __init__(self, covariance: np.ndarray):
        cov = np.asarray(covariance, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError("covariance must be a square matrix")
        self.covariance = cov

    def moments(self, exps: np.ndarray) -> np.ndarray:
        """E[z^alpha] for each row alpha of the exponent matrix exps, whose
        entries are non-negative integers; zero for odd total degree.

        One vector holds the moments of every multi-index up to the rows'
        top degree in the graded order of `starcalc._graded_rank`, odd
        degrees 0.0: for two variables from the count of cross pairings
        (`_pair_moments`), otherwise from the Isserlis recursion
        (`_recursion_moments`). A moment has the same bits whichever rows
        come with it. A returned moment that leaves double range (an
        overflow, or inf - inf) raises ValueError.
        """
        exps = np.asarray(exps)
        d = len(self.covariance)
        if exps.ndim != 2 or exps.shape[1] != d:
            raise ValueError(f"exponent rows must have {d} entries, one per variable")
        exps = _exponent_rows(exps, "exponents must be non-negative integers")
        # column by column: numpy sums along a short row axis many times slower
        degree = reduce(np.add, exps.T, np.zeros(len(exps), dtype=np.int64))
        top = int(degree.max(initial=0))
        if top > MAX_MOMENT_DEGREE:
            raise ValueError(f"moment degree {degree[degree > MAX_MOMENT_DEGREE][0]} "
                             f"exceeds {MAX_MOMENT_DEGREE}")
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            moment = (_pair_moments if d == 2 else _recursion_moments)(self.covariance, top)
        out = moment.take(_graded_rank(exps.T, top))
        if not np.isfinite(out).all():
            raise ValueError(f"a moment of degree {degree[~np.isfinite(out)][0]} "
                             "leaves double precision range")
        return out


_EVEN_ROWS: dict[int, tuple[np.ndarray, ...]] = {}


def _even_rows(d: int, top: int) -> tuple[np.ndarray, ...]:
    """The rows of `starcalc._graded_lattice(d, top)` of even degree 2 to
    top: for each row and axis j, the place (pivot * d + j) * (top + 1) +
    beta_j of its factor cov[pivot, j] * beta_j in a (d * d, top + 1) table,
    and its child (intp: a take through narrower indices runs several times
    slower); then where the rows of each even degree end. They depend on
    the covariance not at all and on the top only through their length, so
    one table per dimension is kept, read as a prefix, and read again from
    the index only for a higher top."""
    rows = _EVEN_ROWS.get(d)
    if rows is None or len(rows[-1]) <= top // 2:
        top -= top % 2
        lattice = _graded_lattice(d, top)
        levels = [slice(comb(n + d - 1, d), comb(n + d, d)) for n in range(2, top + 1, 2)]
        pivot, beta, child = (np.concatenate([table[:0], *(table[level] for level in levels)])
                              for table in (lattice.pivot, lattice.beta, lattice.child))
        place = (pivot[:, None].astype(np.intp) * d + np.arange(d)) * (top + 1) + beta
        ends = np.cumsum([0] + [level.stop - level.start for level in levels])
        rows = _EVEN_ROWS[d] = (place, child.astype(np.intp), ends)
        for table in rows:
            table.flags.writeable = False
    return rows


def _recursion_moments(cov: np.ndarray, top: int) -> np.ndarray:
    """Every moment up to degree top in graded order, then a 0.0 slot.

    Isserlis recursion: with i the first axis where alpha_i > 0 and
    beta = alpha - e_i, E[z^alpha] is the sum over j of
    (cov[i, j] * beta_j) * E[z^(beta - e_j)], added in j order from +0.0,
    where a term with cov[i, j] = 0 or beta_j = 0 is skipped. The products
    cov[i, j] * b for every entry and every b up to the rows' top are tabled
    once per call, +0.0 where cov[i, j] = 0 or b = 0, and the even-degree
    rows (`_even_rows`) read their factors from it with one gather; a child
    is set to -1 where its factor is 0.0, which is where a term is skipped
    (|cov[i, j] b| >= |cov[i, j]| for b >= 1). Each even degree is then one
    array pass over its slice. A skipped term is 0.0 times the 0.0 in the
    last slot (never times an overflowed moment), and the terms add left to
    right from the first, +0.0 or cov[0, 0] >= 0 times a moment, so as from
    +0.0.
    """
    d = len(cov)
    place, child, ends = _even_rows(d, top)
    end = ends[top // 2]
    table = np.multiply.outer(cov.ravel(), np.arange(2 * len(ends) - 1, dtype=float))
    table[:, 0] = 0.0
    table[cov.ravel() == 0.0] = 0.0
    factor = table.ravel()[place[:end]]  # take through read-only indices runs slower
    child = np.where(factor == 0.0, -1, child[:end])
    moment = np.zeros(comb(top + d, d) + 1)  # then the 0.0 a skipped term reads
    moment[0] = 1.0
    for n, at, stop in zip(range(2, top + 1, 2), ends, ends[1:]):
        rows = slice(at, stop)
        moment[comb(n + d - 1, d):comb(n + d, d)] = reduce(
            np.add, (factor[rows] * moment.take(child[rows])).T)
    return moment


def _double_factorial(n: int) -> int:
    """n!! for n >= -1, with (-1)!! = 0!! = 1."""
    return prod(range(n, 0, -2))


@cache
def _pairings(top: int) -> tuple[np.ndarray, ...]:
    """The terms of E[x^a y^b] = the sum over k, the number of cross
    pairings, of C(a,k) C(b,k) k! (a-k-1)!! (b-k-1)!! c01^k c00^i c11^j,
    i = (a-k)/2, j = (b-k)/2 (Isserlis, 1918), for every monomial of even
    degree up to top in graded order (`starcalc._graded_rank`), each
    monomial's terms k ascending: the monomial's graded position, the flat
    places of c01^k, c00^i and c11^j in a (3, top + 1) table of powers, and
    the integer coefficient rounded once to a float; then the exponent
    columns of every monomial up to top, graded. Read-only, shared by every
    call."""
    width = top + 1
    terms = [(comb(n + 1, 2) + a, k, width + (a - k) // 2, 2 * width + (n - a - k) // 2,
              float(comb(a, k) * comb(n - a, k) * factorial(k)
                    * _double_factorial(a - k - 1) * _double_factorial(n - a - k - 1)))
             for n in range(0, top + 1, 2) for a in range(n + 1)
             for k in range(a % 2, min(a, n - a) + 1, 2)]
    tables = (*map(np.array, zip(*terms)), _graded_exps(2, top).astype(np.int64))
    for table in tables:
        table.flags.writeable = False
    return tables


def _pair_moments(cov: np.ndarray, top: int) -> np.ndarray:
    """Every moment of a 2-D normal up to degree top in graded order, by
    counting cross pairings (`_pairings`): per monomial, its terms
    ((coef * c01^k) * c00^i) * c11^j added k ascending from +0.0, each power
    by repeated multiplication. With c00 = m0 2^e0 and c11 = m1 2^e1, m in
    [1/2, 1), and p = e // 2, c00, c11 and c01 are first scaled by
    2^(-2 p0), 2^(-2 p1) and 2^(-p0 - p1), so no power leaves double range
    on the way, and E[x^a y^b] is scaled back by 2^(a p0 + b p1). Powers of
    two scale exactly, so where no step leaves the normal range the bits are
    those of the unscaled formula."""
    owner, k, i, j, coef, exps = _pairings(top)
    (c00, c01), (_, c11) = cov.tolist()
    p0, p1 = frexp(c00)[1] // 2, frexp(c11)[1] // 2
    powers = np.empty((3, top + 1))
    powers[:, 0] = 1.0
    powers[:, 1:] = np.ldexp([[c01], [c00], [c11]], [[-p0 - p1], [-2 * p0], [-2 * p1]])
    powers = np.multiply.accumulate(powers, axis=1).ravel()
    terms = coef * powers[k]  # fancy indexing: take through read-only indices runs slower
    terms *= powers[i]
    terms *= powers[j]
    moment = np.bincount(owner, terms, exps.shape[1])
    return np.ldexp(moment, exps[0] * p0 + exps[1] * p1) if p0 or p1 else moment


def _gaussian_weight(Q: np.ndarray, moments: bool = True
                     ) -> tuple[float, MomentTable | None]:
    """Mass pi^(d/2)/sqrt(det(-Q)) of exp(z Q z), and the moments of its
    normalized weight, covariance -Q^{-1}/2, when asked (a constant needs
    none). A det(-Q) that overflows or underflows double precision is
    refused. A 2x2 Q takes the 2x2 formulas on Q' = D Q D, D = diag(2^-p0,
    2^-p1) with p the binary exponent of each diagonal entry // 2 (as in
    `_pair_moments`), so no step leaves double range: with -Q' = [[a, b],
    [b, c]] and the Schur complements s1 = c - b (b / a) and
    s0 = a - b (b / c), Q is negative definite where a, s1 and s0 are
    positive, det(-Q) = 2^(2 p0 + 2 p1) a s1, and the covariance is D C D
    with C = [[1 / (2 s0), -(b / a) / (2 s1)], [.., 1 / (2 s1)]]. A larger
    Q takes Cholesky and LAPACK's det and inv."""
    if len(Q) == 2:
        p0, p1 = frexp(Q[0, 0])[1] // 2, frexp(Q[1, 1])[1] // 2
        shift = np.array([[-2 * p0, -p0 - p1], [-p0 - p1, -2 * p1]])
        with np.errstate(over="ignore"):  # an inf is refused below, with no warning
            (a, b), (_, c) = np.ldexp(-Q, shift).tolist()
            if not (a > 0.0 and (s1 := c - b * (b / a)) > 0.0 and (s0 := a - b * (b / c)) > 0.0):
                raise ValueError("exponent matrix must be negative definite")
            det = float(np.ldexp(a * s1, 2 * (p0 + p1)))
            off = -(b / a) / (2.0 * s1)
            cov = np.ldexp([[1.0 / (2.0 * s0), off], [off, 1.0 / (2.0 * s1)]], shift)
    else:
        _require_negative_definite(Q)
        with np.errstate(over="ignore"):  # refused below, with no warning
            det = np.linalg.det(-Q)
        cov = -0.5 * np.linalg.inv(Q) if moments else None
    if not 0.0 < det < np.inf:
        raise ValueError(f"det(-Q) = {float(det)!r} leaves double precision range")
    mass = pi ** (Q.shape[0] / 2) / sqrt(det)
    return mass, MomentTable(cov) if moments else None


def _require_negative_definite(Q: np.ndarray) -> None:
    """Refuse an exponent matrix Q that is not negative definite (Cholesky)."""
    try:
        np.linalg.cholesky(-Q)
    except np.linalg.LinAlgError:
        raise ValueError("exponent matrix must be negative definite") from None


def _real(coeffs: np.ndarray, segment: np.ndarray | int = 0, count: int = 1
          ) -> np.ndarray:
    """coeffs as reals, refused where the imaginary parts of one segment (of
    all coeffs by default) are not negligible against its largest |coeff|."""
    if not np.iscomplexobj(coeffs):
        return coeffs
    segment = np.broadcast_to(segment, coeffs.shape)
    imag, size = np.zeros(count), np.ones(count)
    np.maximum.at(imag, segment, np.abs(coeffs.imag))
    np.maximum.at(size, segment, np.abs(coeffs))
    if (imag > _IMAG_TOL * size).any():
        raise ValueError("cannot integrate a function with complex coefficients")
    return coeffs.real


def _moment_sums(coeffs: np.ndarray, exps: np.ndarray, table: MomentTable | None,
                 segment: np.ndarray, count: int = 1) -> np.ndarray:
    """Per segment, its rows' coefficients times their moments (the
    coefficients alone with no table) added one by one in row order from +0.0,
    as a loop adds them (np.sum adds pairwise); complex coefficients are
    refused per segment (`_real`), and an overflowing sum is inf, unwarned."""
    coeffs = _real(coeffs, segment, count)
    if table:
        coeffs = coeffs * table.moments(exps)
    return np.bincount(segment, coeffs, count)


def integrate(func: GaussPoly) -> float:
    """Integral of a GaussPoly over all its variables, exactly: one `_moment_sums`."""
    mass, table = _gaussian_weight(func.exponent, func.exps.any())
    segment = np.zeros(len(func.coeffs), np.intp)
    return func.prefactor * mass * _moment_sums(func.coeffs, func.exps, table, segment)[0]


def _family_terms(funcs: Sequence[GaussPoly]) -> tuple[np.ndarray, ...]:
    """Stacked exponents and coefficients of the polynomials of funcs, with
    each term's owner, and their prefactors."""
    owner = np.repeat(np.arange(len(funcs)), [len(f.coeffs) for f in funcs])
    return (np.concatenate([f.exps for f in funcs]), np.concatenate([f.coeffs for f in funcs]),
            owner, np.array([f.prefactor for f in funcs]))


def gram(fs: Sequence[GaussPoly], gs: Sequence[GaussPoly]) -> np.ndarray:
    """Matrix of the integrals of f_a * g_b, exactly, building no product.

    The fs share one Gaussian exponent and the gs another. A product above
    MAX_MOMENT_DEGREE is refused before any sum. `starcalc._pair_sums` adds
    every term pair into per-(segment (a, b), monomial) sums, each in the
    order `pointwise_mul` adds it, and hands them back with their exponent
    rows in ascending order, less those that are exactly zero, as the product
    drops them. `_moment_sums` then adds each segment's coefficient-moment
    products in that order, as `integrate` adds a product's; a moment has the
    same bits whichever rows come with it. So entry (a, b) equals
    integrate(f_a.pointwise_mul(g_b)) exactly, and it raises the same errors.
    """
    for side in (fs, gs):
        if not side or any(h.variables != fs[0].variables
                           or not np.array_equal(h.exponent, side[0].exponent)
                           for h in side):
            raise ValueError("gram needs one shared Gaussian exponent per side")
    (ef, cf, of, pf), (eg, cg, og, pg) = _family_terms(fs), _family_terms(gs)
    mass, table = _gaussian_weight(fs[0].exponent + gs[0].exponent, ef.any() or eg.any())
    if not (len(cf) and len(cg)):  # no term pairs
        return np.zeros((len(fs), len(gs)))
    top = int(ef.sum(axis=1).max() + eg.sum(axis=1).max())
    if top > MAX_MOMENT_DEGREE:
        raise ValueError(f"moment degree {top} exceeds {MAX_MOMENT_DEGREE}")
    count = len(fs) * len(gs)
    segment, exps, sums = _pair_sums(ef, cf, eg, cg, of * len(gs), og, count)
    totals = _moment_sums(sums, exps, table, segment, count).reshape(len(fs), len(gs))
    return np.multiply.outer(pf, pg) * mass * totals


def _overlap_bound(f: GaussPoly) -> float:
    """A bound on the magnitudes that gram([f], [f]) adds: the sum over term
    pairs of |c_a c_b E[z^(a+b)]| is at most (sum_a |c_a| sqrt(E[z^2a]))^2 by
    Cauchy-Schwarz, times prefactor^2 and the mass, under the weight of f * f.
    One moment per term of f, no product; f * f must be within
    MAX_MOMENT_DEGREE, as gram checks."""
    mass, table = _gaussian_weight(2.0 * f.exponent, f.exps.any())
    root = np.sqrt(table.moments(2 * f.exps)) if table else 1.0
    return float(np.square(abs(f.prefactor) * (np.abs(f.coeffs) * root).sum()) * mass)


@cache
def _trinomial_terms(top: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponent rows j, r, s and comb(n, j) comb(n-j, r) as floats for the
    terms of (w + u + v)^n, n = 0..top in turn, j then r ascending (those of
    n from column comb(n + 2, 3)); read-only, shared by every call."""
    jrs = np.array([(j, r, n - j - r) for n in range(top + 1) for j in range(n + 1)
                    for r in range(n - j + 1)], dtype=np.int64).T.copy()
    binom = np.array([float(comb(j + r + s, j) * comb(r + s, r)) for j, r, s in jrs.T.tolist()])
    jrs.flags.writeable = binom.flags.writeable = False
    return jrs, binom


def _shifted_powers(a: np.ndarray, top: int) -> tuple[np.ndarray, ...]:
    """Terms of z^n with z = w - a[0]*u - a[1]*v expanded, for n = 0..top.

    z^n is the sum of comb(n, j) comb(n-j, r) (-a[0])^r (-a[1])^s w^j u^r v^s
    over j, then r, with s = n-j-r, read from `_trinomial_terms(top)`; terms
    with a zero coefficient are dropped. The powers are scalar `**` (numpy's
    array power may round differently) and a coefficient rounds as
    ((comb product) * (-a[0])^r) * (-a[1])^s. Returns the terms' j, r, s and
    coefficient arrays, then each n's first term and term count.
    """
    p0 = np.array([(-a[0]) ** r for r in range(top + 1)])
    p1 = np.array([(-a[1]) ** s for s in range(top + 1)])
    jrs, binom = _trinomial_terms(top)
    coeff = binom * p0.take(jrs[1]) * p1.take(jrs[2])
    live = np.flatnonzero(coeff != 0.0)
    start = live.searchsorted([comb(n + 2, 3) for n in range(top + 2)])
    return (*jrs.take(live, axis=1), coeff.take(live), start[:-1], start[1:] - start[:-1])


def _marginal_poly(kept: np.ndarray, integrated: np.ndarray, coeffs: np.ndarray,
                   A: np.ndarray, table: MomentTable) -> tuple[np.ndarray, np.ndarray]:
    """Terms of the polynomial part of marginalize: the dict loop's
    coefficients to the last bit, in ascending monomial order.

    A monomial coeff * u^k0 v^k1 x^n0 y^n1, with (x, y) = w - A (u, v) and w
    distributed by table, adds coeff * c0 * c1 * E[w0^j0 w1^j1] to
    u^(k0+r0+r1) v^(k1+s0+s1) for each term (j0, r0, s0, c0) of x^n0 and
    (j1, r1, s1, c1) of y^n1. Terms run monomial by monomial, then x-term,
    then y-term, and those with a zero moment are skipped; `_block_sums`
    adds them in that order, a row per monomial. The entries with a nonzero
    moment depend only on (n0, n1), so they are tabled once per distinct
    pair, the moments read with one flat take, and a row's entries are its
    base key and coefficient repeated over a run into its pair's table. A
    sum that passes through exactly zero and goes on from it matches the
    dict loop, which removed the key and started it again from 0.0; a sum
    that ends at exactly zero is not returned, as there, and one past double
    range raises ValueError. Keys pack the kept exponents, not ranks: that
    2-D box stays small (145^2 keys for W(12,12)), where a rank would cost a
    table lookup per entry.
    """
    if not len(coeffs):
        return np.zeros((0, 2), dtype=np.int64), coeffs
    n0, n1 = integrated.T
    top0, top1 = int(n0.max()), int(n1.max())
    # the moments first: they raise for a degree above MAX_MOMENT_DEGREE
    box = np.add.outer(np.arange(top0 + 1), np.arange(top1 + 1)) <= (n0 + n1).max()
    moment = np.zeros(box.size)
    moment[np.flatnonzero(box)] = table.moments(np.argwhere(box))
    J0, R0, S0, C0, start0, count0 = _shifted_powers(A[0], top0)
    J1, R1, S1, C1, start1, count1 = _shifted_powers(A[1], top1)
    radix = kept[:, 1].max() + top0 + top1 + 1
    base = kept[:, 0] * radix + kept[:, 1]
    span = (kept[:, 0].max() + top0 + top1 + 1) * radix

    # the tables: per distinct (n0, n1), its (x-term, y-term) entries with a
    # nonzero moment, x-term then y-term, as key shift, c0, c1 and moment
    pair_code = n0 * (top1 + 1) + n1
    seen = np.bincount(pair_code, minlength=box.size) > 0
    pairs = np.flatnonzero(seen)
    p0, p1 = np.divmod(pairs, top1 + 1)
    rows, cols = count0.take(p0), count1.take(p1)  # a pair's x-terms, each by its y-terms
    width = cols.repeat(rows)
    e0 = _runs(start0.take(p0), rows).repeat(width)
    e1 = _runs(start1.take(p1).repeat(rows), width)
    m = moment.take((J0 * (top1 + 1)).take(e0) + J1.take(e1))
    live = np.flatnonzero(m != 0.0)
    e0, e1, m = e0.take(live), e1.take(live), m.take(live)
    shift = (R0 * radix + S0).take(e0) + (R1 * radix + S1).take(e1)
    c0, c1 = C0.take(e0), C1.take(e1)
    bounds = live.searchsorted(np.append(0, (rows * cols).cumsum()))  # of each pair's entries
    pair = (seen.cumsum() - 1).take(pair_code)
    first, count = bounds[:-1].take(pair), (bounds[1:] - bounds[:-1]).take(pair)

    def entries(lo, hi):
        reps, at = count[lo:hi], _runs(first[lo:hi], count[lo:hi])
        values = coeffs[lo:hi].repeat(reps)  # times c0, c1 and m in turn, in place
        for factor in (c0, c1, m):
            values *= factor.take(at)
        return base[lo:hi].repeat(reps) + shift.take(at), values

    keys, sums = _block_sums(count, entries, span)
    if not np.isfinite(sums).all():
        raise ValueError("a marginal coefficient leaves double precision range")
    return np.stack(np.divmod(keys, radix), axis=1), sums


def marginalize(func: GaussPoly, keep: int) -> GaussPoly:
    """Integrate out one oscillator of a 4-variable function, exactly.

    keep = 1 retains (x1, p1), keep = 2 retains (x2, p2); the survivor is
    returned over a reduced 2-variable block. The Gaussian part reduces by a
    Schur complement; the polynomial part is shifted to the conditional mean
    and contracted against the conditional covariance.
    """
    if func.variables.dimension != 4:
        raise ValueError("marginalize expects a 4-variable function")
    keep = _integer_at_least(keep, 1, "keep must be 1 or 2", maximum=2)
    # (x1, p1) are axes 0 and 2, (x2, p2) axes 1 and 3: read as strided views
    kept, integrated = slice(keep - 1, None, 2), slice(2 - keep, None, 2)

    Q = func.exponent
    QKK = Q[kept, kept]
    QII = Q[integrated, integrated]
    QKI = Q[kept, integrated]
    mass_i, table = _gaussian_weight(QII)

    # completing the square: z_I = w - A z_K with A = QII^{-1} QKI^T
    A = np.linalg.solve(QII, QKI.T)
    Q_red = QKK - QKI @ A
    exps = func.exps
    with np.errstate(over="ignore", invalid="ignore"):  # refused in _marginal_poly
        terms = _marginal_poly(exps[:, kept], exps[:, integrated], _real(func.coeffs), A, table)

    reduced_vars = PhaseVariables(2, hbar=func.variables.hbar)
    return GaussPoly(reduced_vars, func.prefactor * mass_i, Q_red, *terms)
