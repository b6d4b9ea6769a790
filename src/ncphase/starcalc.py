"""Deformed Moyal star-product calculus on the Gaussian-times-polynomial class.

Function values follow one convention everywhere:

    F(z) = prefactor * poly(z) * exp(z^T Q z)

with z = (x1, x2, p1, p2) in four dimensions or z = (x1, p1) in two, Q a real
symmetric matrix, and poly the sum of its terms: row t of the n x d exponent
matrix `exps` times coeffs[t]. Normalizable states have negative-definite Q.

The star product is the exponential of the bidifferential pairing built from
the antisymmetric deformation matrix B (hbar on x-p pairs, mu on x1-x2, nu on
p1-p2). Two product routes are implemented, covering every computation the
library needs while staying exactly testable:

  * a terminating series when one factor is a pure polynomial, and
  * the star-exponential group law for Gaussians generated by a shared
    two-square quadratic form (or a commuting family of them), which the
    caller names: no function here infers a form from an exponent.

Intermediate series terms are genuinely complex; a GaussPoly's `coeffs.real`
and `coeffs.imag` split them.

Every sum adds its terms one at a time, in the dict loop's order, into one
zeroed array, to the bits of the dict loop. Products, marginals and Gram
matrices index that array by monomial rank, or by place among the distinct
ranks where those are sparse (`_Simplex`, `_block_sums`); the star series
indexes it by place in one graded lattice of monomials per dimension, whose
neighbour tables turn each derivative and each multiplication by a variable
into a gather, and whose prefix serves every lower top degree
(`_graded_lattice`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# |k*s| may touch 1 (pure-state projector limit) but not exceed it
_UNIT_SLACK = 1e-9

_MATCH_RTOL = 1e-10

# points per block of GaussPoly.value times the larger of its monomial count
# and power-table height: caps each temporary at 256 kB whatever the grid
_VALUE_BLOCK = 1 << 15

# entries of a _block_sums block, unless one row holds more: bounds its arrays
_MUL_BLOCK = 1 << 13


@dataclass(frozen=True)
class PhaseVariables:
    """Variable block and deformation constants of a phase space.

    dimension 4 means (x1, x2, p1, p2); dimension 2 means the reduced single
    pair (x1, p1), where only the hbar term of the star product survives, so
    a nonzero mu or nu is refused there.
    """

    dimension: int
    hbar: float = 1.0
    mu: float = 0.0
    nu: float = 0.0

    def __post_init__(self):
        if self.dimension not in (2, 4):
            raise ValueError("dimension must be 2 or 4")
        if not all(map(math.isfinite, (self.hbar, self.mu, self.nu))):
            raise ValueError("hbar, mu and nu must be finite")
        if not self.hbar > 0.0:
            raise ValueError("hbar must be strictly positive")
        if self.dimension == 2 and (self.mu != 0.0 or self.nu != 0.0):
            raise ValueError("a 2-variable block has no mu or nu deformation")

    def deformation_matrix(self) -> np.ndarray:
        """Antisymmetric commutator matrix B with [z_a, z_b] = i*B_ab."""
        h, mu, nu = self.hbar, self.mu, self.nu
        if self.dimension == 2:
            return np.array([[0.0, h], [-h, 0.0]])
        return np.array(
            [
                [0.0, mu, h, 0.0],
                [-mu, 0.0, 0.0, h],
                [-h, 0.0, 0.0, nu],
                [0.0, -h, -nu, 0.0],
            ]
        )


@dataclass(frozen=True)
class _Simplex:
    """Ranks, in lexicographic order (first axis slowest), of the monomials a
    in d variables of degree <= top. With the prefix sums S_k = a_0 + ... +
    a_k, those before a that first differ from it on axis k number
    comb(top - S_(k-1) + d - k, d - k) - comb(top - S_k + d - k, d - k),
    S_(-1) = 0 (Knuth, TAOCP 4A, 7.2.1.3), which sums to offset + S_(d-1)
    plus columns[k, S_k] = -comb(top - S_k + d - k - 1, d - k) over k < d - 1.
    binomials[m, t] = comb(t + m, m), and graded[k, s] = comb(s + k, k + 1)
    (`_graded_rank`)."""

    top: int
    size: int
    offset: int
    columns: np.ndarray
    binomials: np.ndarray
    graded: np.ndarray

    def unrank(self, ranks: np.ndarray) -> np.ndarray:
        """Axis by axis, with count the monomials from the rank to the end of
        its subtree: the budget less the least budget t of the later axes with
        comb(t + m, m) >= count; on the last axis, budget - count + 1."""
        count, budget = self.size - ranks, self.top
        exps = np.empty((len(self.columns) + 1, len(count)), dtype=np.int64)
        for k, column in enumerate(self.binomials[:1:-1]):  # comb(t + m, m), m = d - k
            rest = column.searchsorted(count)
            exps[k], budget = budget - rest, rest
            count -= (column - self.binomials[-2 - k])[rest]  # those after the exponent
        exps[-1] = budget - count + 1
        return exps


@functools.cache
def _simplex(d: int, top: int) -> _Simplex:
    """The one place that refuses ranks beyond int64 (`_Simplex`)."""
    size = math.comb(top + d, d)
    if size >= 1 << 62:
        raise ValueError("polynomial degrees too large to pack")
    binomials = np.ones((d + 1, top + 1), dtype=np.int64)
    for m in range(1, d + 1):  # comb(t + m, m) sums comb(u + m - 1, m - 1) over u <= t
        np.cumsum(binomials[m - 1], out=binomials[m])
    columns = -np.pad(binomials[d:1:-1, :top][:, ::-1], ((0, 0), (0, 1)))
    graded = np.diff(binomials, axis=0)
    binomials.flags.writeable = columns.flags.writeable = graded.flags.writeable = False
    return _Simplex(top, size, size - top - 1, columns, binomials, graded)


def _graded_rank(exps: np.ndarray, top: int) -> np.ndarray:
    """Place of each column of a (d, n) exponent array, of degree <= top, in
    graded order: degree first. With the prefix sums S_k = a_0 + ... + a_k,
    a monomial a is the set of d bars b_k = S_(k-1) + k - 1, k = 1..d (stars
    and bars), and its place is the rank of that set in the combinatorial
    number system, the sum of comb(b_k, k) (Knuth, TAOCP 4A, 7.2.1.3). The
    last bar is deg a + d - 1, so every monomial of lower degree comes first,
    and the places of degree <= m are the same prefix whatever the top."""
    graded = _simplex(len(exps), top).graded
    prefix = np.zeros(exps.shape[1], dtype=np.int64)
    rank = np.zeros(exps.shape[1], dtype=np.int64)
    for column, table in zip(exps, graded):
        prefix += column
        rank += table.take(prefix)
    return rank


@dataclass(frozen=True)
class _Lattice:
    """Monomials in graded order (`_graded_rank`), each with its position
    one unit step up and one step down on every axis. Column k of exps holds
    the exponents of monomial k (unsigned, as narrow as the top degree
    allows); up[a, k] and down[a, k] are the positions of it plus and minus
    e_a, or -1 where that one is not a member. A last column, the sentinel,
    has zero exponents and steps -1. A vector over the first m monomials ends
    in a 0.0 slot that a step to -1 reads; the steps down from them stay
    among them, so a lattice up to a top serves every lower one. Read-only."""

    top: int
    exps: np.ndarray
    up: np.ndarray
    down: np.ndarray


def _lattice(exps: np.ndarray, members: np.ndarray, top: int) -> _Lattice:
    """The `_Lattice` of the monomials with exponent columns exps (d, n) of
    degree <= top and graded positions members, distinct and ascending. A
    unit step up on axis a raises the prefix sums S_k for k >= a by one, so
    it adds comb(S_k + k, k) for each to the place (`_graded_rank`)."""
    d, n = exps.shape
    exps = np.pad(exps, ((0, 0), (0, 1))).astype(np.min_scalar_type(top))
    up = np.full((d, n + 1), -1, dtype=np.intp)
    down = up.copy()
    sums = exps[:, :n].copy()  # in-place row adds: np.cumsum down axis 0 takes 5x as long
    for k in range(1, d):
        sums[k] += sums[k - 1]
    room = np.flatnonzero(sums[-1] < top)  # one more degree fits
    target = members[room]
    for a in range(d - 1, -1, -1):
        target = target + _simplex(d, top).binomials[a].take(sums[a][room])
        # every monomial up to the top (the cached case): a place is a position
        at = target if members[-1] == n - 1 else members.searchsorted(target)
        found = members.take(at, mode="clip") == target
        at, source = at[found], room[found]
        up[a][source] = at
        down[a][at] = source
    for table in (exps, up, down):
        table.flags.writeable = False
    return _Lattice(top, exps, up, down)


def _graded_exps(d: int, top: int) -> np.ndarray:
    """Every monomial in d variables of degree <= top, as exponent columns in
    graded order (`_graded_rank`): those of degree n are the ones of degree
    <= n in the first d - 1 variables, in their order, raised to n on the
    last axis."""
    if d == 1:
        return np.arange(top + 1, dtype=np.min_scalar_type(top))[None, :]
    degree, at = _ragged(np.array([math.comb(n + d - 1, d - 1) for n in range(top + 1)]))
    head = _graded_exps(d - 1, top).take(at, axis=1)
    return np.vstack((head, degree.astype(head.dtype) - head.sum(axis=0, dtype=head.dtype)))


_LATTICES: dict[int, _Lattice] = {}


def _graded_lattice(d: int, top: int) -> _Lattice:
    """The one `_Lattice` of every monomial in d variables up to a top
    degree of at least top, kept for the life of the process and built
    again, higher, only when a call needs a higher top."""
    lattice = _LATTICES.get(d)
    if lattice is None or lattice.top < top:
        _LATTICES.pop(d, None)  # the old tables go before the new ones come
        exps = _graded_exps(d, top)
        lattice = _LATTICES[d] = _lattice(exps, np.arange(exps.shape[1]), top)
    return lattice


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct keys (numpy 2.4's unique takes 3-10x longer here)."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=keys[:1] - 1) != 0]


def _block_sums(counts: np.ndarray, entries, span: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys in ascending order, each with the values of its entries
    summed in input order, where row r owns counts[r] entries, entries(lo, hi)
    gives the keys and values of rows lo..hi-1, and every key lies in
    [0, span). There is at least one row. A key whose sum is exactly zero is
    not returned.

    A block takes whole rows up to _MUL_BLOCK entries, or one row that alone
    holds more. np.add.at adds each block into one zeroed array indexed by
    key, one entry at a time in input order, so every sum is the one-pass
    sum; the nonzero sums, read whole, give their keys in ascending order. A
    span above n log2 n for n entries takes them in one block, summed so into
    their distinct keys (one sort) instead.
    """
    total = int(counts.sum())
    if span > total * total.bit_length():
        keys, values = entries(0, len(counts))
        distinct = _distinct(keys)
        sums = np.zeros(len(distinct), values.dtype)
        np.add.at(sums, distinct.searchsorted(keys), values)
        live = np.flatnonzero(sums != 0)
        return distinct[live], sums[live]
    ends, lo, sums = np.cumsum(counts), 0, None
    while lo < len(ends):
        limit = ends[lo] - counts[lo] + _MUL_BLOCK
        hi = max(lo + 1, int(np.searchsorted(ends, limit, side="right")))
        block_keys, block_values = entries(lo, hi)
        if sums is None:  # real or complex as the entries are
            sums = np.zeros(span, block_values.dtype)
        np.add.at(sums, block_keys, block_values)
        lo = hi
    keys = np.flatnonzero(sums != 0)  # a boolean scan: about twice as fast as the floats
    return keys, sums[keys]


def _pair_sums(ea: np.ndarray, ca: np.ndarray, eb: np.ndarray, cb: np.ndarray,
               sa=0, sb=0, count: int = 1) -> tuple[np.ndarray, ...]:
    """Segments, int64 exponent rows and sums, ascending by segment then row,
    of the term pairs of exponent rows ea, eb, with ca[i] * cb[j] summed per
    (segment, monomial) in row-major pair order (`_block_sums`, a row per i).
    Pair (i, j) is in segment sa[i] + sb[j], keyed by segment * size plus the
    `_Simplex` rank of its monomial less the per-axis minima; the rank takes
    column k at S_k(a_i) + S_k(b_j) for each axis k < d - 1, tabled against
    every b_j once per value S_k(a_i) takes."""
    low_a, low_b = ea.min(axis=0), eb.min(axis=0)
    pa, pb = np.cumsum(ea - low_a, axis=1).T, np.cumsum(eb - low_b, axis=1).T
    ranks = _simplex(len(pa), int(pa[-1].max() + pb[-1].max()))
    la, lb = pa[-1] + ranks.offset + sa * ranks.size, pb[-1] + sb * ranks.size
    tables = []
    for column, a, b in zip(ranks.columns, pa, pb):
        seen = np.zeros(ranks.top + 1, dtype=bool)
        seen[a] = True
        tables.append((column.take(np.flatnonzero(seen)[:, None] + b), np.cumsum(seen)[a] - 1))

    def entries(lo, hi):
        keys = la[lo:hi, None] + lb
        for table, at in tables:
            keys += table[at[lo:hi]]
        return keys.ravel(), _times(ca[lo:hi, None], cb).ravel()

    keys, values = _block_sums(np.full(len(ca), len(cb)), entries, count * ranks.size)
    segment, rank = np.divmod(keys, ranks.size)
    return segment, (ranks.unrank(rank) + (low_a + low_b)[:, None]).T, values


def _poly_mul(ea: np.ndarray, ca: np.ndarray, eb: np.ndarray, cb: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """Product of two polynomials given as terms, summed as the dict loop sums.

    Rows come in ascending order, and each coefficient is added in the loop's
    order (the term pairs in row-major order), to the same bits; a monomial
    whose sum is exactly zero is left out (`_block_sums`). A complex
    operand makes the whole product complex. The rows and sums are those of
    `_pair_sums` in one segment.
    """
    if not (len(ca) and len(cb)):
        return np.zeros((0, ea.shape[1]), dtype=np.int64), np.zeros(0)
    return _pair_sums(ea, ca, eb, cb)[1:]


def _integer_at_least(value, minimum: int, message: str, maximum: float = math.inf) -> int:
    """value as an int when it is a Python or numpy integer, not a bool, of at
    least minimum and at most maximum; ValueError(message) otherwise."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not minimum <= value <= maximum):
        raise ValueError(message)
    return int(value)


def _exponent_rows(exps: np.ndarray, message: str) -> np.ndarray:
    """exps as int64, or ValueError(message) where an entry is negative or not
    an integer; NaN and inf fail the round trip through int64, which rows
    that are int64 already (every kernel's) skip."""
    if exps.dtype != np.int64:
        with np.errstate(invalid="ignore"):  # np.errstate costs about 1 us a call
            rows = exps.astype(np.int64)
        if not np.array_equal(rows, exps):
            raise ValueError(message)
        exps = rows
    if exps.min(initial=0) < 0:
        raise ValueError(message)
    return exps


def _power_table(x: np.ndarray, top: int) -> np.ndarray:
    """Rows x**0 .. x**top, by repeated multiplication."""
    table = np.empty((top + 1, len(x)))
    table[0] = 1.0
    for power in range(1, top + 1):
        np.multiply(table[power - 1], x, out=table[power])
    return table


@dataclass(frozen=True)
class GaussPoly:
    """Polynomial times a centered Gaussian over a phase-variable block.

    The polynomial is the sum of its terms: row t of the n x d int64 matrix
    exps is the exponent tuple of a monomial, coeffs[t] its coefficient.
    coeffs is real unless some coefficient has a nonzero imaginary part;
    construction makes it so and drops exact zeros. Products, star series
    and marginals return distinct nonzero rows in ascending order; a sum
    (`__add__`, of functions with equal exponents) may repeat one.
    """

    variables: PhaseVariables
    prefactor: float
    exponent: np.ndarray
    exps: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        d = self.variables.dimension
        Q = np.asarray(self.exponent, dtype=float)
        if Q.shape != (d, d):
            raise ValueError(f"exponent must be {d}x{d}")
        scale = abs(Q).max()  # NaN if an entry is NaN
        if not math.isfinite(scale):
            raise ValueError("exponent matrix must be finite")
        # halved first, so neither the test nor the mean overflows
        half = 0.5 * Q
        if not abs(half - half.T).max() <= 0.5 * (1e-12 * (1.0 + scale)):
            raise ValueError("exponent matrix must be symmetric")
        object.__setattr__(self, "exponent", half + half.T)
        exps = np.asarray(self.exps)
        coeffs = np.asarray(self.coeffs, complex if np.iscomplexobj(self.coeffs) else float)
        if exps.ndim != 2 or exps.shape[1] != d or coeffs.shape != exps.shape[:1]:
            raise ValueError(f"terms must be n exponent rows of {d} and n coefficients")
        exps = _exponent_rows(exps, "exponents must be nonnegative integers")
        if coeffs.dtype.kind == "c" and not coeffs.imag.any():
            coeffs = coeffs.real
        # only exact zeros go: the small coefficients of a Laguerre tower sit
        # on high-degree monomials with large moments and carry its integrals
        if not coeffs.all():
            exps, coeffs = exps[coeffs != 0], coeffs[coeffs != 0]
        object.__setattr__(self, "exps", exps)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def constant(cls, variables: PhaseVariables, value: float = 1.0) -> "GaussPoly":
        d = variables.dimension
        return cls(variables, 1.0, np.zeros((d, d)), np.zeros((1, d), dtype=np.int64),
                   np.array([value]))

    @classmethod
    def gaussian(cls, variables: PhaseVariables, prefactor: float,
                 exponent: np.ndarray) -> "GaussPoly":
        d = variables.dimension
        return cls(variables, prefactor, exponent, np.zeros((1, d), dtype=np.int64),
                   np.ones(1))

    @property
    def poly(self) -> dict[tuple[int, ...], complex]:
        """A new {exponent tuple: coefficient} map, a repeated monomial summed
        in row order."""
        out = {}
        for mono, c in zip(map(tuple, self.exps.tolist()), self.coeffs.tolist()):
            out[mono] = out[mono] + c if mono in out else c
        return out

    @property
    def degree(self) -> int:
        return int(self.exps.sum(axis=1).max(initial=0))

    def is_pure_gaussian(self) -> bool:
        """True when the polynomial part is a constant: no monomial but the
        constant one (construction drops exact zeros), whatever the units."""
        return not self.exps.any()

    def scaled(self, factor: float) -> "GaussPoly":
        return GaussPoly(self.variables, self.prefactor * factor, self.exponent,
                         self.exps, self.coeffs)

    def __add__(self, other: "GaussPoly") -> "GaussPoly":
        if self.variables != other.variables:
            raise ValueError("cannot add functions over different variable blocks")
        if not np.array_equal(self.exponent, other.exponent):
            raise ValueError("cannot add functions with different Gaussian exponents")
        return GaussPoly(self.variables, 1.0, self.exponent,
                         np.concatenate((self.exps, other.exps)),
                         np.concatenate((self.prefactor * self.coeffs,
                                         other.prefactor * other.coeffs)))

    def pointwise_mul(self, other: "GaussPoly") -> "GaussPoly":
        """Ordinary (commutative) product; exponents add, polynomials multiply."""
        if self.variables != other.variables:
            raise ValueError("cannot multiply functions over different variable blocks")
        return GaussPoly(self.variables, self.prefactor * other.prefactor,
                         self.exponent + other.exponent,
                         *_poly_mul(self.exps, self.coeffs, other.exps, other.coeffs))

    def value(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at points of shape (..., dimension).

        Sums coefficient times per-axis power tables of the points, indexed by
        the exponent matrix, over blocks of at most _VALUE_BLOCK term-points
        (or table entries), so temporaries stay bounded for any grid.
        """
        pts = np.asarray(points, dtype=float)
        d = self.variables.dimension
        if pts.shape[-1] != d:
            raise ValueError("points have the wrong trailing dimension")
        flat = pts.reshape(-1, d)
        exps, coeffs = self.exps, self.coeffs
        top = exps.max(axis=0, initial=0)
        acc = np.zeros(len(flat), dtype=coeffs.dtype)
        step = max(1, _VALUE_BLOCK // max(len(coeffs), top.max() + 1))
        for start in range(0, len(flat), step):
            cols = flat[start:start + step].T.copy()
            prod = _power_table(cols[0], top[0])[exps[:, 0]]
            for a in range(1, d):
                prod *= _power_table(cols[a], top[a])[exps[:, a]]
            acc[start:start + step] = coeffs @ prod
        quad = np.einsum("ij,ij->i", flat @ self.exponent, flat)
        return self.prefactor * (acc * np.exp(quad)).reshape(pts.shape[:-1])


def _outer_rows(tables: Sequence[np.ndarray], exps: np.ndarray) -> np.ndarray:
    """Row t: outer product over the axes of tables[a][exps[t, a]], flattened
    with the first axis slowest."""
    rows = np.ones((len(exps), 1))
    for table, column in zip(tables, exps.T):
        rows = (rows[:, :, None] * table[column][:, None, :]).reshape(len(exps), -1)
    return rows


def _grid_poly(exps: np.ndarray, coeffs: np.ndarray, axes: Sequence[np.ndarray]
               ) -> np.ndarray:
    """The polynomial of the terms on the tensor grid of axes, by sum factorization."""
    lead = len(axes) // 2
    top = exps.max(axis=0, initial=0)
    tables = [_power_table(x, t) for x, t in zip(axes, top)]
    order = np.lexsort(exps[:, lead - 1::-1].T)  # stable, first axis slowest
    exps, coeffs = exps[order], coeffs[order]
    head = math.prod(len(x) for x in axes[:lead])
    tail = math.prod(len(x) for x in axes[lead:])
    out = np.zeros((head, tail), dtype=coeffs.dtype)
    step = max(1, _VALUE_BLOCK // max(head, tail))
    for start in range(0, len(coeffs), step):
        rows = slice(start, start + step)
        e = exps[rows]
        # the terms of a block that share their leading exponents are adjacent
        groups = np.flatnonzero(np.concatenate(
            ([True], (e[1:, :lead] != e[:-1, :lead]).any(axis=1))))
        partial = np.add.reduceat(
            coeffs[rows, None] * _outer_rows(tables[lead:], e[:, lead:]), groups)
        out += _outer_rows(tables[:lead], e[groups, :lead]).T @ partial
    return out.ravel()


def grid_values(funcs: Sequence[GaussPoly], axes: Sequence[np.ndarray]
                ) -> list[np.ndarray]:
    """Values of functions with one shared Gaussian exponent on a tensor grid.

    The grid holds every point (axes[0][i0], axes[1][i1], ...), flat with the
    first axis slowest, as np.meshgrid(*axes, indexing="ij") ravels it.
    GaussPoly.value gives the same values at scattered points. Here the
    terms, sorted by their exponents on the leading half of the axes, are
    summed per leading exponent against outer products of the trailing
    axes' power tables; one matrix product with the leading axes' tables
    contracts the rest. exp(z Q z) is computed once for all functions. Terms
    go in blocks that keep each temporary within _VALUE_BLOCK entries.
    """
    variables, Q = funcs[0].variables, funcs[0].exponent
    if any(f.variables != variables or not np.array_equal(f.exponent, Q)
           for f in funcs):
        raise ValueError("grid evaluation needs one shared Gaussian exponent")
    if len(axes) != variables.dimension:
        raise ValueError("grid evaluation needs one axis per variable")
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    quad = np.zeros([len(x) for x in axes])
    for a, b in zip(*np.nonzero(Q)):
        quad += Q[a, b] * (mesh[a] * mesh[b])
    gauss = np.exp(quad).ravel()
    return [f.prefactor * (_grid_poly(f.exps, f.coeffs, axes) * gauss) for f in funcs]


@functools.cache
def _pairs(d: int) -> tuple[np.ndarray, ...]:
    """Read-only i, j, exponent rows and z^T S z weights of x_i x_j, i <= j."""
    i, j = np.triu_indices(d)
    unit = np.eye(d, dtype=np.int64)
    tables = (i, j, unit[i] + unit[j], np.where(i == j, 1.0, 2.0))
    for table in tables:
        table.flags.writeable = False
    return tables


@dataclass(frozen=True)
class QuadraticForm:
    """Two-square quadratic Hamiltonian H = (a.x + b.p)^2 + (c.x + d.p)^2.

    The coefficient vectors have one entry per oscillator (two in the full
    space, one in the reduced pair), and every entry is finite. Construction
    computes, once each, the scalar `form.k` that controls star-exponentials
    of the form and `form.matrix`, the read-only symmetric (positive
    semidefinite) S with H(z) = z^T S z.
    """

    variables: PhaseVariables
    a: tuple[float, ...]
    b: tuple[float, ...]
    c: tuple[float, ...]
    d: tuple[float, ...]

    def __post_init__(self):
        n = self.variables.dimension // 2
        for name in ("a", "b", "c", "d"):
            vec = tuple(float(x) for x in getattr(self, name))
            if len(vec) != n:
                raise ValueError(f"vector {name} must have length {n}")
            if not all(map(math.isfinite, vec)):
                raise ValueError(f"vector {name} must be finite")
            object.__setattr__(self, name, vec)
        u, v = self.first_form, self.second_form
        # k = (a.d - b.c) hbar + (a^c) mu + (b^d) nu: u B v for the forms
        # u = (a, b) and v = (c, d)
        k = u @ self.variables.deformation_matrix() @ v
        matrix = np.outer(u, u) + np.outer(v, v)
        matrix.flags.writeable = False
        object.__setattr__(self, "k", float(k))
        object.__setattr__(self, "matrix", matrix)

    @property
    def first_form(self) -> np.ndarray:
        """Coefficients of a.x + b.p over (x..., p...)."""
        return np.array(self.a + self.b)

    @property
    def second_form(self) -> np.ndarray:
        return np.array(self.c + self.d)

    def poly(self) -> GaussPoly:
        """The Hamiltonian as a pure polynomial (zero Gaussian part)."""
        d = self.variables.dimension
        i, j, exps, weights = _pairs(d)
        return GaussPoly(self.variables, 1.0, np.zeros((d, d)), exps,
                         weights * self.matrix[i, j])

    @classmethod
    def from_matrix(cls, variables: PhaseVariables, S: np.ndarray) -> "QuadraticForm":
        """The two squares of a positive-definite 2x2 matrix S = L L^T over the
        reduced pair: the columns of its Cholesky factor L. Any other split is
        a rotation of the pair, which leaves |k| and every star-exponential
        unchanged."""
        S = np.asarray(S, dtype=float)
        if variables.dimension != 2 or S.shape != (2, 2):
            raise ValueError("only a 2x2 matrix over the reduced pair splits")
        if not np.isfinite(S).all():
            raise ValueError("matrix entries must be finite")
        try:
            (a, c), (b, d) = np.linalg.cholesky(S)
        except np.linalg.LinAlgError:
            raise ValueError("matrix is not positive definite") from None
        return cls(variables, (a,), (b,), (c,), (d,))


def star_exp(form: QuadraticForm, t: float) -> GaussPoly:
    """Closed-form star-exponential of a two-square quadratic Hamiltonian.

    Returns (1/cosh(k t)) * exp(H tanh(k t)/k) as a pure Gaussian; at k = 0
    the analytic limit exp(H t) is used. A t that is not finite, and |k t|
    beyond the cosh overflow threshold, are rejected.
    """
    if not math.isfinite(t):
        raise ValueError("star_exp requires a finite t")
    k = form.k
    kt = k * t
    if abs(kt) > 700.0:
        raise ValueError("k*t out of range: cosh overflow")
    if k == 0.0:
        scale, pref = t, 1.0
    else:
        scale, pref = math.tanh(kt) / k, 1.0 / math.cosh(kt)
    return GaussPoly.gaussian(form.variables, pref, scale * form.matrix)


def _runs(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """starts[k], starts[k] + 1, ..., counts[k] of them, for each k in turn;
    counts is not empty. One repeat and one arange: a take per entry costs
    twice as long."""
    ends = counts.cumsum()
    return np.arange(ends[-1]) + (starts - (ends - counts)).repeat(counts)


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Owner and offset of every entry when item k owns counts[k] entries
    (counts not empty)."""
    return np.arange(len(counts)).repeat(counts), _runs(np.zeros_like(counts), counts)


def _times(a, b):
    """a * b elementwise, complex products by CPython's formula."""
    if not (np.iscomplexobj(a) and np.iscomplexobj(b)):
        return a * b
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _series_lattice(exps: np.ndarray, steps: int, top: int
                    ) -> tuple[_Lattice, int, int, np.ndarray]:
    """A `_Lattice` for a series over the terms with exponent rows exps that
    moves within `steps` unit steps of them and stays at degree <= top; how
    many of its first monomials the series reads, and how many of those are
    below the top degree; and the position of each term in it.

    That is the cached `_graded_lattice`, read up to degree top, unless the
    degree simplex holds more than m log2 m monomials, m the number of terms
    times the lattice points within `steps` unit steps of the origin, as
    `_block_sums` chooses dense or sorted sums; then the call builds one of
    only the monomials within `steps` unit steps of a term.
    """
    d = exps.shape[1]
    ranks = _simplex(d, top)  # refuses a top whose ranks leave int64
    at, below = _graded_rank(exps.T, top), math.comb(top + d - 1, d)
    reach = len(exps) * sum(2**k * math.comb(d, k) * math.comb(steps, k)
                            for k in range(d + 1))
    if ranks.size <= reach * reach.bit_length():
        return _graded_lattice(d, top), ranks.size, below, at
    box = np.indices((2 * steps + 1,) * d).reshape(d, -1) - steps
    ball = box[:, abs(box).sum(axis=0) <= steps]
    rows = (exps.T[:, :, None] + ball[:, None, :]).reshape(d, -1)
    rows = rows[:, (rows >= 0).all(axis=0)]
    places = _graded_rank(rows, top)
    order = places.argsort()
    first = order[np.diff(places[order], prepend=-1) != 0]  # one column per place
    members = places[first]
    return (_lattice(rows[:, first], members, top), len(members),
            members.searchsorted(below), members.searchsorted(at))


@np.errstate(over="ignore", invalid="ignore")  # refused at the end, unwarned
def _star_series(f: GaussPoly, g: GaussPoly, half: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Terms of the polynomial part of (polynomial f) star g, f in the left
    slot of the pairing (i/2) B with half = B/2; f's Gaussian and both
    prefactors are the caller's.

    exp(<-d_a (i/2) B_ab ->d_b) = sum_alpha (<-d^alpha / alpha!) (i E)^alpha
    with E_a = half[a, b] ->d_b, since the E_a commute; so the series adds
    i^|alpha| / alpha! d^alpha f E^alpha g over the alpha with d^alpha f
    nonzero, and ends at the total degree of f. Every term it reaches lies
    within deg f unit steps of a term of g, at degree <= deg f + deg g, so
    each E^alpha g is a dense vector of coefficients over the first
    monomials of the `_Lattice` of `_series_lattice`, and a 0.0 slot.
    Repeated rows of g (a sum, `__add__`, may have them; no caller in the
    package passes one) are summed first, in row order, as `GaussPoly.poly`
    and the dict loops of the tests sum them.

    E^alpha g is one pass of E_a over E^(alpha - e_a) g, a the first nonzero
    axis of alpha. On poly * exp(z gQ z), E_a adds half[a, b] d poly/dz_b for
    every b (the vector times half[a, b], times the exponent on b, gathered
    one step up) and shift[a, j] z_j poly for every j (gathered one step
    down, times shift[a, j]), with shift = 2 half gQ: the derivative terms
    first, axis by axis, then the shift terms, each added in turn into a
    zeroed vector. Each (alpha, f-term) row, in series order, then adds
    E^alpha g, gathered through the f-term's exponent in down-steps, times
    its factor into one zeroed sum. So every key is summed as the dict loop
    sums it, to the same bits. The factor is rounded as c * 1j**|alpha| /
    alpha! in CPython scalar arithmetic: numpy divides a complex array by an
    int through its reciprocal, to other bits; and a complex E^alpha g takes
    it by CPython's formula (`_times`), since numpy's array complex multiply
    may round otherwise on another machine. Only exact zeros are dropped,
    when the exponents are read at the end, so the terms kept do not depend
    on units; they come back in ascending order (first axis slowest), as in
    `_Simplex`. A vector is kept only while a later pass needs it. A sum
    that leaves double range (an overflow, or inf - inf) raises ValueError.
    """
    d = len(half)
    if not (len(f.coeffs) and len(g.coeffs)):
        return np.zeros((0, d), dtype=np.int64), np.zeros(0)
    top = f.degree + g.degree
    lattice, size, below, at = _series_lattice(g.exps, f.degree, top)
    # a step up from the top degree reads 0.0, so its derivative term is
    # left out; every other step stays in the prefix, or reads the last slot
    up, down, exps = lattice.up[:, :below], lattice.down[:, :size], lattice.exps[:, :size + 1]
    shift = 2.0 * half @ g.exponent
    moves = [(np.flatnonzero(h), np.flatnonzero(s)) for h, s in zip(half, shift)]
    series_sum = np.zeros(size, complex)
    unit = np.eye(d, dtype=np.int64)

    def gather(alpha, fe, fc, eg):
        turn, scale = 1j ** sum(alpha), math.prod(map(math.factorial, alpha))
        for row, c in zip(fe.tolist(), fc.tolist()):
            at = slice(size)
            for axis, steps in enumerate(row):
                for _ in range(steps):
                    at = lattice.down[axis][at]  # the whole row: -1 reads its sentinel
            np.add(series_sum, _times(np.complex128(c * turn / scale), eg[at]), out=series_sum)

    def step(a, eg):
        out = np.zeros(size + 1, eg.dtype)
        head, body = out[:below], out[:size]
        derivative, shifted = moves[a]
        for b in derivative:
            head += (eg * half[a, b] * exps[b])[up[b]]
        for j in shifted:
            body += eg[down[j]] * shift[a, j]
        return out

    # (alpha, d^alpha f, E^alpha g) order by order; alpha + e_a comes only
    # from alpha, with a at or before the first nonzero axis of alpha
    eg = np.zeros(size + 1, g.coeffs.dtype)
    np.add.at(eg, at, g.coeffs)
    level = [((0,) * d, f.exps, f.coeffs, eg)]
    gather(*level[0])
    while level:
        kids = []
        for alpha, fe, fc, eg in level:
            first = next((a for a, n in enumerate(alpha) if n), d - 1)
            for a in range(first + 1):
                if (has := fe[:, a] > 0).any():
                    kid = (alpha[:a] + (alpha[a] + 1,) + alpha[a + 1:],
                           fe[has] - unit[a], fc[has] * fe[has, a], step(a, eg))
                    gather(*kid)
                    if kid[1].any():
                        kids.append(kid)
        level = kids
    if not np.isfinite(series_sum).all():
        raise ValueError("a star-product coefficient leaves double precision range")
    keep = np.flatnonzero(series_sum != 0)  # a boolean scan: about 5x as fast as the sums
    keep = keep[np.lexsort(lattice.exps.take(keep, axis=1)[::-1])]  # first axis slowest
    return lattice.exps.take(keep, axis=1).T.astype(np.int64), series_sum[keep]


def _require_zero_exponent(g: GaussPoly, who: str) -> None:
    if g.exponent.any():
        raise ValueError(f"{who} must have a zero Gaussian part")


def star_product_poly_left(left: GaussPoly, right: GaussPoly) -> GaussPoly:
    """left star right with a pure-polynomial left factor (terminating series).

    The result carries right's Gaussian exponent and may have complex
    polynomial coefficients; `coeffs.real` and `coeffs.imag` split them.
    """
    if left.variables != right.variables:
        raise ValueError("operands live on different variable blocks")
    _require_zero_exponent(left, "left factor")
    half = 0.5 * left.variables.deformation_matrix()
    return GaussPoly(left.variables, left.prefactor * right.prefactor,
                     right.exponent, *_star_series(left, right, half))


def star_product_poly_right(left: GaussPoly, right: GaussPoly) -> GaussPoly:
    """left star right with a pure-polynomial right factor.

    Reuses the left-factor series with the roles swapped: the right factor's
    derivatives pair with E_a = -(B/2)[a, b] d/dz_b on the left factor (B is
    antisymmetric), so the series takes half = -B/2.
    """
    if left.variables != right.variables:
        raise ValueError("operands live on different variable blocks")
    _require_zero_exponent(right, "right factor")
    half = -0.5 * left.variables.deformation_matrix()
    return GaussPoly(left.variables, left.prefactor * right.prefactor,
                     left.exponent, *_star_series(right, left, half))


def _gaussian_scale(g: GaussPoly) -> tuple[float, np.ndarray]:
    """Fold a pure Gaussian to (total prefactor, exponent)."""
    if not g.is_pure_gaussian():
        raise ValueError("operand is not a pure Gaussian")
    const = complex(g.coeffs.sum())
    if abs(const.imag) > 1e-12 * abs(const):
        raise ValueError("operand has a complex constant part")
    return g.prefactor * const.real, g.exponent


def _mode_scales(Q: np.ndarray, mats: Sequence[np.ndarray]) -> list[float]:
    """The scales s_f with Q = sum_f s_f M_f, one per matrix M_f.

    Modified Gram-Schmidt over the M_f, with Q carried along as the last
    column (Bjorck 1967): one matrix gives s = <M, Q>/<M, M>, and more stay
    backward stable where the normal equations lose twice the digits. A
    matrix whose part orthogonal to those before it is at most _MATCH_RTOL
    of its norm (a repeated, proportional or zero form) is refused, and so is
    a Q that the scales miss by more than _MATCH_RTOL (max|Q| + 1) in an
    entry; a NaN misses.
    """
    n = len(mats)
    if not n:
        raise ValueError("forms must name at least one quadratic form")
    cols = [m.ravel() for m in mats] + [Q.ravel()]
    upper, sizes = [], []  # R[j][k] = <v_j, a_k>/<v_j, v_j> for k > j; <v_j, v_j>
    for j in range(n):
        v = cols[j]
        vv = float(v @ v)
        # |a_j|^2 = |v_j|^2 + sum_i R[i][j]^2 |v_i|^2
        full = vv + sum(r[j] ** 2 * size for r, size in zip(upper, sizes))
        if not vv > _MATCH_RTOL**2 * full:
            raise ValueError("forms must be linearly independent")
        row = [0.0] * (n + 1)
        for k in range(j + 1, n + 1):
            row[k] = float(v @ cols[k]) / vv
            if j + 1 < n:  # the last sweep's columns are not read again
                cols[k] = cols[k] - row[k] * v
        upper.append(row)
        sizes.append(vv)
    s = [0.0] * n
    for j in reversed(range(n)):
        s[j] = upper[j][n] - sum(upper[j][k] * s[k] for k in range(j + 1, n))
    fit = s[0] * mats[0]
    for scale, m in zip(s[1:], mats[1:]):
        fit = fit + scale * m
    if not abs(fit - Q).max() <= _MATCH_RTOL * (abs(Q).max() + 1.0):
        raise ValueError(
            "exponent is not a combination of the given forms: outside the "
            "supported Gaussian class"
        )
    return s


def gaussian_star(left: GaussPoly, right: GaussPoly,
                  forms: Sequence[QuadraticForm]) -> GaussPoly:
    """Star product of two Gaussians generated by shared quadratic forms.

    Each operand must be exp of a combination of the forms the caller names
    (one form, or a commuting family of them). The forms' matrices must be
    linearly independent, so that the combination is unique
    (`_mode_scales`): a repeated, proportional or zero form, or no form at
    all, is refused with ValueError. A constant operand, a multiple of the
    star identity, reads no form. Per form, scales compose by the tanh
    addition law

        s_out = (s_L + s_R) / (1 + k^2 s_L s_R),

    with the prefactor picking up 1/(1 + k^2 s_L s_R). This equals converting
    to star-exponential parameters, adding, and converting back, but stays
    finite at the pure-state boundary |k s| = 1. Scales with |k s| > 1 are
    outside the normalizable class and rejected.
    """
    if left.variables != right.variables:
        raise ValueError("operands live on different variable blocks")
    pref_l, Ql = _gaussian_scale(left)
    pref_r, Qr = _gaussian_scale(right)

    # a constant operand is a scalar multiple of the star identity
    if not Ql.any():
        return GaussPoly.gaussian(right.variables, pref_l * pref_r, Qr)
    if not Qr.any():
        return GaussPoly.gaussian(left.variables, pref_l * pref_r, Ql)

    mats = [f.matrix for f in forms]
    sl = _mode_scales(Ql, mats)
    sr = _mode_scales(Qr, mats)

    out_Q = np.zeros_like(Ql)
    pref = pref_l * pref_r
    for f, s1, s2 in zip(forms, sl, sr):
        k = f.k
        if abs(k * s1) > 1.0 + _UNIT_SLACK or abs(k * s2) > 1.0 + _UNIT_SLACK:
            raise ValueError("|k*s| > 1: Gaussian narrower than the minimal cell, "
                             "outside the star-exponential class")
        denom = 1.0 + k**2 * s1 * s2
        if denom <= _UNIT_SLACK:
            raise ValueError("singular star product: k^2 s_L s_R -> -1")
        out_Q += ((s1 + s2) / denom) * f.matrix
        pref /= denom
    return GaussPoly.gaussian(left.variables, pref, out_Q)


def star_power(g: GaussPoly, n: int, forms: Sequence[QuadraticForm]) -> GaussPoly:
    """n-fold star product of a Gaussian with itself (n >= 1), g generated by
    the forms the caller names.

    Built by repeated squaring, which the associative star-exponential group
    law allows: the running power is squared once per bit of n and multiplied
    into the result on each set bit, so at most 2*floor(log2 n) products run.
    Every product goes through `gaussian_star` with all of its class checks;
    n = 1 returns g itself.
    """
    n = _integer_at_least(n, 1, "star power requires a positive integer order")
    out, square = None, g
    while True:
        if n & 1:
            out = square if out is None else gaussian_star(out, square, forms=forms)
        n >>= 1
        if not n:
            return out
        square = gaussian_star(square, square, forms=forms)


def star_log_gaussian(g: GaussPoly, form: QuadraticForm) -> tuple[float, GaussPoly]:
    """Star logarithm of a positive Gaussian in the star-exponential class,
    generated by the form H the caller names.

    Writes g = p * exp(s H) = p cosh(k t) * exp_star(H t) with
    t = arctanh(k s)/k, so

        ln_star(g) = ln(p) - (1/2) ln(1 - k^2 s^2) + t * H,

    returned as (additive constant, quadratic polynomial). Requires
    |k s| < 1 strictly; the projector boundary has no star logarithm.
    """
    pref, Q = _gaussian_scale(g)
    if pref <= 0.0:
        raise ValueError("star logarithm requires a positive prefactor")
    if not Q.any():
        return math.log(pref), GaussPoly.constant(g.variables, 0.0)
    (s,) = _mode_scales(Q, [form.matrix])
    k = form.k
    ks = k * s
    if abs(ks) >= 1.0 - _UNIT_SLACK:
        raise ValueError("|k*s| >= 1: outside the domain of the star logarithm")
    t = s if k == 0.0 else math.atanh(ks) / k
    const = math.log(pref) - 0.5 * math.log1p(-(ks * ks))
    return const, form.poly().scaled(t)
