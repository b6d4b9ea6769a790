"""Deformed Moyal star-product calculus on the Gaussian-times-polynomial class.

Function values follow one convention everywhere:

    F(z) = prefactor * poly(z) * exp(z^T Q z)

with z = (x1, x2, p1, p2) in four dimensions or z = (x1, p1) in two, Q a real
symmetric matrix, and poly a sparse map from per-variable exponent tuples to
coefficients. Normalizable states have negative-definite Q.

The star product is the exponential of the bidifferential pairing built from
the antisymmetric deformation matrix B (hbar on x-p pairs, mu on x1-x2, nu on
p1-p2). Two product routes are implemented, covering every computation the
library needs while staying exactly testable:

  * a terminating series when one factor is a pure polynomial, and
  * the star-exponential group law for Gaussians generated by a shared
    two-square quadratic form (or a commuting family of them).

Intermediate series terms are genuinely complex; public helpers expose real
and imaginary parts separately.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

Monomial = tuple[int, ...]
PolyMap = dict[Monomial, complex]

# |k*s| may touch 1 (pure-state projector limit) but not exceed it
_UNIT_SLACK = 1e-9

_MATCH_RTOL = 1e-10

# points per block of GaussPoly.value times the larger of its monomial count
# and power-table height: caps each temporary at 256 kB whatever the grid
_VALUE_BLOCK = 1 << 15

# _poly_mul takes at least _MUL_BLOCK term pairs per block
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


def _shift(mono: Monomial, axis: int, by: int) -> Monomial:
    """mono with its exponent on axis raised by `by`."""
    return mono[:axis] + (mono[axis] + by,) + mono[axis + 1:]


def _accumulate(out: PolyMap, terms: Iterable[tuple[Monomial, complex]],
                scale: complex = 1.0) -> None:
    """Add scale * c for each (monomial, c) into out in place; exact zeros drop."""
    for k, c in terms:
        s = out.get(k, 0.0) + scale * c
        if s == 0.0:
            out.pop(k, None)
        else:
            out[k] = s


def _radix_weights(radix: np.ndarray) -> np.ndarray:
    """Place values of a mixed-radix key whose last axis varies fastest."""
    weight = np.ones_like(radix)
    weight[:-1] = np.multiply.accumulate(radix[:0:-1])[::-1]
    return weight


def _first_seen_sums(keys: np.ndarray, values: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys in first-seen order, each with its values summed in input
    order (`_run_sums` after a stable sort, which keeps that order)."""
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    uniq, sums = _run_sums(ordered, values[order])
    seen = order[np.searchsorted(ordered, uniq)].argsort()
    return uniq[seen], sums[seen]


def _pair_sums(ka: np.ndarray, ca: np.ndarray, kb: np.ndarray, cb: np.ndarray,
               sums) -> tuple[np.ndarray, np.ndarray]:
    """Keys ka[i] + kb[j] with the products ca[i] * cb[j] summed per key.

    The rows i go in blocks, the running result in front of each block, and
    sums (`_first_seen_sums` or `_key_sums`) adds them in input order; a
    carried sum is never -0.0, so adding it to +0.0 leaves it exact.
    """
    keys, values = np.empty(0, dtype=ka.dtype), np.empty(0)
    start = 0
    while start < len(ka):
        # at least as many new pairs as running keys, so sorts stay amortized
        rows = slice(start, start + max(1, max(_MUL_BLOCK, len(keys)) // len(kb)))
        start = rows.stop
        keys, values = sums(np.concatenate((keys, (ka[rows, None] + kb).ravel())),
                            np.concatenate((values, _times(ca[rows, None], cb).ravel())))
    return keys, values


def _poly_mul(a: PolyMap, b: PolyMap) -> PolyMap:
    """Product of two sparse polynomials, summed as the dict loop sums.

    Keys come in the loop's order (first seen over the term pairs in row-major
    order) and each coefficient is added in the loop's order, to the same
    bits. Any coefficient with a nonzero imaginary part (`_terms`) makes the
    whole product complex. Each monomial less its operand's per-axis minimum
    packs into one mixed-radix integer, and `_pair_sums` adds the term pairs
    with `_first_seen_sums`.
    """
    if not a or not b:
        return {}
    d = len(next(iter(a)))
    (ea, ca), (eb, cb) = _terms(a, d), _terms(b, d)
    low_a, low_b = ea.min(axis=0), eb.min(axis=0)
    ea, eb = ea - low_a, eb - low_b
    radix = ea.max(axis=0) + eb.max(axis=0) + 1
    if math.prod(radix.tolist()) >= 1 << 62:  # packed keys must fit int64
        raise ValueError("polynomial degrees too large to pack")
    weight = _radix_weights(radix)
    keys, values = _pair_sums(ea @ weight, ca, eb @ weight, cb, _first_seen_sums)
    exps = keys // weight[:, None] % radix[:, None] + (low_a + low_b)[:, None]
    return dict(zip(zip(*exps.tolist()), values.tolist()))


def _coefficients(values: Iterable[complex]) -> np.ndarray:
    """Coefficient vector, real when no coefficient has an imaginary part."""
    coeffs = np.array(list(values), dtype=complex)
    return coeffs if coeffs.imag.any() else coeffs.real


def _terms(poly: PolyMap, dimension: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponent matrix and coefficient vector of a polynomial."""
    exps = np.fromiter(itertools.chain.from_iterable(poly), dtype=np.intp,
                       count=dimension * len(poly))
    return exps.reshape(-1, dimension), _coefficients(poly.values())


def _power_table(x: np.ndarray, top: int) -> np.ndarray:
    """Rows x**0 .. x**top, by repeated multiplication."""
    table = np.empty((top + 1, len(x)))
    table[0] = 1.0
    for power in range(1, top + 1):
        np.multiply(table[power - 1], x, out=table[power])
    return table


@dataclass(frozen=True)
class GaussPoly:
    """Sparse polynomial times a centered Gaussian over a phase-variable block."""

    variables: PhaseVariables
    prefactor: float
    exponent: np.ndarray
    poly: PolyMap = field(default_factory=dict)

    def __post_init__(self):
        d = self.variables.dimension
        Q = np.asarray(self.exponent, dtype=float)
        if Q.shape != (d, d):
            raise ValueError(f"exponent must be {d}x{d}")
        if not np.allclose(Q, Q.T, rtol=0.0, atol=1e-12 * (1.0 + abs(Q).max())):
            raise ValueError("exponent matrix must be symmetric")
        object.__setattr__(self, "exponent", 0.5 * (Q + Q.T))
        # only exact zeros go: the small coefficients of a Laguerre tower sit
        # on high-degree monomials with large moments and carry its integrals
        object.__setattr__(self, "poly",
                           {k: c for k, c in self.poly.items() if c != 0})

    @classmethod
    def constant(cls, variables: PhaseVariables, value: float = 1.0) -> "GaussPoly":
        d = variables.dimension
        return cls(variables, 1.0, np.zeros((d, d)), {(0,) * d: value})

    @classmethod
    def gaussian(cls, variables: PhaseVariables, prefactor: float,
                 exponent: np.ndarray) -> "GaussPoly":
        d = variables.dimension
        return cls(variables, prefactor, exponent, {(0,) * d: 1.0})

    @property
    def degree(self) -> int:
        return max((sum(k) for k in self.poly), default=0)

    def is_pure_gaussian(self, tol: float = 1e-14) -> bool:
        """True when the polynomial part is a constant."""
        const = self.constant_coefficient()
        rest = sum(abs(c) for k, c in self.poly.items() if any(k))
        return rest <= tol * max(1.0, abs(const))

    def constant_coefficient(self) -> complex:
        d = self.variables.dimension
        return self.poly.get((0,) * d, 0.0)

    def scaled(self, factor: float) -> "GaussPoly":
        return GaussPoly(self.variables, self.prefactor * factor,
                         self.exponent, dict(self.poly))

    def __add__(self, other: "GaussPoly") -> "GaussPoly":
        if self.variables != other.variables:
            raise ValueError("cannot add functions over different variable blocks")
        scale = abs(self.exponent).max() + abs(other.exponent).max() + 1.0
        if not np.allclose(self.exponent, other.exponent, rtol=0.0, atol=1e-12 * scale):
            raise ValueError("cannot add functions with different Gaussian exponents")
        merged = {k: self.prefactor * c for k, c in self.poly.items()}
        _accumulate(merged, other.poly.items(), scale=other.prefactor)
        return GaussPoly(self.variables, 1.0, self.exponent, merged)

    def pointwise_mul(self, other: "GaussPoly") -> "GaussPoly":
        """Ordinary (commutative) product; exponents add, polynomials multiply."""
        if self.variables != other.variables:
            raise ValueError("cannot multiply functions over different variable blocks")
        return GaussPoly(
            self.variables,
            self.prefactor * other.prefactor,
            self.exponent + other.exponent,
            _poly_mul(self.poly, other.poly),
        )

    def real_part(self) -> "GaussPoly":
        return GaussPoly(self.variables, self.prefactor, self.exponent,
                         {k: c.real for k, c in self.poly.items()})

    def imag_part(self) -> "GaussPoly":
        return GaussPoly(self.variables, self.prefactor, self.exponent,
                         {k: complex(c).imag for k, c in self.poly.items()})

    def max_imag_coefficient(self) -> float:
        return max((abs(complex(c).imag) for c in self.poly.values()), default=0.0)

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
        exps, coeffs = _terms(self.poly, d)
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


def _grid_poly(poly: PolyMap, axes: Sequence[np.ndarray]) -> np.ndarray:
    """The polynomial on the tensor grid of axes, by sum factorization."""
    d = len(axes)
    lead = d // 2
    exps, coeffs = _terms(poly, d)
    top = exps.max(axis=0, initial=0)
    tables = [_power_table(x, t) for x, t in zip(axes, top)]
    exps, coeffs = (v[np.argsort(exps[:, :lead] @ _radix_weights(top[:lead] + 1))]
                    for v in (exps, coeffs))
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
    return [f.prefactor * (_grid_poly(f.poly, axes) * gauss) for f in funcs]


@dataclass(frozen=True)
class QuadraticForm:
    """Two-square quadratic Hamiltonian H = (a.x + b.p)^2 + (c.x + d.p)^2.

    The coefficient vectors have one entry per oscillator (two in the full
    space, one in the reduced pair). The scalar k controls star-exponentials
    of the form; it is cached at construction and recomputable at will.
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
            object.__setattr__(self, name, vec)
        object.__setattr__(self, "k", k_constant(self))

    @property
    def first_form(self) -> np.ndarray:
        """Coefficients of a.x + b.p over (x..., p...)."""
        return np.array(self.a + self.b)

    @property
    def second_form(self) -> np.ndarray:
        return np.array(self.c + self.d)

    @property
    def matrix(self) -> np.ndarray:
        """Symmetric matrix S with H(z) = z^T S z (positive semidefinite)."""
        u, v = self.first_form, self.second_form
        return np.outer(u, u) + np.outer(v, v)

    def poly(self) -> GaussPoly:
        """The Hamiltonian as a pure polynomial (zero Gaussian part)."""
        d = self.variables.dimension
        S = self.matrix
        out: PolyMap = {}
        for i in range(d):
            for j in range(i, d):
                coeff = S[i, j] if i == j else 2.0 * S[i, j]
                if coeff != 0.0:
                    out[_shift(_shift((0,) * d, i, 1), j, 1)] = coeff
        return GaussPoly(self.variables, 1.0, np.zeros((d, d)), out)

    @classmethod
    def from_matrix(cls, variables: PhaseVariables, S: np.ndarray,
                    tol: float = 1e-10) -> "QuadraticForm":
        """Recover a two-square decomposition of a PSD matrix of rank <= 2.

        The split into two squares is not unique; any rotation of the pair
        leaves |k| and all star-exponentials unchanged. In four variables an
        eigenvalue below tol times the largest entry counts as zero, so that
        a third square is ruled out; a 2x2 matrix has at most two squares,
        so there every positive eigenvalue is kept, however anisotropic.
        """
        S = np.asarray(S, dtype=float)
        scale = abs(S).max() or 1.0
        vals, vecs = np.linalg.eigh(S)
        if vals.min() < -tol * scale:
            raise ValueError("matrix is not positive semidefinite")
        cut = tol * scale if variables.dimension == 4 else 0.0
        big = [i for i in range(len(vals)) if vals[i] > cut]
        if len(big) > 2:
            raise ValueError("matrix has rank > 2: not a two-square form")
        n = variables.dimension // 2
        forms = [np.sqrt(vals[i]) * vecs[:, i] for i in big]
        while len(forms) < 2:
            forms.append(np.zeros(variables.dimension))
        u, v = forms
        return cls(variables, tuple(u[:n]), tuple(u[n:]), tuple(v[:n]), tuple(v[n:]))


def k_constant(form: QuadraticForm) -> float:
    """Scalar k = (a.d - b.c) hbar + (a^c) mu + (b^d) nu of a two-square form."""
    a, b, c, d = (np.array(v) for v in (form.a, form.b, form.c, form.d))
    pv = form.variables
    k = pv.hbar * (float(a @ d) - float(b @ c))
    if pv.dimension == 4:
        k += pv.mu * (a[0] * c[1] - a[1] * c[0])
        k += pv.nu * (b[0] * d[1] - b[1] * d[0])
    return k


def star_exp(form: QuadraticForm, t: float) -> GaussPoly:
    """Closed-form star-exponential of a two-square quadratic Hamiltonian.

    Returns (1/cosh(k t)) * exp(H tanh(k t)/k) as a pure Gaussian; at k = 0
    the analytic limit exp(H t) is used. |k t| beyond the cosh overflow
    threshold is rejected.
    """
    k = form.k
    kt = k * t
    if abs(kt) > 700.0:
        raise ValueError("k*t out of range: cosh overflow")
    if k == 0.0:
        scale, pref = t, 1.0
    else:
        scale, pref = math.tanh(kt) / k, 1.0 / math.cosh(kt)
    return GaussPoly.gaussian(form.variables, pref, scale * form.matrix)


def _run_sums(keys: np.ndarray, values: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """Each run of equal keys in sorted keys once, with its values summed in order.

    np.bincount adds a run's values one at a time from +0.0, the order of a
    dict updated with out.get(k, 0.0) + c, so the sums are the dict's.
    """
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    run = np.cumsum(first) - 1
    uniq = keys[first]
    if not np.iscomplexobj(values):
        return uniq, np.bincount(run, values, len(uniq))
    sums = np.empty(len(uniq), dtype=complex)
    sums.real = np.bincount(run, values.real, len(uniq))
    sums.imag = np.bincount(run, values.imag, len(uniq))
    return uniq, sums


def _key_sums(keys: np.ndarray, values: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys in ascending order, each with its values summed in input
    order (the stable sort keeps it)."""
    order = keys.argsort(kind="stable")
    return _run_sums(keys[order], values[order])


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Owner and offset of every entry when item k owns counts[k] entries."""
    owner = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    return owner, np.arange(len(owner)) - first[owner]


def _times(a, b):
    """a * b elementwise, complex products by CPython's formula."""
    if not (np.iscomplexobj(a) and np.iscomplexobj(b)):
        return a * b
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _nonzero(keys: np.ndarray, values: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """The terms whose coefficient is not exactly zero."""
    keep = values != 0
    return keys[keep], values[keep]


def _gauss_passes(polys: Sequence[tuple[np.ndarray, np.ndarray]], rows: Sequence[int],
                  half: np.ndarray, gQ: np.ndarray, weight: np.ndarray, radix: np.ndarray
                  ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Polynomial part of E_a [poly * exp(z gQ z)], E_a = sum_b half[a, b] d/dz_b,
    for each packed (poly, a) with a from rows, in ascending key order with
    exact zeros dropped. No other term is cut: a cut relative to the largest
    coefficient would depend on the units of z.

    E_a adds sum_b half[a, b] d poly/dz_b and (2 half gQ)[a, j] z_j poly for
    every j. All passes run together, poly n offset to the n-th block of keys.
    """
    size = int(weight[0] * radix[0])
    lengths = np.array([len(k) for k, _ in polys])
    offset = np.arange(len(polys) + 1) * size
    keys = np.concatenate([k for k, _ in polys]) + np.repeat(offset[:-1], lengths)
    vals = np.concatenate([v for _, v in polys])
    start = np.cumsum(lengths) - lengths

    def steps(coeff):
        # (entry, axis, coefficient) for each nonzero coeff[pass, axis]
        p, b = np.nonzero(coeff)
        owner, at = _ragged(lengths[p])
        return start[p][owner] + at, b[owner], coeff[p, b][owner]

    n, b, c = steps(half[rows])
    power = keys[n] // weight[b] % radix[b]  # offsets are multiples of size
    has = power > 0
    m, j, u = steps((2.0 * half @ gQ)[rows])
    keys, vals = _nonzero(*_key_sums(
        np.concatenate(((keys[n] - weight[b])[has], keys[m] + weight[j])),
        np.concatenate(((vals[n] * c * power)[has], vals[m] * u))))
    bounds = np.searchsorted(keys, offset)
    return [(keys[lo:hi] - base, vals[lo:hi])
            for base, lo, hi in zip(offset, bounds[:-1], bounds[1:])]


def _star_series(fpoly: PolyMap, gpoly: PolyMap, gQ: np.ndarray,
                 half: np.ndarray) -> PolyMap:
    """Terminating series for (polynomial f) star (g), f in the left slot of
    the pairing (i/2) B with half = B/2.

    exp(<-d_a (i/2) B_ab ->d_b) = sum_alpha (<-d^alpha / alpha!) (i E)^alpha
    with E_a = half[a, b] ->d_b, since the E_a commute; so the series adds
    i^|alpha| / alpha! d^alpha f E^alpha g over the alpha with d^alpha f
    nonzero, and ends at the total degree of f. g and each E^alpha g are
    packed mixed-radix keys (`_radix_weights`) with coefficient arrays.
    E^alpha g is one pass from alpha less its first nonzero axis, and the
    passes of one order run together (`_gauss_passes`). Every (alpha,
    f-term) row times its E^alpha g is one gather, summed by one `_key_sums`.
    Only exact zeros are dropped, here and after each pass, so the terms
    kept do not depend on units.
    """
    if not fpoly or not gpoly:
        return {}
    d = gQ.shape[0]
    deg = max(sum(k) for k in fpoly)
    gexps, gvals = _terms(gpoly, d)
    radix = np.array(list(fpoly)).max(axis=0) + gexps.max(axis=0) + deg + 1
    # keys offset by a block per pass of one order fit int64
    if math.prod(radix.tolist()) * math.comb(deg + d - 1, d - 1) >= 1 << 62:
        raise ValueError("polynomial degrees too large for the star series")
    weight = _radix_weights(radix)

    # (alpha, d^alpha f, E^alpha g) order by order; alpha + e_a comes only
    # from alpha, with a at or before the first nonzero axis of alpha
    level = [((0,) * d, fpoly, (gexps @ weight, gvals))]
    series = list(level)
    for _ in range(deg):
        kids = []
        for alpha, df, eg in level:
            first = next((a for a, n in enumerate(alpha) if n), d - 1)
            for a in range(first + 1):
                dfa = {_shift(k, a, -1): c * k[a] for k, c in df.items() if k[a]}
                if dfa:
                    kids.append((_shift(alpha, a, 1), dfa, eg, a))
        passes = _gauss_passes([eg for *_, eg, _ in kids], [a for *_, a in kids],
                               half, gQ, weight, radix)
        level = [(alpha, dfa, eg) for (alpha, dfa, *_), eg in zip(kids, passes)]
        series += level

    # one row per (alpha, f-term), times every term of its E^alpha g
    seg_len = np.array([len(eg[0]) for *_, eg in series])
    row_seg = np.repeat(np.arange(len(series)), [len(df) for _, df, _ in series])
    monos = np.array([k for _, df, _ in series for k in df])
    coeffs = np.array([c * 1j ** sum(alpha) / math.prod(map(math.factorial, alpha))
                       for alpha, df, _ in series for c in df.values()], dtype=complex)
    row, offset = _ragged(seg_len[row_seg])
    at = (np.cumsum(seg_len) - seg_len)[row_seg[row]] + offset
    keys = (monos @ weight)[row] + np.concatenate([eg[0] for *_, eg in series])[at]
    vals = coeffs[row] * np.concatenate([eg[1] for *_, eg in series])[at]
    keys, vals = _nonzero(*_key_sums(keys, vals))
    exps = (keys[:, None] // weight % radix).tolist()
    return dict(zip(map(tuple, exps), vals.tolist()))


def _require_zero_exponent(g: GaussPoly, who: str) -> None:
    if abs(g.exponent).max() > 1e-14:
        raise ValueError(f"{who} must have a zero Gaussian part")


def star_product_poly_left(left: GaussPoly, right: GaussPoly) -> GaussPoly:
    """left star right with a pure-polynomial left factor (terminating series).

    The result carries right's Gaussian exponent and may have complex
    polynomial coefficients; use real_part()/imag_part() to split them.
    """
    if left.variables != right.variables:
        raise ValueError("operands live on different variable blocks")
    _require_zero_exponent(left, "left factor")
    half = 0.5 * left.variables.deformation_matrix()
    poly = _star_series(left.poly, right.poly, right.exponent, half)
    return GaussPoly(left.variables, left.prefactor * right.prefactor,
                     right.exponent, poly)


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
    poly = _star_series(right.poly, left.poly, left.exponent, half)
    return GaussPoly(left.variables, left.prefactor * right.prefactor,
                     left.exponent, poly)


def _gaussian_scale(g: GaussPoly) -> tuple[float, np.ndarray]:
    """Fold a pure Gaussian to (total prefactor, exponent)."""
    if not g.is_pure_gaussian():
        raise ValueError("operand is not a pure Gaussian")
    const = g.constant_coefficient()
    if abs(complex(const).imag) > 1e-12 * abs(const):
        raise ValueError("operand has a complex constant part")
    return g.prefactor * complex(const).real, g.exponent


def _mode_scales(Q: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    """Solve Q = sum_f s_f * M_f in the least-squares sense and validate."""
    A = np.stack([m.ravel() for m in mats], axis=1)
    s, *_ = np.linalg.lstsq(A, Q.ravel(), rcond=None)
    resid = abs(A @ s - Q.ravel()).max()
    if resid > _MATCH_RTOL * (abs(Q).max() + 1.0):
        raise ValueError(
            "exponent is not a combination of the given forms: outside the "
            "supported Gaussian class"
        )
    return s


def _infer_form(g: GaussPoly) -> QuadraticForm:
    Q = g.exponent
    vals = np.linalg.eigvalsh(Q)
    scale = abs(vals).max() or 1.0
    if vals.min() >= -1e-12 * scale:
        S = Q
    elif vals.max() <= 1e-12 * scale:
        S = -Q
    else:
        raise ValueError(
            "indefinite exponent: not a scalar multiple of a two-square form"
        )
    return QuadraticForm.from_matrix(g.variables, S)


def gaussian_star(left: GaussPoly, right: GaussPoly,
                  forms: QuadraticForm | Sequence[QuadraticForm] | None = None,
                  ) -> GaussPoly:
    """Star product of two Gaussians generated by shared quadratic forms.

    Each operand must be exp of a combination of the given forms (a single
    shared form when forms is omitted and inferred). Per form, scales compose
    by the tanh addition law

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
    d = left.variables.dimension

    # a constant operand is a scalar multiple of the star identity
    if abs(Ql).max() < 1e-14:
        return GaussPoly.gaussian(right.variables, pref_l * pref_r, Qr)
    if abs(Qr).max() < 1e-14:
        return GaussPoly.gaussian(left.variables, pref_l * pref_r, Ql)

    if forms is None:
        mode_forms = [_infer_form(left)]
    elif isinstance(forms, QuadraticForm):
        mode_forms = [forms]
    else:
        mode_forms = list(forms)

    mats = [f.matrix for f in mode_forms]
    sl = _mode_scales(Ql, mats)
    sr = _mode_scales(Qr, mats)

    out_Q = np.zeros((d, d))
    pref = pref_l * pref_r
    for f, s1, s2 in zip(mode_forms, sl, sr):
        k = f.k
        for s in (s1, s2):
            if abs(k * s) > 1.0 + _UNIT_SLACK:
                raise ValueError(
                    "|k*s| > 1: Gaussian narrower than the minimal cell, "
                    "outside the star-exponential class"
                )
        denom = 1.0 + k**2 * s1 * s2
        if denom <= _UNIT_SLACK:
            raise ValueError("singular star product: k^2 s_L s_R -> -1")
        out_Q += ((s1 + s2) / denom) * f.matrix
        pref /= denom
    return GaussPoly.gaussian(left.variables, pref, out_Q)


def star_power(g: GaussPoly, n: int,
               forms: QuadraticForm | Sequence[QuadraticForm] | None = None,
               ) -> GaussPoly:
    """n-fold star product of a Gaussian with itself (n >= 1).

    Built by repeated squaring, which the associative star-exponential group
    law allows: the running power is squared once per bit of n and multiplied
    into the result on each set bit, so at most 2*floor(log2 n) products run.
    Every product goes through `gaussian_star` with all of its class checks;
    n = 1 returns g itself.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("star power requires a positive integer order")
    if forms is None and n > 1:
        forms = [_infer_form(g)]
    out, square = None, g
    while True:
        if n & 1:
            out = square if out is None else gaussian_star(out, square, forms=forms)
        n >>= 1
        if not n:
            return out
        square = gaussian_star(square, square, forms=forms)


def star_log_gaussian(g: GaussPoly,
                      form: QuadraticForm | None = None,
                      ) -> tuple[float, GaussPoly]:
    """Star logarithm of a positive Gaussian in the star-exponential class.

    Writes g = p * exp(s H) = p cosh(k t) * exp_star(H t) with
    t = arctanh(k s)/k, so

        ln_star(g) = ln(p) - (1/2) ln(1 - k^2 s^2) + t * H,

    returned as (additive constant, quadratic polynomial). Requires
    |k s| < 1 strictly; the projector boundary has no star logarithm.
    """
    pref, Q = _gaussian_scale(g)
    if pref <= 0.0:
        raise ValueError("star logarithm requires a positive prefactor")
    d = g.variables.dimension
    if abs(Q).max() < 1e-14:
        return math.log(pref), GaussPoly(g.variables, 1.0, np.zeros((d, d)), {})
    if form is None:
        form = _infer_form(g)
    (s,) = _mode_scales(Q, [form.matrix])
    k = form.k
    ks = k * s
    if abs(ks) >= 1.0 - _UNIT_SLACK:
        raise ValueError("|k*s| >= 1: outside the domain of the star logarithm")
    t = s if k == 0.0 else math.atanh(ks) / k
    const = math.log(pref) - 0.5 * math.log1p(-(ks * ks))
    return const, form.poly().scaled(t)
