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

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

Monomial = tuple[int, ...]
PolyMap = dict[Monomial, complex]

# relative pruning threshold applied after differentiation passes
PRUNE_REL = 1e-15

# |k*s| may touch 1 (pure-state projector limit) but not exceed it
_UNIT_SLACK = 1e-9

_MATCH_RTOL = 1e-10

# points per block of GaussPoly.value times the larger of its monomial count
# and power-table height: caps each temporary at 256 kB whatever the grid
_VALUE_BLOCK = 1 << 15

# _poly_mul: products of fewer term pairs than _MUL_ARRAY_MIN run the dict
# loop, since the array kernel's fixed cost outweighs its per-pair saving
# below it; the kernel takes at least _MUL_BLOCK term pairs per block
_MUL_ARRAY_MIN = 256
_MUL_BLOCK = 1 << 13


@dataclass(frozen=True)
class PhaseVariables:
    """Variable block and deformation constants of a phase space.

    dimension 4 means (x1, x2, p1, p2); dimension 2 means the reduced single
    pair (x1, p1), where only the hbar term of the star product survives, so
    mu and nu are forced to zero.
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
            object.__setattr__(self, "mu", 0.0)
            object.__setattr__(self, "nu", 0.0)

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


def _prune(poly: Mapping[Monomial, complex]) -> PolyMap:
    if not poly:
        return {}
    top = max(abs(c) for c in poly.values())
    if top == 0.0:
        return {}
    cut = PRUNE_REL * top
    return {k: c for k, c in poly.items() if abs(c) > cut}


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


def _poly_mul_dict(a: PolyMap, b: PolyMap) -> PolyMap:
    out: PolyMap = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = tuple(e1 + e2 for e1, e2 in zip(k1, k2))
            out[k] = out.get(k, 0.0) + c1 * c2
    return out


def _coefficient_parts(poly: PolyMap) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real parts, imaginary parts and is-complex flags of the coefficients."""
    values = list(poly.values())
    z = np.array(values, dtype=complex)
    flags = np.fromiter((isinstance(c, complex) for c in values), bool, len(values))
    return z.real.copy(), z.imag.copy(), flags


def _radix_weights(radix: np.ndarray) -> np.ndarray:
    """Place values of a mixed-radix key whose last axis varies fastest."""
    weight = np.ones_like(radix)
    weight[:-1] = np.cumprod(radix[:0:-1])[::-1]
    return weight


def _first_seen_sums(keys: np.ndarray, parts: list[np.ndarray]
                     ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Distinct keys in first-seen order, each part summed per key in input order.

    bincount starts every sum at +0.0. A running sum that starts at +0.0 is
    never -0.0, so adding a carried partial sum to +0.0 leaves it exact.
    """
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    seen = np.argsort(first)
    rank = np.empty_like(seen)
    rank[seen] = np.arange(len(seen))
    slot = rank[inverse.ravel()]
    return uniq[seen], [np.bincount(slot, weights=p, minlength=len(seen)) for p in parts]


def _poly_mul(a: PolyMap, b: PolyMap) -> PolyMap:
    """Product of two sparse polynomials, bit-identical to the dict loop.

    Same coefficients to the last bit and the same key order (first seen over
    the term pairs in row-major order). Small products run the dict loop. Larger ones pack
    each monomial into one mixed-radix integer and take the term pairs in
    blocks: the running result goes in front of each block, np.unique finds
    the keys and their first occurrences, and np.bincount sums real and
    imaginary parts in input order, which is the dict loop's summation order.
    """
    if len(a) * len(b) < _MUL_ARRAY_MIN:
        return _poly_mul_dict(a, b)
    ar, ai, a_cplx = _coefficient_parts(a)
    br, bi, b_cplx = _coefficient_parts(b)
    is_complex = a_cplx.any() or b_cplx.any()
    if is_complex and not (a_cplx.all() or b_cplx.all()):
        # the dict loop types each key by its own pairs; keep that exact
        return _poly_mul_dict(a, b)
    ea = np.array(list(a), dtype=np.int64)
    eb = np.array(list(b), dtype=np.int64)
    radix = ea.max(axis=0) + eb.max(axis=0) + 1
    if math.prod(radix.tolist()) >= 1 << 62:  # packed keys must fit int64
        return _poly_mul_dict(a, b)
    weight = _radix_weights(radix)
    ka, kb = ea @ weight, eb @ weight

    keys = np.empty(0, dtype=np.int64)
    parts = [np.empty(0)] * (2 if is_complex else 1)
    start = 0
    while start < len(a):
        # at least as many new pairs as running keys, so sorts stay amortized
        rows = slice(start, start + max(1, max(_MUL_BLOCK, len(keys)) // len(b)))
        start = rows.stop
        a_re, a_im = ar[rows, None], ai[rows, None]
        # CPython's complex product, one rounding per operation
        block = ([a_re * br - a_im * bi, a_re * bi + a_im * br] if is_complex
                 else [a_re * br])
        parts = [np.concatenate((p, q.ravel())) for p, q in zip(parts, block)]
        keys = np.concatenate((keys, (ka[rows, None] + kb).ravel()))
        keys, parts = _first_seen_sums(keys, parts)

    if is_complex:
        values = np.empty(len(keys), dtype=complex)
        values.real, values.imag = parts
    else:
        (values,) = parts
    exps = [((keys // w) % r).tolist() for w, r in zip(weight, radix)]
    return dict(zip(zip(*exps), values.tolist()))


def _poly_diff(poly: PolyMap, axis: int) -> PolyMap:
    return {_shift(k, axis, -1): c * k[axis] for k, c in poly.items() if k[axis]}


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
        if not np.allclose(Q, Q.T, atol=1e-12 * (1.0 + abs(Q).max())):
            raise ValueError("exponent matrix must be symmetric")
        object.__setattr__(self, "exponent", 0.5 * (Q + Q.T))
        object.__setattr__(self, "poly", _prune(self.poly))

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
        if not np.allclose(self.exponent, other.exponent, atol=1e-12 * scale):
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
        coeffs = np.array(list(self.poly.values()), dtype=complex)
        if not coeffs.imag.any():
            coeffs = coeffs.real
        exps = np.array(list(self.poly), dtype=np.intp).reshape(-1, d)
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
        leaves |k| and all star-exponentials unchanged.
        """
        S = np.asarray(S, dtype=float)
        scale = abs(S).max() or 1.0
        vals, vecs = np.linalg.eigh(S)
        if vals.min() < -tol * scale:
            raise ValueError("matrix is not positive semidefinite")
        big = [i for i in range(len(vals)) if vals[i] > tol * scale]
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


def _pair_matrix(variables: PhaseVariables) -> dict[tuple[int, int], complex]:
    """Nonzero entries of the bidifferential pairing (i/2) B."""
    B = variables.deformation_matrix()
    out = {}
    d = variables.dimension
    for a in range(d):
        for b in range(d):
            if B[a, b] != 0.0:
                out[(a, b)] = 0.5j * B[a, b]
    return out


def _gauss_diff(poly: PolyMap, axis: int, Q: np.ndarray) -> PolyMap:
    """Polynomial part of d/dz_axis [poly * exp(z Q z)]."""
    out = _poly_diff(poly, axis)
    for j in range(Q.shape[0]):
        if Q[axis, j] != 0.0:
            q = 2.0 * Q[axis, j]
            _accumulate(out, ((_shift(k, j, 1), c * q) for k, c in poly.items()))
    return _prune(out)


def _star_series(fpoly: PolyMap, gpoly: PolyMap, gQ: np.ndarray,
                 pair: dict[tuple[int, int], complex]) -> PolyMap:
    """Terminating series for (polynomial f) star (g), derivatives of f on the
    left slot of the pairing. Terminates at the total degree of f."""
    zero = (0,) * gQ.shape[0]
    deg = max((sum(k) for k in fpoly), default=0)

    def derivative(cache: dict[Monomial, PolyMap], step, alpha: Monomial) -> PolyMap:
        if alpha not in cache:
            axis = next(i for i, n in enumerate(alpha) if n)
            cache[alpha] = step(derivative(cache, step, _shift(alpha, axis, -1)), axis)
        return cache[alpha]

    f_cache: dict[Monomial, PolyMap] = {zero: dict(fpoly)}
    g_cache: dict[Monomial, PolyMap] = {zero: dict(gpoly)}
    g_step = functools.partial(_gauss_diff, Q=gQ)

    terms: dict[tuple[Monomial, Monomial], complex] = {(zero, zero): 1.0 + 0.0j}
    out: PolyMap = {}
    factorial = 1.0
    for order in range(deg + 1):
        if order:
            factorial *= order
            nxt: dict[tuple[Monomial, Monomial], complex] = {}
            for (al, be), coeff in terms.items():
                for (a, b), pab in pair.items():
                    key = (_shift(al, a, 1), _shift(be, b, 1))
                    nxt[key] = nxt.get(key, 0.0) + coeff * pab
            terms = nxt
        for (al, be), coeff in terms.items():
            df = derivative(f_cache, _poly_diff, al)
            if not df:
                continue
            dg = derivative(g_cache, g_step, be)
            if not dg:
                continue
            _accumulate(out, _poly_mul(df, dg).items(), scale=coeff / factorial)
    return _prune(out)


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
    pair = _pair_matrix(left.variables)
    poly = _star_series(left.poly, right.poly, right.exponent, pair)
    return GaussPoly(left.variables, left.prefactor * right.prefactor,
                     right.exponent, poly)


def star_product_poly_right(left: GaussPoly, right: GaussPoly) -> GaussPoly:
    """left star right with a pure-polynomial right factor.

    Reuses the left-factor series with the pairing transposed (B is
    antisymmetric, so the roles swap with a sign).
    """
    if left.variables != right.variables:
        raise ValueError("operands live on different variable blocks")
    _require_zero_exponent(right, "right factor")
    pair = {(a, b): -p for (a, b), p in _pair_matrix(left.variables).items()}
    poly = _star_series(right.poly, left.poly, left.exponent, pair)
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
    """n-fold star product of a Gaussian with itself (n >= 1)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("star power requires a positive integer order")
    if forms is None and n > 1:
        forms = [_infer_form(g)]
    out = g
    for _ in range(n - 1):
        out = gaussian_star(out, g, forms=forms)
    return out


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
