"""Shared test fixtures and independent numerical oracles."""

import math
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from ncphase import GaussPoly, ModelParams, PhaseVariables, derive


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def terms(poly: dict, dimension: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponent rows and coefficient vector of a {exponent tuple: coefficient}
    map, in its key order; the vector is real unless some coefficient has a
    nonzero imaginary part."""
    exps = np.array(list(poly), dtype=np.int64).reshape(len(poly), dimension)
    coeffs = np.array(list(poly.values()), dtype=complex)
    return exps, coeffs if coeffs.imag.any() else coeffs.real


def mapping(exps: np.ndarray, coeffs: np.ndarray) -> dict:
    """{exponent tuple: coefficient} of terms with distinct rows, in row order."""
    out = dict(zip(map(tuple, np.asarray(exps).tolist()), np.asarray(coeffs).tolist()))
    assert len(out) == len(coeffs), "repeated rows"
    return out


def reference_poly_mul(a, b):
    """The plain dict loop: term pairs in row order, summed into one dict,
    keys in the order first seen."""
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = tuple(e1 + e2 for e1, e2 in zip(k1, k2))
            out[k] = out.get(k, 0.0) + c1 * c2
    return out


def laguerre_by_products(n, form, scale, product=None):
    """L_n(scale * H) as it was built before the graded index: the constant,
    then each power H^k = H^(k-1) * H by `product` (`starcalc._poly_mul` by
    default), times the float coefficient c_k scale^k."""
    from ncphase.starcalc import _poly_mul
    from ncphase.wigner import _laguerre_coefficients
    product = product or _poly_mul
    h = form.poly()
    powers = [(np.zeros((1, 4), dtype=np.int64), np.ones(1)), (h.exps, h.coeffs)][:n + 1]
    while len(powers) <= n:
        powers.append(product(*powers[-1], h.exps, h.coeffs))
    factors = [float(c) * scale**k for k, c in enumerate(_laguerre_coefficients(n))]
    return (np.concatenate([e for e, _ in powers]),
            np.concatenate([f * c for f, (_, c) in zip(factors, powers)]))


def laguerre_scales(params: ModelParams) -> tuple[tuple, tuple]:
    """(H+, 4/(h+ omega)) and (H-, 4/(h- omega)): each form with its scale."""
    from ncphase import hamiltonians_pm
    dq = derive(params)
    h_plus, h_minus = hamiltonians_pm(params)
    return ((h_plus, 4.0 / (dq.h_plus * params.omega)),
            (h_minus, 4.0 / (dq.h_minus * params.omega)))


@pytest.fixture
def dict_loop_states():
    """W(i, j) with the terms of the plain dict loop: L_i(s+ H+) and
    L_j(s- H-) by products of the powers of H, each product a dict loop,
    and L_i * L_j by the dict loop too (a zero index leaves the other
    factor as it is), so the terms come in the loop's first-seen order, not
    in ascending order. Prefactor and exponent are wigner_state's."""
    from ncphase import wigner_state

    def poly_mul(ea, ca, eb, cb):
        return terms(reference_poly_mul(mapping(ea, ca), mapping(eb, cb)), ea.shape[1])

    def build(i, j, params):
        lag_i, lag_j = (laguerre_by_products(n, form, scale, poly_mul)
                        for n, (form, scale) in zip((i, j), laguerre_scales(params)))
        w = wigner_state(i, j, params).function
        return GaussPoly(w.variables, w.prefactor, w.exponent,
                         *(lag_j if i == 0 else lag_i if j == 0 else poly_mul(*lag_i, *lag_j)))
    return build


def exact_laguerre(n: int, form, scale: float) -> dict:
    """L_n(scale * H) in exact rationals, from the float entries of the
    form's matrix S (H = z^T S z, all 16 entries) and the float scale: the
    powers of H by a dict loop of Fractions."""
    h = {}
    for a, b in zip(*(axis.tolist() for axis in np.nonzero(form.matrix))):
        mono = tuple((k == a) + (k == b) for k in range(4))
        h[mono] = h.get(mono, 0) + Fraction(form.matrix[a, b])
    out, power, s = {}, {(0,) * 4: Fraction(1)}, Fraction(scale)
    for k in range(n + 1):
        factor = Fraction((-1) ** k * math.comb(n, k), math.factorial(k)) * s**k
        for mono, x in power.items():
            out[mono] = out.get(mono, 0) + factor * x
        step = {}
        for m1, x1 in power.items():
            for m2, x2 in h.items():
                m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
                step[m] = step.get(m, 0) + x1 * x2
        power = step
    return out


def exact_wigner_terms(i: int, j: int, params: ModelParams) -> dict:
    """{exponent tuple: Fraction} of L_i(s+ H+) L_j(s- H-), W(i, j) less its
    prefactor and Gaussian, exact for the same float inputs as wigner_state:
    the entries of `form.matrix` and the scales 4/(h+- omega). The product
    runs over integers, each tower brought to one denominator; exact zeros
    are left out."""
    towers = []
    for n, (form, scale) in zip((i, j), laguerre_scales(params)):
        tower = {m: x for m, x in exact_laguerre(n, form, scale).items() if x}
        den = math.lcm(*(x.denominator for x in tower.values()))
        towers.append(([(m, x.numerator * (den // x.denominator)) for m, x in tower.items()], den))
    (left, den_i), (right, den_j) = towers
    out = {}
    for (a, b, c, d), x in left:
        for (e, f, g, h), y in right:
            key = (a + e, b + f, c + g, d + h)
            out[key] = out.get(key, 0) + x * y
    return {m: Fraction(x, den_i * den_j) for m, x in out.items() if x}


def exact_error(exps: np.ndarray, coeffs: np.ndarray, exact: dict) -> float:
    """max |c - c_exact| / max |c_exact| over the monomials of either side,
    in exact arithmetic."""
    got = dict(zip(map(tuple, exps.tolist()), coeffs.tolist()))
    worst = max(abs(Fraction(got.get(m, 0.0)) - exact.get(m, 0)) for m in got.keys() | exact)
    return float(worst / max(map(abs, exact.values())))


def exact_inverse_2x2(Q) -> tuple[Fraction, list[list[Fraction]]]:
    """det(-Q) and the covariance -Q^{-1}/2 of a 2x2 exponent Q, its entries
    Fractions or floats read as exact rationals."""
    (a, b), (c, d) = ([Fraction(x) for x in row] for row in np.asarray(Q).tolist())
    det = a * d - b * c
    return det, [[-d / (2 * det), b / (2 * det)], [c / (2 * det), -a / (2 * det)]]


def exact_pair_moments(cov, top: int) -> dict:
    """{(a, b): E[x^a y^b]} of the 2-D normal with covariance cov (Fractions,
    or floats read exactly) for every a + b <= top, odd degrees left out: the
    Isserlis recursion on x first, then y, in exact rationals."""
    (c00, c01), (_, c11) = ([Fraction(x) for x in row] for row in
                            (cov.tolist() if isinstance(cov, np.ndarray) else cov))
    out = {(0, 0): Fraction(1)}
    for n in range(2, top + 1, 2):
        for a in range(n + 1):
            b = n - a
            if a:
                out[a, b] = ((a - 1) * c00 * out[a - 2, b] if a > 1 else 0) \
                    + (b * c01 * out[a - 1, b - 1] if b else 0)
            else:
                out[a, b] = (b - 1) * c11 * out[a, b - 2]
    return out


def pair_moment_error(got: np.ndarray, rows, cov, top: int) -> float:
    """max |got - exact| / (the moment under |cov|) over the rows of even
    degree, exact: the rounding error of a moment kernel in units of the
    sizes of the terms it adds."""
    exact = exact_pair_moments(cov, top)
    scale = exact_pair_moments(np.abs(cov), top)
    worst = Fraction(0)
    for x, r in zip(np.asarray(got).tolist(), map(tuple, np.asarray(rows).tolist())):
        if sum(r) % 2 == 0:
            miss = abs(Fraction(x) - exact[r])
            if miss:  # a moment with no nonzero term (c01 = 0, a and b odd) is exact
                worst = max(worst, miss / scale[r])
    return float(worst)


def exact_marginal(func: GaussPoly, keep: int, magnitude: bool = False) -> tuple:
    """The marginal of a 4-variable float function over the other oscillator,
    in exact rationals of its float exponent and coefficients: det(-Q_II) of
    the integrated block, the exponent Q_KK - Q_KI Q_II^{-1} Q_KI^T, and
    {(k0, k1): coefficient} of the polynomial (exact zeros left out). The
    prefactor is the function's times pi / sqrt(det(-Q_II)). With magnitude,
    each coefficient is instead the sum of the magnitudes of the terms that
    make it up (coefficients, shifts and moments taken by absolute value),
    the yardstick of the rounding error of a sum of those terms."""
    keep_idx, int_idx = ((0, 2), (1, 3)) if keep == 1 else ((1, 3), (0, 2))
    Q = [[Fraction(x) for x in row] for row in func.exponent.tolist()]
    QII = [[Q[i][j] for j in int_idx] for i in int_idx]
    QKI = [[Q[i][j] for j in int_idx] for i in keep_idx]
    det, cov = exact_inverse_2x2(QII)
    inv = [[-2 * cov[r][c] for c in range(2)] for r in range(2)]
    # z_I = w - A z_K, A = QII^{-1} QKI^T
    A = [[sum(inv[r][t] * QKI[c][t] for t in range(2)) for c in range(2)] for r in range(2)]
    reduced = [[Q[keep_idx[r]][keep_idx[c]] - sum(QKI[r][t] * A[t][c] for t in range(2))
                for c in range(2)] for r in range(2)]

    sign = abs if magnitude else (lambda x: x)
    shift = [[sign(-x) for x in row] for row in A]

    def power(row, n):  # (w - A[row][0] u - A[row][1] v)^n as {(j, r, s): coeff}
        out = {}
        for j in range(n + 1):
            for r in range(n - j + 1):
                s = n - j - r
                out[j, r, s] = (math.comb(n, j) * math.comb(n - j, r)
                                * shift[row][0] ** r * shift[row][1] ** s)
        return out

    top = int(func.exps[:, list(int_idx)].sum(axis=1).max(initial=0))
    moment = exact_pair_moments([[sign(x) for x in row] for row in cov], top)
    tables = {}
    poly = {}
    for mono, c in zip(func.exps.tolist(), func.coeffs.tolist()):
        pair = (mono[int_idx[0]], mono[int_idx[1]])
        if pair not in tables:
            table = {}
            for (j0, r0, s0), x0 in power(0, pair[0]).items():
                for (j1, r1, s1), x1 in power(1, pair[1]).items():
                    if (j0 + j1) % 2 == 0:
                        key = (r0 + r1, s0 + s1)
                        table[key] = table.get(key, 0) + x0 * x1 * moment[j0, j1]
            tables[pair] = table
        k0, k1, c = mono[keep_idx[0]], mono[keep_idx[1]], sign(Fraction(c))
        for (r, s), x in tables[pair].items():
            key = (k0 + r, k1 + s)
            poly[key] = poly.get(key, 0) + c * x
    return det, reduced, {m: x for m, x in poly.items() if x}


def params_for_lambda(lam: float, hbar=1.0, mass=1.0, omega=1.0) -> ModelParams:
    """A valid parameter point whose purity parameter equals lam.

    Solves delta^2 and theta jointly; lam = 1 maps to the undeformed point.
    """
    if lam == 1.0:
        return ModelParams(hbar=hbar, mass=mass, omega=omega)
    if not math.sqrt(3.0) / 3.0 < lam < 1.0:
        raise ValueError("lam must lie in (sqrt(3)/3, 1]")
    d_min = (1.0 - lam**2) / (3.0 * lam**2 - 1.0)
    dd = 4.0 * d_min
    theta = (1.0 + 2.0 * dd - (1.0 + dd) / lam**2) / dd
    delta = math.sqrt(dd)
    eta = math.sqrt(theta + dd)
    mu = hbar * (eta + delta) / (mass * omega)
    nu = hbar * mass * omega * (eta - delta)
    params = ModelParams(hbar=hbar, mass=mass, omega=omega, mu=mu, nu=nu)
    assert abs(derive(params).lam - lam) < 1e-9, "helper self-check"
    return params


# 60 digits, with an exponent range that holds (1 + lam)^n for n = 10**9
DECIMAL = Context(prec=60, Emax=MAX_EMAX, Emin=MIN_EMIN)
PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def decimal(x: Fraction) -> Decimal:
    """x to the precision of the current decimal context."""
    return Decimal(x.numerator) / Decimal(x.denominator)


def decimal_beta(n: int, lam: float) -> Decimal:
    """beta_n(lam) = [(1+lam)^n - (1-lam)^n] / (2 lam) in 60-digit decimal."""
    with localcontext(DECIMAL):
        x = Decimal(lam)
        return ((1 + x) ** n - (1 - x) ** n) / (2 * x)


def decimal_entropy(kind: str, n: int, lam: float) -> float:
    """Renyi or Tsallis entropy of integer order n at lam, the paper's
    formulas in beta_n evaluated in 60-digit decimal."""
    beta = decimal_beta(n, lam)
    with localcontext(DECIMAL):
        x = Decimal(lam)
        if kind == "renyi":
            return float(beta.ln() / (n - 1) - (2 * x).ln())
        return float((1 - (2 * x) ** (n - 1) / beta) / (n - 1))


def trapezoid_integrate(func: GaussPoly, sigmas: float = 8.0,
                        nodes: int = 201) -> float:
    """Dense trapezoid quadrature over [-sigmas, +sigmas] marginal widths.

    Deliberately independent of the moment-formula route; test-suite only.
    """
    d = func.variables.dimension
    cov = -0.5 * np.linalg.inv(func.exponent)
    widths = np.sqrt(np.diag(cov))
    axes = [np.linspace(-sigmas * w, sigmas * w, nodes) for w in widths]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    vals = np.real(func.value(pts)).reshape([nodes] * d)
    for axis in reversed(range(d)):
        vals = np.trapezoid(vals, axes[axis], axis=axis)
    return float(vals)


def random_gauss_poly(rng, dimension: int = 2, max_degree: int = 4,
                      hbar: float = 1.0) -> GaussPoly:
    """A random normalizable GaussPoly with a bounded-degree polynomial part."""
    variables = PhaseVariables(dimension, hbar=hbar)
    a = rng.normal(size=(dimension, dimension))
    exponent = -(a.T @ a + 0.4 * np.eye(dimension))
    poly = {}
    n_terms = int(rng.integers(1, 6))
    for _ in range(n_terms):
        while True:
            mono = tuple(int(rng.integers(0, max_degree + 1))
                         for _ in range(dimension))
            if sum(mono) <= max_degree:
                break
        poly[mono] = float(rng.normal())
    poly[(0,) * dimension] = poly.get((0,) * dimension, 0.0) + 2.0
    return GaussPoly(variables, float(rng.uniform(0.5, 2.0)), exponent,
                     *terms(poly, dimension))


def random_symplectic(rng, n_pairs: int = 2) -> np.ndarray:
    """Random canonical symplectic matrix (block ordering: positions, momenta)."""
    n = n_pairs
    eye = np.eye(n)
    c = rng.normal(size=(n, n), scale=0.5)
    c = 0.5 * (c + c.T)
    d = rng.normal(size=(n, n), scale=0.5)
    d = 0.5 * (d + d.T)
    a = np.eye(n) + rng.normal(size=(n, n), scale=0.3)
    shear_low = np.block([[eye, np.zeros((n, n))], [c, eye]])
    shear_up = np.block([[eye, d], [np.zeros((n, n)), eye]])
    scale = np.block([[a, np.zeros((n, n))],
                      [np.zeros((n, n)), np.linalg.inv(a).T]])
    return shear_low @ scale @ shear_up
