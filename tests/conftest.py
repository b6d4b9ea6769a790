"""Shared test fixtures and independent numerical oracles."""

import math
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext

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


@pytest.fixture
def dict_loop_states(monkeypatch):
    """wigner_state multiplies with the plain dict loop, the powers of H+ and
    H- included, so each state's terms come in the loop's first-seen order,
    not in ascending order."""
    import ncphase.wigner as wg

    def poly_mul(ea, ca, eb, cb):
        return terms(reference_poly_mul(mapping(ea, ca), mapping(eb, cb)), ea.shape[1])

    def form_powers(h, n):
        powers = [(h.exps, h.coeffs)]
        while len(powers) < n:
            powers.append(poly_mul(*powers[-1], h.exps, h.coeffs))
        return (np.concatenate([e for e, _ in powers[1:]]),
                np.concatenate([c for _, c in powers[1:]]),
                np.repeat(np.arange(2, n + 1), [len(c) for _, c in powers[1:]]))
    monkeypatch.setattr(wg, "_poly_mul", poly_mul)
    monkeypatch.setattr(wg, "_form_powers", form_powers)


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
_DECIMAL = Context(prec=60, Emax=MAX_EMAX, Emin=MIN_EMIN)


def decimal_beta(n: int, lam: float) -> Decimal:
    """beta_n(lam) = [(1+lam)^n - (1-lam)^n] / (2 lam) in 60-digit decimal."""
    with localcontext(_DECIMAL):
        x = Decimal(lam)
        return ((1 + x) ** n - (1 - x) ** n) / (2 * x)


def decimal_entropy(kind: str, n: int, lam: float) -> float:
    """Renyi or Tsallis entropy of integer order n at lam, the paper's
    formulas in beta_n evaluated in 60-digit decimal."""
    beta = decimal_beta(n, lam)
    with localcontext(_DECIMAL):
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
