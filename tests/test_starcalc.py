import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncphase import (
    GaussPoly,
    ModelParams,
    PhaseVariables,
    QuadraticForm,
    derive,
    gaussian_star,
    hamiltonians_pm,
    integrate,
    k_constant,
    reduce,
    star_exp,
    star_log_gaussian,
    star_power,
    star_product_poly_left,
    star_product_poly_right,
    wigner_state,
)
from ncphase import starcalc
from ncphase.starcalc import (
    _MUL_BLOCK,
    _infer_form,
    _poly_mul,
    grid_values,
)

V2 = PhaseVariables(2, hbar=1.0)


def two_square_1d(ax: float, bp: float) -> QuadraticForm:
    """H = ax * x^2 + bp * p^2 over the reduced pair."""
    return QuadraticForm(V2, a=(math.sqrt(ax),), b=(0.0,),
                         c=(0.0,), d=(math.sqrt(bp),))


class TestPhaseVariables:
    def test_reduced_block_refuses_a_deformation(self):
        for mu, nu in [(0.3, 0.5), (0.3, 0.0), (0.0, -0.5)]:
            with pytest.raises(ValueError, match="no mu or nu"):
                PhaseVariables(2, mu=mu, nu=nu)

    def test_reduced_and_full_blocks(self):
        v2 = PhaseVariables(2, hbar=1.5)
        assert (v2.mu, v2.nu) == (0.0, 0.0)
        assert np.array_equal(v2.deformation_matrix(), [[0.0, 1.5], [-1.5, 0.0]])
        v4 = PhaseVariables(4, hbar=1.5, mu=0.3, nu=0.5)
        assert (v4.mu, v4.nu) == (0.3, 0.5)


class TestKConstant:
    def test_simplest_diagonal_case(self):
        # H = a x^2 + b p^2 gives k = hbar sqrt(a b)
        form = two_square_1d(2.0, 0.5)
        assert k_constant(form) == pytest.approx(1.0, rel=1e-14)
        assert form.k == k_constant(form)

    def test_only_ad_term_survives(self):
        v4 = PhaseVariables(4, hbar=1.0, mu=0.7, nu=0.4)
        form = QuadraticForm(v4, a=(1.0, 0.0), b=(0.0, 0.0),
                             c=(0.0, 0.0), d=(1.0, 0.0))
        assert form.k == pytest.approx(1.0, rel=1e-14)

    def test_explicit_formula_matches_pairing(self):
        # spelled-out wedge form versus u^T B v on a crooked example
        v4 = PhaseVariables(4, hbar=1.3, mu=0.2, nu=-0.1)
        a, b, c, d = (0.3, -0.7), (0.5, 0.2), (1.1, 0.4), (-0.6, 0.9)
        form = QuadraticForm(v4, a, b, c, d)
        explicit = (1.3 * (np.dot(a, d) - np.dot(b, c))
                    + 0.2 * (a[0] * c[1] - a[1] * c[0])
                    + -0.1 * (b[0] * d[1] - b[1] * d[0]))
        pairing = float(form.first_form @ v4.deformation_matrix()
                        @ form.second_form)
        assert form.k == pytest.approx(explicit, rel=1e-14)
        assert form.k == pytest.approx(pairing, rel=1e-14)

    def test_mode_hamiltonian_k_matches_spectrum_scale(self):
        params = ModelParams(mu=0.3, nu=0.1)
        dq = derive(params)
        h_plus, h_minus = hamiltonians_pm(params)
        assert abs(h_plus.k) == pytest.approx(dq.h_plus * params.omega / 2,
                                              rel=1e-12)
        assert abs(h_minus.k) == pytest.approx(dq.h_minus * params.omega / 2,
                                               rel=1e-12)

    def test_ground_state_mode_factor_is_idempotent(self):
        # the exp(-2H+/(h+ w)) factor star-squares onto itself (scaled by 1/2)
        params = ModelParams(mu=0.3, nu=0.1)
        dq = derive(params)
        h_plus, _ = hamiltonians_pm(params)
        g = GaussPoly.gaussian(h_plus.variables, 1.0,
                               (-2.0 / (dq.h_plus * params.omega)) * h_plus.matrix)
        sq = gaussian_star(g, g, forms=[h_plus])
        assert sq.prefactor == pytest.approx(0.5, rel=1e-12)
        assert np.abs(sq.exponent - g.exponent).max() < 1e-12


class TestStarExp:
    def test_t_zero_is_identity(self):
        form = two_square_1d(1.0, 1.0)
        g = star_exp(form, 0.0)
        assert g.prefactor == 1.0
        assert np.abs(g.exponent).max() == 0.0
        assert g.poly == {(0, 0): 1.0}

    def test_unit_oscillator_closed_form(self):
        # H = x^2 + p^2, hbar = 1, t = 1: (1/cosh 1) exp((x^2+p^2) tanh 1)
        form = two_square_1d(1.0, 1.0)
        g = star_exp(form, 1.0)
        assert g.prefactor == pytest.approx(1.0 / math.cosh(1.0), rel=1e-15)
        assert np.allclose(g.exponent, math.tanh(1.0) * np.eye(2), atol=1e-15)

    def test_zero_k_analytic_limit(self):
        form = QuadraticForm(V2, a=(1.0,), b=(0.0,), c=(0.0,), d=(0.0,))
        assert form.k == 0.0
        g = star_exp(form, -0.7)
        assert g.prefactor == 1.0
        assert np.allclose(g.exponent, np.diag([-0.7, 0.0]), atol=1e-15)

    def test_overflow_rejected(self):
        form = two_square_1d(1.0, 1.0)
        with pytest.raises(ValueError):
            star_exp(form, 1e4)

    @pytest.mark.parametrize("t1,t2", [(0.3, 0.4), (-0.5, 0.2), (-1.1, -0.4)])
    def test_group_law(self, t1, t2):
        form = two_square_1d(1.5, 0.4)
        lhs = gaussian_star(star_exp(form, t1), star_exp(form, t2), forms=[form])
        rhs = star_exp(form, t1 + t2)
        assert lhs.prefactor == pytest.approx(rhs.prefactor, rel=1e-10)
        assert np.abs(lhs.exponent - rhs.exponent).max() < 1e-10

    def test_evolution_equation_finite_differences(self):
        # d/dt exp_*(Ht) = (H - k^2 d_H - k^2 H d_H^2) exp_*(Ht) pointwise
        form = two_square_1d(1.2, 0.8)
        k = form.k
        pts = np.array([[0.3, -0.2], [1.0, 0.5], [-0.7, 1.1], [0.0, 0.0]])
        h_vals = np.einsum("ni,ij,nj->n", pts, form.matrix, pts)
        for t in (-0.8, -0.2, 0.35):
            dt = 1e-6
            lhs = (star_exp(form, t + dt).value(pts)
                   - star_exp(form, t - dt).value(pts)) / (2 * dt)
            s = math.tanh(k * t) / k
            f = star_exp(form, t).value(pts)
            rhs = f * (h_vals - k**2 * s - k**2 * h_vals * s**2)
            assert np.abs(lhs - rhs).max() <= 1e-4 * np.abs(rhs).max()


class TestPolynomialStarProduct:
    def test_identity_left_factor(self):
        one = GaussPoly.constant(V2, 1.0)
        g = GaussPoly(V2, 2.0, -0.5 * np.eye(2), {(1, 0): 1.0, (0, 0): 0.3})
        out = star_product_poly_left(one, g)
        assert out.prefactor == pytest.approx(2.0)
        assert np.allclose(out.exponent, g.exponent)
        for key, val in g.poly.items():
            assert out.poly[key] == pytest.approx(val)

    def test_canonical_commutator(self):
        x = GaussPoly(V2, 1.0, np.zeros((2, 2)), {(1, 0): 1.0})
        p = GaussPoly(V2, 1.0, np.zeros((2, 2)), {(0, 1): 1.0})
        xp = star_product_poly_left(x, p)
        px = star_product_poly_left(p, x)
        # symmetric parts agree, antisymmetric parts are +-hbar/2
        assert xp.real_part().poly == {(1, 1): 1.0}
        assert px.real_part().poly == {(1, 1): 1.0}
        assert xp.imag_part().poly == {(0, 0): 0.5}
        assert px.imag_part().poly == {(0, 0): -0.5}

    def test_left_and_right_factors_agree_on_commuting_pair(self):
        # H star W = W star H for the eigenfunction pair
        params = ModelParams(mu=0.2, nu=0.1)
        state = wigner_state(0, 0, params)
        from ncphase import oscillator_hamiltonian
        h = oscillator_hamiltonian(params)
        left = star_product_poly_left(h, state.function)
        right = star_product_poly_right(state.function, h)
        keys = set(left.poly) | set(right.poly)
        diff = max(abs(left.poly.get(k, 0.0) - right.poly.get(k, 0.0))
                   for k in keys)
        assert diff < 1e-12

    def test_eigen_equation_residual_on_grid(self):
        from ncphase import genvalue_residual
        from ncphase.wigner import residual_grid
        params = ModelParams(mu=0.2, nu=0.1)
        state = wigner_state(0, 0, params)
        scale = np.abs(state.function.value(
            residual_grid(state.function))).max()
        assert genvalue_residual(state, params) <= 1e-8 * scale

    def test_imaginary_part_vanishes_for_eigenfunctions(self):
        from ncphase import oscillator_hamiltonian
        params = ModelParams(mu=0.2, nu=0.1)
        state = wigner_state(1, 1, params)
        h = oscillator_hamiltonian(params)
        out = star_product_poly_left(h, state.function)
        top = max(abs(c) for c in out.poly.values())
        assert out.max_imag_coefficient() <= 1e-10 * top

    def test_nonzero_left_exponent_rejected(self):
        g = GaussPoly.gaussian(V2, 1.0, -np.eye(2))
        with pytest.raises(ValueError):
            star_product_poly_left(g, g)


class TestGaussPolyAlgebra:
    def test_add_requires_matching_exponents(self):
        g1 = GaussPoly.gaussian(V2, 1.0, -np.eye(2))
        g2 = GaussPoly.gaussian(V2, 1.0, -2.0 * np.eye(2))
        with pytest.raises(ValueError):
            g1 + g2

    def test_add_rejects_exponents_a_relative_tolerance_would_pass(self):
        # within numpy's default rtol = 1e-5, but 4.5e-5 off at z = (3, 3)
        g1 = GaussPoly.gaussian(V2, 1.0, -np.eye(2))
        g2 = GaussPoly.gaussian(V2, 1.0, -np.eye(2) * (1.0 + 5e-6))
        with pytest.raises(ValueError, match="different Gaussian exponents"):
            g1 + g2

    def test_exponent_symmetry_has_no_relative_tolerance(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussPoly.gaussian(V2, 1.0, np.array([[-1.0, 1.0], [1.0 + 5e-6, -1.0]]))
        GaussPoly.gaussian(V2, 1.0, np.array([[-1.0, 1.0], [1.0 + 1e-13, -1.0]]))

    def test_add_folds_prefactors(self):
        g1 = GaussPoly(V2, 2.0, -np.eye(2), {(1, 0): 1.0})
        g2 = GaussPoly(V2, 3.0, -np.eye(2), {(1, 0): 1.0, (0, 0): 1.0})
        total = g1 + g2
        pts = np.array([[0.3, -0.4], [1.0, 0.2]])
        assert np.allclose(total.value(pts), g1.value(pts) + g2.value(pts))

    def test_pointwise_product_values(self, rng):
        from conftest import random_gauss_poly
        f = random_gauss_poly(rng, 2)
        g = random_gauss_poly(rng, 2)
        pts = rng.normal(size=(50, 2))
        assert np.allclose(f.pointwise_mul(g).value(pts),
                           f.value(pts) * g.value(pts), rtol=1e-12)


def reference_value(func: GaussPoly, points) -> np.ndarray:
    """Per-monomial evaluation with numpy powers, independent of the blocked
    power-table route."""
    pts = np.asarray(points, dtype=float)
    acc = np.zeros(pts.shape[:-1], dtype=complex)
    for mono, coeff in func.poly.items():
        term = np.full(pts.shape[:-1], complex(coeff))
        for axis, power in enumerate(mono):
            term = term * pts[..., axis] ** power
        acc += term
    quad = np.einsum("...i,ij,...j->...", pts, func.exponent, pts)
    return func.prefactor * acc * np.exp(quad)


def assert_matches_reference(func: GaussPoly, points) -> np.ndarray:
    got = func.value(points)
    want = reference_value(func, points)
    assert np.shape(got) == want.shape
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= 1e-13 * scale
    return got


class TestGaussPolyValue:
    def test_real_coefficients_batched_2d(self, rng):
        from conftest import random_gauss_poly
        for _ in range(5):
            f = random_gauss_poly(rng, 2, max_degree=6)
            got = assert_matches_reference(f, rng.normal(size=(5, 7, 2)))
            assert np.isrealobj(got)

    def test_complex_coefficients_4d(self, rng):
        v4 = PhaseVariables(4, hbar=1.0, mu=0.3, nu=0.1)
        a = rng.normal(size=(4, 4))
        poly = {tuple(int(e) for e in rng.integers(0, 4, size=4)):
                complex(*rng.normal(size=2)) for _ in range(30)}
        f = GaussPoly(v4, 0.7, -(a.T @ a + 0.5 * np.eye(4)), poly)
        got = assert_matches_reference(f, rng.normal(size=(40, 4)))
        assert np.iscomplexobj(got)

    def test_empty_polynomial(self):
        f = GaussPoly(V2, 2.0, -np.eye(2), {})
        got = f.value(np.ones((3, 4, 2)))
        assert got.shape == (3, 4) and np.isrealobj(got)
        assert not got.any()
        assert f.value(np.array([0.5, -0.5])) == 0.0

    def test_single_point_matches_batch(self, rng):
        from conftest import random_gauss_poly
        f = random_gauss_poly(rng, 2, max_degree=5)
        pts = rng.normal(size=(6, 2))
        batch = f.value(pts)
        for z, want in zip(pts, batch):
            got = assert_matches_reference(f, z)
            assert np.shape(got) == ()
            assert abs(got - want) <= 1e-13 * np.abs(batch).max()

    def test_polynomial_spanning_several_blocks(self):
        from ncphase import oscillator_hamiltonian
        from ncphase.starcalc import _VALUE_BLOCK
        from ncphase.wigner import residual_grid
        params = ModelParams(mu=0.3, nu=0.1)
        w = wigner_state(3, 3, params).function
        hw = star_product_poly_left(oscillator_hamiltonian(params), w)
        pts = residual_grid(hw, points_per_axis=6)
        assert len(hw.poly) * len(pts) > 4 * _VALUE_BLOCK
        assert_matches_reference(hw, pts)
        assert_matches_reference(w, pts.reshape(6, 6, 36, 4))


def reference_poly_mul(a, b):
    """The plain dict loop: term pairs in row order, summed into one dict."""
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = tuple(e1 + e2 for e1, e2 in zip(k1, k2))
            out[k] = out.get(k, 0.0) + c1 * c2
    return out


def hex_terms(poly) -> list:
    """Keys in order, each with float.hex of its coefficient's parts."""
    out = []
    for k, c in poly.items():
        if isinstance(c, complex):
            out.append((k, "complex", c.real.hex(), c.imag.hex()))
        else:
            out.append((k, "real", float(c).hex()))
    return out


def random_poly(rng, terms: int, dim: int, top: int, kind: str) -> dict:
    out = {}
    while len(out) < terms:
        mono = tuple(int(e) for e in rng.integers(0, top + 1, size=dim))
        c = float(rng.normal())
        out[mono] = complex(c, float(rng.normal())) if kind == "complex" else c
    return out


def small_poly(dim: int, kind: str):
    """Up to 12 terms; a complex coefficient has a nonzero imaginary part."""
    real = st.floats(-1e3, 1e3)
    coeff = real if kind == "real" else st.builds(complex, real, real.filter(bool))
    return st.dictionaries(st.tuples(*[st.integers(0, 30)] * dim), coeff, max_size=12)


def assert_bit_identical(a, b):
    got = _poly_mul(a, b)
    want = reference_poly_mul(a, b)
    assert hex_terms(got) == hex_terms(want)
    return got


class TestPolyMul:
    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("kinds", [("real", "real"), ("real", "complex"),
                                       ("complex", "real"), ("complex", "complex")])
    def test_matches_dict_loop(self, rng, dim, kinds):
        top = 6 if dim == 4 else 20
        a = random_poly(rng, 120, dim, top, kinds[0])
        b = random_poly(rng, 90, dim, top, kinds[1])
        assert len(a) * len(b) > _MUL_BLOCK  # more than one block
        assert_bit_identical(a, b)
        assert_bit_identical(b, a)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([2, 4]),
           kinds=st.tuples(*[st.sampled_from(["real", "complex"])] * 2))
    def test_small_products_match_dict_loop(self, data, dim, kinds):
        a, b = (data.draw(small_poly(dim, kind)) for kind in kinds)
        assert_bit_identical(a, b)

    def test_mixed_coefficient_types_in_one_operand(self, rng):
        """One complex coefficient makes the whole product complex: the dict
        loop's keys in its order, its real parts, its imaginary parts where it
        gave a complex value and +0.0 where it gave a real one."""
        a = random_poly(rng, 40, 4, 4, "real")
        b = random_poly(rng, 40, 4, 4, "real")
        b.update(random_poly(rng, 20, 4, 4, "complex"))
        for x, y in [(a, b), (b, a)]:
            got, want = _poly_mul(x, y), reference_poly_mul(x, y)
            assert {type(c) for c in want.values()} == {float, complex}
            assert list(got) == list(want)
            for k, c in got.items():
                assert isinstance(c, complex)
                w = complex(want[k])
                assert c.real.hex() == w.real.hex()
                assert c.imag.hex() == w.imag.hex()

    def test_empty_operand(self, rng):
        a = random_poly(rng, 300, 4, 5, "real")
        assert assert_bit_identical(a, {}) == {}
        assert assert_bit_identical({}, a) == {}

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_one_term_operand(self, rng, kind):
        one = random_poly(rng, 1, 4, 3, kind)
        b = random_poly(rng, 512, 4, 8, "real")
        assert_bit_identical(one, b)
        assert_bit_identical(b, one)

    def test_exponents_too_large_to_pack(self):
        big = 10**5
        a = {(big + i, big, big, big): 1.0 + i for i in range(20)}
        b = {(i, big, big, 2 * big): 2.0 - i for i in range(20)}
        assert_bit_identical(a, b)

    def test_exponent_spread_too_large_to_pack(self):
        spread = 10**5  # radix 2 * 10**5 + 1 on each of 4 axes overflows int64
        a = {(0, 0, 0, 0): 1.0, (spread,) * 4: 2.0}
        b = {(0, 0, 0, 0): 3.0, (spread,) * 4: 4.0}
        with pytest.raises(ValueError, match="too large to pack"):
            _poly_mul(a, b)

    def test_more_keys_than_one_block(self, rng):
        a = random_poly(rng, 200, 4, 15, "complex")
        b = random_poly(rng, 200, 4, 15, "complex")
        got = assert_bit_identical(a, b)
        assert len(got) > _MUL_BLOCK

    def test_laguerre_product_spanning_many_blocks(self):
        from ncphase.wigner import _laguerre_of_form
        params = ModelParams(mu=0.2, nu=0.1)
        dq = derive(params)
        h_plus, h_minus = hamiltonians_pm(params)
        lag_i = _laguerre_of_form(6, h_plus.poly().poly, 4.0 / dq.h_plus, 4)
        lag_j = _laguerre_of_form(6, h_minus.poly().poly, 4.0 / dq.h_minus, 4)
        assert len(lag_i) * len(lag_j) > 4 * _MUL_BLOCK
        assert_bit_identical(lag_i, lag_j)

    def test_wigner_state_has_reference_polynomial(self, monkeypatch):
        import ncphase.wigner as wg
        params = ModelParams(mu=0.2, nu=0.1)
        got = wigner_state(6, 6, params).function.poly
        monkeypatch.setattr(wg, "_poly_mul", reference_poly_mul)
        want = wigner_state(6, 6, params).function.poly
        assert hex_terms(got) == hex_terms(want)

    @pytest.mark.parametrize("i,j", [(0, 0), (3, 0), (0, 2), (2, 3)])
    def test_wigner_state_matches_plain_laguerre_loop(self, i, j):
        """Powers of H from H itself, and a zero index taken as the factor 1,
        give the plain loop's bits: powers from 1, then L_i * L_j."""
        from ncphase.wigner import _laguerre_coefficients
        params = ModelParams(mu=0.2, nu=0.1)
        dq = derive(params)

        def laguerre(n, form, scale):
            coeffs = _laguerre_coefficients(n)
            out, power = {(0,) * 4: float(coeffs[0])}, {(0,) * 4: 1.0}
            for k in range(1, n + 1):
                power = reference_poly_mul(power, form)
                starcalc._accumulate(out, power.items(), scale=float(coeffs[k]) * scale**k)
            return out

        h_plus, h_minus = hamiltonians_pm(params)
        want = reference_poly_mul(
            laguerre(i, h_plus.poly().poly, 4.0 / (dq.h_plus * params.omega)),
            laguerre(j, h_minus.poly().poly, 4.0 / (dq.h_minus * params.omega)))
        got = wigner_state(i, j, params).function.poly
        assert hex_terms(got) == hex_terms({k: c for k, c in want.items() if c != 0})


def _product(x, y):
    return x * y if x and y else 0


def _sum(x, y):
    return x + y if x and y else x or y


class Exact:
    """A complex rational re + i*im, each part a Fraction or the int 0.

    Zero parts skip their products, so real and imaginary operands cost one
    Fraction product.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re, self.im = re, im

    @staticmethod
    def of(x) -> "Exact":
        if isinstance(x, Exact):
            return x
        if isinstance(x, (int, Fraction)):
            return Exact(x)
        x = complex(x)
        return Exact(Fraction(x.real) if x.real else 0, Fraction(x.imag) if x.imag else 0)

    def __add__(self, other):
        other = Exact.of(other)
        return Exact(_sum(self.re, other.re), _sum(self.im, other.im))

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Exact(_product(self.re, other), _product(self.im, other))
        other = Exact.of(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return Exact(_sum(_product(a, c), -_product(b, d)),
                     _sum(_product(a, d), _product(b, c)))

    __rmul__ = __mul__

    def __truediv__(self, n: int):
        return Exact(self.re and Fraction(self.re, n), self.im and Fraction(self.im, n))

    def __complex__(self):
        return complex(float(self.re), float(self.im))


def reference_poly_diff(poly, axis):
    return {starcalc._shift(k, axis, -1): c * k[axis] for k, c in poly.items() if k[axis]}


def add_into(out, terms):
    for k, c in terms:
        out[k] = out.get(k, 0) + c


def reference_gauss_diff(poly, axis, Q):
    """Polynomial part of d/dz_axis [poly * exp(z Q z)]."""
    out = reference_poly_diff(poly, axis)
    for j in range(len(Q)):
        if Q[axis][j] != 0:
            add_into(out, ((starcalc._shift(k, j, 1), c * (2 * Q[axis][j]))
                           for k, c in poly.items()))
    return out


def exact_star_orders(fpoly, gpoly, gQ, pair):
    """The order-n terms of f star g by the (alpha, beta) path sum, in exact
    complex rationals and unpruned.

    Each n-step path of pairing entries pair[a, b] adds its product to the
    pair of multi-indices it reaches, and each pair adds coeff / n!
    D^alpha f D^beta g, with D^beta acting on g exp(z gQ z); the f parts
    of one beta are summed before the product. Negating the pairing
    negates the odd orders.
    """
    shift = starcalc._shift
    zero = (0,) * len(gQ)
    deg = max((sum(k) for k in fpoly), default=0)
    Q = [[Fraction(float(q)) for q in row] for row in gQ]

    def derivative(cache, step, alpha):
        if alpha not in cache:
            axis = next(i for i, n in enumerate(alpha) if n)
            cache[alpha] = step(derivative(cache, step, shift(alpha, axis, -1)), axis)
        return cache[alpha]

    f_cache = {zero: {k: Exact.of(c) for k, c in fpoly.items()}}
    g_cache = {zero: {k: Exact.of(c) for k, c in gpoly.items()}}

    def g_step(poly, axis):
        return reference_gauss_diff(poly, axis, Q)

    terms = {(zero, zero): Exact(1)}
    orders = []
    factorial = 1
    for order in range(deg + 1):
        if order:
            factorial *= order
            nxt = {}
            for (al, be), coeff in terms.items():
                for (a, b), pab in pair.items():
                    key = (shift(al, a, 1), shift(be, b, 1))
                    nxt[key] = nxt.get(key, 0) + coeff * pab
            terms = nxt
        f_parts = {}
        for (al, be), coeff in terms.items():
            scale = coeff / factorial
            df = derivative(f_cache, reference_poly_diff, al)
            add_into(f_parts.setdefault(be, {}), ((k, c * scale) for k, c in df.items()))
        orders.append({})
        for be, part in f_parts.items():
            if part:
                dg = derivative(g_cache, g_step, be)
                add_into(orders[-1], reference_poly_mul(part, dg).items())
    return orders


def series_and_exact(f, g, Q, variables):
    """(array series, exact path sum) for half = B/2 and for half = -B/2,
    the pairing of star_product_poly_left and of star_product_poly_right."""
    B = variables.deformation_matrix()
    pair = {(a, b): Exact(0, Fraction(float(B[a, b])) / 2) for a, b in zip(*np.nonzero(B))}
    orders = exact_star_orders(f, g, Q, pair)
    out = []
    for sign in (1, -1):
        exact = {}
        for n, term in enumerate(orders):
            add_into(exact, term.items() if sign**n == 1 else
                     ((k, c * -1) for k, c in term.items()))
        out.append((starcalc._star_series(f, g, Q, sign * 0.5 * B), exact))
    return out


def assert_near_exact(got, exact, rel=1e-14):
    """Every coefficient within rel * max|exact|, a key missing on one side
    counting as 0."""
    want = {k: complex(c) for k, c in exact.items()}
    scale = max(map(abs, want.values()), default=0.0)
    for k in got.keys() | want.keys():
        assert abs(got.get(k, 0.0) - want.get(k, 0.0)) <= rel * scale, k


ANCHORS = [(0.0, 0.0), (0.2, 0.1), (3.0, -0.3), (1.0, 0.999)]


class TestStarSeries:
    @pytest.mark.parametrize("mu,nu", ANCHORS)
    @pytest.mark.parametrize("i,j", [(0, 0), (1, 0), (2, 1), (0, 3), (3, 3), (6, 0)])
    def test_matches_dict_loop_on_eigenstates(self, mu, nu, i, j):
        # the path sum of the dict loop, in exact arithmetic: also at
        # (1, 0.999), where the exponent's entries near 1e3 cancel
        from ncphase import oscillator_hamiltonian
        params = ModelParams(mu=mu, nu=nu)
        w = wigner_state(i, j, params).function
        h = oscillator_hamiltonian(params).poly
        for got, exact in series_and_exact(h, w.poly, w.exponent, w.variables):
            assert_near_exact(got, exact)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 4]),
           f_kind=st.sampled_from(["real", "complex"]),
           g_kind=st.sampled_from(["real", "complex"]))
    def test_matches_dict_loop_on_random_polynomials(self, seed, dim, f_kind, g_kind):
        rng = np.random.default_rng(seed)
        hbar, mu, nu = float(rng.uniform(0.3, 2.0)), float(rng.normal()), float(rng.normal())
        # a 2-variable block has no mu or nu
        variables = (PhaseVariables(4, hbar=hbar, mu=mu, nu=nu) if dim == 4
                     else PhaseVariables(2, hbar=hbar))
        # f of total degree <= 3: the series has one order per degree
        f = {k: c for k, c in random_poly(rng, 6, dim, 3, f_kind).items() if sum(k) <= 3}
        f = f or {(0,) * dim: 1.0}
        g = random_poly(rng, int(rng.integers(1, 25)), dim, 5, g_kind)
        a = rng.normal(size=(dim, dim))
        Q = -(a.T @ a + 0.1 * np.eye(dim))
        kind = rng.random()
        if kind < 0.3:  # sparse exponents skip shift terms
            Q = np.diag(np.diag(Q))
        elif kind < 0.5:  # a pure polynomial: some derivatives vanish
            Q = np.zeros((dim, dim))
        for got, exact in series_and_exact(f, g, Q, variables):
            assert_near_exact(got, exact)
        if f_kind == g_kind == "real":
            # the product is Hermitian: g * f = conj(f * g) for real f and g,
            # which lets the eigen check build H*W alone
            fp = GaussPoly(variables, 1.0, np.zeros((dim, dim)), f)
            gp = GaussPoly(variables, 1.0, Q, g)
            left = star_product_poly_left(fp, gp).poly
            right = star_product_poly_right(gp, fp).poly
            # key for key and bit for bit, but for the sign of a zero part
            assert list(right) == list(left)
            assert ([c.conjugate() for c in map(complex, left.values())]
                    == [complex(c) for c in right.values()])

    def test_each_pass_keeps_every_nonzero_coefficient(self):
        # E_0 = d/dx2 of x2 + 5e-13 x2^2 + 1e6 x2^3: the 1e-12 x2 term stays
        # (a cut relative to 3e6 would drop it), whatever pass follows, empty
        # or not
        from ncphase.starcalc import _gauss_passes, _radix_weights
        radix = np.array([5, 5])
        weight = _radix_weights(radix)
        half = np.array([[0.0, 1.0], [-1.0, 0.0]])
        poly = (np.array([1, 2, 3]), np.array([1.0, 5e-13, 1e6]))
        empty = (np.empty(0, dtype=np.int64), np.empty(0))
        for before, after in [(0, 0), (0, 1), (1, 1), (2, 0)]:
            polys = [empty] * before + [poly] + [empty] * after
            out = _gauss_passes(polys, [0] * len(polys), half, np.zeros((2, 2)),
                                weight, radix)
            keys, vals = out.pop(before)
            assert keys.tolist() == [0, 1, 2] and vals.tolist() == [1.0, 1e-12, 3e6]
            assert all(len(k) == 0 for k, _ in out)

    def test_empty_operands(self):
        v4 = PhaseVariables(4, hbar=1.0, mu=0.2, nu=0.1)
        one = {(0, 0, 0, 0): 1.0}
        for got, exact in (series_and_exact({}, one, -np.eye(4), v4)
                           + series_and_exact(one, {}, -np.eye(4), v4)):
            assert got == exact == {}

    def test_exponents_too_large_to_pack(self):
        half = 0.5 * PhaseVariables(2, hbar=1.0).deformation_matrix()
        with pytest.raises(ValueError, match="too large"):
            starcalc._star_series({(1, 1): 1.0}, {(2**31, 2**31): 1.0}, -np.eye(2), half)


def exact_value(func: GaussPoly, points) -> np.ndarray:
    """The polynomial part summed in exact rationals at each point, times the
    prefactor and exp(z Q z) in floating point."""
    terms = [(k, Fraction(complex(c).real), Fraction(complex(c).imag))
             for k, c in func.poly.items()]
    out = []
    for z in np.asarray(points):
        zf = [Fraction(float(v)) for v in z]
        re = im = Fraction(0)
        for k, cr, ci in terms:
            mono = math.prod(x ** e for x, e in zip(zf, k))
            re += cr * mono
            im += ci * mono
        out.append(complex(float(re), float(im)))
    quad = np.einsum("ni,ij,nj->n", points, func.exponent, points)
    return func.prefactor * np.array(out) * np.exp(quad)


def tensor_points(axes) -> np.ndarray:
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


class TestGridValues:
    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_value(self, rng, dim, kind):
        variables = PhaseVariables(dim, hbar=1.0)
        a = rng.normal(size=(dim, dim))
        Q = -(a.T @ a + 0.5 * np.eye(dim))
        funcs = [GaussPoly(variables, float(rng.uniform(0.5, 2.0)), Q,
                           random_poly(rng, 40, dim, 6, kind)) for _ in range(3)]
        axes = [np.sort(rng.normal(size=n)) for n in (5, 7, 4, 6)[:dim]]
        pts = tensor_points(axes)
        for func, got in zip(funcs, grid_values(funcs, axes)):
            want = func.value(pts)
            assert got.shape == want.shape
            assert np.iscomplexobj(got) == (kind == "complex")
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    # at (1, 0.999) the exponent's entries near 1e3 cancel in z Q z and in
    # the polynomial, and the two evaluators part from (2,1) on (5e-5 of
    # max|W| at (3,3)), each as far from exact sums as the other
    @pytest.mark.parametrize("mu,nu", ANCHORS[:3])
    @pytest.mark.parametrize("i,j", [(0, 0), (1, 0), (2, 1), (0, 3), (3, 3)])
    def test_matches_value_on_the_residual_grid(self, mu, nu, i, j):
        from ncphase import oscillator_hamiltonian
        from ncphase.wigner import _residual_axes, residual_grid
        params = ModelParams(mu=mu, nu=nu)
        w = wigner_state(i, j, params).function
        hw = star_product_poly_left(oscillator_hamiltonian(params), w)
        grid = residual_grid(w)
        for func, got in zip((w, hw), grid_values([w, hw], _residual_axes(w))):
            want = func.value(grid)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_closer_to_exact_sums_than_value(self):
        # where the two evaluators disagree most, the grid is nearer the
        # exact polynomial sums: at (5,5), value() is 8e-13 of max|W| off
        from ncphase.wigner import _residual_axes, residual_grid
        w = wigner_state(5, 5, ModelParams(mu=0.2, nu=0.1)).function
        grid = residual_grid(w)
        got = grid_values([w], _residual_axes(w))[0]
        old = w.value(grid)
        worst = np.argsort(-np.abs(got - old))[:6]
        want = exact_value(w, grid[worst])
        error = np.abs(got[worst] - want).max()
        assert error <= 1e-13 * np.abs(old).max()
        assert error <= np.abs(old[worst] - want).max()

    def test_result_does_not_depend_on_the_batch(self, rng):
        from conftest import random_gauss_poly
        f = random_gauss_poly(rng, 4, max_degree=5)
        g = GaussPoly(f.variables, 2.0, f.exponent, random_poly(rng, 30, 4, 4, "complex"))
        axes = [np.linspace(-1.0, 1.0, 5)] * 4
        alone = grid_values([f], axes)[0]
        assert np.array_equal(grid_values([g, f], axes)[1], alone)

    def test_terms_spanning_several_blocks(self):
        from ncphase.starcalc import _VALUE_BLOCK
        from ncphase.wigner import _residual_axes, residual_grid
        w = wigner_state(4, 4, ModelParams(mu=0.3, nu=0.1)).function
        assert len(w.poly) * 11 * 11 > 4 * _VALUE_BLOCK
        got = grid_values([w], _residual_axes(w))[0]
        want = w.value(residual_grid(w))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_empty_polynomial(self):
        f = GaussPoly(V2, 2.0, -np.eye(2), {})
        got = grid_values([f], [np.ones(3), np.ones(4)])[0]
        assert got.shape == (12,) and np.isrealobj(got) and not got.any()

    def test_exponents_must_match(self):
        f = GaussPoly.gaussian(V2, 1.0, -np.eye(2))
        g = GaussPoly.gaussian(V2, 1.0, -np.eye(2) * (1.0 + 1e-15))
        axes = [np.zeros(2), np.zeros(2)]
        with pytest.raises(ValueError, match="shared Gaussian exponent"):
            grid_values([f, g], axes)
        with pytest.raises(ValueError, match="one axis per variable"):
            grid_values([f], axes[:1])


class TestGaussianStar:
    def test_star_with_constant(self):
        g = GaussPoly.gaussian(V2, 1.7, -0.8 * np.eye(2))
        one = GaussPoly.constant(V2, 1.0)
        out = gaussian_star(g, one)
        assert out.prefactor == pytest.approx(1.7)
        assert np.allclose(out.exponent, g.exponent)

    def test_pure_state_idempotence_at_lambda_one(self):
        params = ModelParams()
        reduced = reduce(wigner_state(0, 0, params), 1).function
        sq = gaussian_star(reduced, reduced)
        scaled = sq.scaled(2.0 * math.pi * params.hbar)
        assert scaled.prefactor == pytest.approx(reduced.prefactor, rel=1e-12)
        assert np.abs(scaled.exponent - reduced.exponent).max() < 1e-12

    def test_star_square_integral_matches_second_order_entropy(self, rng):
        # int (W1)^2_* = lam / (2 pi hbar), consistent with E2 = -ln lam
        from conftest import params_for_lambda
        params = params_for_lambda(0.9)
        reduced = reduce(wigner_state(0, 0, params), 1).function
        sq = gaussian_star(reduced, reduced)
        total = integrate(sq)
        assert total == pytest.approx(0.9 / (2 * math.pi), rel=1e-12)

    def test_two_square_split_of_an_anisotropic_pair(self):
        # eigenvalues 1.5e-11 apart in ratio, below the rank cut of four
        # variables: both squares stay, and k is hbar sqrt(det S)
        S = np.diag([2.0e5, 3.0e-6])
        form = QuadraticForm.from_matrix(V2, S)
        assert np.allclose(form.matrix, S, rtol=1e-15, atol=0.0)
        assert abs(form.k) == pytest.approx(math.sqrt(2.0e5 * 3.0e-6), rel=1e-15)
        with pytest.raises(ValueError, match="not positive semidefinite"):
            QuadraticForm.from_matrix(V2, np.diag([1.0, -1.0]))

    def test_mismatched_exponents_rejected(self):
        g1 = GaussPoly.gaussian(V2, 1.0, -np.diag([1.0, 2.0]))
        g2 = GaussPoly.gaussian(V2, 1.0, -np.diag([2.0, 1.0]))
        form = QuadraticForm.from_matrix(V2, np.diag([1.0, 2.0]))
        with pytest.raises(ValueError):
            gaussian_star(g1, g2, forms=[form])

    def test_sub_cell_gaussian_rejected(self):
        # |k s| > 1: narrower than the minimal cell
        g = GaussPoly.gaussian(V2, 1.0, -1.5 * np.eye(2))
        with pytest.raises(ValueError):
            gaussian_star(g, g)

    def test_polynomial_operand_rejected(self):
        g = GaussPoly.gaussian(V2, 1.0, -0.5 * np.eye(2))
        bad = GaussPoly(V2, 1.0, -0.5 * np.eye(2), {(1, 0): 1.0})
        with pytest.raises(ValueError):
            gaussian_star(g, bad)

    def test_associativity_same_form(self):
        form = two_square_1d(0.9, 1.4)
        g1, g2, g3 = (star_exp(form, t) for t in (-0.6, 0.25, -0.4))
        left = gaussian_star(gaussian_star(g1, g2, forms=[form]), g3,
                             forms=[form])
        right = gaussian_star(g1, gaussian_star(g2, g3, forms=[form]),
                              forms=[form])
        assert left.prefactor == pytest.approx(right.prefactor, rel=1e-9)
        assert np.abs(left.exponent - right.exponent).max() < 1e-9

    def test_trace_property_random_pairs(self, rng):
        # int f star g = int f g for 20 random same-form pairs
        for _ in range(20):
            ax, bp = rng.uniform(0.5, 2.0, size=2)
            form = two_square_1d(ax, bp)
            t1, t2 = rng.uniform(-1.2, -0.1, size=2)
            g1, g2 = star_exp(form, t1), star_exp(form, t2)
            lhs = integrate(gaussian_star(g1, g2, forms=[form]))
            rhs = integrate(g1.pointwise_mul(g2))
            assert lhs == pytest.approx(rhs, rel=1e-9)


def reference_star_power(g, n, forms=None):
    """The sequential loop: n - 1 products of the running power with g."""
    if forms is None and n > 1:
        forms = [_infer_form(g)]
    out = g
    for _ in range(n - 1):
        out = gaussian_star(out, g, forms=forms)
    return out


def power_case(case):
    """An operand and its forms. 2 pi hbar = 1 keeps high powers in range."""
    from conftest import params_for_lambda
    hbar = 1.0 / (2.0 * math.pi)
    if case == "reduced-2d":
        params = params_for_lambda(0.85, hbar=hbar)
        return reduce(wigner_state(0, 0, params), 1).function, None
    params = ModelParams(hbar=hbar, mu=0.02, nu=0.01)
    return wigner_state(0, 0, params).function, list(hamiltonians_pm(params))


class TestStarPower:
    def test_first_power_is_identity(self):
        g = GaussPoly.gaussian(V2, 1.3, -0.6 * np.eye(2))
        out = star_power(g, 1)
        assert out is g
        assert out.prefactor == pytest.approx(1.3)
        assert np.allclose(out.exponent, g.exponent)

    @pytest.mark.parametrize("n, expected_beta", [(2, 2.0), (3, None)])
    def test_reduced_state_power_integrals(self, n, expected_beta):
        # int (W1)^n_* = lam^(n-1) / ((pi hbar)^(n-1) beta_n)
        from conftest import params_for_lambda
        lam = 0.85
        params = params_for_lambda(lam)
        reduced = reduce(wigner_state(0, 0, params), 1).function
        power = star_power(reduced, n)
        total = integrate(power)
        beta_n = expected_beta if expected_beta else 3.0 + lam**2
        want = lam ** (n - 1) / (math.pi ** (n - 1) * beta_n)
        assert total == pytest.approx(want, rel=1e-11)

    def test_invalid_order_rejected(self):
        g = GaussPoly.gaussian(V2, 1.0, -0.5 * np.eye(2))
        with pytest.raises(ValueError):
            star_power(g, 0)

    @pytest.mark.parametrize("case", ["reduced-2d", "ground-4d"])
    def test_matches_sequential_products(self, case):
        g, forms = power_case(case)
        for n in [*range(1, 65), 255, 256, 257, 1000]:
            got = star_power(g, n, forms=forms)
            want = reference_star_power(g, n, forms=forms)
            assert got.prefactor == pytest.approx(want.prefactor, rel=1e-12)
            scale = np.abs(want.exponent).max()
            assert np.abs(got.exponent - want.exponent).max() <= 1e-12 * scale

    def test_products_grow_with_log_n(self, monkeypatch):
        calls = []
        real = starcalc.gaussian_star
        monkeypatch.setattr(starcalc, "gaussian_star",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        g, forms = power_case("reduced-2d")
        for n in [*range(1, 130), 255, 256, 257, 1000, 200000]:
            calls.clear()
            star_power(g, n, forms=forms)
            assert len(calls) <= 2 * math.floor(math.log2(n))

    @pytest.mark.parametrize("n", [2, 3, 8, 1000])
    def test_operand_outside_class_raises_as_before(self, n):
        # |k s| > 1: narrower than the minimal cell
        form = two_square_1d(1.0, 1.0)
        narrow = GaussPoly.gaussian(V2, 1.0, -3.0 * form.matrix)
        # a polynomial factor: not a pure Gaussian
        dressed = GaussPoly(V2, 1.0, -0.5 * form.matrix, {(0, 0): 1.0, (2, 0): 0.5})
        for g in (narrow, dressed):
            with pytest.raises(ValueError) as want:
                reference_star_power(g, n, forms=[form])
            with pytest.raises(ValueError) as got:
                star_power(g, n, forms=[form])
            assert str(got.value) == str(want.value)


class TestStarLog:
    def test_constant_log(self):
        g = GaussPoly.constant(V2, 2.5)
        const, quad = star_log_gaussian(g)
        assert const == pytest.approx(math.log(2.5), rel=1e-15)
        assert quad.poly == {}

    def test_reduced_state_log_closed_form(self):
        # ln_*(2 pi hbar W1) = ln(2 lam / sqrt(1-lam^2)) + scaled mode form
        from conftest import params_for_lambda
        lam = 0.8
        params = params_for_lambda(lam)
        reduced = reduce(wigner_state(0, 0, params), 1).function
        const, quad = star_log_gaussian(reduced.scaled(2 * math.pi * params.hbar))
        assert const == pytest.approx(
            math.log(2 * lam / math.sqrt(1 - lam**2)), rel=1e-11)
        # quadratic part equals ln((1-lam)/(1+lam)) times the generator whose
        # -2 lam multiple is the reduced exponent
        from ncphase.cli import _quad_matrix
        generator = -reduced.exponent / (2.0 * lam)
        expected = math.log((1 - lam) / (1 + lam)) * generator
        got = quad.prefactor * _quad_matrix(quad)
        assert np.abs(got - expected).max() < 1e-10

    def test_round_trip(self):
        form = two_square_1d(1.1, 0.7)
        t = -0.55
        const, quad = star_log_gaussian(star_exp(form, t), form=form)
        assert abs(const) < 1e-10
        from ncphase.cli import _quad_matrix
        assert np.abs(quad.prefactor * _quad_matrix(quad)
                      - t * form.matrix).max() < 1e-10

    def test_boundary_rejected(self):
        form = two_square_1d(1.0, 1.0)
        g = GaussPoly.gaussian(V2, 1.0, -1.0 * np.eye(2))  # |k s| = 1 exactly
        with pytest.raises(ValueError):
            star_log_gaussian(g, form=form)

    def test_negative_prefactor_rejected(self):
        g = GaussPoly.gaussian(V2, -1.0, -0.5 * np.eye(2))
        with pytest.raises(ValueError):
            star_log_gaussian(g)
