import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (exact_error, exact_wigner_terms, laguerre_by_products, laguerre_scales,
                      mapping, reference_poly_mul, terms)
from ncphase import (
    GaussPoly,
    ModelParams,
    PhaseVariables,
    QuadraticForm,
    derive,
    gaussian_star,
    gram,
    hamiltonians_pm,
    integrate,
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
    _poly_mul,
    grid_values,
)
V2 = PhaseVariables(2, hbar=1.0)


def own_form(g: GaussPoly) -> list[QuadraticForm]:
    """[H] with H = -Q, the one form generating a reduced Gaussian
    g = p exp(z Q z) with Q negative definite."""
    return [QuadraticForm.from_matrix(g.variables, -g.exponent)]


def two_square_1d(ax: float, bp: float) -> QuadraticForm:
    """H = ax * x^2 + bp * p^2 over the reduced pair."""
    return QuadraticForm(V2, a=(math.sqrt(ax),), b=(0.0,),
                         c=(0.0,), d=(math.sqrt(bp),))


class TestPhaseVariables:
    def test_reduced_block_refuses_a_deformation(self):
        for mu, nu in [(0.3, 0.5), (0.3, 0.0), (0.0, -0.5)]:
            with pytest.raises(ValueError, match="no mu or nu"):
                PhaseVariables(2, mu=mu, nu=nu)

    @pytest.mark.parametrize("constant", [
        {"hbar": math.inf}, {"hbar": math.nan}, {"mu": math.nan},
        {"mu": -math.inf}, {"nu": math.inf}, {"nu": math.nan}])
    def test_non_finite_constants_refused(self, constant):
        # a star product over them returned NaN coefficients with no error
        with pytest.raises(ValueError, match="must be finite"):
            PhaseVariables(4, **constant)

    def test_reduced_and_full_blocks(self):
        v2 = PhaseVariables(2, hbar=1.5)
        assert (v2.mu, v2.nu) == (0.0, 0.0)
        assert np.array_equal(v2.deformation_matrix(), [[0.0, 1.5], [-1.5, 0.0]])
        v4 = PhaseVariables(4, hbar=1.5, mu=0.3, nu=0.5)
        assert (v4.mu, v4.nu) == (0.3, 0.5)


class TestGaussPolyTerms:
    def test_exact_zeros_drop(self):
        f = GaussPoly(V2, 1.0, -np.eye(2), [[1, 0], [0, 1], [2, 0], [0, 2]],
                      [0.5, 0.0, -0.0, 1e-300])
        assert f.exps.tolist() == [[1, 0], [0, 2]]
        assert f.coeffs.tolist() == [0.5, 1e-300]
        g = GaussPoly(V2, 1.0, -np.eye(2), [[1, 0], [0, 1]], [0j, 1e-20j])
        assert g.exps.tolist() == [[0, 1]] and g.coeffs.tolist() == [1e-20j]

    def test_complex_vector_with_zero_imaginary_parts_turns_real(self):
        f = GaussPoly(V2, 1.0, -np.eye(2), [[1, 0], [0, 1]], np.array([0.1 + 0j, -2.5 - 0j]))
        assert f.coeffs.dtype == np.float64
        assert [c.hex() for c in f.coeffs.tolist()] == [(0.1).hex(), (-2.5).hex()]
        g = GaussPoly(V2, 1.0, -np.eye(2), [[1, 0], [0, 1]], [0.1, -2.5 + 1e-300j])
        assert g.coeffs.dtype == np.complex128
        assert np.abs(g.coeffs.imag).max() == 1e-300

    def test_integer_coefficients_become_floats(self):
        f = GaussPoly(V2, 1.0, -np.eye(2), [[1, 0]], [3])
        assert f.coeffs.dtype == np.float64
        assert f.value(np.array([0.5, 0.0])) == 1.5 * math.exp(-0.25)

    @pytest.mark.parametrize("exps, coeffs", [
        (np.zeros((2, 3), dtype=int), [1.0, 2.0]),  # rows 3 wide over 2 variables
        (np.zeros(2, dtype=int), [1.0, 2.0]),  # one row, not a matrix
        (np.zeros((2, 2), dtype=int), [1.0]),  # fewer coefficients than rows
        (np.zeros((2, 2), dtype=int), [[1.0, 2.0]]),  # a coefficient matrix
        (np.zeros((0, 4), dtype=int), []),  # no terms, yet 4 wide
    ])
    def test_mismatched_shapes_refused(self, exps, coeffs):
        with pytest.raises(ValueError, match="rows of 2 and n coefficients"):
            GaussPoly(V2, 1.0, -np.eye(2), exps, coeffs)

    @pytest.mark.parametrize("exps", [
        [[-1, 0]],  # value would read x^0 from the end of its power table
        [[1.7, 0]],  # would truncate to x^1
        [[np.nan, 0]],
        [[np.inf, 0]],
    ])
    def test_rows_it_cannot_mean_refused(self, exps):
        with pytest.raises(ValueError, match="exponents must be nonnegative integers"):
            GaussPoly(V2, 1.0, -np.eye(2), exps, [1.0])

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [(0, 0), (0, 1)])
    def test_non_finite_exponent_refused(self, entry, at):
        # NaN reached np.allclose, which warned and called the matrix
        # asymmetric; inf on the diagonal was accepted
        Q = -np.eye(2)
        Q[at] = entry
        with pytest.raises(ValueError, match="exponent matrix must be finite"):
            GaussPoly.gaussian(V2, 1.0, Q)

    def test_integral_float_rows_become_int64(self):
        f = GaussPoly(V2, 1.0, -np.eye(2), [[1.0, 0.0]], [1.0])
        assert f.exps.dtype == np.int64 and f.exps.tolist() == [[1, 0]]
        assert f.value(np.array([0.5, 0.0])) == 0.5 * math.exp(-0.25)

    def test_poly_sums_a_repeated_monomial_in_row_order(self):
        f = GaussPoly(V2, 1.0, -np.eye(2), [[1, 0], [0, 1], [1, 0], [1, 0]],
                      [0.1, 2.0, 0.2, 0.3])
        assert list(f.poly.items()) == [((1, 0), (0.1 + 0.2) + 0.3), ((0, 1), 2.0)]
        assert f.poly is not f.poly  # a new map on every read

    def test_degree_and_pure_gaussian_read_the_rows(self):
        f = GaussPoly(V2, 1.0, -np.eye(2), [[0, 0], [2, 1]], [1.0, 1.0])
        assert f.degree == 3 and not f.is_pure_gaussian()
        empty = GaussPoly.constant(V2, 0.0)
        assert empty.exps.shape == (0, 2) and empty.degree == 0
        assert empty.is_pure_gaussian()


class TestKConstant:
    def test_simplest_diagonal_case(self):
        # H = a x^2 + b p^2 gives k = hbar sqrt(a b)
        form = two_square_1d(2.0, 0.5)
        assert form.k == pytest.approx(1.0, rel=1e-14)
        B = form.variables.deformation_matrix()
        assert form.k == float(form.first_form @ B @ form.second_form)

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

    def test_matrix_is_built_once_and_read_only(self):
        v4 = PhaseVariables(4, hbar=1.3, mu=0.2, nu=-0.1)
        form = QuadraticForm(v4, (0.3, -0.7), (0.5, 0.2), (1.1, 0.4), (-0.6, 0.9))
        u, v = form.first_form, form.second_form
        assert np.array_equal(form.matrix, np.outer(u, u) + np.outer(v, v))
        assert form.matrix is form.matrix
        with pytest.raises(ValueError, match="read-only"):
            form.matrix[0, 0] = 1.0
        moved = dataclasses.replace(form, a=(1.0, 0.0))
        u = moved.first_form
        assert np.array_equal(moved.matrix, np.outer(u, u) + np.outer(v, v))
        assert moved.k == float(u @ v4.deformation_matrix() @ v)

    @pytest.mark.parametrize("form", [
        two_square_1d(2.0, 0.5),
        QuadraticForm(V2, a=(0.3,), b=(-0.7,), c=(1.1,), d=(0.4,)),
        QuadraticForm(PhaseVariables(4, hbar=1.3, mu=0.2, nu=-0.1),
                      (0.3, -0.7), (0.5, 0.2), (1.1, 0.4), (-0.6, 0.9)),
        QuadraticForm(PhaseVariables(4), (1.0, 0.0), (0.0, 0.0), (0.0, 0.0), (1.0, 0.0)),
    ])
    def test_poly_keeps_the_triu_construction(self, form):
        # the rows and coefficient bits of x_i x_j, i <= j, built per call
        d = form.variables.dimension
        i, j = np.triu_indices(d)
        unit = np.eye(d, dtype=np.int64)
        old = GaussPoly(form.variables, 1.0, np.zeros((d, d)), unit[i] + unit[j],
                        np.where(i == j, 1.0, 2.0) * form.matrix[i, j])
        h = form.poly()
        assert h.exps.tolist() == old.exps.tolist()
        assert h.coeffs.tobytes() == old.coeffs.tobytes()
        assert h.prefactor == 1.0 and not h.exponent.any()

    @pytest.mark.parametrize("d", [2, 4])
    def test_poly_tables_are_cached_and_read_only(self, d):
        assert starcalc._pairs(d) is starcalc._pairs(d)
        for table in starcalc._pairs(d):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0
        form = QuadraticForm(PhaseVariables(d), (1.0,) * (d // 2), (0.5,) * (d // 2),
                             (0.2,) * (d // 2), (0.7,) * (d // 2))
        with pytest.raises(ValueError, match="read-only"):
            form.poly().exps[0, 0] = 3

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_non_finite_entries_refused(self, entry):
        # a NaN entry gave k = nan
        with pytest.raises(ValueError, match="vector c must be finite"):
            QuadraticForm(V2, a=(1.0,), b=(0.0,), c=(entry,), d=(1.0,))
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            QuadraticForm.from_matrix(V2, np.array([[entry, 0.0], [0.0, 1.0]]))

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

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_refused(self, t):
        # NaN passed the overflow guard and reached np.allclose
        for form in (two_square_1d(1.0, 1.0),
                     QuadraticForm(V2, a=(1.0,), b=(0.0,), c=(0.0,), d=(0.0,))):
            with pytest.raises(ValueError, match="requires a finite t"):
                star_exp(form, t)

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
        g = GaussPoly(V2, 2.0, -0.5 * np.eye(2), *terms({(1, 0): 1.0, (0, 0): 0.3}, 2))
        out = star_product_poly_left(one, g)
        assert out.prefactor == pytest.approx(2.0)
        assert np.allclose(out.exponent, g.exponent)
        for key, val in g.poly.items():
            assert out.poly[key] == pytest.approx(val)

    def test_canonical_commutator(self):
        x = GaussPoly(V2, 1.0, np.zeros((2, 2)), *terms({(1, 0): 1.0}, 2))
        p = GaussPoly(V2, 1.0, np.zeros((2, 2)), *terms({(0, 1): 1.0}, 2))
        xp = star_product_poly_left(x, p)
        px = star_product_poly_left(p, x)
        # symmetric parts agree, antisymmetric parts are +-hbar/2
        assert mapping(xp.exps, xp.coeffs.real) == {(1, 1): 1.0, (0, 0): 0.0}
        assert mapping(px.exps, px.coeffs.real) == {(1, 1): 1.0, (0, 0): 0.0}
        assert mapping(xp.exps, xp.coeffs.imag) == {(1, 1): 0.0, (0, 0): 0.5}
        assert mapping(px.exps, px.coeffs.imag) == {(1, 1): 0.0, (0, 0): -0.5}

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
        assert np.abs(out.coeffs.imag).max(initial=0.0) <= 1e-10 * top

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

    def test_symmetry_tolerance_is_the_old_allclose_boundary(self):
        # |Q - Q^T| <= atol, as np.allclose(Q, Q.T, rtol=0, atol=atol) tests it:
        # an asymmetry of exactly atol passes and the next float up does not
        atol = 1e-12 * (1.0 + 1.0)
        for gap, passes in [(atol, True), (np.nextafter(atol, 1.0), False)]:
            Q = np.array([[-1.0, gap], [0.0, -1.0]])
            assert np.allclose(Q, Q.T, rtol=0.0, atol=atol) is passes
            if passes:
                GaussPoly.gaussian(V2, 1.0, Q)
            else:
                with pytest.raises(ValueError, match="symmetric"):
                    GaussPoly.gaussian(V2, 1.0, Q)

    def test_add_needs_equal_exponents(self):
        # a tolerance scaled by the largest entry matched (-1e308, -1) with
        # (-1e308, -5), whose sum read 0.7358 at (0, 1) against 0.3746 for
        # the parts; a gap of one ulp is refused too, and -0.0 equals 0.0
        g1 = GaussPoly.gaussian(V2, 1.0, -np.eye(2))
        pairs = [(np.diag([-1e308, -1.0]), np.diag([-1e308, -5.0])),
                 (-np.eye(2), np.diag([-1.0, np.nextafter(-1.0, 0.0)]))]
        for a, b in pairs:
            with pytest.raises(ValueError, match="different Gaussian exponents"):
                GaussPoly.gaussian(V2, 1.0, a) + GaussPoly.gaussian(V2, 1.0, b)
        g2 = GaussPoly.gaussian(V2, 1.0, np.zeros((2, 2)) - np.eye(2))
        assert (g1 + g2).coeffs.tolist() == [1.0, 1.0]

    def test_exponents_near_double_range_do_not_overflow(self):
        # 0.5 * (Q + Q.T) gave -inf for -1e308 on the diagonal, and Q - Q.T
        # overflowed on the huge asymmetric pair, each with a RuntimeWarning
        with np.errstate(all="raise"):
            g = GaussPoly.gaussian(V2, 1.0, [[-1e308, 0.0], [0.0, -1.0]])
            assert g.exponent.tolist() == [[-1e308, 0.0], [0.0, -1.0]]
            with pytest.raises(ValueError, match="symmetric"):
                GaussPoly.gaussian(V2, 1.0, [[-1.0, 1e308], [-1e308, -1.0]])

    def test_add_near_double_range_does_not_overflow(self):
        # |A| + |B| + 1 overflowed to inf for two diagonals near -1e308, so
        # the tolerance matched any pair, with a RuntimeWarning
        a = GaussPoly.gaussian(V2, 1.0, [[-1e308, 0.0], [0.0, -1.0]])
        b = GaussPoly.gaussian(V2, 1.0, [[-9e307, 0.0], [0.0, -1.0]])
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="different Gaussian exponents"):
                a + b
            assert (a + a).exponent.tolist() == [[-1e308, 0.0], [0.0, -1.0]]
            assert (b + b).coeffs.tolist() == [1.0, 1.0]

    def test_add_folds_prefactors(self):
        # the rows are concatenated; the repeated x term is summed on reading
        g1 = GaussPoly(V2, 2.0, -np.eye(2), *terms({(1, 0): 1.0}, 2))
        g2 = GaussPoly(V2, 3.0, -np.eye(2), *terms({(1, 0): 1.0, (0, 0): 1.0}, 2))
        total = g1 + g2
        assert total.exps.tolist() == [[1, 0], [1, 0], [0, 0]]
        assert total.poly == {(1, 0): 5.0, (0, 0): 3.0}
        pts = np.array([[0.3, -0.4], [1.0, 0.2]])
        assert np.allclose(total.value(pts), g1.value(pts) + g2.value(pts),
                           rtol=1e-15, atol=0.0)

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
        f = GaussPoly(v4, 0.7, -(a.T @ a + 0.5 * np.eye(4)), *terms(poly, 4))
        got = assert_matches_reference(f, rng.normal(size=(40, 4)))
        assert np.iscomplexobj(got)

    def test_empty_polynomial(self):
        f = GaussPoly(V2, 2.0, -np.eye(2), *terms({}, 2))
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
        params = ModelParams(mu=0.3, nu=0.1)
        w = wigner_state(3, 3, params).function
        hw = star_product_poly_left(oscillator_hamiltonian(params), w)
        # 6 points per axis within 3 marginal widths
        widths = np.sqrt(np.diag(-0.5 * np.linalg.inv(hw.exponent)))
        axes = [np.linspace(-3.0 * s, 3.0 * s, 6) for s in widths]
        pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
        assert len(hw.poly) * len(pts) > 4 * _VALUE_BLOCK
        assert_matches_reference(hw, pts)
        assert_matches_reference(w, pts.reshape(6, 6, 36, 4))


def sorted_poly_mul(a, b):
    """The dict loop's product with its keys in ascending order."""
    return dict(sorted(reference_poly_mul(a, b).items()))


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


def coefficient(kind: str):
    """A complex coefficient has a nonzero imaginary part."""
    real = st.floats(-1e3, 1e3)
    return real if kind == "real" else st.builds(complex, real, real.filter(bool))


def small_poly(dim: int, kind: str, top: int = 30):
    """Up to 12 terms with exponents in [0, top]."""
    return st.dictionaries(st.tuples(*[st.integers(0, top)] * dim), coefficient(kind),
                           max_size=12)


def cornered_poly(dim: int, kind: str, top: int):
    """A small polynomial with the corner monomials 0 and top on every axis
    as well, so a product of two spans (2 top + 1)^dim keys."""
    corners = st.fixed_dictionaries({(0,) * dim: coefficient(kind),
                                     (top,) * dim: coefficient(kind)})
    return st.builds(lambda c, r: {**r, **c}, corners, small_poly(dim, kind, top))


def simplex_rows(d: int, top: int) -> list:
    """Every d-variable exponent tuple of total degree <= top, sorted."""
    if d == 1:
        return [(a,) for a in range(top + 1)]
    return [(a,) + rest for a in range(top + 1) for rest in simplex_rows(d - 1, top - a)]


class TestMonomialRanks:
    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([2, 4]), top=st.integers(0, 50))
    def test_ranks_count_the_sorted_tuples(self, d, top):
        # unrank maps [0, C(top + d, d)) onto the sorted tuples, in order
        rows = np.array(simplex_rows(d, top))
        ranks = starcalc._simplex(d, top)
        assert ranks.size == len(rows) == math.comb(top + d, d)
        assert (ranks.unrank(np.arange(len(rows))) == rows.T).all()

    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([1, 2, 3, 4]), top=st.integers(0, 40), low=st.integers(0, 40))
    def test_graded_places_are_a_prefix_of_every_top(self, d, top, low):
        # degree first; _graded_exps lists the monomials in the order of
        # _graded_rank, and those of degree <= low lead at every top >= low
        low = min(low, top)
        cols = starcalc._graded_exps(d, top).astype(np.int64)
        assert sorted(map(tuple, cols.T.tolist())) == simplex_rows(d, top)
        assert (np.diff(cols.sum(axis=0)) >= 0).all()
        assert starcalc._graded_rank(cols, top).tolist() == list(range(cols.shape[1]))
        assert (starcalc._graded_rank(cols, 2 * top + 1) == starcalc._graded_rank(cols, top)).all()
        head = starcalc._graded_exps(d, low)
        assert (cols[:, :head.shape[1]] == head).all()

    def test_rank_space_too_large_for_int64(self):
        with pytest.raises(ValueError, match="too large to pack"):
            starcalc._simplex(4, 2 * 10**5)  # C(200 004, 4) > 2^62


def peak_bytes(run) -> int:
    """The most memory, numpy arrays included, held at once while run runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def poly_mul(a: dict, b: dict) -> dict:
    """_poly_mul on the terms of two maps, as a map."""
    dim = len(next(iter(a or b), ()))
    return mapping(*_poly_mul(*terms(a, dim), *terms(b, dim)))


def assert_bit_identical(a, b):
    """The dict loop's terms and bits, in ascending key order, less the keys
    whose sum is exactly zero: no zero coefficient comes back."""
    got = poly_mul(a, b)
    assert 0 not in got.values()
    want = {k: c for k, c in sorted_poly_mul(a, b).items() if c != 0}
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

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([2, 4]), above=st.booleans(),
           kinds=st.tuples(*[st.sampled_from(["real", "complex"])] * 2))
    def test_sparse_cornered_products(self, data, dim, above, kinds):
        # boxes of 1201^2 or 33^4 keys (above 2^20), 1023^2 or 31^4 (below);
        # a cornered product reaches degree dim * 2 top, so its rank space
        # is larger than its box: C(2402, 2) = 2 883 601 ranks for 1201^2
        top = {(2, True): 600, (2, False): 511, (4, True): 16, (4, False): 15}[dim, above]
        a, b = (data.draw(cornered_poly(dim, kind, top)) for kind in kinds)
        assert starcalc._simplex(dim, 2 * dim * top).size > (2 * top + 1) ** dim
        assert_bit_identical(a, b)

    @pytest.mark.parametrize("span", [4, 1 << 20])  # dense sums, then sorted keys
    def test_block_sums_drop_exact_zeros(self, span, monkeypatch):
        # keys 0 and 2 cancel, across blocks of one row too; key 3 only
        # ever adds 0.0
        keys = np.array([0, 1, 2, 0, 2, 3, 1])
        values = np.array([1.5, 2.0, -0.5, -1.5, 0.5, 0.0, 0.25])
        monkeypatch.setattr(starcalc, "_MUL_BLOCK", 1)
        for counts in ([7], [3, 4], [1] * 7):
            ends = np.cumsum([0] + counts)
            got = starcalc._block_sums(np.array(counts), lambda lo, hi: (
                keys[ends[lo]:ends[hi]], values[ends[lo]:ends[hi]]), span)
            assert [part.tolist() for part in got] == [[1], [2.25]]

    def test_mixed_coefficient_types_in_one_operand(self, rng):
        """One complex coefficient makes the whole product complex: the dict
        loop's keys in ascending order, its real parts, its imaginary parts
        where it gave a complex value and +0.0 where it gave a real one."""
        a = random_poly(rng, 40, 4, 4, "real")
        b = random_poly(rng, 40, 4, 4, "real")
        b.update(random_poly(rng, 20, 4, 4, "complex"))
        for x, y in [(a, b), (b, a)]:
            got, want = poly_mul(x, y), sorted_poly_mul(x, y)
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
            poly_mul(a, b)

    def test_sparse_high_degree_products(self):
        # a few terms at top degrees of 800, 24 001 and 200 001, whose rank
        # spaces (C(804, 4) = 1.7e10 and up) are summed over the keys seen
        cases = [({(0,) * 4: 1.0, (100,) * 4: 2.0}, {(0,) * 4: 3.0, (100,) * 4: 4.0}),
                 ({(0,) * 4: 1.0, (3000,) * 4: 2.0}, {(0, 1, 0, 0): 3.0, (3000,) * 4: 4.0}),
                 ({(0, 0): 1.0, (100000, 0): 2.0}, {(0, 0): 3.0, (100000, 1): 4.0})]
        assert peak_bytes(lambda: [assert_bit_identical(a, b) for a, b in cases]) < 32 << 20

    def test_more_keys_than_one_block(self, rng):
        a = random_poly(rng, 200, 4, 15, "complex")
        b = random_poly(rng, 200, 4, 15, "complex")
        got = assert_bit_identical(a, b)
        assert len(got) > _MUL_BLOCK

    def test_laguerre_product_spanning_many_blocks(self):
        lag_i, lag_j = (mapping(*laguerre_by_products(6, form, scale))
                        for form, scale in laguerre_scales(ModelParams(mu=0.2, nu=0.1)))
        assert len(lag_i) * len(lag_j) > 4 * _MUL_BLOCK
        assert_bit_identical(lag_i, lag_j)

    def test_laguerre_product_ranked_in_its_degree_simplex(self):
        # W(8,8): 1 365 x 1 365 term pairs of degree up to 32, summed over
        # C(36, 4) = 58 905 ranks where the mixed-radix box has 33^4 keys
        lag_i, lag_j = (mapping(*laguerre_by_products(8, form, scale))
                        for form, scale in laguerre_scales(ModelParams(mu=0.2, nu=0.1)))
        assert len(lag_i) == len(lag_j) == 1365
        spread = [np.ptp(list(lag), axis=0) for lag in (lag_i, lag_j)]
        assert math.prod((spread[0] + spread[1] + 1).tolist()) == 33**4
        assert max(map(sum, lag_i)) + max(map(sum, lag_j)) == 32
        assert starcalc._simplex(4, 32).size == math.comb(36, 4)
        assert hex_terms(poly_mul(lag_i, lag_j)) == hex_terms(sorted_poly_mul(lag_i, lag_j))

    def test_blocks_give_the_bits_of_one_pass(self, monkeypatch):
        # the W(4,4) product sums 126 x 126 term pairs, many blocks of 64
        w = wigner_state(4, 4, ModelParams(mu=0.2, nu=0.1)).function
        blocked = _poly_mul(w.exps, w.coeffs, w.exps, w.coeffs)
        assert len(w.coeffs) ** 2 > _MUL_BLOCK
        for block in (64, 1 << 40):
            monkeypatch.setattr(starcalc, "_MUL_BLOCK", block)
            exps, coeffs = _poly_mul(w.exps, w.coeffs, w.exps, w.coeffs)
            assert np.array_equal(exps, blocked[0])
            assert [c.hex() for c in coeffs.tolist()] == [c.hex() for c in blocked[1].tolist()]

    def test_wigner_state_has_reference_polynomial(self):
        # W(6,6) from the rotation invariants has the monomials of the dict
        # loop's product of the two Laguerre towers, each coefficient within
        # 1e-14 of its largest: the two routes round differently, and they
        # part by 3.7e-15
        params = ModelParams(mu=0.2, nu=0.1)
        w = wigner_state(6, 6, params).function
        lag_i, lag_j = (mapping(*laguerre_by_products(6, form, scale))
                        for form, scale in laguerre_scales(params))
        want = sorted_poly_mul(lag_i, lag_j)
        got = dict(zip(map(tuple, w.exps.tolist()), w.coeffs.tolist()))
        assert list(got) == [k for k, c in want.items() if c != 0]
        scale = max(map(abs, want.values()))
        assert max(abs(got[k] - c) for k, c in want.items() if c != 0) <= 1e-14 * scale

    @pytest.mark.parametrize("i,j", [(0, 0), (3, 0), (0, 2), (2, 3)])
    def test_wigner_state_matches_plain_laguerre_loop(self, i, j):
        """The state has the monomials of its exact expansion
        (conftest.exact_wigner_terms), distinct and ascending, and its
        coefficients lie within 1e-15 of the largest: measured at most
        3.6e-16, at (2, 3), where the product of Laguerre towers gave
        2.9e-16."""
        params = ModelParams(mu=0.2, nu=0.1)
        exact = exact_wigner_terms(i, j, params)
        w = wigner_state(i, j, params).function
        assert [tuple(row) for row in w.exps.tolist()] == sorted(exact)
        assert exact_error(w.exps, w.coeffs, exact) <= 1e-15


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


def shift(mono, axis, by):
    """mono with its exponent on axis raised by `by`."""
    return mono[:axis] + (mono[axis] + by,) + mono[axis + 1:]


def reference_poly_diff(poly, axis):
    return {shift(k, axis, -1): c * k[axis] for k, c in poly.items() if k[axis]}


def add_into(out, terms):
    for k, c in terms:
        out[k] = out.get(k, 0) + c


def reference_gauss_diff(poly, axis, Q):
    """Polynomial part of d/dz_axis [poly * exp(z Q z)]."""
    out = reference_poly_diff(poly, axis)
    for j in range(len(Q)):
        if Q[axis][j] != 0:
            add_into(out, ((shift(k, j, 1), c * (2 * Q[axis][j]))
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
    d = variables.dimension
    fp = GaussPoly(variables, 1.0, np.zeros((d, d)), *terms(f, d))
    gp = GaussPoly(variables, 1.0, Q, *terms(g, d))
    out = []
    for sign in (1, -1):
        exact = {}
        for n, term in enumerate(orders):
            add_into(exact, term.items() if sign**n == 1 else
                     ((k, c * -1) for k, c in term.items()))
        out.append((mapping(*starcalc._star_series(fp, gp, sign * 0.5 * B)), exact))
    return out


def assert_near_exact(got, exact, rel=1e-14):
    """Every coefficient within rel * max|exact|, a key missing on one side
    counting as 0."""
    want = {k: complex(c) for k, c in exact.items()}
    scale = max(map(abs, want.values()), default=0.0)
    for k in got.keys() | want.keys():
        assert abs(got.get(k, 0.0) - want.get(k, 0.0)) <= rel * scale, k


def series_loop(f: dict, g: dict, Q: np.ndarray, half: np.ndarray) -> dict:
    """The star series of `starcalc._star_series` as a float dict loop in its
    documented per-key order, every sum from 0 and every product formed as
    the kernel forms it: a complex by a complex by CPython's formula, any
    other by numpy's array multiply (numpy's complex128 array loop may round
    a complex product differently from CPython). E_a adds half[a, b]
    d/dz_b axis by axis, then shift[a, j] z_j with shift = 2 half Q, and
    drops exact zeros; alpha + e_a comes from alpha for a up to the first
    nonzero axis of alpha, order by order; each (alpha, f-term) row adds its
    factor c * 1j**|alpha| / alpha!, rounded in that order by CPython, times
    E^alpha g, row after row. Keys come back in ascending order."""
    d = len(half)
    shift = 2.0 * half @ Q
    unit = [tuple(row) for row in np.eye(d, dtype=int).tolist()]

    def add(out, key, value):
        out[key] = out.get(key, 0.0) + value

    def times(x, y):
        if np.iscomplexobj(x) and np.iscomplexobj(y):
            return complex(x) * complex(y)
        return (np.array([x]) * np.array([y]))[0]

    def step(poly, a):
        out = {}
        for b in np.flatnonzero(half[a]):
            for k, c in poly.items():
                if k[b]:
                    add(out, tuple(np.subtract(k, unit[b]).tolist()),
                        times(times(c, half[a, b]), k[b]))
        for j in np.flatnonzero(shift[a]):
            for k, c in poly.items():
                add(out, tuple(np.add(k, unit[j]).tolist()), times(c, shift[a, j]))
        return {k: c for k, c in out.items() if c != 0}

    total = {}

    def gather(alpha, df, eg):
        for kf, c in df.items():
            factor = np.complex128(c.item() * 1j ** sum(alpha)
                                   / math.prod(map(math.factorial, alpha)))
            for kg, v in eg.items():
                add(total, tuple(np.add(kf, kg).tolist()), times(factor, v))

    level = [((0,) * d, f, g)]
    gather(*level[0])
    while level:
        kids = []
        for alpha, df, eg in level:
            first = next((a for a, n in enumerate(alpha) if n), d - 1)
            for a in range(first + 1):
                down = {tuple(np.subtract(k, unit[a]).tolist()): times(c, k[a])
                        for k, c in df.items() if k[a]}
                if down:
                    kid = (alpha[:a] + (alpha[a] + 1,) + alpha[a + 1:], down, step(eg, a))
                    gather(*kid)
                    kids.append(kid)
        level = kids
    return {k: total[k] for k in sorted(total) if total[k] != 0}


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
            fp = GaussPoly(variables, 1.0, np.zeros((dim, dim)), *terms(f, dim))
            gp = GaussPoly(variables, 1.0, Q, *terms(g, dim))
            left = star_product_poly_left(fp, gp).poly
            right = star_product_poly_right(gp, fp).poly
            # key for key and bit for bit, but for the sign of a zero part
            assert list(right) == list(left)
            assert ([c.conjugate() for c in map(complex, left.values())]
                    == [complex(c) for c in right.values()])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([2, 4]),
           kinds=st.tuples(*[st.sampled_from(["real", "complex"])] * 2),
           form=st.sampled_from(["full", "diagonal", "zero"]))
    def test_sums_in_the_documented_order(self, data, dim, kinds, form):
        # bit for bit against the dict loop of the documented order; the
        # factor of an alpha with alpha! > 2 (f of degree 3) tells
        # c * 1j**|alpha| / alpha! from c * (1j**|alpha| / alpha!)
        f, g = (data.draw(st.dictionaries(keys, coefficient(kind), min_size=1, max_size=8)
                          .filter(lambda p: any(p.values())))
                for keys, kind in zip((st.sampled_from(simplex_rows(dim, 3)),
                                       st.tuples(*[st.integers(0, 4)] * dim)), kinds))
        hbar = data.draw(st.floats(0.3, 2.0))
        mu, nu = (data.draw(st.floats(-2.0, 2.0)) for _ in range(2))
        variables = (PhaseVariables(4, hbar=hbar, mu=mu, nu=nu) if dim == 4
                     else PhaseVariables(2, hbar=hbar))
        a = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=dim * dim,
                                        max_size=dim * dim))).reshape(dim, dim)
        Q = {"full": -(a.T @ a + 0.1 * np.eye(dim)),
             "diagonal": -np.diag(np.diag(a) ** 2 + 0.1),
             "zero": np.zeros((dim, dim))}[form]
        fp = GaussPoly(variables, 1.0, np.zeros((dim, dim)), *terms(f, dim))
        gp = GaussPoly(variables, 1.0, Q, *terms(g, dim))
        for sign in (1, -1):
            half = sign * 0.5 * variables.deformation_matrix()
            got = mapping(*starcalc._star_series(fp, gp, half))
            want = series_loop(*(dict(zip(map(tuple, p.exps.tolist()), p.coeffs))
                                 for p in (fp, gp)), gp.exponent, half)
            assert hex_terms(got) == hex_terms({k: complex(c) for k, c in want.items()})

    def test_complex_products_round_as_cpython(self):
        # numpy's complex128 array loop rounds this product's real part to
        # ...408 on some machines; CPython's formula gives ...405 everywhere
        f = GaussPoly(V2, 1.0, np.zeros((2, 2)), *terms({(0, 0): 240 + 1j}, 2))
        g = GaussPoly(V2, 1.0, np.zeros((2, 2)),
                      *terms({(0, 1): 546.1312374199949 - 1.8277941952809442j}, 2))
        _, vals = starcalc._star_series(f, g, 0.5 * V2.deformation_matrix())
        assert vals.tolist() == [(240 + 1j) * (546.1312374199949 - 1.8277941952809442j)]

    def test_each_pass_keeps_every_nonzero_coefficient(self):
        # x1 star g for g = x2 + 5e-13 x2^2 + 1e6 x2^3 with E_0 = d/dx2 is
        # x1 g + i E_0 g: the 1e-12 x2 term of the pass stays (a cut relative
        # to 3e6 would drop it)
        half = np.array([[0.0, 1.0], [-1.0, 0.0]])
        f = GaussPoly(V2, 1.0, np.zeros((2, 2)), *terms({(1, 0): 1.0}, 2))
        g = GaussPoly(V2, 1.0, np.zeros((2, 2)),
                      *terms({(0, 1): 1.0, (0, 2): 5e-13, (0, 3): 1e6}, 2))
        exps, vals = starcalc._star_series(f, g, half)
        assert exps.tolist() == [[0, 0], [0, 1], [0, 2], [1, 1], [1, 2], [1, 3]]
        assert vals.tolist() == [1j, 1e-12j, 3e6j, 1, 5e-13, 1e6]

    def test_memory_stays_within_a_few_vectors(self):
        # H*W(6,6) with cold tables: the lattice of C(30, 4) = 27 405 ranks,
        # its neighbour tables and a few coefficient vectors over it (about
        # 4.1 MB), not an entry per (alpha, f-term) row and term of
        # E^alpha g (5.8 MB when those were summed in bounded blocks)
        from ncphase import oscillator_hamiltonian
        params = ModelParams(mu=0.2, nu=0.1)
        h = oscillator_hamiltonian(params)
        w = wigner_state(6, 6, params).function
        starcalc._LATTICES.clear()
        assert peak_bytes(lambda: star_product_poly_left(h, w)) < 5 << 20
        assert starcalc._LATTICES[4].up.shape == (4, math.comb(30, 4) + 1)

    def test_sparse_high_degree_operand(self):
        # degree 2 + 400 ranks C(406, 4) = 1.1e9 monomials; each pass and the
        # gather sum over the keys they reach
        from ncphase import oscillator_hamiltonian
        variables = PhaseVariables(4, hbar=1.0, mu=0.2, nu=0.1)
        h = oscillator_hamiltonian(ModelParams(mu=0.2, nu=0.1)).poly
        g = {(0,) * 4: 1.0, (100,) * 4: 0.5}
        pairs = []
        starcalc._graded_lattice(4, 6)
        cached = dict(starcalc._LATTICES)
        assert peak_bytes(lambda: pairs.extend(
            series_and_exact(h, g, -0.5 * np.eye(4), variables))) < 32 << 20
        for got, exact in pairs:
            assert_near_exact(got, exact)
        # the call built its own lattice and left the cached ones as they were
        assert starcalc._LATTICES.keys() == cached.keys()
        assert all(starcalc._LATTICES[d] is lattice for d, lattice in cached.items())

    def test_results_do_not_depend_on_the_cached_top(self):
        # the same rows and bits from a cold lattice and through the prefix
        # of one built up to degree 50, for the series and for the moments
        from ncphase import oscillator_hamiltonian
        params = ModelParams(mu=0.2, nu=0.1)
        h = oscillator_hamiltonian(params)
        w = {ij: wigner_state(*ij, params).function for ij in [(1, 1), (3, 3)]}

        def run():
            return ([(p.exps.tolist(), hex_terms(mapping(p.exps, p.coeffs)))
                     for p in (star_product_poly_left(h, w[1, 1]),
                               star_product_poly_left(h, w[3, 3]))],
                    integrate(w[3, 3]).hex())

        starcalc._LATTICES.clear()
        cold = run()
        assert starcalc._LATTICES[4].top == 14
        starcalc._graded_lattice(4, 50)
        assert run() == cold and starcalc._LATTICES[4].top == 50
        starcalc._LATTICES.clear()

    def test_one_index_holds_every_top(self):
        # H*W(i,i) for i = 0..12 reach degree 50 and the moments degree 48:
        # one lattice per dimension, of the highest top, within 30 MB
        from ncphase import oscillator_hamiltonian
        from ncphase.moments import MomentTable
        params = ModelParams(mu=0.2, nu=0.1)
        h = oscillator_hamiltonian(params)
        starcalc._LATTICES.clear()
        for i in range(13):
            star_product_poly_left(h, wigner_state(i, i, params).function)
        rows = np.array([[48, 0, 0, 0], [12, 12, 12, 12], [2, 0, 2, 44]])
        assert (MomentTable(0.3 * np.eye(4)).moments(rows) > 0).all()
        assert list(starcalc._LATTICES) == [4] and starcalc._LATTICES[4].top == 50
        lattice = starcalc._LATTICES[4]
        held = sum(getattr(lattice, field.name).nbytes
                   for field in dataclasses.fields(lattice) if field.name != "top")
        starcalc._LATTICES.clear()
        assert held <= 30e6

    def test_empty_operands(self):
        v4 = PhaseVariables(4, hbar=1.0, mu=0.2, nu=0.1)
        one = {(0, 0, 0, 0): 1.0}
        for got, exact in (series_and_exact({}, one, -np.eye(4), v4)
                           + series_and_exact(one, {}, -np.eye(4), v4)):
            assert got == exact == {}

    def test_exponents_too_large_to_pack(self):
        f = GaussPoly(V2, 1.0, np.zeros((2, 2)), *terms({(1, 1): 1.0}, 2))
        g = GaussPoly(V2, 1.0, -np.eye(2), *terms({(2**31, 2**31): 1.0}, 2))
        with pytest.raises(ValueError, match="too large"):
            starcalc._star_series(f, g, 0.5 * V2.deformation_matrix())


def degree_poly(rng, variables, count: int, degree: int) -> GaussPoly:
    """count distinct monomials of degree <= degree with normal coefficients."""
    pool = simplex_rows(variables.dimension, degree)
    rows = [pool[k] for k in rng.choice(len(pool), count, replace=False)]
    d = variables.dimension
    return GaussPoly(variables, 1.0, np.zeros((d, d)), np.array(rows), rng.normal(size=count))


def partials(func: GaussPoly) -> list[GaussPoly]:
    """d poly / dz_b times func's Gaussian, for each axis b, term by term."""
    out = []
    for b, unit in enumerate(np.eye(func.variables.dimension, dtype=np.int64)):
        has = func.exps[:, b] > 0
        out.append(GaussPoly(func.variables, func.prefactor, func.exponent,
                             func.exps[has] - unit, func.coeffs[has] * func.exps[has, b]))
    return out


# (mu, nu), W(i, j) and the gates of (f*g)*W against f*(g*W), (f*W)*g
# against f*(W*g), and H*W - W*H against i grad H . B grad W, each as
# max|difference| / max|first| on W's residual grid: ten times the worst of
# seeds 0-19, rounded up (the tests draw seeds 0 and 1)
IDENTITY_POINTS = [
    ((0.2, 0.1), (2, 1), (2e-13, 2e-13, 3e-14)),
    ((3.0, -0.3), (1, 3), (6e-12, 7e-12, 2e-12)),
    ((0.0, 0.0), (4, 4), (2e-11, 2e-11, 3e-12)),
    ((0.9, 1.0), (2, 2), (4e-10, 5e-10, 7e-11)),
    ((0.999, 1.0), (1, 1), (4e-10, 5e-10, 5e-11)),
    ((1e-9, 1e6), (1, 1), (8e-13, 2e-12, 3e-13)),
]


class TestStarIdentities:
    """Identities of the star product that no single series call encodes,
    checked on values with no code shared with the series: associativity of
    left, right and mixed products (any constant antisymmetric B gives an
    associative product, so this checks the series' structure), and the
    exact Moyal bracket of a quadratic H, which checks B itself."""

    @pytest.mark.parametrize("point,ij,gates", IDENTITY_POINTS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_associative_and_exact_bracket(self, point, ij, gates, seed):
        from ncphase.wigner import _residual_axes, residual_grid
        left, right = star_product_poly_left, star_product_poly_right
        w = wigner_state(*ij, ModelParams(mu=point[0], nu=point[1])).function
        variables, axes = w.variables, _residual_axes(w)
        rng = np.random.default_rng(seed)
        f, g = degree_poly(rng, variables, 6, 2), degree_poly(rng, variables, 8, 3)
        h = degree_poly(rng, variables, 15, 2)
        fg_w, f_gw, fw_g, f_wg, hw, wh, *dw = grid_values(
            [left(left(f, g), w), left(f, left(g, w)), right(left(f, w), g),
             left(f, right(w, g)), left(h, w), right(w, h), w, *partials(w)], axes)
        # d(p e^(zQz))/dz_b = (dp/dz_b + p (2 Q z)_b) e^(zQz)
        grad_w = np.stack(dw[1:], axis=-1) + 2.0 * dw[0][:, None] * (residual_grid(w) @ w.exponent)
        grad_h = np.stack(grid_values(partials(h), axes), axis=-1)
        bracket = 1j * np.einsum("na,ab,nb->n", grad_h, variables.deformation_matrix(), grad_w)
        errors = [abs(a - b).max() / abs(a).max() for a, b in
                  [(fg_w, f_gw), (fw_g, f_wg)]] + [abs(hw - wh - bracket).max() / abs(hw).max()]
        assert all(e <= gate for e, gate in zip(errors, gates)), errors


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
                           *terms(random_poly(rng, 40, dim, 6, kind), dim)) for _ in range(3)]
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

    def test_closer_to_exact_sums_than_value(self, dict_loop_states):
        # where the two evaluators disagree most, the grid is nearer the
        # exact polynomial sums: at (5,5) in the dict loop's term order,
        # value() is 8e-13 of max|W| off. In ascending order value() is the
        # nearer (1.4e-13 against the grid's 2.5e-13 at worst, over all 11^4
        # points), so those six points are the grid's own worst
        from ncphase.wigner import _residual_axes, residual_grid
        w = dict_loop_states(5, 5, ModelParams(mu=0.2, nu=0.1))
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
        g = GaussPoly(f.variables, 2.0, f.exponent,
                      *terms(random_poly(rng, 30, 4, 4, "complex"), 4))
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
        f = GaussPoly(V2, 2.0, -np.eye(2), *terms({}, 2))
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
        out = gaussian_star(g, one, forms=own_form(g))
        assert out.prefactor == pytest.approx(1.7)
        assert np.allclose(out.exponent, g.exponent)

    def test_pure_state_idempotence_at_lambda_one(self):
        params = ModelParams()
        reduced = reduce(wigner_state(0, 0, params), 1).function
        sq = gaussian_star(reduced, reduced, forms=own_form(reduced))
        scaled = sq.scaled(2.0 * math.pi * params.hbar)
        assert scaled.prefactor == pytest.approx(reduced.prefactor, rel=1e-12)
        assert np.abs(scaled.exponent - reduced.exponent).max() < 1e-12

    def test_star_square_integral_matches_second_order_entropy(self, rng):
        # int (W1)^2_* = lam / (2 pi hbar), consistent with E2 = -ln lam
        from conftest import params_for_lambda
        params = params_for_lambda(0.9)
        reduced = reduce(wigner_state(0, 0, params), 1).function
        sq = gaussian_star(reduced, reduced, forms=own_form(reduced))
        total = integrate(sq)
        assert total == pytest.approx(0.9 / (2 * math.pi), rel=1e-12)

    def test_two_square_split_of_an_anisotropic_pair(self):
        # eigenvalues 1.5e-11 apart in ratio, and a correlated pair: both
        # squares stay, the columns of the Cholesky factor (so c = 0), and
        # k is hbar sqrt(det S)
        for S in (np.diag([2.0e5, 3.0e-6]), np.array([[2.0, -0.7], [-0.7, 0.5]])):
            form = QuadraticForm.from_matrix(V2, S)
            assert np.allclose(form.matrix, S, rtol=1e-15, atol=0.0)
            assert form.c == (0.0,)
            assert form.k == pytest.approx(math.sqrt(np.linalg.det(S)), rel=1e-15)
        for bad in (np.diag([1.0, -1.0]), np.diag([1.0, 0.0])):
            with pytest.raises(ValueError, match="not positive definite"):
                QuadraticForm.from_matrix(V2, bad)

    def test_split_refuses_four_variables(self):
        V4 = PhaseVariables(4, hbar=1.0, mu=0.2, nu=0.1)
        S = np.eye(4)
        S[:2, :2] = 0.0  # rank 2: two squares, yet not a reduced-pair form
        for variables, matrix in ((V4, S), (V4, np.eye(4)), (V2, np.eye(4))):
            with pytest.raises(ValueError, match="2x2 matrix over the reduced pair"):
                QuadraticForm.from_matrix(variables, matrix)

    def test_mismatched_exponents_rejected(self):
        g1 = GaussPoly.gaussian(V2, 1.0, -np.diag([1.0, 2.0]))
        g2 = GaussPoly.gaussian(V2, 1.0, -np.diag([2.0, 1.0]))
        form = QuadraticForm.from_matrix(V2, np.diag([1.0, 2.0]))
        with pytest.raises(ValueError):
            gaussian_star(g1, g2, forms=[form])

    def test_sub_cell_gaussian_rejected(self):
        # |k s| > 1: narrower than the minimal cell
        g = GaussPoly.gaussian(V2, 1.0, -1.5 * np.eye(2))
        with pytest.raises(ValueError, match=r"\|k\*s\| > 1"):
            gaussian_star(g, g, forms=own_form(g))

    def test_polynomial_operand_rejected(self):
        g = GaussPoly.gaussian(V2, 1.0, -0.5 * np.eye(2))
        bad = GaussPoly(V2, 1.0, -0.5 * np.eye(2), *terms({(1, 0): 1.0}, 2))
        with pytest.raises(ValueError, match="not a pure Gaussian"):
            gaussian_star(g, bad, forms=own_form(g))

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

    def test_dependent_forms_are_refused(self):
        # a split between a form and its copy is not unique, and the tanh law
        # composes whichever split a solver picks: a repeated form once gave
        # prefactor 0.9157 here where [f] gives 0.8475
        f = QuadraticForm.from_matrix(V2, np.diag([1.0, 2.0]))
        g = GaussPoly.gaussian(V2, 1.0, -0.3 * f.matrix)
        assert gaussian_star(g, g, forms=[f]).prefactor == pytest.approx(1.0 / 1.18, rel=1e-15)
        thrice = QuadraticForm.from_matrix(V2, 3.0 * np.diag([1.0, 2.0]))
        zero = QuadraticForm(V2, (0.0,), (0.0,), (0.0,), (0.0,))
        h_plus, _ = hamiltonians_pm(ModelParams(mu=0.2, nu=0.1))
        doubled = QuadraticForm(h_plus.variables, *(
            tuple(2.0 * x for x in getattr(h_plus, name)) for name in "abcd"))
        full = GaussPoly.gaussian(h_plus.variables, 1.0, -0.3 * h_plus.matrix)
        for operand, forms in [(g, [f, f]), (g, [f, thrice]), (g, [f, zero]), (g, [zero]),
                               (full, [h_plus, h_plus]), (full, [h_plus, doubled])]:
            with pytest.raises(ValueError, match="forms must be linearly independent"):
                gaussian_star(operand, operand, forms=forms)

    def test_no_forms_is_refused(self):
        g = GaussPoly.gaussian(V2, 1.0, -0.5 * np.eye(2))
        with pytest.raises(ValueError, match="at least one quadratic form"):
            gaussian_star(g, g, forms=[])
        with pytest.raises(ValueError, match="at least one quadratic form"):
            star_power(g, 2, forms=())

    @pytest.mark.parametrize("point", [dict(mu=1e-9, nu=1e6), dict(mu=3e-5, nu=2e3)])
    def test_two_mode_trace_property_with_scales_far_apart(self, point):
        # verify's trace-property pair: s- is about 1e12 times s+ at (1e-9,
        # 1e6), where a least-squares solve (lstsq) missed s+ by 8e-5 and the
        # trace by 1.5e-4
        params = ModelParams(**point)
        h_plus, h_minus = hamiltonians_pm(params)
        g1, g2 = (star_exp(h_plus, tp / abs(h_plus.k)).pointwise_mul(
            star_exp(h_minus, tm / abs(h_minus.k))) for tp, tm in ((-0.2, -0.5), (-0.35, -0.15)))
        lhs = integrate(gaussian_star(g1, g2, forms=[h_plus, h_minus]))
        rhs = float(gram([g1], [g2])[0, 0])
        assert abs(lhs - rhs) <= 1e-14 * abs(rhs)


# the anchors, (hbar, mass, omega, mu, nu) = (878, 205, 242, -0.006194,
# -1.2065e8) (the two-form solve's worst conditioning met, 8.8e4), scales far
# apart and theta = 1 - 1e-6
SCALE_POINTS = [dict(), dict(mu=0.2, nu=0.1), dict(mu=3.0, nu=-0.3), dict(mu=1.0, nu=0.999),
                dict(hbar=878.0, mass=205.0, omega=242.0, mu=-0.006194, nu=-1.2065e8),
                dict(mu=1e-9, nu=1e6), dict(mu=3e-5, nu=2e3), dict(mu=1.0, nu=1.0 - 1e-6)]


def lstsq_scales(Q, mats):
    A = np.stack([m.ravel() for m in mats], axis=1)
    return np.linalg.lstsq(A, Q.ravel(), rcond=None)[0]


class TestModeScales:
    # max |s - s_lstsq| / max |s_lstsq| measured 4.7e-16 over these points,
    # one form and two; the gate is about twenty times that
    @pytest.mark.parametrize("point", SCALE_POINTS)
    def test_matches_least_squares(self, point):
        params = ModelParams(**point)
        reduced = reduce(wigner_state(0, 0, params), 1).function
        ground = wigner_state(0, 0, params).function
        h_plus, h_minus = hamiltonians_pm(params)
        cases = [(reduced.exponent, own_form(reduced)),
                 (star_exp(h_plus, -0.3 / abs(h_plus.k)).exponent, [h_plus]),
                 (ground.exponent, [h_plus, h_minus])]
        for Q, forms in cases:
            mats = [f.matrix for f in forms]
            got, want = np.array(starcalc._mode_scales(Q, mats)), lstsq_scales(Q, mats)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_small_scale_matches_the_exact_split(self):
        # at (1e-9, 1e6) the exact least-squares split of the float data
        # (rational arithmetic) has s+ about 1e-12 of s-: each scale lands
        # within an ulp of it, where lstsq's s+ is 8.2e-5 off
        params = ModelParams(mu=1e-9, nu=1e6)
        Q = wigner_state(0, 0, params).function.exponent
        mats = [f.matrix for f in hamiltonians_pm(params)]
        a, b = ([Fraction(x) for x in m.ravel().tolist()] for m in mats)
        q = [Fraction(x) for x in Q.ravel().tolist()]
        dot = lambda u, v: sum(x * y for x, y in zip(u, v))  # noqa: E731
        det = dot(a, a) * dot(b, b) - dot(a, b) ** 2
        exact = [(dot(b, b) * dot(a, q) - dot(a, b) * dot(b, q)) / det,
                 (dot(a, a) * dot(b, q) - dot(a, b) * dot(a, q)) / det]
        got = starcalc._mode_scales(Q, mats)
        for s, e in zip(got, exact):
            assert abs(s - float(e)) <= 2.3e-16 * abs(float(e))

    def test_residual_check_fails_on_nan(self):
        form = two_square_1d(1.0, 2.0)
        Q = -0.3 * form.matrix
        Q[0, 0] = np.nan
        with pytest.raises(ValueError, match="not a combination of the given forms"):
            starcalc._mode_scales(Q, [form.matrix])


def reference_star_power(g, n, forms):
    """The sequential loop: n - 1 products of the running power with g."""
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
        reduced = reduce(wigner_state(0, 0, params), 1).function
        return reduced, own_form(reduced)
    params = ModelParams(hbar=hbar, mu=0.02, nu=0.01)
    return wigner_state(0, 0, params).function, list(hamiltonians_pm(params))


class TestStarPower:
    def test_first_power_is_identity(self):
        g = GaussPoly.gaussian(V2, 1.3, -0.6 * np.eye(2))
        out = star_power(g, 1, forms=own_form(g))
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
        power = star_power(reduced, n, forms=own_form(reduced))
        total = integrate(power)
        beta_n = expected_beta if expected_beta else 3.0 + lam**2
        want = lam ** (n - 1) / (math.pi ** (n - 1) * beta_n)
        assert total == pytest.approx(want, rel=1e-11)

    def test_invalid_order_rejected(self):
        g = GaussPoly.gaussian(V2, 1.0, -0.5 * np.eye(2))
        for n in (0, -2, True, 2.0, np.int64(0)):
            with pytest.raises(ValueError, match="positive integer order"):
                star_power(g, n, forms=own_form(g))

    @pytest.mark.parametrize("n", [np.int64(3), np.int32(5), np.uint8(8)])
    def test_numpy_integer_order_accepted(self, n):
        g, forms = power_case("reduced-2d")
        got, want = star_power(g, n, forms=forms), star_power(g, int(n), forms=forms)
        assert got.prefactor == want.prefactor
        assert np.array_equal(got.exponent, want.exponent)

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
        dressed = GaussPoly(V2, 1.0, -0.5 * form.matrix, *terms({(0, 0): 1.0, (2, 0): 0.5}, 2))
        for g in (narrow, dressed):
            with pytest.raises(ValueError) as want:
                reference_star_power(g, n, forms=[form])
            with pytest.raises(ValueError) as got:
                star_power(g, n, forms=[form])
            assert str(got.value) == str(want.value)


class TestStarLog:
    def test_constant_log(self):
        g = GaussPoly.constant(V2, 2.5)
        const, quad = star_log_gaussian(g, form=two_square_1d(1.0, 1.0))
        assert const == pytest.approx(math.log(2.5), rel=1e-15)
        assert quad.poly == {}

    def test_reduced_state_log_closed_form(self):
        # ln_*(2 pi hbar W1) = ln(2 lam / sqrt(1-lam^2)) + scaled mode form
        from conftest import params_for_lambda
        lam = 0.8
        params = params_for_lambda(lam)
        reduced = reduce(wigner_state(0, 0, params), 1).function
        const, quad = star_log_gaussian(reduced.scaled(2 * math.pi * params.hbar),
                                        form=own_form(reduced)[0])
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
            star_log_gaussian(g, form=own_form(g)[0])
