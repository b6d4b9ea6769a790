import math
from fractions import Fraction

import numpy as np
import pytest

from ncphase import (
    ModelParams,
    derive,
    energy_level,
    genvalue_residual,
    hamiltonians_pm,
    integrate,
    marginalize,
    minimal_cell,
    oscillator_hamiltonian,
    reduce,
    star_product_poly_left,
    star_product_poly_right,
    wigner_state,
)
from ncphase.starcalc import grid_values
from ncphase.wigner import _genvalue_residuals_and_scales, _residual_axes, residual_grid


def grid_scale(state):
    return np.abs(state.function.value(residual_grid(state.function))).max()


class TestModeHamiltonians:
    def test_sum_reassembles_oscillator(self):
        for mu, nu in [(0.0, 0.0), (0.3, 0.1), (1.0, 0.0)]:
            params = ModelParams(mu=mu, nu=nu)
            h_plus, h_minus = hamiltonians_pm(params)
            total = h_plus.matrix + h_minus.matrix
            m, w = params.mass, params.omega
            expected = np.diag([m * w**2 / 2, m * w**2 / 2,
                                1 / (2 * m), 1 / (2 * m)])
            assert np.abs(total - expected).max() < 1e-14

    def test_commutative_limit_halves(self):
        h_plus, h_minus = hamiltonians_pm(ModelParams())
        # both modes carry half the quadratic diagonal at mu = nu = 0
        assert np.allclose(np.diag(h_plus.matrix), [0.25, 0.25, 0.25, 0.25])
        assert np.allclose(np.diag(h_minus.matrix), [0.25, 0.25, 0.25, 0.25])

    def test_modes_star_commute(self):
        params = ModelParams(mu=0.3, nu=0.1)
        h_plus, h_minus = hamiltonians_pm(params)
        ab = star_product_poly_left(h_plus.poly(), h_minus.poly())
        ba = star_product_poly_left(h_minus.poly(), h_plus.poly())
        keys = set(ab.poly) | set(ba.poly)
        diff = max(abs(ab.poly.get(k, 0.0) - ba.poly.get(k, 0.0)) for k in keys)
        assert diff < 1e-10

    def test_genvalue_anchor_for_mode_split(self):
        params = ModelParams(mu=0.3, nu=0.1)
        state = wigner_state(0, 0, params)
        assert genvalue_residual(state, params) <= 1e-8 * grid_scale(state)


class TestWignerStates:
    def test_commutative_ground_state(self):
        params = ModelParams()
        state = wigner_state(0, 0, params)
        assert state.energy == pytest.approx(1.0)  # units hbar*omega with both =1
        pts = np.array([[0.0, 0.0, 0.0, 0.0], [0.5, -0.3, 0.2, 0.1]])
        want = np.exp(-np.sum(pts**2, axis=1)) / math.pi**2
        assert np.abs(state.function.value(pts) - want).max() < 1e-14

    def test_energy_formula_first_excited(self):
        params = ModelParams(mu=0.2, nu=0.1)
        state = wigner_state(1, 0, params)
        delta, eta = 0.05, 0.15
        assert state.energy == pytest.approx(2 * math.sqrt(1 + delta**2) + eta,
                                             rel=1e-14)
        assert energy_level(1, 0, params) == state.energy

    def test_normalization_up_to_three(self):
        params = ModelParams(mu=0.2, nu=0.1)
        for i in range(4):
            for j in range(4):
                state = wigner_state(i, j, params)
                assert integrate(state.function) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("i, keep, point, tol", [
        # the tiny coefficients of these towers carry their integrals: a
        # 1e-15 relative prune at construction leaves this benchmark tower
        # point 1.9e-4 off, (8,8) 7e4 and the (6,6) marginal 4e-3
        (6, 2, dict(hbar=1.9236, mass=1.1124, omega=1.0861, mu=-0.03263,
                    nu=-0.04764), 1e-9),
        (8, 2, dict(mass=2.0), 5e-8),
        (6, 1, dict(mu=3.0, nu=-0.3), 1e-8),
    ], ids=["tower-6-6", "mass-2-8-8", "marginal-6-6"])
    def test_deep_states_keep_every_coefficient(self, i, keep, point, tol):
        w = wigner_state(i, i, ModelParams(**point)).function
        assert abs(integrate(w) - 1.0) <= tol
        assert abs(integrate(marginalize(w, keep)) - 1.0) <= tol

    def test_degeneracy_in_commutative_limit(self):
        params = ModelParams()
        assert energy_level(2, 0, params) == pytest.approx(
            energy_level(1, 1, params), rel=1e-14)
        assert energy_level(2, 0, params) == pytest.approx(
            energy_level(0, 2, params), rel=1e-14)

    def test_excited_states_go_negative_at_origin(self):
        params = ModelParams(mu=0.2, nu=0.1)
        origin = np.zeros((1, 4))
        w10 = wigner_state(1, 0, params).function.value(origin)[0]
        assert w10 < 0.0
        w00 = wigner_state(0, 0, params).function.value(origin)[0]
        assert w00 > 0.0

    def test_ground_state_positive_on_grid(self):
        params = ModelParams(mu=0.3, nu=0.1)
        state = wigner_state(0, 0, params)
        vals = state.function.value(residual_grid(state.function))
        assert vals.min() > 0.0

    def test_laguerre_coefficients_are_memoized(self):
        from ncphase.wigner import _laguerre_coefficients
        coeffs = _laguerre_coefficients(6)
        assert coeffs is _laguerre_coefficients(6)
        assert isinstance(coeffs, tuple)
        # L_6(x) = sum_k (-1)^k C(6, k) x^k / k!
        assert coeffs == tuple(Fraction((-1) ** k * math.comb(6, k), math.factorial(k))
                               for k in range(7))

    def test_index_cap(self):
        with pytest.raises(ValueError):
            wigner_state(13, 0, ModelParams())
        with pytest.raises(ValueError):
            wigner_state(0, -1, ModelParams())


class TestOrthogonality:
    def test_star_orthogonality_via_trace_property(self):
        params = ModelParams(mu=0.2, nu=0.1)
        cell = minimal_cell(params)
        states = {(i, j): wigner_state(i, j, params)
                  for i in range(3) for j in range(3)}
        for (k, l), skl in states.items():
            for (i, j), sij in states.items():
                got = integrate(skl.function.pointwise_mul(sij.function))
                want = 1.0 / cell if (k, l) == (i, j) else 0.0
                assert got == pytest.approx(want, abs=1e-9 / cell)


class TestReduce:
    def test_commutative_reduced_state(self):
        params = ModelParams()
        reduced = reduce(wigner_state(0, 0, params), 1)
        pts = np.array([[0.4, -0.2], [0.0, 0.0], [1.2, 0.7]])
        want = np.exp(-(pts[:, 0] ** 2 + pts[:, 1] ** 2)) / math.pi
        assert np.abs(reduced.function.value(pts) - want).max() < 1e-14

    def test_deformed_prefactor_and_marginal_oracle(self):
        params = ModelParams(mu=1.0, nu=0.0)
        lam = derive(params).lam
        reduced = reduce(wigner_state(0, 0, params), 1)
        assert reduced.function.prefactor == pytest.approx(
            lam / math.pi, rel=1e-12)
        marg = marginalize(wigner_state(0, 0, params).function, keep=1)
        pts = residual_grid(reduced.function)
        scale = np.abs(reduced.function.value(pts)).max()
        assert np.abs(reduced.function.value(pts)
                      - marg.value(pts)).max() <= 1e-10 * scale

    def test_subsystems_identical_in_own_variables(self):
        params = ModelParams(mu=0.7, nu=-0.2)
        state = wigner_state(0, 0, params)
        r1 = reduce(state, 1)
        r2 = reduce(state, 2)
        assert r1.function.prefactor == r2.function.prefactor
        assert np.allclose(r1.function.exponent, r2.function.exponent)
        m1 = marginalize(state.function, keep=1)
        m2 = marginalize(state.function, keep=2)
        pts = residual_grid(m1)
        assert np.abs(m1.value(pts) - m2.value(pts)).max() <= \
            1e-12 * np.abs(m1.value(pts)).max()

    def test_excited_state_rejected(self):
        params = ModelParams(mu=0.2, nu=0.1)
        with pytest.raises(ValueError):
            reduce(wigner_state(1, 0, params), 1)


class TestGenvalueResidual:
    @pytest.mark.parametrize("mu,nu", [(0.0, 0.0), (0.2, 0.1), (1.0, 0.0)])
    def test_eigenstates_pass(self, mu, nu):
        params = ModelParams(mu=mu, nu=nu)
        for i, j in [(0, 0), (1, 0), (2, 1), (3, 3), (4, 4), (5, 5)]:
            state = wigner_state(i, j, params)
            assert genvalue_residual(state, params) <= 1e-8 * grid_scale(state)

    @pytest.mark.parametrize("mu,nu", [(1.0, 0.999), (1.0, 0.9999)])
    def test_low_states_in_the_near_singular_band(self, mu, nu):
        # exponent entries near 1e3 and 1e4: E_a = (B/2)[a, b] d/dz_b meets
        # them as (B/2) Q, of order 1, so the residual keeps its digits
        params = ModelParams(mu=mu, nu=nu)
        for i, j in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            state = wigner_state(i, j, params)
            [(res, scale)] = _genvalue_residuals_and_scales([state], params, [state.energy])
            assert res <= 1e-10 * scale

    def test_wrong_energy_fails_loudly(self):
        params = ModelParams(mu=0.2, nu=0.1)
        state = wigner_state(0, 0, params)
        res = genvalue_residual(state, params, energy=state.energy + 1.0)
        assert res >= 0.9 * grid_scale(state)

    @pytest.mark.parametrize("energy_shift", [0.0, 0.01])
    def test_residual_and_scale_from_one_evaluation(self, energy_shift):
        params = ModelParams(mu=0.3, nu=0.1)
        for i, j in [(0, 0), (1, 1)]:
            state = wigner_state(i, j, params)
            e = state.energy * (1.0 + energy_shift)
            [(res, scale)] = _genvalue_residuals_and_scales([state], params, [e])
            assert res == genvalue_residual(state, params, energy=e)
            # the scale is max|W| from the grid evaluation of the residual
            w = state.function
            w_vals = grid_values([w], _residual_axes(w))[0]
            assert scale == np.abs(w_vals).max()
            h = oscillator_hamiltonian(params)
            products = (star_product_poly_left(h, w), star_product_poly_right(w, h))
            assert res == max(np.abs(grid_values([hw], _residual_axes(w))[0] - e * w_vals).max()
                              for hw in products)

    def test_hamiltonian_polynomial(self):
        h = oscillator_hamiltonian(ModelParams(mass=2.0, omega=3.0))
        assert h.poly[(2, 0, 0, 0)] == pytest.approx(9.0)
        assert h.poly[(0, 0, 2, 0)] == pytest.approx(0.25)
