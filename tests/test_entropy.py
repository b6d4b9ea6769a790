import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import params_for_lambda

from ncphase import (
    LAMBDA_MIN,
    ModelParams,
    beta_gamma,
    derive,
    e1_nu_zero,
    e1_nu_zero_supremum,
    renyi_entanglement,
    renyi_numeric,
    renyi_supremum,
    renyi_total,
    reduce,
    tsallis_entanglement,
    tsallis_numeric,
    von_neumann_entanglement,
    von_neumann_numeric,
    von_neumann_supremum,
    wigner_state,
)

LAMBDA_GRID = np.linspace(0.60, 1.00, 9)


class TestBetaGamma:
    def test_table_matches_published_lines(self):
        # exact integer coefficients, constant term first
        expected = {
            2: ((2,), (1, 1)),
            3: ((3, 1), (1, 3)),
            4: ((4, 4), (1, 6, 1)),
            5: ((5, 10, 1), (1, 10, 5)),
            6: ((6, 20, 6), (1, 15, 15, 1)),
        }
        for n, (beta, gamma) in expected.items():
            bg = beta_gamma(n)
            assert bg.beta == beta
            assert bg.gamma == gamma

    def test_recurrence_invariant(self):
        for n in range(2, 13):
            prev, curr = beta_gamma(n - 1), beta_gamma(n)
            lam = 0.77
            assert curr.beta_at(lam) == pytest.approx(
                prev.beta_at(lam) + prev.gamma_at(lam), rel=1e-14)
            assert curr.gamma_at(lam) == pytest.approx(
                lam**2 * prev.beta_at(lam) + prev.gamma_at(lam), rel=1e-14)

    def test_coefficient_sums(self):
        for n in range(1, 13):
            bg = beta_gamma(n)
            assert sum(bg.beta) == 2 ** (n - 1)
            assert sum(bg.gamma) == 2 ** (n - 1)

    @settings(max_examples=100, deadline=None)
    @given(lam=st.floats(0.01, 1.0), n=st.integers(1, 12))
    def test_bounds_property(self, lam, n):
        beta = beta_gamma(n).beta_at(lam)
        assert (2 * lam) ** (n - 1) <= beta * (1 + 1e-12)
        assert beta <= 2 ** (n - 1) * (1 + 1e-12)

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            beta_gamma(0)


class TestClosedForms:
    def test_renyi_vanishes_at_unity(self):
        assert renyi_entanglement(2, 1.0).value == 0.0

    def test_renyi_suprema(self):
        near = LAMBDA_MIN + 1e-9
        assert renyi_entanglement(2, near).value == pytest.approx(0.549, abs=1e-3)
        assert renyi_entanglement(3, near).value == pytest.approx(0.458, abs=1e-3)
        assert renyi_entanglement(4, near).value == pytest.approx(0.414, abs=1e-3)
        assert renyi_supremum(2) == pytest.approx(0.5 * math.log(3), abs=1e-12)
        assert renyi_supremum(3) == pytest.approx(
            0.5 * (math.log(5) - math.log(2)), abs=1e-12)
        assert renyi_supremum(4) == pytest.approx(
            math.log(2) / 3 + math.log(3) / 6, abs=1e-12)

    def test_von_neumann_values(self):
        assert von_neumann_entanglement(1.0).value == 0.0
        near = LAMBDA_MIN + 1e-9
        assert von_neumann_entanglement(near).value == pytest.approx(0.794,
                                                                     abs=1e-3)
        assert von_neumann_supremum() == pytest.approx(
            math.sqrt(3) / 2 * math.log(2 + math.sqrt(3)) - 0.5 * math.log(2),
            abs=1e-12)

    def test_von_neumann_cross_checked_value(self):
        # oracle chain: nu = 0 closed form at u = 1 and the numeric log route
        lam = math.sqrt(5.0 / 6.0)
        closed = von_neumann_entanglement(lam).value
        assert closed == pytest.approx(e1_nu_zero(1.0), rel=1e-12)
        params = ModelParams(mu=1.0, nu=0.0)
        reduced = reduce(wigner_state(0, 0, params), 1)
        assert closed == pytest.approx(von_neumann_numeric(reduced, params).value,
                                       abs=1e-11)
        assert closed == pytest.approx(0.1940324, abs=1e-7)

    def test_tsallis_values(self):
        assert tsallis_entanglement(2, 1.0).value == 0.0
        assert tsallis_entanglement(2, 0.9).value == pytest.approx(0.1, rel=1e-12)
        # q = 3 at the lower endpoint: (1 - (4/3)/(3 + 1/3)) / 2 = 0.3
        lam0 = LAMBDA_MIN + 1e-12
        assert tsallis_entanglement(3, lam0).value == pytest.approx(0.3, abs=1e-9)

    @pytest.mark.parametrize("order_fn", [
        lambda: renyi_entanglement(1, 0.9),
        lambda: renyi_entanglement(2.5, 0.9),
        lambda: tsallis_entanglement(0, 0.9),
    ])
    def test_unsupported_orders_rejected(self, order_fn):
        with pytest.raises(ValueError):
            order_fn()

    def test_orders_at_the_coefficient_edge_keep_their_values(self):
        # the highest orders that still give a value; the constants are the
        # plain beta_gamma evaluation, which the early check must not change
        assert renyi_entanglement(1028, 0.58).value == 0.309305722974079
        assert renyi_entanglement(1026, 0.8).value == 0.11789794593507258
        assert tsallis_entanglement(1027, 0.8).value == 0.0009746588693957114
        assert renyi_supremum(1028) == 0.3122090634971217

    @pytest.mark.parametrize("order", [1030, 1031, 2047, 2048, 10**9])
    def test_orders_past_the_coefficient_edge_fail_at_once(self, order):
        # from order 1030 the largest beta coefficient overflows a double at
        # every lam; the error comes before any big-integer table is built
        for fn in (lambda: renyi_entanglement(order, 0.6),
                   lambda: tsallis_entanglement(order, 0.6),
                   lambda: renyi_supremum(order)):
            with pytest.raises(ValueError, match=f"unsupported order {order}: "
                                                 "the result overflows"):
                fn()

    def test_supremum_overflow_raises(self):
        # order 1029 converts every coefficient but overflows in the sum
        with pytest.raises(ValueError, match="unsupported order 1029"):
            renyi_supremum(1029)

    @pytest.mark.parametrize("lam", [0.5, LAMBDA_MIN, 1.0 + 1e-9])
    def test_out_of_range_lambda_rejected(self, lam):
        with pytest.raises(ValueError):
            renyi_entanglement(2, lam)
        with pytest.raises(ValueError):
            von_neumann_entanglement(lam)


class TestNumericRoute:
    def test_matches_closed_form_across_grid(self):
        for lam in LAMBDA_GRID:
            params = params_for_lambda(float(lam))
            reduced = reduce(wigner_state(0, 0, params), 1)
            actual_lam = derive(params).lam
            for alpha in (2, 3, 4, 5, 6):
                closed = renyi_entanglement(alpha, actual_lam).value
                numeric = renyi_numeric(reduced, alpha, params).value
                assert abs(closed - numeric) <= 1e-9

    def test_alpha_two_identity(self):
        for lam in LAMBDA_GRID:
            params = params_for_lambda(float(lam))
            actual_lam = derive(params).lam
            assert abs(renyi_entanglement(2, actual_lam).value
                       + math.log(actual_lam)) <= 1e-12

    def test_position_only_point_order_three(self):
        params = ModelParams(mu=1.0, nu=0.0)
        reduced = reduce(wigner_state(0, 0, params), 1)
        lam = math.sqrt(5.0 / 6.0)
        closed = renyi_entanglement(3, lam).value
        numeric = renyi_numeric(reduced, 3, params).value
        assert abs(closed - numeric) <= 1e-11

    def test_tsallis_numeric_route(self):
        params = params_for_lambda(0.85)
        reduced = reduce(wigner_state(0, 0, params), 1)
        lam = derive(params).lam
        for q in (2, 3, 4):
            closed = tsallis_entanglement(q, lam).value
            numeric = tsallis_numeric(reduced, q, params).value
            assert abs(closed - numeric) <= 1e-11

    def test_result_metadata(self):
        params = params_for_lambda(0.9)
        reduced = reduce(wigner_state(0, 0, params), 1)
        res = renyi_numeric(reduced, 3, params)
        assert res.kind == "renyi" and res.order == 3
        assert res.method == "star-power-numeric"


class TestTotalEntropy:
    @pytest.mark.parametrize("mu,nu", [(0.0, 0.0), (0.2, 0.1), (1.0, 0.0)])
    def test_pure_states_vanish(self, mu, nu):
        params = ModelParams(mu=mu, nu=nu)
        for (i, j) in [(0, 0), (1, 1)]:
            state = wigner_state(i, j, params)
            assert abs(renyi_total(state, 2, params).value) <= 1e-9

    def test_ground_state_higher_orders(self):
        params = ModelParams(mu=0.2, nu=0.1)
        state = wigner_state(0, 0, params)
        for alpha in (3, 4, 5):
            assert abs(renyi_total(state, alpha, params).value) <= 1e-9

    def test_equal_mixture_gives_ln2(self):
        params = ModelParams(mu=0.2, nu=0.1)
        w00 = wigner_state(0, 0, params).function
        w10 = wigner_state(1, 0, params).function
        mixed = w00.scaled(0.5) + w10.scaled(0.5)
        assert renyi_total(mixed, 2, params).value == pytest.approx(
            math.log(2.0), abs=1e-9)

    def test_excited_higher_order_unsupported(self):
        params = ModelParams(mu=0.2, nu=0.1)
        state = wigner_state(1, 0, params)
        with pytest.raises(ValueError):
            renyi_total(state, 3, params)


class TestNuZeroCase:
    def test_endpoints(self):
        assert e1_nu_zero(0.0) == 0.0
        assert e1_nu_zero(1e6) == pytest.approx(e1_nu_zero_supremum(), abs=1e-3)
        assert e1_nu_zero_supremum() == pytest.approx(0.553, abs=1e-3)

    def test_consistent_with_general_formula(self):
        for u in (0.5, 1.0, 2.0, 5.0, -3.0):
            lam = math.sqrt((4 + u * u) / (4 + 2 * u * u))
            assert e1_nu_zero(u) == pytest.approx(
                von_neumann_entanglement(lam).value, rel=1e-12)

    def test_even_in_u(self):
        for u in (0.3, 1.7, 4.0):
            assert e1_nu_zero(u) == pytest.approx(e1_nu_zero(-u), rel=1e-14)


class TestOrderingProperties:
    GRID = np.linspace(LAMBDA_MIN + 1e-6, 1.0, 50)

    def test_renyi_chain_and_positivity(self):
        for lam in self.GRID:
            e1 = von_neumann_entanglement(float(lam)).value
            e2 = renyi_entanglement(2, float(lam)).value
            e3 = renyi_entanglement(3, float(lam)).value
            e4 = renyi_entanglement(4, float(lam)).value
            if lam < 1.0:
                assert e1 > e2 > e3 > e4 > 0.0
            else:
                assert e1 == e2 == e3 == e4 == 0.0

    def test_renyi_dominates_tsallis(self):
        for lam in self.GRID:
            for order in (2, 3, 4):
                er = renyi_entanglement(order, float(lam)).value
                et = tsallis_entanglement(order, float(lam)).value
                if lam < 1.0:
                    assert er > et
                else:
                    assert er == et == 0.0

    def test_bounded_below_one_through_order_six(self):
        for lam in self.GRID:
            assert 0.0 <= von_neumann_entanglement(float(lam)).value < 1.0
            for alpha in range(2, 7):
                assert 0.0 <= renyi_entanglement(alpha, float(lam)).value < 1.0

    def test_monotone_decreasing_in_lambda(self):
        for values in (
            [von_neumann_entanglement(float(l)).value for l in self.GRID],
            [renyi_entanglement(2, float(l)).value for l in self.GRID],
            [renyi_entanglement(4, float(l)).value for l in self.GRID],
            [tsallis_entanglement(3, float(l)).value for l in self.GRID],
        ):
            diffs = np.diff(values)
            assert (diffs < 0.0).all()

    def test_vanishing_on_matched_deformation_line(self):
        # nu/mu = m^2 w^2 keeps the state unentangled for any deformation size
        for mu in np.linspace(0.05, 0.99, 20):
            params = ModelParams(mu=float(mu), nu=float(mu))
            lam = derive(params).lam
            assert von_neumann_entanglement(lam).value == pytest.approx(0.0,
                                                                        abs=1e-12)
            for alpha in (2, 3, 4):
                assert renyi_entanglement(alpha, lam).value == pytest.approx(
                    0.0, abs=1e-12)

    def test_subsystem_symmetry(self):
        params = ModelParams(mu=0.7, nu=-0.2)
        state = wigner_state(0, 0, params)
        r1, r2 = reduce(state, 1), reduce(state, 2)
        for alpha in (2, 3):
            v1 = renyi_numeric(r1, alpha, params).value
            v2 = renyi_numeric(r2, alpha, params).value
            assert v1 == pytest.approx(v2, rel=1e-12)
