import math
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import decimal_beta, decimal_entropy, params_for_lambda

from ncphase import entropy
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

# from the lower end of the purity range to the pure state
ORACLE_LAMBDAS = (LAMBDA_MIN + 1e-12, 0.58, 0.6, 0.8, 1.0 - 1e-6, 1.0)


def assert_matches_decimal(order, lams=ORACLE_LAMBDAS):
    """Renyi, Tsallis and the Renyi supremum at order within 1e-15 of the
    60-digit decimal evaluation of the paper's beta_n formulas."""
    for lam in lams:
        for kind, closed in (("renyi", renyi_entanglement),
                             ("tsallis", tsallis_entanglement)):
            want = decimal_entropy(kind, order, lam)
            assert abs(closed(order, lam).value - want) <= 1e-15, (kind, lam)
    assert abs(renyi_supremum(order)
               - decimal_entropy("renyi", order, LAMBDA_MIN)) <= 1e-15


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
        for n in (0, -1, 2.0, True, np.int64(0), np.True_):
            with pytest.raises(ValueError, match="recursion depth n must be a positive"):
                beta_gamma(n)

    def test_numpy_integer_depth(self):
        table = beta_gamma(np.int64(3))
        assert table == beta_gamma(3) and type(table.n) is int

    def test_closed_sum_matches_the_exact_table(self):
        # the identity behind the log-sum closed forms and the decimal oracle
        for n in range(1, 41):
            coeffs = beta_gamma(n).beta
            for lam in (LAMBDA_MIN, 0.77, 1.0):
                with localcontext(Context(prec=60)):
                    x_sq = Decimal(lam) ** 2
                    table = sum(c * x_sq ** k for k, c in enumerate(coeffs))
                    error = abs(decimal_beta(n, lam) / table - 1)
                assert error < Decimal("1e-50")


    def test_matches_the_recursion(self):
        # beta_n = beta_(n-1) + gamma_(n-1), gamma_n = lam^2 beta_(n-1) +
        # gamma_(n-1), on coefficient lists in powers of lam^2
        beta, gamma = [1], [1]
        for n in range(1, 65):
            assert beta_gamma(n) == entropy.BetaGamma(n, tuple(beta), tuple(gamma))
            width = max(len(beta), len(gamma)) + 1
            b, g = (beta + [0] * width)[:width], (gamma + [0] * width)[:width]
            beta = [x + y for x, y in zip(b, g)]
            gamma = [y + x for x, y in zip([0] + b, g)]
            while beta[-1] == 0:
                beta.pop()
            while gamma[-1] == 0:
                gamma.pop()


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
        lambda: renyi_entanglement(True, 0.9),
        lambda: tsallis_entanglement(np.int64(1), 0.9),
    ])
    def test_unsupported_orders_rejected(self, order_fn):
        with pytest.raises(ValueError):
            order_fn()

    def test_orders_at_the_coefficient_edge_keep_their_values(self):
        # beta_gamma's largest coefficient overflows a double from order
        # 1030, and from 2048 even its mean does; the log sums cross both
        for order in range(1026, 2049):
            assert_matches_decimal(order, lams=(LAMBDA_MIN + 1e-12, 0.8, 1.0 - 1e-6))

    @pytest.mark.parametrize("order", [1030, 1031, 2047, 2048, 10**9])
    def test_orders_past_the_coefficient_edge_fail_at_once(self, order):
        # past the coefficient edge the log sums build no table and have
        # values at every order that converts to a double
        assert_matches_decimal(order)

    def test_supremum_overflow_raises(self):
        # order 1029 overflows a double summed from the beta_gamma table but
        # not as a log sum; an order too large for a float raises
        assert abs(renyi_supremum(1029)
                   - decimal_entropy("renyi", 1029, LAMBDA_MIN)) <= 1e-15
        order = 10**400
        for fn in (lambda: renyi_entanglement(order, 0.6),
                   lambda: tsallis_entanglement(order, 0.6),
                   lambda: renyi_supremum(order)):
            with pytest.raises(ValueError, match=f"unsupported order {order}: "
                                                 "the result overflows"):
                fn()

    def test_orders_across_the_range_match_the_decimal_oracle(self):
        for order in [*range(2, 65), *range(65, 5001, 97), 5000, 100000]:
            assert_matches_decimal(order)

    def test_array_forms_equal_the_scalar_queries(self):
        lam = np.linspace(LAMBDA_MIN + 1e-12, 1.0, 257)
        for order in (2, 3, 4, 7, 256, 2048):
            for array_of, scalar in ((entropy._renyi_of, renyi_entanglement),
                                     (entropy._tsallis_of, tsallis_entanglement)):
                want = [scalar(order, float(x)).value for x in lam]
                assert array_of(order, lam).tolist() == want
        want = [von_neumann_entanglement(float(x)).value for x in lam]
        assert entropy._von_neumann_of(lam).tolist() == want
        assert entropy._von_neumann_of(LAMBDA_MIN) == von_neumann_supremum()

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

    def test_state_from_another_phase_space_is_refused(self):
        # a reduced state at hbar = 1 against params at hbar = 2: the
        # numeric routes refused it, where they gave about -0.69
        p, q = ModelParams(mu=0.2, nu=0.1), ModelParams(hbar=2.0, mu=0.2, nu=0.1)
        reduced = reduce(wigner_state(0, 0, p), 1)
        message = "^the state and params belong to different phase spaces$"
        for route in (lambda: renyi_numeric(reduced, 2, q),
                      lambda: tsallis_numeric(reduced, 3, q),
                      lambda: von_neumann_numeric(reduced, q)):
            with pytest.raises(ValueError, match=message):
                route()

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

    def test_subnormal_trace_is_refused(self):
        # at (3, -0.3) int W^n turns subnormal from n = 342: the Renyi value
        # drifts (2e-6 off at n = 356) and at n = 360 the trace is 0.0
        params = ModelParams(mu=3.0, nu=-0.3)
        reduced = reduce(wigner_state(0, 0, params), 1)
        lam = derive(params).lam
        assert abs(renyi_numeric(reduced, 340, params).value
                   - renyi_entanglement(340, lam).value) <= 1e-15
        for order in (342, 356, 360, 386):
            with pytest.raises(ValueError, match=f"unsupported order {order}: "
                                                 "the star-power trace underflows"):
                renyi_numeric(reduced, order, params)

    def test_result_metadata(self):
        params = params_for_lambda(0.9)
        reduced = reduce(wigner_state(0, 0, params), 1)
        res = renyi_numeric(reduced, 3, params)
        assert res.kind == "renyi" and res.order == 3
        assert res.method == "star-power-numeric"
        # a numpy integer order is the same request, reported as an int
        assert renyi_numeric(reduced, np.int64(3), params) == res
        assert type(renyi_numeric(reduced, np.int64(3), params).order) is int


class TestScaleInvariance:
    """Entropies depend on (u, v) = (m w mu / hbar, nu / (hbar m w)) alone.

    A point with hbar, mass and omega each up to 1e3 from 1 must give the
    values of the unit-scale point with the same (u, v): lam and the closed
    forms to 1e-12, each star-power route to 1e-9.
    """

    @staticmethod
    def routes(params):
        """Closed and numeric values at params; None where the numeric
        route refuses the point (no star logarithm within 1e-9 of lam = 1)."""
        lam = derive(params).lam
        reduced = reduce(wigner_state(0, 0, params), 1)
        try:
            vn = von_neumann_numeric(reduced, params).value
        except ValueError:
            vn = None
        out = {"lam": lam, "vn": von_neumann_entanglement(lam).value, "vn-numeric": vn}
        for order in (2, 3, 4, 5):
            out[f"renyi-{order}"] = renyi_entanglement(order, lam).value
            out[f"tsallis-{order}"] = tsallis_entanglement(order, lam).value
            out[f"renyi-{order}-numeric"] = renyi_numeric(reduced, order, params).value
            out[f"tsallis-{order}-numeric"] = tsallis_numeric(reduced, order, params).value
        return out

    @settings(max_examples=100, deadline=None)
    @given(scales=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
           u=st.floats(-5.0, 5.0), product=st.floats(-0.998, 0.998),
           swap=st.booleans())
    def test_scaled_point_matches_unit_scale(self, scales, u, product, swap):
        hbar, mass, omega = (10.0 ** e for e in scales)
        v = product / max(abs(u), 1.0)  # |u v| < 0.999
        if swap:
            u, v = v, u
        want = self.routes(ModelParams(mu=u, nu=v))
        got = self.routes(ModelParams(hbar=hbar, mass=mass, omega=omega,
                                      mu=u * hbar / (mass * omega),
                                      nu=v * hbar * mass * omega))
        assert (got["vn-numeric"] is None) == (want["vn-numeric"] is None)
        for name, value in want.items():
            if value is not None:
                tol = 1e-9 if name.endswith("numeric") else 1e-12
                assert abs(got[name] - value) <= tol, name


class TestClassChecksAreUnitFree:
    """Whether a function is a pure Gaussian, or has a zero Gaussian part, is
    read from its structure, not from its entries against a fixed 1e-14:
    at hbar = 1e15 every exponent entry of the reduced ground state is below
    1e-14, and at hbar = 1e16 so is every coefficient of W(1,1) but the
    constant one."""

    @staticmethod
    def numeric(params):
        reduced = reduce(wigner_state(0, 0, params), 1)
        return [renyi_numeric(reduced, 2, params).value,
                renyi_numeric(reduced, 3, params).value,
                tsallis_numeric(reduced, 2, params).value,
                von_neumann_numeric(reduced, params).value]

    @pytest.mark.parametrize("hbar", [1e15, 1e30])
    def test_numeric_routes_far_from_unit_scale(self, hbar):
        want = self.numeric(ModelParams(mu=0.2, nu=0.1))
        got = self.numeric(ModelParams(hbar=hbar, mu=0.2 * hbar, nu=0.1 * hbar))
        assert np.allclose(got, want, rtol=0.0, atol=1e-9), (got, want)

    @pytest.mark.parametrize("mu,nu", [(0.0, 0.0), (0.2, 0.1)])
    def test_total_entropy_far_from_unit_scale(self, mu, nu):
        hbar = 1e16
        params = ModelParams(hbar=hbar, mu=mu * hbar, nu=nu * hbar)
        assert abs(renyi_total(wigner_state(0, 0, params), 3, params).value) <= 1e-12
        with pytest.raises(ValueError, match="Gaussian states only"):
            renyi_total(wigner_state(1, 1, params), 3, params)


class TestTotalEntropy:
    @pytest.mark.parametrize("mu,nu", [(0.0, 0.0), (0.2, 0.1), (1.0, 0.0)])
    def test_pure_states_vanish(self, mu, nu):
        params = ModelParams(mu=mu, nu=nu)
        for (i, j) in [(0, 0), (1, 1)]:
            state = wigner_state(i, j, params)
            assert abs(renyi_total(state, 2, params).value) <= 1e-9

    def test_ground_state_higher_orders(self):
        # the two-mode star power of a pure state keeps its total entropy 0
        for mu, nu in [(0.0, 0.0), (0.2, 0.1), (1.0, 0.0)]:
            params = ModelParams(mu=mu, nu=nu)
            state = wigner_state(0, 0, params)
            for alpha in range(3, 9):
                assert abs(renyi_total(state, alpha, params).value) <= 1e-9

    def test_equal_mixture_gives_ln2(self):
        params = ModelParams(mu=0.2, nu=0.1)
        w00 = wigner_state(0, 0, params).function
        w10 = wigner_state(1, 0, params).function
        mixed = w00.scaled(0.5) + w10.scaled(0.5)
        assert renyi_total(mixed, 2, params).value == pytest.approx(
            math.log(2.0), abs=1e-9)

    def test_non_positive_overlap_names_its_cause(self):
        # near the band the self-overlap of W(0, 3) has lost its digits: it
        # comes out at or below the rounding of the terms it adds; no
        # logarithm of it is taken
        params = ModelParams(mu=0.99, nu=1.0)
        with pytest.raises(ValueError, match=r"trace of W\*W is .*not positive"):
            renyi_total(wigner_state(0, 3, params), 2, params)

    def test_overlap_within_its_rounding_is_refused(self):
        # a positive self-overlap can have lost its digits too: at (0.99, 1)
        # W(3, 3)'s comes out at 580 where 1/cell is 2.53, and a plain sign
        # check took it for a total entropy of -5.8; W(2, 2)'s keeps about
        # three digits
        params = ModelParams(mu=0.99, nu=1.0)
        with pytest.raises(ValueError, match=r"trace of W\*W is .*not positive beyond"):
            renyi_total(wigner_state(3, 3, params), 2, params)
        assert abs(renyi_total(wigner_state(2, 2, params), 2, params).value) <= 1e-3

    def test_subnormal_trace_is_refused(self):
        # the same trace check as the 2-D route: a subnormal int W*W has lost
        # its digits, where a normal one still gives ln 2 for the mixture
        params = ModelParams(mu=0.2, nu=0.1)
        w00 = wigner_state(0, 0, params).function
        assert renyi_total(w00.scaled(1e-150), 2, params).value == pytest.approx(
            -math.log(1e-300), rel=1e-12)
        with pytest.raises(ValueError, match="unsupported order 2: "
                                             "the star-power trace underflows"):
            renyi_total(w00.scaled(1e-155), 2, params)

    def test_state_from_another_phase_space_is_refused(self):
        # a pure state's total entropy is 0; against another point's params
        # it came out -0.66
        state = wigner_state(0, 0, ModelParams(mu=0.2, nu=0.1))
        with pytest.raises(ValueError, match="^the state and params belong to "
                                             "different phase spaces$"):
            renyi_total(state, 2, ModelParams(mu=3.0, nu=-0.3))

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
