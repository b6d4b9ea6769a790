import hashlib
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from ncphase import (
    ModelParams,
    cell_size,
    derive,
    energy_level,
    genvalue_residual,
    hamiltonians_pm,
    integrate,
    marginalize,
    oscillator_hamiltonian,
    reduce,
    star_product_poly_left,
    star_product_poly_right,
    wigner_state,
)
from conftest import (DECIMAL, PI, decimal, exact_error, exact_inverse_2x2, exact_marginal,
                      exact_pair_moments, exact_wigner_terms)
from ncphase import starcalc, wigner
from ncphase.starcalc import PhaseVariables, QuadraticForm, grid_values
from ncphase.wigner import (
    MAX_INDEX,
    _cell_sums,
    _genvalue_residuals_and_scales,
    _invariants_up_to,
    _laguerre_cells,
    _laguerre_coefficients,
    _residual_axes,
    residual_grid,
)


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
        # energy_level refuses what wigner_state refuses, MAX_INDEX aside: a
        # negative index gave -0.15 there, and 1.5 gave 2.728
        params = ModelParams(mu=0.2, nu=0.1)
        with pytest.raises(ValueError, match="exceeds the supported maximum"):
            wigner_state(13, 0, params)
        assert energy_level(13, 0, params) > 0.0
        for i, j, name in [(0, -1, "j"), (-1, 0, "i"), (1.5, 0, "i"), (True, 0, "i"),
                           (0, 1.0, "j")]:
            for build in (energy_level, wigner_state):
                with pytest.raises(ValueError, match=f"index {name} must be a nonnegative integer"):
                    build(i, j, params)

    def test_numpy_integer_indices_accepted(self):
        params = ModelParams(mu=0.2, nu=0.1)
        got = wigner_state(np.int64(1), np.int32(0), params)
        want = wigner_state(1, 0, params)
        assert (type(got.i), type(got.j)) == (int, int)
        assert got.energy == want.energy == energy_level(np.int64(1), np.int32(0), params)
        assert got.function.prefactor == want.function.prefactor
        assert np.array_equal(got.function.coeffs, want.function.coeffs)


class TestOrthogonality:
    def test_star_orthogonality_via_trace_property(self):
        params = ModelParams(mu=0.2, nu=0.1)
        cell = cell_size(params)
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

    def test_subsystem_is_an_integer(self):
        # the check of wigner_state's indices: True and 1.0 passed, and True
        # became the state's subsystem
        state = wigner_state(0, 0, ModelParams(mu=0.2, nu=0.1))
        for subsystem in (True, False, 1.0, 2.0, np.float64(1.0), 0, 3, np.int64(3)):
            with pytest.raises(ValueError, match="subsystem must be 1 or 2"):
                reduce(state, subsystem)
        for subsystem in (np.int64(1), np.int32(2)):
            got = reduce(state, subsystem)
            assert type(got.subsystem) is int and got.subsystem == subsystem
            want = reduce(state, int(subsystem)).function
            assert got.function.prefactor == want.prefactor
            assert np.array_equal(got.function.exponent, want.exponent)


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


# SHA-256 of exps.tobytes() then coeffs.tobytes() at each (mu, nu), in the
# order W(0,0), W(2,1), W(3,3), W(6,6), H*W(2,1) and the keep = 1 marginal of
# W(3,3). W(0,0)'s was pinned when polynomials were {exponent tuple:
# coefficient} dicts. The other five were pinned again when W came to be
# expanded from the rotation invariants (R, P, L), which moved the last bits
# of its coefficients by design; test_terms_match_the_exact_expansion below
# gates their accuracy, which the digests do not measure. The marginal's was
# pinned again when 2-D moments came to be summed over cross pairings and
# 2x2 weights from the 2x2 formulas, which moved its last bits by design;
# test_marginal_matches_the_exact_marginal gates its accuracy.
TERM_DIGESTS = {
    (0.0, 0.0): (
        "6841360c725e8cfcad4fab032784e071ee0bbf981e301e3982780c9661c34094",
        "32c81ceed6fb95d8decc2d712e019b6614cb3cc4cbf38738d7bdf538f24ba987",
        "0599c021dc2f7549298e4fc38555081c62df63610102f12c6bbcd72538168cdf",
        "02dd0ab1c9500ffc3d750f5931758d52a1f1ab14ff69c91526e63f42fd7a9301",
        "be8163aad8cb4987c633a0aff4cf9aa86ca8ebf7343a63d971fa46d68fa7dc55",
        "ef309084ef8655cc0c62b7773f1cf4aff63651b6112f6dcfc91e8e1598e9613e",
    ),
    (0.2, 0.1): (
        "6841360c725e8cfcad4fab032784e071ee0bbf981e301e3982780c9661c34094",
        "5176124cba6182f1b5a5b11fdb7de0ddd5fbd5b7354ee390fa41f13d2f1901c6",
        "5bc7b7d2e5f81e4ddbae64025c282cdd2235d399524c19a34ab471e1052c3d8f",
        "cbacfe512e71eb0dc110e7d7c9524669ceca70dcce2ec270c5c5d899dfcc19e8",
        "ddec82b2deac319f99dcee7025ed1b29299f323282ab6e115dec38adcf722c52",
        "d599e32215d55134f6773cff58e57e29b07da7e13fd27a5a86dc4ed582b495a1",
    ),
    (3.0, -0.3): (
        "6841360c725e8cfcad4fab032784e071ee0bbf981e301e3982780c9661c34094",
        "82509964323374877e67ccfb834f741ebfef063c5e8b065c077bbe4ed465405e",
        "d8996b9dccd91dfdf970f5b8dd6daaeb0c6544aae9ee15f9be998433731e95a5",
        "3aacb1be9a52ceb37d61b9d9d7599b43572ecb66e8f43799818fbf77921f3826",
        "8b2f6cf0327b974bb72e6393a8ca92db4fd607e83b4ae894b469afe43b86eeed",
        "3d95e0dbc90764dd58f6b0ca64527a010bd82ef4204bbd18d04e49f19a632a42",
    ),
    (1.0, 0.999): (
        "6841360c725e8cfcad4fab032784e071ee0bbf981e301e3982780c9661c34094",
        "c66017e821d619631b81c5b7887cd9ed9c48eb113e28337548061e4e786afcf4",
        "b24708e6a06050e7a58a2970171d92312f0aab1fd1116ad02790a7851f4e4a0f",
        "5bf657bbd7da57ce6b4d18a73abf7bd8a0fdd23b4ad35eaa0ca0783d72e6f9da",
        "b2f00f72f7822846f271d6ab82d3aab2f43313887d05f192f9c3376c6499710a",
        "64d6f5d2bd01774eda12867d9007b5043ec275975af3897dec24295e7c4556ff",
    ),
}


def term_digest(f) -> str:
    digest = hashlib.sha256(f.exps.tobytes())
    digest.update(f.coeffs.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("mu,nu", list(TERM_DIGESTS))
def test_terms_keep_their_bits(mu, nu):
    params = ModelParams(mu=mu, nu=nu)
    w = {ij: wigner_state(*ij, params).function for ij in [(0, 0), (2, 1), (3, 3), (6, 6)]}
    funcs = [*w.values(), star_product_poly_left(oscillator_hamiltonian(params), w[2, 1]),
             marginalize(w[3, 3], 1)]
    assert [term_digest(f) for f in funcs] == list(TERM_DIGESTS[mu, nu])


# max |c - c_exact| / max |c_exact| of W's coefficients against their exact
# expansion (conftest.exact_wigner_terms), per state. Measured over the
# anchors and the tower point below: at most 1.0e-16 for W(2,1), 5.6e-16
# for W(3,3) and 3.5e-15 for W(6,6); the product of Laguerre towers term pair
# by term pair measured 1.7e-16, 6.1e-16 and 3.8e-15 on the same cases. Each
# gate is about three times the larger of the two.
EXACT_GATES = {(2, 1): 5e-16, (3, 3): 2e-15, (6, 6): 1e-14}
GATE_POINTS = [dict(mu=0.0, nu=0.0), dict(mu=0.2, nu=0.1), dict(mu=3.0, nu=-0.3),
               dict(mu=1.0, nu=0.999), dict(hbar=1.0, mass=1.1, omega=0.9, mu=1e-3, nu=0.4)]


@pytest.mark.parametrize("point", GATE_POINTS, ids=lambda p: "-".join(map(str, p.values())))
@pytest.mark.parametrize("i,j", list(EXACT_GATES))
def test_terms_match_the_exact_expansion(i, j, point):
    params = ModelParams(**point)
    w = wigner_state(i, j, params).function
    assert exact_error(w.exps, w.coeffs, exact_wigner_terms(i, j, params)) <= EXACT_GATES[i, j]


# The keep = 1 marginal of W(3, 3) against the exact marginal of the same
# float W (conftest.exact_marginal), each coefficient's error in units of the
# sum of the magnitudes of its terms, and integrate of the marginal against
# its exact integral in units of the same sum taken over the moments under
# |covariance|: measured at most 4.5e-16 and 2.1e-17 over GATE_POINTS, the
# 878 point, (1e-9, 1e6) and theta = 1 - 1e-6, both keeps (4.6e-16 and
# 1.5e-17 with the moment recursion and LAPACK's det before). The prefactor,
# the state's times pi / sqrt(det(-Q_II)), measured 2.1e-16 (8.8e-16 before).
# Each gate is about three times the largest.
MARGINAL_GATES = {"coefficients": 1.5e-15, "integral": 6e-17, "prefactor": 7e-16}


@pytest.mark.parametrize("point", GATE_POINTS, ids=lambda p: "-".join(map(str, p.values())))
def test_marginal_matches_the_exact_marginal(point):
    w = wigner_state(3, 3, ModelParams(**point)).function
    got = marginalize(w, 1)
    det_i, reduced, exact = exact_marginal(w, 1)
    size = exact_marginal(w, 1, magnitude=True)[2]
    coeffs = dict(zip(map(tuple, got.exps.tolist()), got.coeffs.tolist()))
    assert max(abs(Fraction(coeffs.get(m, 0.0)) - exact.get(m, 0)) / size[m]
               for m in coeffs.keys() | exact) <= MARGINAL_GATES["coefficients"]
    # the integral is prefactor * pi / sqrt(det(-Q_red)) times the moment sum
    det_k, cov = exact_inverse_2x2(reduced)
    top = max(map(sum, size))
    moment = exact_pair_moments(cov, top)
    scale = exact_pair_moments([[abs(x) for x in row] for row in cov], top)
    total = sum(x * moment[m] for m, x in exact.items() if sum(m) % 2 == 0)
    bound = sum(x * scale[m] for m, x in size.items() if sum(m) % 2 == 0)
    with localcontext(DECIMAL):
        prefactor = Decimal(w.prefactor) * PI / decimal(det_i).sqrt()
        assert abs(Decimal(got.prefactor) / prefactor - 1) <= MARGINAL_GATES["prefactor"]
        factor = abs(prefactor) * PI / decimal(det_k).sqrt()
        miss = abs(Decimal(integrate(got)) - factor * decimal(total))
        assert miss <= Decimal(MARGINAL_GATES["integral"]) * factor * decimal(bound)


def test_cell_sums_are_within_a_rounding_of_exact():
    # products of widely spread magnitudes and signs, summed per key: within
    # one unit in the last place of the exact sum (measured 0.50 over these
    # draws, where plain np.bincount sums of the same products missed by 33)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        a = rng.normal(size=12) * 10.0 ** rng.integers(-8, 8, size=12)
        b = rng.normal(size=15) * 10.0 ** rng.integers(-8, 8, size=15)
        keys = rng.integers(0, 6, size=a.size * b.size)
        exact = [Fraction(0)] * 6
        products = (Fraction(x) * Fraction(y) for x in a.tolist() for y in b.tolist())
        for key, product in zip(keys.tolist(), products):
            exact[key] += product
        for got, want in zip(_cell_sums(keys, a, b).tolist(), exact):
            worst = max(worst, float(abs(Fraction(got) - want)) / math.ulp(float(want)))
    assert worst <= 1.0


def test_cell_sums_stay_finite_near_the_top_of_the_range():
    # where the 26-bit split (a factor of 2^995 or more) or the grid sigma (a
    # key's sum of magnitudes of 2^1021 or more) would overflow into inf - inf,
    # the plain sums are taken: both cases here came out NaN
    keys = np.arange(4)
    a, b = np.array([2.0**1000, 1.0]), np.array([2.0**-20, 1.0])
    assert _cell_sums(keys, a, b).tolist() == [2.0**980, 2.0**1000, 2.0**-20, 1.0]
    a, b = np.array([2.0**511, 2.0**511]), np.array([2.0**511, 2.0**510])
    assert _cell_sums(np.zeros(4, np.intp), a, b).tolist() == [1.5 * 2.0**1023]


@pytest.mark.parametrize("hbar,i,j", [(1e-100, 2, 1), (3e-154, 1, 1)])
def test_states_at_large_scale(hbar, i, j):
    # coefficients up to 1e301 and 8.9e307, within W(2,1)'s gate (measured
    # 1.8e-16 and 4.2e-17); one step on, a coefficient overflows and the
    # state is refused rather than built with inf or NaN
    params = ModelParams(hbar=hbar)
    w = wigner_state(i, j, params).function
    assert exact_error(w.exps, w.coeffs, exact_wigner_terms(i, j, params)) <= EXACT_GATES[2, 1]
    with pytest.raises(ValueError, match=r"coefficient of W\(.*leaves double precision range"):
        wigner_state(i + 1, j + 1, params)


ANCHORS = [(0.0, 0.0), (0.2, 0.1), (3.0, -0.3), (1.0, 0.999)]


@pytest.mark.parametrize("mu,nu", ANCHORS)
def test_rows_over_the_whole_index_range(mu, nu):
    # L_i(0) L_j(0) = 1, so the constant coefficient is exactly 1.0 and
    # W_ij(0) = (-1)^(i+j)/(pi^2 h+ h-), the prefactor
    params = ModelParams(mu=mu, nu=nu)
    for i in range(MAX_INDEX + 1):
        for j in range(MAX_INDEX + 1):
            w = wigner_state(i, j, params).function
            assert w.exps.dtype == np.int64
            assert (np.diff(w.exps @ 49 ** np.arange(3, -1, -1)) > 0).all(), (i, j)
            assert not (w.exps.sum(axis=1) % 2).any(), (i, j)
            assert not w.exps[0].any() and w.coeffs[0] == 1.0, (i, j)
    if (mu, nu) == (0.2, 0.1):  # the counts of the product of towers
        assert [len(wigner_state(n, n, params).function.coeffs) for n in (3, 6)] == [532, 5551]


def test_form_without_the_invariants_is_refused():
    variables = PhaseVariables(4, hbar=1.0, mu=0.2, nu=0.1)
    table = _invariants_up_to(2)
    # R = x1^2 + x2^2 has them: L_2(R) = 1 - 2 R + R^2/2
    form = QuadraticForm(variables, (1.0, 0.0), (0.0, 0.0), (0.0, 1.0), (0.0, 0.0))
    cells, values = _laguerre_cells(2, form, 1.0, table)
    pqr = np.unravel_index(cells, (len(table.ends),) * 3)
    assert {pqr: v for pqr, v in zip(zip(*(x.tolist() for x in pqr)), values.tolist()) if v} == \
        {(0, 0, 0): 1.0, (1, 0, 0): -2.0, (2, 0, 0): 0.5}
    for a, b, c, d in [((1.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)),  # x1^2
                       ((1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (0.0, 0.0)),  # (x1 + p2)^2
                       ((1.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 1.0))]:  # x1^2 + p2^2
        with pytest.raises(ValueError, match=r"not A R \+ B P \+ C L"):
            _laguerre_cells(2, QuadraticForm(variables, a, b, c, d), 1.0, table)


def test_laguerre_parts_follow_a_rebuilt_table(monkeypatch):
    # the table keeps each cell's (p, q, r, k), multinomial and the float
    # coefficients of L_n; a higher top replaces them with the box encoding
    monkeypatch.setattr(wigner, "_INVARIANTS", [])
    h_plus, _ = hamiltonians_pm(ModelParams(mu=0.2, nu=0.1))
    low = _invariants_up_to(3)
    by_cell = {}
    for table in (low, _invariants_up_to(7)):
        base = len(table.ends)
        p, q, r, k = table.pqrk
        assert np.array_equal(np.ravel_multi_index((p, q, r), (base,) * 3), table.box)
        assert (k == p + q + r).all()
        assert table.multinomial.tolist() == [
            math.factorial(a + b + c) / (math.factorial(a) * math.factorial(b) * math.factorial(c))
            for a, b, c in zip(p.tolist(), q.tolist(), r.tolist())]
        assert [x.tolist() for x in table.laguerre] == [
            [float(c) for c in _laguerre_coefficients(n)] for n in range(base)]
        cells, values = _laguerre_cells(3, h_plus, 0.7, table)
        pqr = zip(*(x.tolist() for x in np.unravel_index(cells, (base,) * 3)))
        by_cell[base] = dict(zip(pqr, values.tolist()))
    assert _invariants_up_to(5) is wigner._INVARIANTS[0]
    assert by_cell[4] == by_cell[8]


def test_ground_state_builds_no_form_polynomial(monkeypatch):
    # L_0 = 1, so W(0,0) needs no polynomial of H+ or H-
    def refuse(form):
        raise AssertionError("a form polynomial was built")
    monkeypatch.setattr(QuadraticForm, "poly", refuse)
    w = wigner_state(0, 0, ModelParams(mu=0.2, nu=0.1)).function
    assert w.exps.tolist() == [[0, 0, 0, 0]] and w.coeffs.tolist() == [1.0]


def test_low_states_build_no_lattice(monkeypatch):
    # W expands through the rotation invariants' own table, so no state
    # builds the graded monomial index: not the low ones, with L_0 and L_1,
    # nor those above them. The star series still reads it
    def refuse(d, top):
        raise AssertionError("a graded lattice was built")
    for module in (starcalc, wigner):
        monkeypatch.setattr(module, "_graded_lattice", refuse, raising=False)
    params = ModelParams(mu=0.2, nu=0.1)
    for i, j in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (6, 6)]:
        wigner_state(i, j, params)
    with pytest.raises(AssertionError, match="graded lattice"):
        star_product_poly_left(oscillator_hamiltonian(params),
                               wigner_state(1, 1, params).function)
