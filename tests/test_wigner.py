import hashlib
import math
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
from ncphase import starcalc, wigner
from ncphase.starcalc import QuadraticForm, _poly_mul, grid_values
from ncphase.wigner import (
    _genvalue_residuals_and_scales,
    _laguerre_coefficients,
    _laguerre_of_form,
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
# W(3,3). Pinned when polynomials were {exponent tuple: coefficient} dicts,
# from the matrix and vector that `starcalc._terms(f.poly, d)` built of them
# (real unless an imaginary part was nonzero): the arrays keep their rows,
# order and bits.
TERM_DIGESTS = {
    (0.0, 0.0): (
        "6841360c725e8cfcad4fab032784e071ee0bbf981e301e3982780c9661c34094",
        "1762435b38c91d4e020cd4cfa4c290e204af3ec9145800a59dc1cd97bcd9944f",
        "aeeddc45d677845b7b89e812b5903fe7ca510567c303f415c4dfe5b2955dba29",
        "ceb3676f390033c7b1f3fde24395f50a14ba5e07cfe516f0f5614a987778f5bf",
        "ab912bc109356a3de0676c2ba0dec6fca8b465c4c77ac77d604b581fbfbdbde9",
        "33e2d0a11ec68bc29ba390ea28a6b8093cebeb7ad74578c1aed2e85e7e438bcf",
    ),
    (0.2, 0.1): (
        "6841360c725e8cfcad4fab032784e071ee0bbf981e301e3982780c9661c34094",
        "45a7c8712e3220030624c873a493c1b8825ff26bbbb3492b3e7252ec43979484",
        "e51b36807e428e067cd64206fdd1ce230d821b9512401b5cb64325f28815fda3",
        "6e498489ec284abe973766befdd1174ba401f28f46c345d2e1e653755b780cfa",
        "e855aa84782cd2596a3f01d281a264735177d7f3daeba8b95348e92e0f242586",
        "9c71d2e7111adb8370c49878cdbab42b543541ff2dd83837ae901bb3d8afb8b5",
    ),
    (3.0, -0.3): (
        "6841360c725e8cfcad4fab032784e071ee0bbf981e301e3982780c9661c34094",
        "0973fa567063ddf121104eecb1297749ec83696d112236329cd80b1b05f5045a",
        "346cc58d5b6cc3a59368dbb658b89b2f870435e403fa2b2892c479dfc3afe661",
        "49f114b3424cc78c38a0460140b171c7402d7a27ed34708ea52563d0c52017ba",
        "c7963ae9a64178655c00082e4da391d01adbad46300e059944a6b25a67c7d891",
        "a72c101bb318bfbc6bab750ac8ab6df84afc21c97fb8cac35dc752c1a4c25579",
    ),
    (1.0, 0.999): (
        "6841360c725e8cfcad4fab032784e071ee0bbf981e301e3982780c9661c34094",
        "b77d1b1aba69aa24669e6fff4b1653227c754aa05e3f3fcc88fee1b642061890",
        "c1d998f0e87c7ff851cec025b6c0b1e5bc5f8e3a0a8d3c86bc1cc556454c384d",
        "b5825786d247aa1decd1d423f31113ede828dd3ab4c5758cc06a2d1bc9df21c9",
        "7a228ef9cd3f99cdb0641065a330862bd9c1905aaa6c94e4ad610e62917d18a0",
        "46e350ca93078a4ef6071acea5c54b943c5f1e2f9a026187c198df301ac90c64",
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


def test_ground_state_builds_no_form_polynomial(monkeypatch):
    # L_0 = 1, so W(0,0) needs no polynomial of H+ or H-
    def refuse(form):
        raise AssertionError("a form polynomial was built")
    monkeypatch.setattr(QuadraticForm, "poly", refuse)
    w = wigner_state(0, 0, ModelParams(mu=0.2, nu=0.1)).function
    assert w.exps.tolist() == [[0, 0, 0, 0]] and w.coeffs.tolist() == [1.0]


# the four anchors, a point far from unit scales, and a large hbar
TOWER_POINTS = [dict(mu=0.0, nu=0.0), dict(mu=0.2, nu=0.1), dict(mu=3.0, nu=-0.3),
                dict(mu=1.0, nu=0.999),
                dict(hbar=878.0, mass=205.0, omega=242.0, mu=-0.006194, nu=-1.2065e8),
                dict(hbar=1e8)]


def laguerre_by_products(n, form, scale):
    """L_n(scale * H) as it was built before the graded index: each power
    H^k = H^(k-1) * H by `_poly_mul`."""
    h = form.poly()
    powers = [(np.zeros((1, 4), dtype=np.int64), np.ones(1)), (h.exps, h.coeffs)][:n + 1]
    while len(powers) <= n:
        powers.append(_poly_mul(*powers[-1], h.exps, h.coeffs))
    factors = [float(c) * scale**k for k, c in enumerate(_laguerre_coefficients(n))]
    return (np.concatenate([e for e, _ in powers]),
            np.concatenate([f * c for f, (_, c) in zip(factors, powers)]))


@pytest.mark.parametrize("point", TOWER_POINTS, ids=lambda p: "-".join(map(str, p.values())))
def test_laguerre_towers_match_the_product_chain(point):
    params = ModelParams(**point)
    dq = derive(params)
    for form, h in zip(hamiltonians_pm(params), (dq.h_plus, dq.h_minus)):
        scale = 4.0 / (h * params.omega)
        for n in range(13):
            got, want = _laguerre_of_form(n, form, scale), laguerre_by_products(n, form, scale)
            kept = [(exps[coeffs != 0], coeffs[coeffs != 0]) for exps, coeffs in (got, want)]
            assert np.array_equal(kept[0][0], kept[1][0]), n
            assert ([c.hex() for c in kept[0][1].tolist()]
                    == [c.hex() for c in kept[1][1].tolist()]), n


def test_low_states_build_no_lattice(monkeypatch):
    # L_0 and L_1 are the constant and the rows of H: no graded index
    def refuse(d, top):
        raise AssertionError("a graded lattice was built")
    for module in (starcalc, wigner):
        monkeypatch.setattr(module, "_graded_lattice", refuse)
    params = ModelParams(mu=0.2, nu=0.1)
    for i in (0, 1):
        for j in (0, 1):
            wigner_state(i, j, params)
    with pytest.raises(AssertionError, match="graded lattice"):
        wigner_state(2, 0, params)
