import itertools
import math

import numpy as np
import pytest

from conftest import random_gauss_poly, trapezoid_integrate

from ncphase import moments
from ncphase import (
    GaussPoly,
    ModelParams,
    MomentTable,
    PhaseVariables,
    derive,
    integrate,
    marginalize,
    reduce,
    wigner_state,
)
from ncphase.moments import MAX_MOMENT_DEGREE

V2 = PhaseVariables(2, hbar=1.0)
V4 = PhaseVariables(4, hbar=1.0)


def test_ground_state_normalization():
    for mu, nu in [(0.0, 0.0), (0.3, 0.1), (1.0, 0.0), (0.5, -0.4)]:
        state = wigner_state(0, 0, ModelParams(mu=mu, nu=nu))
        assert integrate(state.function) == pytest.approx(1.0, abs=1e-12)


def test_unit_variance_second_moment():
    f = GaussPoly(V2, 1.0 / math.pi, -np.eye(2), {(2, 0): 1.0})
    assert integrate(f) == pytest.approx(0.5, rel=1e-13)


def test_entropy_integrand_value():
    # the quadratic weighting the reduced log: its expectation equals 1
    # (frozen from the dense-quadrature oracle below)
    params = ModelParams(mu=1.0, nu=0.0)
    dq = derive(params)
    reduced = reduce(wigner_state(0, 0, params), 1).function
    root = math.sqrt(1.0 + dq.delta**2)
    quad = GaussPoly(V2, 1.0, np.zeros((2, 2)), {
        (2, 0): root * params.mass * params.omega / params.hbar
                / (1.0 + dq.delta**2 + dq.delta * dq.eta),
        (0, 2): root / (params.hbar * params.mass * params.omega)
                / (1.0 + dq.delta**2 - dq.delta * dq.eta),
    })
    product = reduced.pointwise_mul(quad)
    exact = integrate(product)
    oracle = trapezoid_integrate(product, sigmas=8.0, nodes=201)
    assert exact == pytest.approx(oracle, rel=1e-7)
    assert exact == pytest.approx(1.0, rel=1e-12)


def test_moment_table_basics():
    table = MomentTable(np.diag([2.0, 3.0]))
    assert table.moment((0, 0)) == 1.0
    assert table.moment((1, 0)) == 0.0
    assert table.moment((2, 0)) == pytest.approx(2.0)
    assert table.moment((2, 2)) == pytest.approx(6.0)
    assert table.moment((4, 0)) == pytest.approx(3 * 2.0**2)


def test_moment_degree_cap():
    table = MomentTable(np.eye(2))
    with pytest.raises(ValueError):
        table.moment((50, 0))


def test_non_negative_definite_rejected():
    f = GaussPoly(V2, 1.0, np.diag([-1.0, 1.0]), {(0, 0): 1.0})
    with pytest.raises(ValueError):
        integrate(f)


def test_linearity(rng):
    f = random_gauss_poly(rng, 2)
    g = GaussPoly(V2, 1.0, f.exponent, {(1, 1): 0.7, (0, 0): -0.2})
    a, b = 1.7, -0.9
    combo = f.scaled(a) + g.scaled(b)
    assert integrate(combo) == pytest.approx(
        a * integrate(f) + b * integrate(g), rel=1e-12)


def test_marginalize_product_state():
    f = GaussPoly.gaussian(V4, 1.0 / math.pi**2, -np.eye(4))
    out = marginalize(f, keep=1)
    assert out.variables.dimension == 2
    assert out.prefactor * out.poly[(0, 0)] == pytest.approx(1.0 / math.pi,
                                                             rel=1e-13)
    assert np.allclose(out.exponent, -np.eye(2), atol=1e-14)


@pytest.mark.parametrize("keep", [1, 2])
def test_marginal_matches_closed_form(keep, rng):
    # exact Schur-complement marginal versus the closed-form reduced Gaussian
    for _ in range(10):
        mu = rng.uniform(-1.5, 1.5)
        nu = rng.uniform(-0.6, 0.6)
        if not -1.0 < mu * nu < 1.0:
            continue
        params = ModelParams(mu=mu, nu=nu)
        state = wigner_state(0, 0, params)
        closed = reduce(state, keep).function
        marg = marginalize(state.function, keep=keep)
        pts = rng.normal(scale=1.5, size=(200, 2))
        got = marg.value(pts)
        want = closed.value(pts)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_fubini(rng):
    for _ in range(5):
        f = random_gauss_poly(rng, 4)
        direct = integrate(f)
        via_marginal = integrate(marginalize(f, keep=1))
        assert via_marginal == pytest.approx(direct, rel=1e-12)


def test_against_dense_quadrature_2d(rng):
    for _ in range(10):
        f = random_gauss_poly(rng, 2, max_degree=4)
        assert integrate(f) == pytest.approx(
            trapezoid_integrate(f, sigmas=8.0, nodes=201), rel=1e-7)


def test_against_dense_quadrature_4d(rng):
    for _ in range(3):
        f = random_gauss_poly(rng, 4, max_degree=4)
        assert integrate(f) == pytest.approx(
            trapezoid_integrate(f, sigmas=8.0, nodes=41), rel=1e-7)


def test_marginalize_requires_four_variables():
    f = GaussPoly.gaussian(V2, 1.0, -np.eye(2))
    with pytest.raises(ValueError):
        marginalize(f, keep=1)


# ---------------------------------------------------------------------------
# The array kernels against the per-term loops they replaced. The references
# below are those loops, kept here verbatim in behaviour: a memoized scalar
# Isserlis recursion, a sequential integral and the dict-accumulating
# marginal. Every coefficient, prefactor and integral must match bit for bit
# (float.hex), and marginal keys must come in the same order.

class ReferenceMoments:
    """Memoized scalar Isserlis recursion, first-nonzero pivot, j in order."""

    def __init__(self, covariance):
        self.cov = np.asarray(covariance, dtype=float)
        self.memo = {(0,) * self.cov.shape[0]: 1.0}

    def moment(self, alpha):
        if sum(alpha) > MAX_MOMENT_DEGREE:
            raise ValueError("moment degree too high")
        if sum(alpha) % 2:
            return 0.0
        if alpha in self.memo:
            return self.memo[alpha]
        i = next(j for j, n in enumerate(alpha) if n)
        reduced = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
        acc = 0.0
        for j in range(len(alpha)):
            cij = self.cov[i, j]
            if cij == 0.0 or reduced[j] == 0:
                continue
            child = reduced[:j] + (reduced[j] - 1,) + reduced[j + 1:]
            acc += cij * reduced[j] * self.moment(child)
        self.memo[alpha] = acc
        return acc


def reference_real_coefficients(poly):
    if not poly:
        return {}
    top = max(abs(c) for c in poly.values())
    out = {}
    for k, c in poly.items():
        c = complex(c)
        if abs(c.imag) > 1e-10 * max(1.0, top):
            raise ValueError("complex coefficients")
        out[k] = c.real
    return out


def reference_integrate(func):
    Q = func.exponent
    np.linalg.cholesky(-Q)
    d = Q.shape[0]
    mass = math.pi ** (d / 2) / math.sqrt(np.linalg.det(-Q))
    table = ReferenceMoments(-0.5 * np.linalg.inv(Q))
    total = 0.0
    for mono, coeff in reference_real_coefficients(func.poly).items():
        total += coeff * table.moment(mono)
    return func.prefactor * mass * total


def reference_marginalize(func, keep):
    """The dict loop; also returns how many keys left the dict at an exact
    zero sum and entered it again later, and how many terms it added."""
    keep_idx = (0, 2) if keep == 1 else (1, 3)
    int_idx = (1, 3) if keep == 1 else (0, 2)
    Q = func.exponent
    QKK = Q[np.ix_(keep_idx, keep_idx)]
    QII = Q[np.ix_(int_idx, int_idx)]
    QKI = Q[np.ix_(keep_idx, int_idx)]
    A = np.linalg.solve(QII, QKI.T)
    table = ReferenceMoments(-0.5 * np.linalg.inv(QII))

    def shifted_powers(var, n):
        out = {}
        for j in range(n + 1):
            rem = n - j
            lead = math.comb(n, j)
            for r in range(rem + 1):
                coeff = lead * math.comb(rem, r) * (-A[var, 0]) ** r * (-A[var, 1]) ** (rem - r)
                if coeff != 0.0:
                    out[(j, r, rem - r)] = coeff
        return out

    out, dropped, reentered, terms = {}, set(), 0, 0
    for mono, coeff in reference_real_coefficients(func.poly).items():
        k0, k1 = mono[keep_idx[0]], mono[keep_idx[1]]
        for (j0, r0, s0), c0 in shifted_powers(0, mono[int_idx[0]]).items():
            for (j1, r1, s1), c1 in shifted_powers(1, mono[int_idx[1]]).items():
                m = table.moment((j0, j1))
                if m == 0.0:
                    continue
                terms += 1
                key = (k0 + r0 + r1, k1 + s0 + s1)
                s = out.get(key, 0.0) + coeff * c0 * c1 * m
                if s == 0.0:
                    if key in out:
                        dropped.add(key)
                    out.pop(key, None)
                else:
                    reentered += key in dropped and key not in out
                    out[key] = s
    mass_i = math.pi / math.sqrt(np.linalg.det(-QII))
    marginal = GaussPoly(PhaseVariables(2, hbar=func.variables.hbar),
                         func.prefactor * mass_i, QKK - QKI @ A, out)
    return marginal, reentered, terms


def hex_poly(poly):
    return [(k, float(c).hex()) for k, c in poly.items()]


def assert_same_function(got, want):
    assert float(got.prefactor).hex() == float(want.prefactor).hex()
    assert [x.hex() for x in got.exponent.ravel().tolist()] == \
        [x.hex() for x in want.exponent.ravel().tolist()]
    assert hex_poly(got.poly) == hex_poly(want.poly)


def assert_same_integral(func):
    assert float(integrate(func)).hex() == float(reference_integrate(func)).hex()


def dense_exponent_poly(rng, degree):
    """A 4-variable function with a dense exponent (every entry of A nonzero)
    and every monomial of total degree up to `degree`."""
    f = random_gauss_poly(rng, 4)
    monos = [m for m in itertools.product(range(degree + 1), repeat=4) if sum(m) <= degree]
    poly = {m: float(c) for m, c in zip(monos, rng.normal(size=len(monos)))}
    return GaussPoly(V4, f.prefactor, f.exponent, poly)


ORIGIN = ModelParams()
SMALL = ModelParams(mu=0.2, nu=0.1)


class TestMarginalizeKernel:
    @pytest.mark.parametrize("keep", [1, 2])
    @pytest.mark.parametrize("pair", [(1, 1), (2, 2), (4, 0)])
    def test_origin_exact_zero_drop(self, pair, keep):
        # at the origin A = 0 and running sums cancel to exactly 0.0; such a
        # key leaves the dict and enters it again at the back
        w = wigner_state(*pair, ORIGIN).function
        want, reentered, _ = reference_marginalize(w, keep)
        assert reentered > 0
        assert_same_function(marginalize(w, keep), want)

    @pytest.mark.parametrize("keep", [1, 2])
    @pytest.mark.parametrize("pair", [(1, 0), (3, 2), (2, 4)])
    def test_small_theta(self, pair, keep):
        w = wigner_state(*pair, SMALL).function
        assert_same_function(marginalize(w, keep), reference_marginalize(w, keep)[0])

    @pytest.mark.parametrize("keep", [1, 2])
    def test_dense_exponent(self, rng, keep):
        for degree in (3, 6):
            f = dense_exponent_poly(rng, degree)
            want, _, terms = reference_marginalize(f, keep)
            assert terms > 2 * len(f.poly)  # A has no zero entry
            assert_same_function(marginalize(f, keep), want)

    @pytest.mark.parametrize("keep", [1, 2])
    @pytest.mark.parametrize("poly", [
        {},
        {(0, 0, 0, 0): -1.5},
        {(0, 1, 0, 0): 1.0, (1, 0, 2, 0): 0.5},
        {(0, 1, 0, 2): 0.3, (0, 0, 1, 0): -0.7, (3, 0, 0, 0): 1e-3},
    ], ids=["empty", "constant", "odd", "odd-mixed"])
    def test_edge_polynomials(self, rng, keep, poly):
        for exponent in (-np.eye(4), random_gauss_poly(rng, 4).exponent):
            f = GaussPoly(V4, 0.8, exponent, poly)
            assert_same_function(marginalize(f, keep), reference_marginalize(f, keep)[0])

    def test_several_blocks(self, monkeypatch):
        # (6,6) off the origin expands to about 51 000 terms per keep, more
        # than three blocks; a small block size runs the carry on more cases
        w = wigner_state(6, 6, ModelParams(mu=1e-3, nu=7e-4)).function
        want, _, terms = reference_marginalize(w, 1)
        assert terms > 3 * moments._MARG_BLOCK
        assert_same_function(marginalize(w, 1), want)
        monkeypatch.setattr(moments, "_MARG_BLOCK", 64)
        for pair, params in [((2, 2), ORIGIN), ((4, 0), ORIGIN), ((3, 3), SMALL)]:
            w = wigner_state(*pair, params).function
            for keep in (1, 2):
                assert_same_function(marginalize(w, keep),
                                     reference_marginalize(w, keep)[0])

    def test_degree_cap(self):
        # only the integrated pair's degree counts: 48 passes, 49 raises
        f = GaussPoly(V4, 1.0, -np.eye(4), {(3, 24, 0, 24): 1.0, (0, 0, 0, 0): 1.0})
        assert_same_function(marginalize(f, 1), reference_marginalize(f, 1)[0])
        g = GaussPoly(V4, 1.0, -np.eye(4), {(0, 25, 0, 24): 1.0})
        with pytest.raises(ValueError, match="exceeds 48"):
            marginalize(g, 1)

    def test_complex_coefficients_rejected(self):
        f = GaussPoly(V4, 1.0, -np.eye(4), {(0, 0, 0, 0): 1.0, (0, 2, 0, 0): 1e-3j})
        with pytest.raises(ValueError, match="complex"):
            marginalize(f, 1)
        # an imaginary part within the tolerance is dropped
        g = GaussPoly(V4, 1.0, -np.eye(4), {(0, 0, 0, 0): 1.0, (0, 2, 0, 0): 0.5 + 1e-14j})
        assert_same_function(marginalize(g, 1), reference_marginalize(g, 1)[0])


class TestIntegrateKernel:
    def test_states_marginals_and_squares(self):
        for params in (ORIGIN, SMALL):
            for i, j in [(0, 0), (1, 0), (2, 1), (3, 3), (0, 5)]:
                w = wigner_state(i, j, params).function
                assert_same_integral(w)
                assert_same_integral(marginalize(w, 1))
                if i + j <= 3:
                    assert_same_integral(w.pointwise_mul(w))

    def test_random_polynomials(self, rng):
        for d in (2, 4):
            for _ in range(10):
                assert_same_integral(random_gauss_poly(rng, d, max_degree=8))
        assert_same_integral(dense_exponent_poly(rng, 6))

    @pytest.mark.parametrize("poly", [
        {}, {(0, 0): 2.5}, {(1, 0): 1.0}, {(2, 1): 1.0, (0, 3): -2.0},
        {(1, 1): 0.5, (2, 0): -0.25, (0, 0): 1.0},
    ], ids=["empty", "constant", "odd", "odd-only", "degree-2"])
    def test_edge_polynomials(self, poly):
        assert_same_integral(GaussPoly(V2, 0.7, np.array([[-1.2, 0.3], [0.3, -0.8]]), poly))

    def test_degree_cap(self):
        f = GaussPoly(V4, 1.0, -np.eye(4), {(12, 12, 12, 12): 1.0, (0, 0, 0, 0): 1.0})
        assert_same_integral(f)
        for mono in [(12, 12, 12, 13), (49, 0, 0, 0), (13, 12, 12, 13)]:
            with pytest.raises(ValueError, match="exceeds 48"):
                integrate(GaussPoly(V4, 1.0, -np.eye(4), {(0, 0, 0, 0): 1.0, mono: 1.0}))

    def test_complex_coefficients_rejected(self):
        f = GaussPoly(V2, 1.0, -np.eye(2), {(0, 0): 1.0, (2, 0): 1e-3j})
        with pytest.raises(ValueError, match="complex"):
            integrate(f)
        assert_same_integral(GaussPoly(V2, 1.0, -np.eye(2), {(0, 0): 1.0 + 1e-14j}))

    def test_moment_table_matches_recursion(self, rng):
        # exact zeros in the covariance skip terms (-0.0 included); a zero
        # moment times a negative entry gives -0.0 terms, and a sum of those
        # from +0.0 is +0.0
        for cov in (np.array([[2.0, -0.0], [-0.0, 0.5]]),
                    np.array([[1.3, -0.4], [-0.4, 0.9]]),
                    np.array([[2.0, -0.3, -0.2, -0.1], [-0.3, 1.0, 0.0, 0.0],
                              [-0.2, 0.0, 1.0, 0.0], [-0.1, 0.0, 0.0, 1.0]]),
                    np.array([[1.0, 0.2, 0.0, -0.3], [0.2, 2.0, 0.1, 0.0],
                              [0.0, 0.1, 0.7, 0.0], [-0.3, 0.0, 0.0, 1.1]])):
            d = cov.shape[0]
            alphas = [a for a in itertools.product(range(9), repeat=d) if sum(a) <= 12]
            want = ReferenceMoments(cov)
            got = MomentTable(cov).moments(np.array(alphas))
            assert [float(x).hex() for x in got] == \
                [float(want.moment(a)).hex() for a in alphas]
            for a in alphas[::37]:
                assert MomentTable(cov).moment(a).hex() == float(want.moment(a)).hex()


def reference_accumulate(keys, values):
    out = {}
    for k, v in zip(keys, values):
        s = out.get(k, 0.0) + v
        if s == 0.0:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def test_ordered_sums_match_dict_accumulation(rng):
    # small integer values cancel to exactly 0.0 often; -0.0 and nan too
    for n, keys_span in [(0, 1), (1, 1), (40, 3), (400, 20), (3000, 7)]:
        keys = rng.integers(0, keys_span, n)
        values = rng.integers(-2, 3, n).astype(float)
        values[rng.random(n) < 0.05] = -0.0
        if n > 100:
            values[7] = np.nan
        got_keys, got_sums = moments._ordered_sums(keys, values)
        want = reference_accumulate(keys.tolist(), values.tolist())
        assert got_keys.tolist() == list(want)
        assert [x.hex() for x in got_sums.tolist()] == [x.hex() for x in want.values()]


def test_sequential_sum_adds_left_to_right(rng):
    for values in ([], [-0.0], [-0.0, -0.0], [1.0, -1.0, -0.0],
                   (rng.normal(size=5000) * 10.0 ** rng.integers(-8, 8, 5000)).tolist()):
        want = 0.0
        for v in values:
            want += v
        assert float(moments._sequential_sum(np.array(values))).hex() == want.hex()
