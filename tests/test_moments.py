import functools
import itertools
import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (DECIMAL, PI, decimal, exact_inverse_2x2, pair_moment_error,
                      random_gauss_poly, terms, trapezoid_integrate)

from ncphase import moments, starcalc
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
from ncphase.moments import MAX_MOMENT_DEGREE, gram

V2 = PhaseVariables(2, hbar=1.0)
V4 = PhaseVariables(4, hbar=1.0)


def test_ground_state_normalization():
    for mu, nu in [(0.0, 0.0), (0.3, 0.1), (1.0, 0.0), (0.5, -0.4)]:
        state = wigner_state(0, 0, ModelParams(mu=mu, nu=nu))
        assert integrate(state.function) == pytest.approx(1.0, abs=1e-12)


def test_unit_variance_second_moment():
    f = GaussPoly(V2, 1.0 / math.pi, -np.eye(2), *terms({(2, 0): 1.0}, 2))
    assert integrate(f) == pytest.approx(0.5, rel=1e-13)


def test_entropy_integrand_value():
    # the quadratic weighting the reduced log: its expectation equals 1
    # (frozen from the dense-quadrature oracle below)
    params = ModelParams(mu=1.0, nu=0.0)
    dq = derive(params)
    reduced = reduce(wigner_state(0, 0, params), 1).function
    root = math.sqrt(1.0 + dq.delta**2)
    quad = GaussPoly(V2, 1.0, np.zeros((2, 2)), *terms({
        (2, 0): root * params.mass * params.omega / params.hbar
                / (1.0 + dq.delta**2 + dq.delta * dq.eta),
        (0, 2): root / (params.hbar * params.mass * params.omega)
                / (1.0 + dq.delta**2 - dq.delta * dq.eta),
    }, 2))
    product = reduced.pointwise_mul(quad)
    exact = integrate(product)
    oracle = trapezoid_integrate(product, sigmas=8.0, nodes=201)
    assert exact == pytest.approx(oracle, rel=1e-7)
    assert exact == pytest.approx(1.0, rel=1e-12)


def test_moment_table_basics():
    table = MomentTable(np.diag([2.0, 3.0]))
    got = table.moments(np.array([(0, 0), (1, 0), (2, 0), (2, 2), (4, 0)]))
    assert got.tolist() == [1.0, 0.0, pytest.approx(2.0), pytest.approx(6.0),
                            pytest.approx(3 * 2.0**2)]


def test_moment_degree_cap():
    table = MomentTable(np.eye(2))
    with pytest.raises(ValueError):
        table.moments(np.array([(50, 0)]))


def test_moment_overflow_refused():
    # E[x^4] = 3 * 1e320 leaves double range; E[x^2] = 1e160 does not
    table = MomentTable(1e160 * np.eye(2))
    assert table.moments(np.array([(2, 0)]))[0] == 1e160
    with pytest.raises(ValueError, match="degree 4 leaves double precision range"):
        table.moments(np.array([[2, 0], [0, 4]]))


def test_moment_rows_are_checked():
    # a row of the wrong width or with a negative exponent has no rank among
    # the multi-indices of its degree; a float row was truncated, so
    # E[x^2.5] read E[x^2] = 1.0
    table = MomentTable(np.eye(2))
    for rows in (np.array([[1]]), np.array([[1, 0, 1]]), np.array([2, 0])):
        with pytest.raises(ValueError, match="2 entries"):
            table.moments(rows)
    for alpha in [(-1, 1), (3, -1), (-2, 0), (2.5, 0), (1.5, 0.5), (math.nan, 0), (math.inf, 0)]:
        with pytest.raises(ValueError, match="non-negative"):
            table.moments(np.array([alpha]))
    assert table.moments(np.array([(2.0, 0.0)]))[0] == table.moments(np.array([(2, 0)]))[0] == 1.0


def test_covariance_must_be_a_square_matrix():
    # a vector used to fail on its missing second axis, and a stack of
    # matrices used to give moments
    for cov in (np.ones(3), np.ones((2, 2, 2)), np.ones((2, 3)), np.float64(1.0)):
        with pytest.raises(ValueError, match="square matrix"):
            MomentTable(cov)


def test_non_negative_definite_rejected():
    f = GaussPoly(V2, 1.0, np.diag([-1.0, 1.0]), *terms({(0, 0): 1.0}, 2))
    with pytest.raises(ValueError):
        integrate(f)


@pytest.mark.parametrize("hbar", [1e-100, 1e100])
def test_gaussian_weight_past_double_range_rejected(hbar):
    # det(-Q) of the ground state is hbar^-4 here: inf at 1e-100, where the
    # integral read 0.0, and 0.0 at 1e100, where it divided by zero
    with pytest.raises(ValueError, match="det"):
        integrate(wigner_state(0, 0, ModelParams(hbar=hbar)).function)


def test_pair_weight_at_the_edges_of_double_range():
    # 2x2 exponents: det(-Q) past double range is refused with its value;
    # one whose products a c and b b both overflow, det(-Q) = 2e300, and one
    # whose off-diagonal entry alone is huge, are not inf - inf: the first
    # integrates, with no warning, the second is not negative definite; one
    # with diagonal entries 1e300 and 1e-300 integrates to pi
    const = terms({(0, 0): 1.0}, 2)
    assert integrate(GaussPoly(V2, 1.0, np.diag([-1e300, -1e-300]), *const)) == \
        pytest.approx(math.pi, rel=1e-15)
    for diagonal, det in ((-1e200, "inf"), (-1e-200, "0.0")):
        with pytest.raises(ValueError, match=rf"det\(-Q\) = {det} leaves double precision range"):
            integrate(GaussPoly(V2, 1.0, np.diag([diagonal, diagonal]), *const))
    b = 1e155 * (1.0 - 2.0**-30)
    exact = math.pi / math.sqrt(float((Fraction(1e155)**2 - Fraction(b)**2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = integrate(GaussPoly(V2, 1.0, np.array([[-1e155, b], [b, -1e155]]), *const))
        assert got == pytest.approx(exact, rel=1e-6)
        with pytest.raises(ValueError, match="must be negative definite"):
            integrate(GaussPoly(V2, 1.0, np.array([[-1e-300, 1e300], [1e300, -1e-300]]), *const))


def test_linearity(rng):
    f = random_gauss_poly(rng, 2)
    g = GaussPoly(V2, 1.0, f.exponent, *terms({(1, 1): 0.7, (0, 0): -0.2}, 2))
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
# marginal; for two variables the moments and the weight come from plain-
# Python versions of the kernel's formulas, in its term order. Every
# coefficient, prefactor and integral must match bit for bit (float.hex);
# marginal keys come in ascending order, the reference's sorted.

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


def double_factorial(n):
    return math.prod(range(n, 0, -2))


class ReferencePairMoments:
    """E[x^a y^b] of a 2-D normal by counting cross pairings, term by term:
    k ascending from +0.0, each term ((coef * c01^k) * c00^i) * c11^j with
    each power a chain of products, on c00, c11 and c01 scaled by
    2^(-2 p0), 2^(-2 p1) and 2^(-p0 - p1), p the binary exponent // 2, and
    the sum scaled back by 2^(a p0 + b p1)."""

    def __init__(self, covariance):
        (c00, c01), (_, c11) = np.asarray(covariance, dtype=float).tolist()
        self.p0, self.p1 = math.frexp(c00)[1] // 2, math.frexp(c11)[1] // 2
        with np.errstate(over="ignore"):
            self.c01, self.c00, self.c11 = np.ldexp(
                [c01, c00, c11], [-self.p0 - self.p1, -2 * self.p0, -2 * self.p1]).tolist()

    def moment(self, alpha):
        a, b = alpha
        if a + b > MAX_MOMENT_DEGREE:
            raise ValueError("moment degree too high")
        total = 0.0
        for k in range(a % 2, min(a, b) + 1, 2) if (a + b) % 2 == 0 else ():
            term = float(math.comb(a, k) * math.comb(b, k) * math.factorial(k)
                         * double_factorial(a - k - 1) * double_factorial(b - k - 1))
            for base, n in ((self.c01, k), (self.c00, (a - k) // 2), (self.c11, (b - k) // 2)):
                power = 1.0
                for _ in range(n):
                    power *= base
                term *= power
            total += term
        with np.errstate(over="ignore"):
            return float(np.ldexp(total, a * self.p0 + b * self.p1))


def reference_moments(cov):
    """The kernel's moment route for this covariance: pairings in 2-D, else
    the recursion."""
    return (ReferencePairMoments if np.shape(cov) == (2, 2) else ReferenceMoments)(cov)


def reference_weight(Q):
    """det(-Q) and the covariance -Q^{-1}/2: for 2x2 the kernel's Schur-
    complement formulas on Q scaled by powers of two, in plain Python; else
    Cholesky and LAPACK's det and inv."""
    if Q.shape != (2, 2):
        np.linalg.cholesky(-Q)
        return np.linalg.det(-Q), -0.5 * np.linalg.inv(Q)
    (q00, q01), (_, q11) = Q.tolist()
    p0, p1 = math.frexp(q00)[1] // 2, math.frexp(q11)[1] // 2
    a, b, c = math.ldexp(-q00, -2 * p0), math.ldexp(-q01, -p0 - p1), math.ldexp(-q11, -2 * p1)
    s1, s0 = c - b * (b / a), a - b * (b / c)
    assert a > 0.0 and s1 > 0.0 and s0 > 0.0
    off = math.ldexp(-(b / a) / (2.0 * s1), -p0 - p1)
    return math.ldexp(a * s1, 2 * (p0 + p1)), np.array(
        [[math.ldexp(1.0 / (2.0 * s0), -2 * p0), off], [off, math.ldexp(1.0 / (2.0 * s1), -2 * p1)]])


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
    det, cov = reference_weight(Q)
    mass = math.pi ** (Q.shape[0] / 2) / math.sqrt(det)
    table = reference_moments(cov)
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
    det, cov = reference_weight(QII)
    table = reference_moments(cov)

    @functools.cache  # the loop asks for the same expansions again and again
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

    out, dropped, reentered, added = {}, set(), 0, 0
    for mono, coeff in reference_real_coefficients(func.poly).items():
        k0, k1 = mono[keep_idx[0]], mono[keep_idx[1]]
        for (j0, r0, s0), c0 in shifted_powers(0, mono[int_idx[0]]).items():
            for (j1, r1, s1), c1 in shifted_powers(1, mono[int_idx[1]]).items():
                m = table.moment((j0, j1))
                if m == 0.0:
                    continue
                added += 1
                key = (k0 + r0 + r1, k1 + s0 + s1)
                s = out.get(key, 0.0) + coeff * c0 * c1 * m
                if s == 0.0:
                    if key in out:
                        dropped.add(key)
                    out.pop(key, None)
                else:
                    reentered += key in dropped and key not in out
                    out[key] = s
    mass_i = math.pi / math.sqrt(det)
    marginal = GaussPoly(PhaseVariables(2, hbar=func.variables.hbar),
                         func.prefactor * mass_i, QKK - QKI @ A, *terms(out, 2))
    return marginal, reentered, added


def hex_poly(poly):
    return [(k, float(c).hex()) for k, c in poly.items()]


def assert_same_function(got, want):
    assert float(got.prefactor).hex() == float(want.prefactor).hex()
    assert [x.hex() for x in got.exponent.ravel().tolist()] == \
        [x.hex() for x in want.exponent.ravel().tolist()]
    assert hex_poly(got.poly) == hex_poly(want.poly)


def assert_same_marginal(got, want):
    """got is want with its monomials in ascending order."""
    assert_same_function(got, GaussPoly(want.variables, want.prefactor, want.exponent,
                                        *terms(dict(sorted(want.poly.items())), 2)))


def assert_same_integral(func):
    assert float(integrate(func)).hex() == float(reference_integrate(func)).hex()


def dense_exponent_poly(rng, degree):
    """A 4-variable function with a dense exponent (every entry of A nonzero)
    and every monomial of total degree up to `degree`."""
    f = random_gauss_poly(rng, 4)
    monos = [m for m in itertools.product(range(degree + 1), repeat=4) if sum(m) <= degree]
    poly = {m: float(c) for m, c in zip(monos, rng.normal(size=len(monos)))}
    return GaussPoly(V4, f.prefactor, f.exponent, *terms(poly, 4))


ORIGIN = ModelParams()
SMALL = ModelParams(mu=0.2, nu=0.1)


def tower_envelope_point(seed):
    """A seeded point of the benchmark's tower envelope: hbar log-uniform over
    [1/2, 2], mass and omega over [1.4^-1/2, 1.4^1/2], and theta = mu nu /
    hbar^2 uniform over [-1e-3, 1e-3], split evenly between u and v."""
    rng = np.random.default_rng(seed)
    hbar, mass, omega = np.exp(rng.uniform(-1.0, 1.0, 3) * np.log([2.0, 1.4**0.5, 1.4**0.5]))
    theta = rng.uniform(-1e-3, 1e-3)
    u = math.sqrt(abs(theta))
    return ModelParams(hbar=hbar, mass=mass, omega=omega, mu=u * hbar / (mass * omega),
                       nu=math.copysign(u, theta) * hbar * mass * omega)


class TestMarginalizeKernel:
    @pytest.mark.parametrize("keep", [1, 2])
    @pytest.mark.parametrize("pair", [(1, 1), (2, 2), (4, 0)])
    def test_origin_exact_zero_drop(self, pair, keep, dict_loop_states):
        # at the origin A = 0 and running sums cancel to exactly 0.0; such a
        # key leaves the dict and enters it again later, and its sum goes on
        # from 0.0 as the kernel's does. Whether a key re-enters depends on
        # W's term order: the dict loop's first-seen order makes it happen
        w = dict_loop_states(*pair, ORIGIN)
        want, reentered, _ = reference_marginalize(w, keep)
        assert reentered > 0
        got = marginalize(w, keep)
        assert_same_marginal(got, want)
        assert list(got.poly) == sorted(got.poly)

    @pytest.mark.parametrize("keep", [1, 2])
    @pytest.mark.parametrize("pair", [(1, 0), (3, 2), (2, 4)])
    def test_small_theta(self, pair, keep):
        w = wigner_state(*pair, SMALL).function
        assert_same_marginal(marginalize(w, keep), reference_marginalize(w, keep)[0])

    @pytest.mark.parametrize("keep", [1, 2])
    def test_dense_exponent(self, rng, keep):
        for degree in (3, 6):
            f = dense_exponent_poly(rng, degree)
            want, _, added = reference_marginalize(f, keep)
            assert added > 2 * len(f.poly)  # A has no zero entry
            assert_same_marginal(marginalize(f, keep), want)

    @pytest.mark.parametrize("keep", [1, 2])
    @pytest.mark.parametrize("poly", [
        {},
        {(0, 0, 0, 0): -1.5},
        {(0, 1, 0, 0): 1.0, (1, 0, 2, 0): 0.5},
        {(0, 1, 0, 2): 0.3, (0, 0, 1, 0): -0.7, (3, 0, 0, 0): 1e-3},
    ], ids=["empty", "constant", "odd", "odd-mixed"])
    def test_edge_polynomials(self, rng, keep, poly):
        for exponent in (-np.eye(4), random_gauss_poly(rng, 4).exponent):
            f = GaussPoly(V4, 0.8, exponent, *terms(poly, 4))
            assert_same_marginal(marginalize(f, keep), reference_marginalize(f, keep)[0])

    def test_several_blocks(self, monkeypatch):
        # (6,6) off the origin expands to about 51 000 terms per keep, more
        # than three blocks; a small block size runs the carry on more cases
        w = wigner_state(6, 6, ModelParams(mu=1e-3, nu=7e-4)).function
        want, _, added = reference_marginalize(w, 1)
        assert added > 3 * starcalc._MUL_BLOCK
        assert_same_marginal(marginalize(w, 1), want)
        monkeypatch.setattr(starcalc, "_MUL_BLOCK", 64)
        for pair, params in [((2, 2), ORIGIN), ((4, 0), ORIGIN), ((3, 3), SMALL)]:
            w = wigner_state(*pair, params).function
            for keep in (1, 2):
                assert_same_marginal(marginalize(w, keep),
                                     reference_marginalize(w, keep)[0])

    @pytest.mark.parametrize("keep", [1, 2])
    @pytest.mark.parametrize("pair", [(4, 6), (5, 5), (5, 6), (6, 4), (6, 5), (6, 6)])
    def test_deep_tower_pairs(self, pair, keep):
        # the benchmark's deepest eigenstates (i + j >= 10) at a point of its
        # tower envelope with hbar, mass and omega away from 1
        params = tower_envelope_point(28)
        assert min(abs(math.log(x)) for x in (params.hbar, params.mass, params.omega)) > 0.05
        w = wigner_state(*pair, params).function
        assert_same_integral(w)
        got = marginalize(w, keep)
        assert_same_marginal(got, reference_marginalize(w, keep)[0])
        assert_same_integral(got)

    @pytest.mark.parametrize("keep", [1, 2])
    def test_dense_exponent_at_degree_24(self, rng, keep):
        # an integrated pair of degree 24 on either axis reads the trinomial
        # table up to its top, with every term kept (A has no zero entry)
        f = random_gauss_poly(rng, 4)
        poly = {(0, 24, 0, 0): 0.7, (24, 0, 0, 0): -1.1, (0, 0, 0, 24): 0.3,
                (0, 0, 24, 0): 1.9, (1, 12, 2, 12): -0.4, (12, 1, 12, 2): 2.3, (3, 0, 1, 0): 0.5}
        f = GaussPoly(V4, f.prefactor, f.exponent, *terms(poly, 4))
        want, _, added = reference_marginalize(f, keep)
        assert added > 1000
        got = marginalize(f, keep)
        assert_same_marginal(got, want)
        assert_same_integral(got)

    def test_coefficient_past_double_range_refused(self):
        # A = -1e13 on x2, so the u^24 coefficient of the marginal of x2^24 is
        # (1e13)^24 times a moment: it read inf after an overflow warning,
        # while the integral of f is 8.99e255
        Q = np.diag([-1e7, -1e-20, -1.0, -1.0])
        Q[0, 1] = Q[1, 0] = 1e-7
        f = GaussPoly(V4, 1.0, Q, *terms({(0, 24, 0, 0): 1.0}, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert integrate(f) == pytest.approx(8.99e255, rel=1e-3)
            with pytest.raises(ValueError,
                               match="a marginal coefficient leaves double precision range"):
                marginalize(f, 1)

    def test_keep_is_an_integer(self):
        # the check of wigner_state's indices: True, 1.0 and 2.0 passed
        w = wigner_state(2, 1, SMALL).function
        for keep in (True, False, 1.0, 2.0, np.float64(1.0), 0, 3, np.int64(3)):
            with pytest.raises(ValueError, match="keep must be 1 or 2"):
                marginalize(w, keep)
        for keep in (np.int64(1), np.int32(2)):
            assert_same_function(marginalize(w, keep), marginalize(w, int(keep)))

    @pytest.mark.parametrize("keep", [1, 2])
    def test_blocks_give_the_bits_of_one_pass(self, monkeypatch, keep):
        w = wigner_state(4, 4, SMALL).function
        blocked = marginalize(w, keep)
        for block in (64, 1 << 40):
            monkeypatch.setattr(starcalc, "_MUL_BLOCK", block)
            assert_same_function(marginalize(w, keep), blocked)

    def test_degree_cap(self):
        # only the integrated pair's degree counts: 48 passes, 49 raises
        f = GaussPoly(V4, 1.0, -np.eye(4), *terms({(3, 24, 0, 24): 1.0, (0, 0, 0, 0): 1.0}, 4))
        assert_same_marginal(marginalize(f, 1), reference_marginalize(f, 1)[0])
        g = GaussPoly(V4, 1.0, -np.eye(4), *terms({(0, 25, 0, 24): 1.0}, 4))
        with pytest.raises(ValueError, match="exceeds 48"):
            marginalize(g, 1)

    def test_complex_coefficients_rejected(self):
        f = GaussPoly(V4, 1.0, -np.eye(4), *terms({(0, 0, 0, 0): 1.0, (0, 2, 0, 0): 1e-3j}, 4))
        with pytest.raises(ValueError, match="complex"):
            marginalize(f, 1)
        # an imaginary part within the tolerance is dropped
        g = GaussPoly(V4, 1.0, -np.eye(4),
                      *terms({(0, 0, 0, 0): 1.0, (0, 2, 0, 0): 0.5 + 1e-14j}, 4))
        assert_same_marginal(marginalize(g, 1), reference_marginalize(g, 1)[0])


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
        assert_same_integral(GaussPoly(V2, 0.7, np.array([[-1.2, 0.3], [0.3, -0.8]]),
                                       *terms(poly, 2)))

    def test_degree_cap(self):
        f = GaussPoly(V4, 1.0, -np.eye(4), *terms({(12, 12, 12, 12): 1.0, (0, 0, 0, 0): 1.0}, 4))
        assert_same_integral(f)
        for mono in [(12, 12, 12, 13), (49, 0, 0, 0), (13, 12, 12, 13)]:
            with pytest.raises(ValueError, match="exceeds 48"):
                integrate(GaussPoly(V4, 1.0, -np.eye(4),
                                    *terms({(0, 0, 0, 0): 1.0, mono: 1.0}, 4)))

    def test_complex_coefficients_rejected(self):
        f = GaussPoly(V2, 1.0, -np.eye(2), *terms({(0, 0): 1.0, (2, 0): 1e-3j}, 2))
        with pytest.raises(ValueError, match="complex"):
            integrate(f)
        assert_same_integral(GaussPoly(V2, 1.0, -np.eye(2), *terms({(0, 0): 1.0 + 1e-14j}, 2)))

    MOMENT_COVARIANCES = (
        np.array([[2.0, -0.0], [-0.0, 0.5]]),
        np.array([[1.3, -0.4], [-0.4, 0.9]]),
        np.diag([1e40, 1e40]),
        np.array([[2.0, -0.3, -0.2, -0.1], [-0.3, 1.0, 0.0, 0.0],
                  [-0.2, 0.0, 1.0, 0.0], [-0.1, 0.0, 0.0, 1.0]]),
        np.array([[1.0, 0.2, 0.0, -0.3], [0.2, 2.0, 0.1, 0.0],
                  [0.0, 0.1, 0.7, 0.0], [-0.3, 0.0, 0.0, 1.1]]),
    )

    def test_moment_table_matches_recursion(self):
        # every row up to degree 24, the top of a W(6, 6) integral, against
        # the kernel's route (pairings in 2-D, the recursion in 4-D); exact
        # zeros in the covariance skip terms (-0.0 included); a zero moment
        # times a negative entry gives -0.0 terms, and a sum of those from
        # +0.0 is +0.0; past the double range a skipped term stays 0.0, not
        # 0.0 * inf, so a zero moment there is returned, while a moment past
        # the double range is refused
        for cov in self.MOMENT_COVARIANCES:
            d = cov.shape[0]
            alphas = [a for a in itertools.product(range(25), repeat=d) if sum(a) <= 24]
            want = reference_moments(cov)
            with np.errstate(over="ignore"):
                wanted = [float(want.moment(a)) for a in alphas]
            finite = [a for a, w in zip(alphas, wanted) if math.isfinite(w)]
            got = MomentTable(cov).moments(np.array(finite))
            assert [float(x).hex() for x in got] == \
                [w.hex() for w in wanted if math.isfinite(w)]
            for a in finite[::37]:
                assert MomentTable(cov).moments(np.array([a]))[0].hex() == \
                    float(want.moment(a)).hex()
            if len(finite) < len(alphas):
                with pytest.raises(ValueError, match="leaves double precision range"):
                    MomentTable(cov).moments(np.array(alphas))

    def test_moment_table_in_other_dimensions(self, rng):
        # every row up to a degree per dimension, 1 to 6 variables; the
        # ranks' tables grow with the dimension, not with the degree cap
        for d, top in ((1, MAX_MOMENT_DEGREE), (3, 16), (6, 8)):
            root = rng.normal(size=(d, d))
            cov = root @ root.T + d * np.eye(d)
            alphas = [a for a in itertools.product(range(top + 1), repeat=d) if sum(a) <= top]
            want = ReferenceMoments(cov)
            got = MomentTable(cov).moments(np.array(alphas))
            assert [float(x).hex() for x in got] == \
                [float(want.moment(a)).hex() for a in alphas]

    def test_moment_table_at_the_degree_cap(self, rng):
        # a few 4-D rows at and just below degree 48, each reaching far fewer
        # multi-indices than the full levels hold
        alphas = [(12, 12, 12, 12), (48, 0, 0, 0), (0, 0, 0, 48), (0, 47, 0, 1),
                  (1, 2, 3, 42), (11, 12, 12, 12), (0, 0, 0, 0), (2, 0, 0, 0)]
        alphas += [tuple(rng.multinomial(deg, [0.25] * 4).tolist())
                   for deg in rng.integers(40, 49, size=6).tolist()]
        for cov in self.MOMENT_COVARIANCES[3:]:
            want = ReferenceMoments(cov)
            got = MomentTable(cov).moments(np.array(alphas))
            assert [float(x).hex() for x in got] == \
                [float(want.moment(a)).hex() for a in alphas]

    def test_even_rows_are_read_as_a_prefix(self, monkeypatch):
        # the 4-D recursion's covariance-free rows, read from the index once
        # up to the highest top asked for, serve every lower top unchanged
        monkeypatch.setattr(moments, "_EVEN_ROWS", {})
        table = MomentTable(self.MOMENT_COVARIANCES[4])
        low, high = ([a for a in itertools.product(range(top + 1), repeat=4) if sum(a) <= top]
                     for top in (12, 24))
        first = [x.hex() for x in table.moments(np.array(low)).tolist()]
        table.moments(np.array(high))
        assert len(moments._EVEN_ROWS[4][-1]) == 13  # degrees 0, 2, .., 24
        assert [x.hex() for x in table.moments(np.array(low)).tolist()] == first

    def test_moment_bits_do_not_depend_on_the_other_rows(self, rng):
        for cov in self.MOMENT_COVARIANCES:
            rows = rng.integers(0, 13, size=(120, cov.shape[0]))
            want = reference_moments(cov)
            with np.errstate(over="ignore"):  # the rows past double range go
                rows = rows[[math.isfinite(want.moment(r)) for r in map(tuple, rows.tolist())]]
            table = MomentTable(cov)
            together = [x.hex() for x in table.moments(rows).tolist()]
            assert [table.moments(r[None])[0].hex() for r in rows] == together
            n = len(rows)
            for pick in (np.arange(0, n, 7), np.flatnonzero(rows.sum(axis=1) <= 12),
                         np.arange(n - 1, -1, -1)):
                got = [x.hex() for x in table.moments(rows[pick]).tolist()]
                assert got == [together[i] for i in pick.tolist()]


# 2-D moments and 2x2 weights against exact rationals (conftest) on the
# covariances the tower reads: the integrated block of W(3, 3) and W(6, 6)
# and the exponent of their marginal, both keeps, at the four anchors,
# theta = 1 - 1e-6, the 878 point, (1e-9, 1e6) and a tower point. Measured:
# moments up to degree 24, in units of the moment under |covariance|, at
# most 3.6e-16 by pairings (5.7e-16 by the recursion); the covariance, in
# units of its largest entry, 1.11e-16 by the 2x2 formulas (1.11e-16 by
# LAPACK's inv); the mass pi / sqrt(det(-Q)) 1.5e-16 (8.6e-16 by LAPACK's
# det). Each gate is about three times the kernel's largest error.
PAIR_GATES = {"moments": 1.1e-15, "covariance": 3.5e-16, "mass": 4.5e-16}
PAIR_POINTS = [dict(mu=0.0, nu=0.0), dict(mu=0.2, nu=0.1), dict(mu=3.0, nu=-0.3),
               dict(mu=1.0, nu=0.999), dict(mu=1.0, nu=1 - 1e-6), dict(mu=1e-9, nu=1e6),
               dict(hbar=878.0, mass=205.0, omega=242.0, mu=-0.006194, nu=-1.2065e8)]


def test_pair_moments_and_weights_meet_their_exact_gates():
    rows = np.array([a for a in itertools.product(range(25), repeat=2) if sum(a) <= 24])
    kernel, before = {}, {}  # the largest error per quantity: this kernel, and
    #                          the recursion and LAPACK on the same inputs
    for params in [ModelParams(**p) for p in PAIR_POINTS] + [tower_envelope_point(28)]:
        for pair in [(3, 3), (6, 6)]:
            w = wigner_state(*pair, params).function
            for keep, block in ((1, [1, 3]), (2, [0, 2])):
                for Q in (w.exponent[np.ix_(block, block)], marginalize(w, keep).exponent):
                    mass, table = moments._gaussian_weight(Q)
                    det, cov = exact_inverse_2x2(Q)
                    with localcontext(DECIMAL):
                        exact_mass = PI / decimal(det).sqrt()
                        mass_error = [float(abs(Decimal(m) / exact_mass - 1)) for m in
                                      (mass, math.pi / math.sqrt(np.linalg.det(-Q)))]
                    size = max(abs(x) for row in cov for x in row)
                    cov_error = [float(max(abs(Fraction(got[r][c]) - cov[r][c])
                                           for r in range(2) for c in range(2)) / size)
                                 for got in (table.covariance.tolist(),
                                             (-0.5 * np.linalg.inv(Q)).tolist())]
                    recursion = ReferenceMoments(table.covariance)
                    moment_error = [pair_moment_error(m, rows, table.covariance, 24) for m in
                                    (table.moments(rows),
                                     [recursion.moment(a) for a in map(tuple, rows.tolist())])]
                    for name, (now, then) in (("moments", moment_error), ("covariance", cov_error),
                                              ("mass", mass_error)):
                        kernel[name] = max(kernel.get(name, 0.0), now)
                        before[name] = max(before.get(name, 0.0), then)
    for name, gate in PAIR_GATES.items():
        assert kernel[name] <= gate, name
        assert kernel[name] <= before[name], name


def loop_sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


def test_sequential_sum_adds_left_to_right(rng):
    # the one moment sum behind integrate and gram, with no moment table:
    # each segment's values added one by one from +0.0, -0.0 included
    lists = [[], [-0.0], [-0.0, -0.0], [1.0, -1.0, -0.0],
             (rng.normal(size=5000) * 10.0 ** rng.integers(-8, 8, 5000)).tolist()]
    for values in lists:
        got = moments._moment_sums(np.array(values), None, None, np.zeros(len(values), np.intp))
        assert [float(x).hex() for x in got] == [loop_sum(values).hex()]
    # interleaved segments, each against its own loop; segment 7 is empty
    values = np.concatenate([np.array(v, dtype=float) for v in lists])
    segment = rng.integers(0, 7, len(values))
    got = moments._moment_sums(values, None, None, segment, 8)
    for s in range(8):
        assert float(got[s]).hex() == loop_sum(values[segment == s].tolist()).hex()


def test_overflowing_sum_is_inf_on_both_routes():
    # integrate and gram add through the same sum: a total past double range
    # is inf on both, with no warning (the suite raises warnings as errors)
    f = GaussPoly(V2, 1.0, -0.5 * np.eye(2), *terms({(0, 0): 1e308, (2, 0): 1e308}, 2))
    assert integrate(f) == gram([f], [GaussPoly.constant(V2)])[0, 0] == np.inf


# ---------------------------------------------------------------------------
# gram against the product route: integrate(f.pointwise_mul(g)) adds the same
# per-monomial coefficients and takes the final sum in the same ascending
# monomial order, so the two are equal. `==`, not float.hex: an empty
# polynomial with a negative prefactor integrates to -0.0.

ANCHORS = [(0.0, 0.0), (0.2, 0.1), (3.0, -0.3), (1.0, 0.999)]


def assert_matches_products(fs, gs):
    want = [[integrate(f.pointwise_mul(g)) for g in gs] for f in fs]
    got = gram(fs, gs)
    assert got.shape == (len(fs), len(gs))
    assert got.tolist() == want


def hex_matrix(m):
    return [float(x).hex() for x in m.ravel()]


def family(params, top=2):
    return [wigner_state(i, j, params).function
            for i in range(top + 1) for j in range(top + 1)]


def real_poly(dim):
    return st.dictionaries(st.tuples(*[st.integers(0, 5)] * dim),
                           st.floats(-1e3, 1e3), max_size=8)


def negative_definite(seed, dim):
    a = np.random.default_rng(seed).normal(size=(dim, dim))
    return -(a.T @ a + 0.4 * np.eye(dim))


class TestGram:
    @pytest.mark.parametrize("mu,nu", ANCHORS)
    def test_eigenstate_families_match_products(self, mu, nu):
        fs = family(ModelParams(mu=mu, nu=nu))
        assert_matches_products(fs, fs)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([2, 4]),
           seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)))
    def test_random_families_match_products(self, data, dim, seeds):
        variables = PhaseVariables(dim, hbar=1.0)
        sides = []
        for seed in seeds:
            Q = negative_definite(seed, dim)
            polys = data.draw(st.lists(real_poly(dim), min_size=1, max_size=3))
            prefactors = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=len(polys),
                                            max_size=len(polys)))
            sides.append([GaussPoly(variables, pre, Q, *terms(poly, dim))
                          for pre, poly in zip(prefactors, polys)])
        assert_matches_products(*sides)

    def test_blocks_give_the_bits_of_one_pass(self, monkeypatch):
        fs = family(SMALL)
        pairs = sum(len(f.poly) for f in fs) ** 2
        assert pairs > 3 * starcalc._MUL_BLOCK
        blocked = gram(fs, fs)
        for block in (64, 1 << 40):
            monkeypatch.setattr(starcalc, "_MUL_BLOCK", block)
            assert hex_matrix(gram(fs, fs)) == hex_matrix(blocked)

    def test_empty_polynomial(self):
        Q = np.array([[-1.2, 0.3], [0.3, -0.8]])
        empty = GaussPoly(V2, 0.7, Q, *terms({}, 2))
        full = GaussPoly(V2, 1.3, Q, *terms({(0, 0): 1.0, (2, 1): -2.0}, 2))
        other = GaussPoly(V2, 0.4, -np.eye(2), *terms({(2, 0): 1.5}, 2))
        assert gram([empty], [other])[0, 0] == 0.0
        assert gram([other], [empty])[0, 0] == 0.0
        got = gram([empty, full], [other])
        assert got[0, 0] == 0.0
        assert got[1, 0] == integrate(full.pointwise_mul(other))

    def test_errors_match_integrate(self):
        Q = -np.eye(2)
        real = GaussPoly(V2, 1.0, Q, *terms({(0, 0): 1.0, (1, 1): 0.5}, 2))
        cases = [
            # complex coefficients that do not cancel
            ([GaussPoly(V2, 1.0, Q, *terms({(0, 0): 1.0, (2, 0): 1e-3j}, 2))], [real]),
            # a summed exponent that is not negative definite
            ([GaussPoly(V2, 1.0, np.diag([-1.0, 2.0]), *terms({(0, 0): 1.0}, 2))],
             [GaussPoly(V2, 1.0, np.diag([-1.0, -0.5]), *terms({(1, 0): 1.0}, 2))]),
        ]
        for fs, gs in cases:
            with pytest.raises(ValueError) as want:
                integrate(fs[0].pointwise_mul(gs[0]))
            with pytest.raises(ValueError, match=f"^{want.value}$"):
                gram(fs, gs)
        # a negligible imaginary part is accepted by both
        tiny = GaussPoly(V2, 1.0, Q, *terms({(0, 0): 1.0 + 1e-14j}, 2))
        assert gram([tiny], [real])[0, 0] == \
            pytest.approx(integrate(tiny.pointwise_mul(real)), rel=1e-15)

    def test_cancelled_monomials_take_no_moment(self):
        # the x^12 pair sums cancel exactly; their moment, about 2.5e360,
        # leaves double range, so gram raised where integrate gave 0.0
        Q = np.diag([-1e-60, -1.0])
        f = GaussPoly(V2, 1.0, Q, *terms({(6, 0): 1.0, (5, 0): 1.0}, 2))
        g = GaussPoly(V2, 1.0, Q, *terms({(6, 0): 1.0, (7, 0): -1.0}, 2))
        assert integrate(f.pointwise_mul(g)) == 0.0
        assert gram([f], [g]).tolist() == [[0.0]]

    def test_degree_cap_before_any_sum(self, monkeypatch):
        # the operands' top degrees decide: 24 + 24 is integrated, 24 + 25
        # is refused with no term pair summed
        f = GaussPoly(V4, 1.0, -np.eye(4), *terms({(0, 0, 0, 24): 1.0, (0, 0, 0, 0): 2.0}, 4))
        g = GaussPoly(V4, 1.0, -np.eye(4), *terms({(24, 0, 0, 0): 1.0, (0, 1, 1, 0): 0.5}, 4))
        assert_matches_products([f], [g])
        over = GaussPoly(V4, 1.0, -np.eye(4), *terms({(13, 12, 0, 0): 1.0}, 4))
        with pytest.raises(ValueError, match="exceeds 48"):
            integrate(f.pointwise_mul(over))

        def no_sums(*args):
            raise AssertionError("a term pair was summed")
        monkeypatch.setattr(moments, "_pair_sums", no_sums)
        monkeypatch.setattr(starcalc, "_block_sums", no_sums)
        with pytest.raises(ValueError, match="^moment degree 49 exceeds 48$"):
            gram([f], [over, g])

    def test_families_need_a_shared_exponent(self):
        f = GaussPoly(V2, 1.0, -np.eye(2), *terms({(0, 0): 1.0}, 2))
        g = GaussPoly(V2, 1.0, -2.0 * np.eye(2), *terms({(0, 0): 1.0}, 2))
        with pytest.raises(ValueError, match="shared Gaussian exponent"):
            gram([f, g], [f])
        with pytest.raises(ValueError, match="shared Gaussian exponent"):
            gram([f], [])
