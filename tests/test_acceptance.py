"""Acceptance suite: one test per exit criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS lines.
"""

import math
import time

import numpy as np
import pytest

from conftest import params_for_lambda

from ncphase import (
    LAMBDA_MIN,
    ModelParams,
    PhaseVariables,
    beta_gamma,
    build_map,
    cell_size,
    derive,
    e1_nu_zero,
    e1_nu_zero_supremum,
    gaussian_star,
    genvalue_residual,
    hamiltonians_pm,
    integrate,
    marginalize,
    reduce,
    renyi_entanglement,
    renyi_numeric,
    renyi_supremum,
    renyi_total,
    star_exp,
    star_log_gaussian,
    tsallis_entanglement,
    von_neumann_entanglement,
    von_neumann_supremum,
    wigner_state,
)
from ncphase.cli import _quad_matrix, figure_csv
from ncphase.wigner import residual_grid

THREE_POINTS = [(0.0, 0.0), (0.2, 0.1), (1.0, 0.0)]


def report(n: int, detail: str) -> None:
    print(f"criterion {n:2d}: PASS  {detail}")


def test_criterion_01_entropy_suprema():
    start = time.time()
    near = LAMBDA_MIN + 1e-9
    targets = {1: 0.794, 2: 0.549, 3: 0.458, 4: 0.414}
    values = {1: von_neumann_entanglement(near).value}
    for alpha in (2, 3, 4):
        values[alpha] = renyi_entanglement(alpha, near).value
    for alpha, want in targets.items():
        assert values[alpha] == pytest.approx(want, abs=1e-3)
    exact = {
        1: math.sqrt(3) / 2 * math.log(2 + math.sqrt(3)) - 0.5 * math.log(2),
        2: 0.5 * math.log(3),
        3: 0.5 * (math.log(5) - math.log(2)),
        4: math.log(2) / 3 + math.log(3) / 6,
    }
    assert von_neumann_supremum() == pytest.approx(exact[1], abs=1e-12)
    for alpha in (2, 3, 4):
        assert renyi_supremum(alpha) == pytest.approx(exact[alpha], abs=1e-12)
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(1, f"suprema 0.794/0.549/0.458/0.414 within 1e-3, symbolic "
              f"endpoints to 1e-12 ({elapsed * 1e3:.1f} ms)")


def test_criterion_02_nu_zero_bound():
    bound = math.sqrt(2) * math.log(1 + math.sqrt(2)) - math.log(2)
    assert e1_nu_zero(1e6) == pytest.approx(bound, abs=1e-3)
    assert e1_nu_zero_supremum() == pytest.approx(bound, abs=1e-15)
    assert e1_nu_zero(0.0) == 0.0
    report(2, "position-only case: bound 0.553 approached, exact zero at u=0")


def test_criterion_03_beta_gamma_table():
    published = {
        2: ((2,), (1, 1)),
        3: ((3, 1), (1, 3)),
        4: ((4, 4), (1, 6, 1)),
        5: ((5, 10, 1), (1, 10, 5)),
        6: ((6, 20, 6), (1, 15, 15, 1)),
    }
    for n, (beta, gamma) in published.items():
        bg = beta_gamma(n)
        assert bg.beta == beta, f"beta_{n}"
        assert bg.gamma == gamma, f"gamma_{n}"
    for n in range(1, 13):
        bg = beta_gamma(n)
        assert sum(bg.beta) == 2 ** (n - 1)
        assert sum(bg.gamma) == 2 ** (n - 1)
    report(3, "recurrence table exact for n<=6, coefficient sums 2^(n-1) to n=12")


def test_criterion_04_closed_vs_numeric():
    start = time.time()
    worst = 0.0
    for lam in np.linspace(0.60, 1.00, 9):
        params = params_for_lambda(float(lam))
        reduced = reduce(wigner_state(0, 0, params), 1)
        actual = derive(params).lam
        for alpha in (2, 3, 4, 5, 6):
            closed = renyi_entanglement(alpha, actual).value
            numeric = renyi_numeric(reduced, alpha, params).value
            worst = max(worst, abs(closed - numeric))
            assert abs(closed - numeric) <= 1e-9
        assert abs(renyi_entanglement(2, actual).value
                   + math.log(actual)) <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(4, f"star-power route matches closed form, worst {worst:.2e} "
              f"({elapsed:.2f} s)")


def test_criterion_05_genvalue_equation():
    start = time.time()
    worst = 0.0
    for mu, nu in THREE_POINTS:
        params = ModelParams(mu=mu, nu=nu)
        for i in range(3):
            for j in range(3):
                state = wigner_state(i, j, params)
                scale = np.abs(state.function.value(
                    residual_grid(state.function))).max()
                res = genvalue_residual(state, params)
                worst = max(worst, res / scale)
                assert res <= 1e-8 * scale, (i, j, mu, nu)
    control = wigner_state(0, 0, ModelParams(mu=0.2, nu=0.1))
    scale = np.abs(control.function.value(
        residual_grid(control.function))).max()
    bad = genvalue_residual(control, ModelParams(mu=0.2, nu=0.1),
                            energy=control.energy * 1.01)
    assert bad > 1e-8 * scale
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(5, f"eigen-equation residual <= 1e-8 for i,j<=2 at three points, "
              f"worst {worst:.2e}; 1% energy fault detected ({elapsed:.1f} s)")


def test_criterion_06_orthogonality_normalization():
    params = ModelParams(mu=0.2, nu=0.1)
    cell = cell_size(params)
    states = {(i, j): wigner_state(i, j, params)
              for i in range(3) for j in range(3)}
    worst = 0.0
    for (k, l), skl in states.items():
        for (i, j), sij in states.items():
            got = integrate(skl.function.pointwise_mul(sij.function))
            want = 1.0 / cell if (k, l) == (i, j) else 0.0
            worst = max(worst, abs(got - want) * cell)
    assert worst <= 1e-9
    for i in range(4):
        for j in range(4):
            norm = integrate(wigner_state(i, j, params).function)
            assert norm == pytest.approx(1.0, abs=1e-10)
    report(6, f"orthogonality delta/cell to 1e-9 (worst {worst:.2e}), "
              f"normalization to 1e-10 for indices <= 3")


def test_criterion_07_reduced_state_agreement(rng):
    checked = 0
    while checked < 10:
        mu = float(rng.uniform(-1.5, 1.5))
        nu = float(rng.uniform(-0.6, 0.6))
        if not -1.0 < mu * nu < 1.0:
            continue
        checked += 1
        params = ModelParams(mu=mu, nu=nu)
        state = wigner_state(0, 0, params)
        closed = reduce(state, 1).function
        marg = marginalize(state.function, keep=1)
        pts = residual_grid(closed)
        scale = np.abs(closed.value(pts)).max()
        assert np.abs(closed.value(pts) - marg.value(pts)).max() <= 1e-10 * scale
    report(7, "closed-form reduced Gaussian equals exact marginal at 10 "
              "random deformations")


def test_criterion_08_star_exponential_laws():
    params = ModelParams(mu=0.3, nu=0.1)
    h_plus, _ = hamiltonians_pm(params)
    k = abs(h_plus.k)

    for t1, t2 in [(0.2 / k, -0.5 / k), (-0.3 / k, -0.4 / k), (0.15 / k, 0.1 / k)]:
        lhs = gaussian_star(star_exp(h_plus, t1), star_exp(h_plus, t2),
                            forms=[h_plus])
        rhs = star_exp(h_plus, t1 + t2)
        assert abs(lhs.prefactor - rhs.prefactor) <= 1e-10
        assert np.abs(lhs.exponent - rhs.exponent).max() <= 1e-10

    # evolution equation by finite differences at sampled points
    pts = np.array([[0.4, -0.1, 0.2, 0.3], [0.0, 0.5, -0.2, 0.1],
                    [1.0, 0.0, 0.0, -0.5]])
    h_vals = np.einsum("ni,ij,nj->n", pts, h_plus.matrix, pts)
    kk = h_plus.k
    for t in (-0.6 / k, -0.2 / k, 0.3 / k):
        dt = 1e-6
        lhs = (star_exp(h_plus, t + dt).value(pts)
               - star_exp(h_plus, t - dt).value(pts)) / (2 * dt)
        s = math.tanh(kk * t) / kk
        f = star_exp(h_plus, t).value(pts)
        rhs = f * (h_vals - kk**2 * s - kk**2 * h_vals * s**2)
        assert np.abs(lhs - rhs).max() <= 1e-4 * np.abs(rhs).max()

    t = -0.45 / k
    const, quad = star_log_gaussian(star_exp(h_plus, t), form=h_plus)
    assert abs(const) <= 1e-10
    assert np.abs(quad.prefactor * _quad_matrix(quad)
                  - t * h_plus.matrix).max() <= 1e-10
    report(8, "group law to 1e-10, evolution equation to 1e-4, star-log "
              "round trip to 1e-10")


def test_criterion_09_ordering_properties():
    grid = np.linspace(LAMBDA_MIN + 1e-6, 1.0, 50)
    for lam in grid:
        lam = float(lam)
        chain = [von_neumann_entanglement(lam).value]
        chain += [renyi_entanglement(a, lam).value for a in (2, 3, 4)]
        assert chain[-1] >= 0.0
        for hi, lo in zip(chain, chain[1:]):
            if lam < 1.0:
                assert hi > lo
            else:
                assert hi == lo == 0.0
        for order in (2, 3, 4):
            renyi = renyi_entanglement(order, lam).value
            tsallis = tsallis_entanglement(order, lam).value
            if lam < 1.0:
                assert renyi > tsallis
            else:
                assert renyi == tsallis == 0.0
        for alpha in range(2, 7):
            assert 0.0 <= renyi_entanglement(alpha, lam).value < 1.0
        assert 0.0 <= von_neumann_entanglement(lam).value < 1.0
    report(9, "E1 >= E2 >= E3 >= E4 >= 0 and Renyi >= Tsallis on the 50-point "
              "grid, all below 1 through order 6")


def test_criterion_10_darboux_identities(rng):
    checked = 0
    while checked < 20:
        mu = float(rng.uniform(-1.5, 1.5))
        nu = float(rng.uniform(-0.6, 0.6))
        if not mu * nu < 1.0:
            continue
        checked += 1
        params = ModelParams(mu=mu, nu=nu)
        m = build_map(params)
        omega0 = PhaseVariables(4, hbar=params.hbar).deformation_matrix()
        omega = PhaseVariables(4, hbar=params.hbar, mu=mu, nu=nu).deformation_matrix()
        assert np.abs(m @ omega0 @ m.T - omega).max() <= 1e-12
        assert abs(np.linalg.det(m) - (1.0 - mu * nu)) <= 1e-12
        assert cell_size(params) == pytest.approx(
            (2 * math.pi) ** 2 * np.linalg.det(m), rel=1e-12)
    report(10, "commutator transport and determinant identities to 1e-12 at "
               "20 random points; cell = (2 pi hbar)^2 det M")


def test_criterion_11_pure_state_zero_entropy():
    for mu, nu in THREE_POINTS:
        params = ModelParams(mu=mu, nu=nu)
        for i, j in [(0, 0), (1, 1)]:
            state = wigner_state(i, j, params)
            assert abs(renyi_total(state, 2, params).value) <= 1e-9
    params = ModelParams(mu=0.2, nu=0.1)
    w00 = wigner_state(0, 0, params).function
    w10 = wigner_state(1, 0, params).function
    mixed = w00.scaled(0.5) + w10.scaled(0.5)
    assert renyi_total(mixed, 2, params).value == pytest.approx(math.log(2),
                                                                abs=1e-9)
    report(11, "total entropy zero for eigenstates under three deformations; "
               "equal mixture gives ln 2")


def test_criterion_12_figure_regeneration(tmp_path):
    timings = {}
    texts = {}
    for fig in (1, 2, 3, 4, 5):
        start = time.time()
        first = figure_csv(fig)
        timings[fig] = time.time() - start
        assert timings[fig] < 10.0
        assert figure_csv(fig) == first  # byte-identical rerun
        texts[fig] = first

    rows3 = [r.split(",") for r in texts[3].strip().splitlines()[1:]]
    for got, want in zip(rows3[0][1:], (0.794, 0.549, 0.458, 0.414)):
        assert float(got) == pytest.approx(want, abs=2e-3)
    assert [float(v) for v in rows3[-1]] == [1.0, 0.0, 0.0, 0.0, 0.0]

    rows5 = [r.split(",") for r in texts[5].strip().splitlines()[1:]]
    assert float(rows5[0][1]) == pytest.approx(0.794, abs=2e-3)
    assert [float(v) for v in rows5[-1]] == [1.0, 0.0, 0.0, 0.0, 0.0]

    rows4 = [r.split(",") for r in texts[4].strip().splitlines()[1:]]
    u = np.array([float(r[0]) for r in rows4])
    e1 = np.array([float(r[1]) for r in rows4])
    assert (np.diff(e1[u >= 0]) >= -1e-12).all()
    assert (np.diff(e1[u <= 0]) <= 1e-12).all()

    total = sum(timings.values())
    report(12, f"five figure CSVs regenerate deterministically "
               f"({total:.2f} s total), endpoints and monotonicity verified")
