import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncphase import (
    LAMBDA_MIN,
    ModelParams,
    derive,
    lambda_from_theta,
    lambda_from_uv,
    load_params,
)


def test_commutative_limit():
    dq = derive(ModelParams())
    assert dq.eta == 0.0 and dq.delta == 0.0
    assert dq.c == pytest.approx(math.pi / 4, abs=1e-15)
    assert dq.h_plus == pytest.approx(1.0, abs=1e-15)
    assert dq.h_minus == pytest.approx(1.0, abs=1e-15)
    assert dq.lam == 1.0
    assert dq.theta == 0.0


def test_position_only_deformation():
    dq = derive(ModelParams(mu=1.0, nu=0.0))
    assert dq.u == 1.0 and dq.v == 0.0
    assert dq.delta == pytest.approx(0.5) and dq.eta == pytest.approx(0.5)
    # oracle: direct evaluation of the two equivalent closed forms
    direct = math.sqrt(1.25 / (1.25**2 - 0.25 * 0.25))
    uv_form = math.sqrt((4 + 1) / (4 + 2 * 1))
    assert direct == pytest.approx(uv_form, rel=1e-15)
    assert dq.lam == pytest.approx(direct, rel=1e-12)
    assert dq.lam == pytest.approx(0.912871, abs=1e-6)


def test_extreme_deformation_approaches_lower_bound():
    # mu*nu -> -hbar^2 with |m^2 w^2 mu - nu| -> infinity
    mu = 1.0e6
    nu = -(1.0 - 1e-12) / mu
    dq = derive(ModelParams(mu=mu, nu=nu))
    assert dq.lam == pytest.approx(LAMBDA_MIN, abs=1e-4)
    assert dq.lam > LAMBDA_MIN


@pytest.mark.parametrize("bad", [
    dict(hbar=0.0), dict(hbar=-1.0), dict(mass=0.0), dict(omega=-2.0),
    dict(mu=2.0, nu=1.0), dict(mu=1.0, nu=1.0),
])
def test_invalid_params_rejected(bad):
    with pytest.raises(ValueError):
        ModelParams(**bad)


@pytest.mark.parametrize("name", ["hbar", "mass", "omega", "mu", "nu"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_params_rejected(name, value):
    with pytest.raises(ValueError, match=f"{name} must be a finite number"):
        ModelParams(**{name: value})


def test_hbar_square_must_be_a_normal_double():
    # below about 1.5e-154 hbar^2 is subnormal or 0.0, and derive divides by it
    with pytest.raises(ValueError, match="hbar\\^2 underflows double precision"):
        ModelParams(hbar=1e-200)
    with pytest.raises(ValueError, match="hbar\\^2 underflows"):
        ModelParams(hbar=1e-155)
    assert ModelParams(hbar=1e-100).hbar == 1e-100
    assert ModelParams(hbar=1.5e-154).hbar == 1.5e-154


def test_non_finite_config_value_rejected(tmp_path):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("mu = nan\n")
    with pytest.raises(ValueError, match="mu must be a finite number"):
        load_params(cfg)


def test_derive_rejects_theta_at_or_below_minus_one():
    with pytest.raises(ValueError):
        derive(ModelParams(mu=1.0, nu=-1.0))
    with pytest.raises(ValueError):
        derive(ModelParams(mu=2.0, nu=-1.0))


def test_near_singular_flag():
    assert ModelParams(mu=1.0, nu=1.0 - 1e-10).near_singular
    assert not ModelParams(mu=0.5, nu=0.5).near_singular


def test_lambda_from_uv_values():
    assert lambda_from_uv(0.0, 0.0) == 1.0
    assert lambda_from_uv(1.0, 1.0) == 1.0  # u = v means delta = 0
    assert lambda_from_uv(1.0, 0.0) == pytest.approx(0.912871, abs=1e-6)
    with pytest.raises(ValueError):
        lambda_from_uv(2.0, 0.6)
    with pytest.raises(ValueError):
        lambda_from_uv(-2.0, 0.6)


def test_lambda_from_theta_values():
    assert lambda_from_theta(0.0, 0.5) == 1.0
    assert lambda_from_theta(1.0, 0.0) == pytest.approx(math.sqrt(2.0 / 3.0),
                                                        rel=1e-12)
    # cross-check against the (u, v) form at a matching point: delta^2 = 1,
    # theta = 0 corresponds to u - v = 2, u v = 0
    assert lambda_from_theta(1.0, 0.0) == pytest.approx(lambda_from_uv(2.0, 0.0),
                                                        rel=1e-12)
    # supremum limit
    assert lambda_from_theta(1e12, -1.0 + 1e-12) == pytest.approx(LAMBDA_MIN,
                                                                  abs=1e-6)
    with pytest.raises(ValueError):
        lambda_from_theta(1.0, 1.0)
    with pytest.raises(ValueError):
        lambda_from_theta(-1.0, 0.0)


def test_lambda_forms_agree_on_random_valid_points(rng):
    hbar, m, w = 1.0, 1.0, 1.0
    count = 0
    while count < 10_000:
        mu = rng.uniform(-3.0, 3.0)
        nu = rng.uniform(-3.0, 3.0)
        if not -hbar**2 < mu * nu < hbar**2:
            continue
        count += 1
        dq = derive(ModelParams(mu=mu, nu=nu))
        assert dq.h_plus > 0.0 and dq.h_minus > 0.0
        assert dq.h_plus * dq.h_minus == pytest.approx(hbar**2 - mu * nu,
                                                       rel=1e-12)
        assert LAMBDA_MIN < dq.lam <= 1.0
        assert lambda_from_uv(dq.u, dq.v) == pytest.approx(dq.lam, rel=1e-12)
        assert lambda_from_theta(dq.delta**2, dq.theta) == pytest.approx(
            dq.lam, rel=1e-12)


@pytest.mark.parametrize("mu,nu", [(0.0, 0.0), (0.7, 0.7), (0.3, 0.3)])
def test_lambda_equals_one_on_vanishing_line(mu, nu):
    # nu/mu = m^2 w^2 (or the undeformed point) gives lam = 1 exactly
    dq = derive(ModelParams(mu=mu, nu=nu))
    assert dq.lam == pytest.approx(1.0, abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(u=st.floats(-8, 8), v=st.floats(-8, 8))
def test_lambda_uv_range_property(u, v):
    if not -1.0 < u * v < 1.0:
        return
    lam = lambda_from_uv(u, v)
    assert LAMBDA_MIN < lam <= 1.0 + 1e-15


def test_load_params(tmp_path):
    cfg = tmp_path / "point.cfg"
    cfg.write_text("# comment\nhbar = 1.0\nmu = 0.3\nnu = 0.1\n")
    p = load_params(cfg)
    assert p == ModelParams(hbar=1.0, mass=1.0, omega=1.0, mu=0.3, nu=0.1)
    bad = tmp_path / "bad.cfg"
    bad.write_text("muu = 0.3\n")
    with pytest.raises(ValueError):
        load_params(bad)
