import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncphase import (
    LAMBDA_MIN,
    ModelParams,
    derive,
    energy_level,
    lambda_from_theta,
    lambda_from_uv,
    load_params,
    reduce,
    wigner_state,
)
from ncphase import params as params_module
from ncphase.params import _PARAM_KEYS


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


def test_lambda_forms_take_arrays(rng):
    """Array calls give each entry's float call bit for bit, as figures 1
    and 2 need; floats give floats; any out-of-range entry is refused."""
    u, v = rng.uniform(-3.0, 3.0, (2, 2000))
    keep = np.abs(u * v) <= 1.0
    u, v = u[keep], v[keep]
    # dyadic points, many with (u - v)^2 half way between two doubles, where
    # a pow-based square can round the other way
    odd = rng.integers(2**26, 2**27, 200) | 1
    u = np.concatenate([u, odd * 2.0**-27, [1.0, -1.0, 0.0]])
    v = np.concatenate([v, np.zeros(200), [1.0, -1.0, 0.0]])
    d2, theta = rng.uniform(0.0, 1e3, 2000), rng.uniform(-1.0, 1.0, 2000)
    for fn, a, b in ((lambda_from_uv, u, v), (lambda_from_theta, d2, theta)):
        got = fn(a, b)
        want = [fn(float(x), float(y)) for x, y in zip(a, b)]
        assert all(type(w) is float for w in want)
        assert got.tobytes() == np.array(want).tobytes()
    with pytest.raises(ValueError):
        lambda_from_uv(np.array([0.5, 2.0]), np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        lambda_from_theta(np.array([1.0, -1.0]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        lambda_from_theta(np.array([1.0, 1.0]), np.array([0.0, 1.0]))


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


# positive scales and signed deformations over the whole double range
_SCALES = st.floats(min_value=5e-324, max_value=1.7e308)
_SIGNED = st.floats(min_value=-1.7e308, max_value=1.7e308)


@settings(max_examples=500, deadline=None)
@given(hbar=_SCALES, mass=_SCALES, omega=_SCALES, mu=_SIGNED, nu=_SIGNED)
def test_derive_is_total_over_the_accepted_domain(hbar, mass, omega, mu, nu):
    """A built point has finite scalars with lam in range; construction
    refuses every other point with a ValueError, and no other exception
    escapes."""
    try:
        params = ModelParams(hbar=hbar, mass=mass, omega=omega, mu=mu, nu=nu)
    except ValueError as exc:
        # a bound of the inputs, or the derived scalars' refusal
        assert re.match(r"(hbar|mass|omega|mu|nu) must be|hbar\^2 \w+flows|mu\*nu must"
                        r"|parameters out of range", str(exc)), exc
        return
    dq = derive(params)
    assert all(map(math.isfinite, vars(dq).values()))
    assert LAMBDA_MIN < dq.lam <= 1.0


def test_derive_division_by_zero_is_a_value_error():
    # refused at construction: v = inf makes u*v = 0*inf = NaN, and far
    # from unit scales (1+d^2)^2 - d^2 eta^2 rounds to zero
    with pytest.raises(ValueError, match="parameters out of range"):
        ModelParams(omega=5e-324, nu=1.0)
    with pytest.raises(ValueError, match="parameters out of range"):
        ModelParams(hbar=7.607880939073406e-103, mass=1.3934693779598466e+89,
                    omega=4.268010897836484e-109, mu=7.008624504449331e-99,
                    nu=1.9399340176629578e-107)


def test_scalars_are_derived_once_per_point(monkeypatch):
    calls = []
    original = params_module._derive
    monkeypatch.setattr(params_module, "_derive",
                        lambda p: calls.append(p) or original(p))
    p = ModelParams(mu=0.2, nu=0.1)
    assert derive(p) is derive(p)
    wigner_state(1, 1, p)
    reduce(wigner_state(0, 0, p), 1)
    assert len(calls) == 1


def test_replace_carries_the_scalars_of_a_fresh_point():
    p = ModelParams(mu=0.2, nu=0.1)
    moved = dataclasses.replace(p, mu=0.3)
    assert derive(moved) == derive(ModelParams(mu=0.3, nu=0.1))
    assert derive(moved) != derive(p)


def test_derived_scalars_are_not_fields():
    p = ModelParams(hbar=2.0, mu=0.2, nu=0.1)
    assert [f.name for f in dataclasses.fields(p)] == list(_PARAM_KEYS)
    assert repr(p) == "ModelParams(hbar=2.0, mass=1.0, omega=1.0, mu=0.2, nu=0.1)"
    assert p == ModelParams(2.0, 1.0, 1.0, 0.2, 0.1)
    assert hash(p) == hash((2.0, 1.0, 1.0, 0.2, 0.1))
    assert p != ModelParams(hbar=2.0, mu=0.2, nu=0.2)


@pytest.mark.parametrize("mu,nu", [(0.0, 0.0), (0.2, 0.1), (3.0, -0.3), (1.0, 0.999),
                                   (1e6, -(1.0 - 1e-12) / 1e6)])
def test_root_is_the_one_square_root(mu, nu):
    dq = derive(ModelParams(mu=mu, nu=nu))
    assert dq.root == math.sqrt(1 + dq.delta**2)
    assert dq.h_plus == dq.root + dq.eta and dq.h_minus == dq.root - dq.eta


@pytest.mark.parametrize("mu,nu,digest", [
    (0.0, 0.0, "47a8a8c9914732f179ac52dc46eade6263629debca100c84da1fb43692c2e783"),
    (0.2, 0.1, "1c319104f361a170bda5482499767cbbd05c01e576315902830c0666f3ec8293"),
    (3.0, -0.3, "49dc2362d5e4853b77ebea97b54aaa8d5030f84a7121d5a5abc1526eaaac1775"),
    (1.0, 0.999, "0586d71790b4f42218b02feb77828223a47993747558009038978f672cd92f3b"),
])
def test_readers_of_root_keep_their_bits(mu, nu, digest):
    # the bits of energy_level for i, j in 0..3, then of the reduced ground
    # state's prefactor and exponent
    p = ModelParams(mu=mu, nu=nu)
    f = reduce(wigner_state(0, 0, p), 1).function
    levels = [energy_level(i, j, p) for i in range(4) for j in range(4)]
    data = np.array(levels + [f.prefactor]).tobytes() + f.exponent.tobytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_load_params(tmp_path):
    cfg = tmp_path / "point.cfg"
    cfg.write_text("# comment\nhbar = 1.0\nmu = 0.3\nnu = 0.1\n")
    p = load_params(cfg)
    assert p == ModelParams(hbar=1.0, mass=1.0, omega=1.0, mu=0.3, nu=0.1)
    bad = tmp_path / "bad.cfg"
    bad.write_text("muu = 0.3\n")
    with pytest.raises(ValueError):
        load_params(bad)


@pytest.mark.parametrize("text,message", [
    ("hbar = 1\nmu = abc\n", r":2: mu must be a number, got 'abc'"),
    ("mu =\n", r":1: mu must be a number, got ''"),
    ("mu = 0.1\nnu = 0.0\nmu = 0.2\n", r":3: repeated parameter 'mu'"),
    ("muu = 0.3\n", r":1: unknown parameter 'muu'"),
])
def test_load_params_names_the_file_and_line(tmp_path, text, message):
    cfg = tmp_path / "point.cfg"
    cfg.write_text(text)
    with pytest.raises(ValueError, match=re.escape(str(cfg)) + message):
        load_params(cfg)
