import math

import numpy as np
import pytest

from conftest import random_symplectic

from ncphase import (
    ModelParams,
    PhaseVariables,
    build_map,
    cell_size,
)


def commutators(params):
    """The canonical and the deformed commutator matrices, divided by i."""
    return (PhaseVariables(4, hbar=params.hbar).deformation_matrix(),
            PhaseVariables(4, hbar=params.hbar, mu=params.mu,
                           nu=params.nu).deformation_matrix())


def test_identity_at_zero_deformation():
    m = build_map(ModelParams())
    assert np.allclose(m, np.eye(4), atol=1e-15)
    assert np.linalg.det(m) == pytest.approx(1.0)


def test_determinant_examples():
    assert np.linalg.det(build_map(ModelParams(mu=1.0, nu=0.0))) == \
        pytest.approx(1.0, abs=1e-12)
    assert np.linalg.det(build_map(ModelParams(mu=0.5, nu=0.5))) == \
        pytest.approx(0.75, abs=1e-12)


def test_cell_size_examples():
    assert cell_size(ModelParams()) == pytest.approx(4 * math.pi**2)
    assert cell_size(ModelParams(mu=0.5, nu=0.5)) == pytest.approx(3 * math.pi**2)


def test_cell_size_consistent_with_determinant():
    for mu, nu in [(0.3, 0.1), (1.0, 0.0), (0.5, -0.4), (0.9, 0.9)]:
        params = ModelParams(mu=mu, nu=nu)
        det = np.linalg.det(build_map(params))
        assert cell_size(params) == pytest.approx(
            (2 * math.pi * params.hbar) ** 2 * det, rel=1e-12)


def test_commutator_identity_random_points(rng):
    for _ in range(20):
        mu = rng.uniform(-1.5, 1.5)
        nu = rng.uniform(-0.6, 0.6)
        if not mu * nu < 1.0:
            continue
        params = ModelParams(mu=mu, nu=nu)
        m = build_map(params)
        omega0, target = commutators(params)
        assert np.abs(m @ omega0 @ m.T - target).max() < 1e-12
        assert np.linalg.det(m) == pytest.approx(1.0 - mu * nu, abs=1e-12)


def test_singular_cell_rejected():
    # the parameter gate fires before either map construction or cell size
    with pytest.raises(ValueError):
        build_map(ModelParams(mu=1.0, nu=1.0))
    with pytest.raises(ValueError):
        cell_size(ModelParams(mu=0.9, nu=0.8, hbar=0.8))


def test_composition_with_symplectic_stays_valid(rng):
    params = ModelParams(mu=0.4, nu=0.2)
    base = build_map(params)
    omega0, target = commutators(params)
    for _ in range(5):
        s = random_symplectic(rng)
        assert np.abs(s @ omega0 @ s.T - omega0).max() < 1e-10
        composed = base @ s
        assert np.abs(composed @ omega0 @ composed.T - target).max() < 1e-9
        assert np.linalg.det(composed) == pytest.approx(
            np.linalg.det(base), rel=1e-10)
