"""Linear map between canonical and deformed phase-space coordinates, and the
minimal-cell volume. The commutator matrices the map relates are
`PhaseVariables.deformation_matrix()` of the canonical and deformed blocks.

A scaled Bopp shift realizes the deformed commutators exactly:

    x_i = kappa y_i - (mu / 2 hbar kappa) eps_ij q_j
    p_i = kappa q_i + (nu / 2 hbar kappa) eps_ij y_j

with kappa^2 = (1 + sqrt(1 - mu nu / hbar^2)) / 2. The naive unscaled shift
misses the x-p commutator at order mu*nu; the kappa scaling restores it and
gives det M = 1 - mu nu / hbar^2 exactly. Only the determinant (the minimal
cell deformation) is used downstream; composing with any canonical symplectic
matrix yields an equally valid map.
"""

from __future__ import annotations

import math

import numpy as np

from .params import ModelParams


def build_map(params: ModelParams) -> np.ndarray:
    """Matrix M acting as (x1, x2, p1, p2)^T = M (y1, y2, q1, q2)^T: a concrete
    solution of M Omega0 M^T = Omega_deformed with |M| = 1 - mu nu/hbar^2."""
    h, mu, nu = params.hbar, params.mu, params.nu
    kappa = math.sqrt((1.0 + math.sqrt(1.0 - mu * nu / h**2)) / 2.0)
    beta = mu / (2.0 * h * kappa)
    sigma = nu / (2.0 * h * kappa)
    return np.array(
        [
            [kappa, 0.0, 0.0, -beta],
            [0.0, kappa, beta, 0.0],
            [0.0, sigma, kappa, 0.0],
            [-sigma, 0.0, 0.0, kappa],
        ]
    )


def cell_size(params: ModelParams) -> float:
    """Volume of the minimal phase-space cell, 4 pi^2 (hbar^2 - mu nu)."""
    h = params.hbar
    return 4.0 * math.pi**2 * (h**2 - params.mu * params.nu)
