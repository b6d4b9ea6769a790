"""Physical inputs and every derived scalar of the deformed oscillator pair.

Conventions: hbar, mass, omega are strictly positive; mu (length^2) deforms the
position-position commutator and nu (momentum^2) the momentum-momentum one.
All downstream formulas read the scalars a `ModelParams` derives once, when
it is built; it refuses a point whose scalars leave double precision.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# lower end of the purity-parameter range; approached, never attained
LAMBDA_MIN = math.sqrt(3.0) / 3.0

# mu*nu within this relative margin of hbar^2 is accepted but flagged
NEAR_SINGULAR_MARGIN = 1e-9

_CROSS_CHECK_RTOL = 1e-12

_PARAM_KEYS = ("hbar", "mass", "omega", "mu", "nu")


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the two oscillators on the deformed phase space."""

    hbar: float = 1.0
    mass: float = 1.0
    omega: float = 1.0
    mu: float = 0.0
    nu: float = 0.0

    def __post_init__(self):
        for name in _PARAM_KEYS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        for name in ("hbar", "mass", "omega"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        try:
            hbar_sq = self.hbar**2
        except OverflowError:
            raise ValueError(
                f"hbar^2 overflows double precision, got hbar = {self.hbar!r}"
            ) from None
        if hbar_sq < sys.float_info.min:  # _derive divides by it
            raise ValueError(
                f"hbar^2 underflows double precision, got hbar = {self.hbar!r}"
            )
        # the upper end makes the minimal cell singular, the lower one pushes
        # the purity parameter out of range; _derive and darboux rely on this
        if not -hbar_sq < self.mu * self.nu < hbar_sq:
            raise ValueError("mu*nu must stay inside (-hbar^2, hbar^2)")
        try:
            dq = _derive(self)
        except (ArithmeticError, ValueError):  # overflow, cross-checks, NaN u*v
            dq = None
        if (dq is None or not all(map(math.isfinite, vars(dq).values()))
                or not LAMBDA_MIN < dq.lam <= 1.0):
            raise ValueError("parameters out of range: derived scalars overflow "
                             "or lose precision in double precision")
        object.__setattr__(self, "_derived", dq)  # not a field: eq, hash, repr skip it

    @property
    def near_singular(self) -> bool:
        """True when mu*nu sits within 1e-9 (relative) of the hbar^2 singularity."""
        return self.mu * self.nu >= self.hbar**2 * (1.0 - NEAR_SINGULAR_MARGIN)


@dataclass(frozen=True)
class DerivedQuantities:
    """Every scalar symbol derived from a parameter point.

    eta, delta     dimensionless mixes of the deformations
    c              half arccot(delta), in (0, pi/2)
    root           sqrt(1 + delta^2)
    h_plus/h_minus mode actions hbar*(root +- eta), both positive
    lam            purity parameter in (sqrt(3)/3, 1]
    u, v           mu and nu in natural oscillator units
    theta          mu*nu/hbar^2 = eta^2 - delta^2, in (-1, 1)
    """

    eta: float
    delta: float
    root: float
    c: float
    h_plus: float
    h_minus: float
    lam: float
    u: float
    v: float
    theta: float


def derive(params: ModelParams) -> DerivedQuantities:
    """The scalars of a point, derived and checked when it was built: all
    finite, lam in (sqrt(3)/3, 1], the lambda forms in agreement. Far from
    unit scales `ModelParams` refuses points where an overflow, a division
    by zero or rounding breaks this ("parameters out of range")."""
    return params._derived


def _derive(params: ModelParams) -> DerivedQuantities:
    hbar, m, w = params.hbar, params.mass, params.omega
    mu, nu = params.mu, params.nu

    theta = mu * nu / hbar**2
    eta = (m**2 * w**2 * mu + nu) / (2.0 * hbar * m * w)
    delta = (m**2 * w**2 * mu - nu) / (2.0 * hbar * m * w)
    u = m * w * mu / hbar
    v = nu / (hbar * m * w)

    root = math.sqrt(1.0 + delta**2)
    h_plus = hbar * (root + eta)
    h_minus = hbar * (root - eta)
    c = 0.5 * math.atan2(1.0, delta)  # arccot on (0, pi)

    # (1+d^2)^2 - d^2 e^2 = 1 + (2-theta) d^2: same formula, no cancellation
    lam = lambda_from_theta(delta**2, theta)
    lam_uv = lambda_from_uv(u, v)
    if abs(lam_uv - lam) > _CROSS_CHECK_RTOL * abs(lam):
        raise ArithmeticError(
            f"purity-parameter forms disagree: {lam!r} vs {lam_uv!r}"
        )
    # the literal two-term denominator loses ~(1+d^2)^2 eps absolutely
    literal = math.sqrt((1.0 + delta**2)
                        / ((1.0 + delta**2) ** 2 - delta**2 * eta**2))
    condition = (1.0 + delta**2) ** 2 / (1.0 + (2.0 - theta) * delta**2)
    if abs(literal - lam) > _CROSS_CHECK_RTOL * abs(lam) * max(1.0, condition):
        raise ArithmeticError(
            f"purity-parameter forms disagree: {lam!r} vs {literal!r}"
        )

    return DerivedQuantities(
        eta=eta, delta=delta, root=root, c=c, h_plus=h_plus, h_minus=h_minus,
        lam=lam, u=u, v=v, theta=theta,
    )


def lambda_from_uv(u, v):
    """Purity parameter from the dimensionless deformation pair (u, v).

    The closed endpoints u*v = +-1 evaluate to their analytic limits (the
    u = v diagonal must give 1); strictly beyond them is rejected. Floats
    give a float; arrays give each entry's float value, bit for bit.
    """
    uv, d = u * v, u - v
    _require((-1.0 <= uv) & (uv <= 1.0), "u*v must lie in [-1, 1]")
    d2 = d * d  # not d ** 2: a float's pow can round a half-way square the other way
    return _sqrt((4.0 + d2) / (4.0 + (2.0 - uv) * d2))


def lambda_from_theta(delta_sq, theta):
    """Purity parameter from delta^2 and theta = mu*nu/hbar^2, floats or
    arrays as in lambda_from_uv."""
    # not delta_sq >= 0: a NaN passes on to derive's range check
    _require(np.logical_not(delta_sq < 0.0), "delta_sq must be nonnegative")
    _require((-1.0 < theta) & (theta < 1.0), "theta must lie in (-1, 1)")
    return _sqrt((1.0 + delta_sq) / (1.0 + (2.0 - theta) * delta_sq))


def _require(holds, message: str) -> None:
    """Raise ValueError unless holds is true, or true at every entry."""
    if not (holds.all() if isinstance(holds, np.ndarray) else holds):
        raise ValueError(message)


def _sqrt(x):
    """math.sqrt of a float, np.sqrt of an array: the same bits either way."""
    return math.sqrt(x) if isinstance(x, float) else np.sqrt(x)


def _read_params(path: str | Path) -> dict[str, float]:
    """The {key: value} of a `key = value` parameter file; an unknown or
    repeated key and a value that is not a number are refused with the file
    and line. Lines starting with '#' and blank lines are ignored."""
    values: dict[str, float] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, text = (part.strip() for part in line.partition("="))
        if key not in _PARAM_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown parameter {key!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: repeated parameter {key!r}")
        try:
            values[key] = float(text)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: {key} must be a number, "
                             f"got {text!r}") from None
    return values


def load_params(path: str | Path) -> ModelParams:
    """Read a `key = value` parameter file (`_read_params`).

    Recognized keys: hbar, mass, omega, mu, nu. Missing keys default to
    hbar = mass = omega = 1 and mu = nu = 0.
    """
    return ModelParams(**_read_params(path))
