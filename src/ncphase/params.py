"""Physical inputs and every derived scalar of the deformed oscillator pair.

Conventions: hbar, mass, omega are strictly positive; mu (length^2) deforms the
position-position commutator and nu (momentum^2) the momentum-momentum one.
All downstream formulas are expressed through the scalars computed here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

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
        if hbar_sq < sys.float_info.min:  # derive divides by it
            raise ValueError(
                f"hbar^2 underflows double precision, got hbar = {self.hbar!r}"
            )
        if self.mu * self.nu >= hbar_sq:
            raise ValueError(
                "mu*nu must stay below hbar^2 (singular minimal phase-space cell)"
            )

    @property
    def near_singular(self) -> bool:
        """True when mu*nu sits within 1e-9 (relative) of the hbar^2 singularity."""
        return self.mu * self.nu >= self.hbar**2 * (1.0 - NEAR_SINGULAR_MARGIN)


@dataclass(frozen=True)
class DerivedQuantities:
    """Every scalar symbol derived from a parameter point.

    eta, delta     dimensionless deformation combinations
    c              half arccot(delta), in (0, pi/2)
    h_plus/h_minus mode actions hbar*(sqrt(1+delta^2) +- eta), both positive
    lam            purity parameter in (sqrt(3)/3, 1]
    u, v           mu and nu in natural oscillator units
    theta          mu*nu/hbar^2 = eta^2 - delta^2, in (-1, 1)
    """

    eta: float
    delta: float
    c: float
    h_plus: float
    h_minus: float
    lam: float
    u: float
    v: float
    theta: float


def derive(params: ModelParams) -> DerivedQuantities:
    """Compute all derived scalars, cross-checking the equivalent lambda forms.

    Raises ValueError when mu*nu falls outside (-hbar^2, hbar^2); the upper end
    makes h_minus and the minimal cell degenerate, the lower end pushes the
    purity parameter out of its admissible range. Also raises ValueError when
    a derived scalar overflows double precision.
    """
    try:
        dq = _derive(params)
    except OverflowError:
        dq = None
    if dq is None or not all(map(math.isfinite, vars(dq).values())):
        raise ValueError("parameters out of range: derived scalars overflow "
                         "double precision")
    return dq


def _derive(params: ModelParams) -> DerivedQuantities:
    hbar, m, w = params.hbar, params.mass, params.omega
    mu, nu = params.mu, params.nu

    theta = mu * nu / hbar**2
    if theta >= 1.0:
        raise ValueError("mu*nu must stay below hbar^2 (non-positive h_minus)")
    if theta <= -1.0:
        raise ValueError("mu*nu must stay above -hbar^2 (purity parameter out of range)")

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
        eta=eta, delta=delta, c=c, h_plus=h_plus, h_minus=h_minus,
        lam=lam, u=u, v=v, theta=theta,
    )


def lambda_from_uv(u: float, v: float) -> float:
    """Purity parameter from the dimensionless deformation pair (u, v).

    The closed endpoints u*v = +-1 evaluate to their analytic limits (the
    u = v diagonal must give 1); strictly beyond them is rejected.
    """
    if not -1.0 <= u * v <= 1.0:
        raise ValueError("u*v must lie in [-1, 1]")
    d2 = (u - v) ** 2
    return math.sqrt((4.0 + d2) / (4.0 + (2.0 - u * v) * d2))


def lambda_from_theta(delta_sq: float, theta: float) -> float:
    """Purity parameter from delta^2 and theta = mu*nu/hbar^2."""
    if delta_sq < 0.0:
        raise ValueError("delta_sq must be nonnegative")
    if not -1.0 < theta < 1.0:
        raise ValueError("theta must lie in (-1, 1)")
    return math.sqrt((1.0 + delta_sq) / (1.0 + (2.0 - theta) * delta_sq))


def load_params(path: str | Path) -> ModelParams:
    """Read a `key = value` parameter file; unknown keys are rejected.

    Recognized keys: hbar, mass, omega, mu, nu. Missing keys default to
    hbar = mass = omega = 1 and mu = nu = 0. Lines starting with '#' and
    blank lines are ignored.
    """
    values: dict[str, float] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in _PARAM_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown parameter {key!r}")
        values[key] = float(text.strip())
    return ModelParams(**values)
