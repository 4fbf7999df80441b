"""Distance-dependent propagation models for a millimeter-wave uplink.

Short links are predominantly line-of-sight while long links are blocked,
so the path-loss exponent, the shadowing standard deviation, and the
fading severity all drift with link length.  A single tanh ramp with
transition rate ``mu`` carries all three between their short-range and
long-range values.  Distances are in km, shadowing in dB, gains linear.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# speed of an electromagnetic wave, km/s
SPEED_OF_LIGHT_KM_S = 299792.458


@dataclass(frozen=True)
class PropagationParams:
    """Large-scale channel parameters.

    alpha_min/alpha_max : path-loss exponents at short/long range
    sigma_min/sigma_max : shadowing standard deviations (dB)
    m_min/m_max         : Nakagami shape at long/short range
    mu                  : transition rate of the tanh ramp (1/km)
    d0                  : reference distance (km); path gain is 1 there
    """

    alpha_min: float
    alpha_max: float
    sigma_min: float
    sigma_max: float
    m_min: float
    m_max: float
    mu: float = 20.0
    d0: float = 0.004

    def __post_init__(self):
        if not (0 < self.alpha_min <= self.alpha_max):
            raise ValueError("need 0 < alpha_min <= alpha_max")
        if not (0 < self.sigma_min <= self.sigma_max):
            raise ValueError("need 0 < sigma_min <= sigma_max")
        if not (0 < self.m_min <= self.m_max):
            raise ValueError("need 0 < m_min <= m_max")
        if self.m_min < 0.5:
            raise ValueError("m_min must be >= 0.5 for a valid Nakagami shape")
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.d0 <= 0:
            raise ValueError("d0 must be positive")


# Measured urban parameter sets around 73 GHz, as
# (alpha_min, alpha_max, sigma_min, sigma_max, m_min, m_max).
PRESETS = {
    "newyork": (2.3, 4.7, 6.1, 12.6, 1.0, 2.0),
    "austin": (1.9, 3.3, 4.6, 12.3, 1.0, 2.0),
}


def preset_params(name, mu=20.0, d0=0.004):
    """Return the PropagationParams for a named urban preset."""
    try:
        values = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown propagation preset {name!r}; "
                         f"choose from {sorted(PRESETS)}") from None
    return PropagationParams(*values, mu, d0)


def alpha_of(d, p: PropagationParams):
    """Path-loss exponent at link length d >= 0 km."""
    return p.alpha_min + (p.alpha_max - p.alpha_min) * np.tanh(p.mu * d)


def sigma_of(d, p: PropagationParams):
    """Shadowing standard deviation in dB at link length d >= 0 km."""
    return p.sigma_min + (p.sigma_max - p.sigma_min) * np.tanh(p.mu * d)


def m_of(d, p: PropagationParams):
    """Nakagami shape at link length d >= 0 km; decreases with distance."""
    return p.m_max - (p.m_max - p.m_min) * np.tanh(p.mu * d)


def round_integer_m(d, p: PropagationParams) -> int:
    """Nearest integer to m_of(d), ties rounding up, clamped to >= 1.

    Used only for the reference link, whose outage expression requires an
    integer shape.  Interfering links keep the real-valued shape.
    """
    m = m_of(np.asarray(d, dtype=float), p)
    out = np.maximum(np.floor(np.asarray(m) + 0.5), 1.0).astype(int)
    return int(out) if np.ndim(d) == 0 else out


def path_loss(d, p: PropagationParams):
    """Area-mean power gain (d/d0)^(-alpha(d)), clamped to 1 below d0.

    The attenuation law is only meaningful beyond the reference distance;
    mobiles cannot get closer than the exclusion radius in normal runs, so
    the clamp just guards synthetic geometries.  Domain: d >= 0 km.
    """
    dd = np.maximum(d, p.d0)
    return (dd / p.d0) ** (-alpha_of(dd, p))


def sample_shadowing(d, p: PropagationParams, rng: np.random.Generator):
    """Draw shadowing factors in dB: zero-mean Gaussian with std sigma_of(d).

    Vectorized over d >= 0 km; one draw per entry.
    """
    return rng.normal(0.0, 1.0, size=np.shape(d)) * sigma_of(d, p)


def sample_power_gain(m, rng: np.random.Generator, size=None):
    """Draw unit-mean gamma power gains with shape m (Nakagami-m fading).

    m may be a scalar or an array; with ``size`` given, m broadcasts
    against it.  Requires m >= 0.5.
    """
    m = np.asarray(m, dtype=float)
    if np.any(m < 0.5):
        raise ValueError("Nakagami shape m must be >= 0.5")
    return rng.gamma(shape=m, scale=1.0 / m, size=size)
