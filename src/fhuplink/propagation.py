"""Distance-dependent propagation models for a millimeter-wave uplink.

Short links are predominantly line-of-sight while long links are blocked,
so the path-loss exponent, the shadowing standard deviation, and the
fading severity all drift with link length.  A single tanh ramp with
transition rate ``mu_per_km`` carries all three between their
short-range and long-range values.  Every function reads these values
from a RunConfig, ``cfg``, which checks them.  Distances are in km,
shadowing and path gains in dB, fading gains linear.
"""

from __future__ import annotations

import numpy as np

# speed of an electromagnetic wave, km/s
SPEED_OF_LIGHT_KM_S = 299792.458

# Measured urban parameter sets around 73 GHz, as the RunConfig values
# that setting the preset key resets.
PRESETS = {
    "newyork": dict(alpha_min=2.3, alpha_max=4.7, sigma_min_db=6.1,
                    sigma_max_db=12.6, m_min=1.0, m_max=2.0),
    "austin": dict(alpha_min=1.9, alpha_max=3.3, sigma_min_db=4.6,
                   sigma_max_db=12.3, m_min=1.0, m_max=2.0),
}


def _ramp(d, cfg):
    """tanh(mu d), the ramp from short range (0) to long range (1); mu d
    overflows to inf only where the ramp is 1.0 already."""
    with np.errstate(over="ignore"):
        return np.tanh(cfg.mu_per_km * d)


def alpha_of(d, cfg):
    """Path-loss exponent at link length d >= 0 km."""
    return cfg.alpha_min + (cfg.alpha_max - cfg.alpha_min) * _ramp(d, cfg)


def sigma_of(d, cfg):
    """Shadowing standard deviation in dB at link length d >= 0 km."""
    return cfg.sigma_min_db + (cfg.sigma_max_db - cfg.sigma_min_db) * _ramp(d, cfg)


def m_of(d, cfg):
    """Nakagami shape at link length d >= 0 km; decreases with distance."""
    return cfg.m_max - (cfg.m_max - cfg.m_min) * _ramp(d, cfg)


def round_integer_m(d, cfg) -> int:
    """Nearest integer to m_of(d), ties rounding up, clamped to >= 1.

    Used only for the reference link, whose outage expression requires an
    integer shape.  Interfering links keep the real-valued shape.
    """
    m = m_of(np.asarray(d, dtype=float), cfg)
    out = np.maximum(np.floor(np.asarray(m) + 0.5), 1.0).astype(int)
    return int(out) if np.ndim(d) == 0 else out


def path_gain_db(d, cfg):
    """Area-mean power gain in dB, 10*alpha(d)*log10(d0/d), 0 below d0.

    The one path-loss law; unlike the linear gain it cannot underflow.
    The clamp at the reference distance d0_km guards synthetic geometries
    (mobiles keep the exclusion radius in normal runs), and d0/d makes
    the gain +0.0 there.  Domain: d >= 0 km.
    """
    dd = np.maximum(d, cfg.d0_km)
    return 10.0 * alpha_of(dd, cfg) * np.log10(cfg.d0_km / dd)


def sample_shadowing(d, cfg, rng: np.random.Generator):
    """Draw shadowing factors in dB: zero-mean Gaussian with std sigma_of(d).

    Vectorized over d >= 0 km; one draw per entry.
    """
    return rng.normal(0.0, 1.0, size=np.shape(d)) * sigma_of(d, cfg)


def sample_power_gain(m, rng: np.random.Generator, size=None):
    """Draw unit-mean gamma power gains with shape m (Nakagami-m fading).

    m may be a scalar or an array; with ``size`` given, m broadcasts
    against it.  Requires m >= 0.5.
    """
    m = np.asarray(m, dtype=float)
    if np.any(m < 0.5):
        raise ValueError("Nakagami shape m must be >= 0.5")
    return rng.gamma(shape=m, scale=1.0 / m, size=size)
