"""Two-level antenna gain patterns for BS sectors and mobile beams.

Both patterns are flat-topped: one constant gain over the mainlobe and a
lower constant gain over sidelobes and backlobes.  A sector mainlobe is an
angular wedge of width 2*pi/zeta at the BS (Topology.covering_sector
says which wedge covers a point); a mobile's beam has width Theta and
always points at its serving BS.  Levels are relative to each
pattern's average gain, which would scale the absolute levels but cancels
in every interference-to-signal ratio, so it is not modelled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class BeamParams:
    """Antenna characteristics of the sector and mobile beams.

    zeta  : sectors per BS
    b     : sector sidelobe level relative to an isotropic pattern
    theta : mobile mainlobe beamwidth in radians
    a     : mobile sidelobe level
    """

    zeta: int = 24
    b: float = 0.01
    theta: float = 0.1 * np.pi
    a: float = 0.1

    def __post_init__(self):
        if self.zeta < 1:
            raise ValueError("zeta must be >= 1")
        if not (0 <= self.b < 1):
            raise ValueError("sector sidelobe level b must be in [0, 1)")
        if not (0 <= self.a < 1):
            raise ValueError("mobile sidelobe level a must be in [0, 1)")
        if not (0 < self.theta <= TWO_PI):
            raise ValueError("mobile beamwidth theta must be in (0, 2*pi]")

    # Levels relative to the average gain.  The mainlobe covers a fraction
    # 1/zeta (resp. theta/(2*pi)) of the circle, so each pattern averages
    # to exactly 1.
    @property
    def sector_mainlobe_level(self) -> float:
        return self.b + self.zeta * (1.0 - self.b)

    @property
    def sector_sidelobe_level(self) -> float:
        return self.b

    @property
    def mobile_mainlobe_level(self) -> float:
        return self.a + TWO_PI * (1.0 - self.a) / self.theta

    @property
    def mobile_sidelobe_level(self) -> float:
        return self.a


def mobile_mainlobe_mask(mobile_xy, target_xy, serving_xy, theta):
    """True where the mobile's beam (aimed at its serving BS) covers the target.

    The mobile faces the target when the angle between the directions to
    the target and to the serving BS is strictly less than theta/2.
    Vectorized over leading dimensions; positions are (..., 2).
    """
    u = np.asarray(target_xy, dtype=float) - mobile_xy
    v = np.asarray(serving_xy, dtype=float) - mobile_xy
    nu = np.linalg.norm(u, axis=-1)
    nv = np.linalg.norm(v, axis=-1)
    if np.any(nu == 0) or np.any(nv == 0):
        raise ValueError("mobile collocated with a sector receiver")
    cosang = np.sum(u * v, axis=-1) / (nu * nv)
    return cosang > np.cos(theta / 2.0)


def mobile_gain_toward(mobile_xy, target_xy, serving_xy, bp: BeamParams):
    """Mobile-beam level in the direction of the target sector receiver."""
    main = mobile_mainlobe_mask(mobile_xy, target_xy, serving_xy, bp.theta)
    return np.where(main, bp.mobile_mainlobe_level, bp.mobile_sidelobe_level)


def max_pair_gain(bp: BeamParams) -> float:
    """Maximum combined level of an aligned sector/mobile antenna pair."""
    return bp.sector_mainlobe_level * bp.mobile_mainlobe_level
