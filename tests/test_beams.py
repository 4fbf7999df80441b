import numpy as np
import pytest

from fhuplink.beams import (BeamParams, max_pair_gain, mobile_gain_toward,
                            mobile_mainlobe_mask)
from fhuplink.topology import Topology, square

DEFAULT = BeamParams()  # zeta=24, b=0.01, theta=0.1*pi, a=0.1


def test_param_validation():
    with pytest.raises(ValueError):
        BeamParams(zeta=0)
    with pytest.raises(ValueError):
        BeamParams(b=1.0)
    with pytest.raises(ValueError):
        BeamParams(a=-0.1)
    with pytest.raises(ValueError):
        BeamParams(theta=0.0)
    with pytest.raises(ValueError):
        BeamParams(theta=2 * np.pi + 0.1)


def test_levels():
    assert DEFAULT.sector_mainlobe_level == pytest.approx(23.77, abs=1e-12)
    assert DEFAULT.mobile_mainlobe_level == pytest.approx(18.1, abs=1e-12)
    assert DEFAULT.sector_sidelobe_level == 0.01
    assert DEFAULT.mobile_sidelobe_level == 0.1


def test_sector_levels_average_to_one():
    bp = BeamParams(zeta=24, b=0.01)
    # average-gain identity: mainlobe fraction is exactly 1/zeta
    avg = (bp.sector_mainlobe_level / bp.zeta
           + bp.sector_sidelobe_level * (1 - 1 / bp.zeta))
    assert avg == pytest.approx(1.0, rel=1e-12)
    # grid average around a BS whose sector 0 wedge is the mainlobe
    ext = square(2.0, origin=(-1.0, -1.0))
    t = Topology(np.zeros((1, 2)), ext, ext, sectors_per_bs=24)
    thetas = (np.arange(24 * 1000) + 0.5) * (2 * np.pi / (24 * 1000))
    pts = np.column_stack([np.cos(thetas), np.sin(thetas)])
    level = np.where(t.covering_sector(0, pts) == 0, bp.sector_mainlobe_level,
                     bp.sector_sidelobe_level)
    assert np.mean(level) == pytest.approx(1.0, rel=1e-9)


def test_sector_gain_omni_when_b_is_one_limit():
    # b -> 1 collapses both levels toward 1 (b = 1 itself is excluded)
    bp = BeamParams(zeta=8, b=1 - 1e-12)
    assert bp.sector_mainlobe_level == pytest.approx(1.0, abs=1e-9)
    assert bp.sector_sidelobe_level == pytest.approx(1.0, abs=1e-9)


def test_mobile_gain():
    bp = DEFAULT
    mobile = np.array([0.0, 0.0])
    serving = np.array([1.0, 0.0])
    # toward the serving sector: perfect alignment, mainlobe
    assert mobile_gain_toward(mobile, serving, serving, bp) == pytest.approx(18.1)
    # 45 degrees off with theta = 18 degrees: sidelobe
    off45 = np.array([1.0, 1.0])
    assert mobile_gain_toward(mobile, off45, serving, bp) == pytest.approx(0.1)
    # exactly theta/2 off is sidelobe (strict inequality): theta = pi,
    # target orthogonal to serving, cos = 0 exactly
    bp_wide = BeamParams(theta=np.pi, a=0.1)
    target = np.array([0.0, 2.0])
    assert not mobile_mainlobe_mask(mobile, target, serving, bp_wide.theta)
    gain = mobile_gain_toward(mobile, target, serving, bp_wide)
    assert gain == pytest.approx(bp_wide.mobile_sidelobe_level)


def test_mobile_gain_collocated_raises():
    with pytest.raises(ValueError):
        mobile_gain_toward(np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                           np.array([0.0, 0.0]), DEFAULT)


def test_max_pair_gain():
    assert max_pair_gain(DEFAULT) == pytest.approx(430.237, abs=1e-9)
    iso = BeamParams(zeta=1, b=0.3, theta=2 * np.pi, a=0.7)
    assert max_pair_gain(iso) == pytest.approx(1.0, rel=1e-12)
