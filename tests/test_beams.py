import numpy as np
import pytest

from fhuplink.beams import (max_pair_gain, mobile_gain_toward, mobile_levels,
                            mobile_mainlobe_mask, sector_levels)
from fhuplink.config import ConfigError, RunConfig
from fhuplink.topology import Topology, square

DEFAULT = RunConfig()  # zeta=24, b=0.01, theta=0.1*pi, a=0.1


def test_param_validation():
    for key, value in (("zeta", 0), ("sidelobe_bs", 1.0),
                       ("sidelobe_mobile", -0.1), ("mobile_beamwidth_rad", 0.0),
                       ("mobile_beamwidth_rad", 2 * np.pi + 0.1)):
        with pytest.raises(ConfigError, match=key):
            RunConfig(**{key: value})


def test_levels():
    main, side = sector_levels(DEFAULT)
    assert main == pytest.approx(23.77, abs=1e-12) and side == 0.01
    main, side = mobile_levels(DEFAULT)
    assert main == pytest.approx(18.1, abs=1e-12) and side == 0.1


def test_sector_levels_average_to_one():
    cfg = RunConfig(zeta=24, sidelobe_bs=0.01)
    main, side = sector_levels(cfg)
    # average-gain identity: mainlobe fraction is exactly 1/zeta
    avg = main / cfg.zeta + side * (1 - 1 / cfg.zeta)
    assert avg == pytest.approx(1.0, rel=1e-12)
    # grid average around a BS whose sector 0 wedge is the mainlobe
    ext = square(2.0, origin=(-1.0, -1.0))
    t = Topology(np.zeros((1, 2)), ext, ext, sectors_per_bs=24)
    thetas = (np.arange(24 * 1000) + 0.5) * (2 * np.pi / (24 * 1000))
    pts = np.column_stack([np.cos(thetas), np.sin(thetas)])
    level = np.where(t.covering_sector(0, pts) == 0, main, side)
    assert np.mean(level) == pytest.approx(1.0, rel=1e-9)


def test_sector_gain_omni_when_b_is_one_limit():
    # b -> 1 collapses both levels toward 1 (b = 1 itself is excluded)
    main, side = sector_levels(RunConfig(zeta=8, sidelobe_bs=1 - 1e-12))
    assert main == pytest.approx(1.0, abs=1e-9)
    assert side == pytest.approx(1.0, abs=1e-9)


def test_mobile_gain():
    mobile = np.array([0.0, 0.0])
    serving = np.array([1.0, 0.0])
    # toward the serving sector: perfect alignment, mainlobe
    assert mobile_gain_toward(mobile, serving, serving, DEFAULT) == pytest.approx(18.1)
    # 45 degrees off with theta = 18 degrees: sidelobe
    off45 = np.array([1.0, 1.0])
    assert mobile_gain_toward(mobile, off45, serving, DEFAULT) == pytest.approx(0.1)
    # exactly theta/2 off is sidelobe (strict inequality): theta = pi,
    # target orthogonal to serving, cos = 0 exactly
    wide = RunConfig(mobile_beamwidth_rad=np.pi, sidelobe_mobile=0.1)
    target = np.array([0.0, 2.0])
    assert not mobile_mainlobe_mask(mobile, target, serving,
                                    wide.mobile_beamwidth_rad)
    gain = mobile_gain_toward(mobile, target, serving, wide)
    assert gain == pytest.approx(mobile_levels(wide)[1])


def test_mobile_gain_collocated_raises():
    with pytest.raises(ValueError):
        mobile_gain_toward(np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                           np.array([0.0, 0.0]), DEFAULT)


def test_max_pair_gain():
    assert max_pair_gain(DEFAULT) == pytest.approx(430.237, abs=1e-9)
    iso = RunConfig(zeta=1, sidelobe_bs=0.3, mobile_beamwidth_rad=2 * np.pi,
                    sidelobe_mobile=0.7)
    assert max_pair_gain(iso) == pytest.approx(1.0, rel=1e-12)
