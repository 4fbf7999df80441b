import numpy as np
import pytest
from scipy import stats

from fhuplink.propagation import (PropagationParams, alpha_of, m_of, path_loss,
                                  preset_params, round_integer_m,
                                  sample_power_gain, sample_shadowing, sigma_of)

NY = preset_params("newyork")  # mu = 20 /km, d0 = 0.004 km


def test_presets():
    assert NY.alpha_min == 2.3 and NY.alpha_max == 4.7
    assert NY.sigma_min == 6.1 and NY.sigma_max == 12.6
    au = preset_params("austin")
    assert (au.alpha_min, au.alpha_max) == (1.9, 3.3)
    assert (au.sigma_min, au.sigma_max) == (4.6, 12.3)
    with pytest.raises(ValueError):
        preset_params("london")


def test_param_invariants():
    with pytest.raises(ValueError):
        PropagationParams(4.7, 2.3, 6.1, 12.6, 1.0, 2.0)  # alpha order
    with pytest.raises(ValueError):
        PropagationParams(2.3, 4.7, 6.1, 12.6, 0.3, 2.0)  # m_min < 0.5
    with pytest.raises(ValueError):
        PropagationParams(2.3, 4.7, 6.1, 12.6, 1.0, 2.0, mu=0.0)
    with pytest.raises(ValueError):
        PropagationParams(2.3, 4.7, 6.1, 12.6, 1.0, 2.0, d0=0.0)


def test_alpha_of():
    assert alpha_of(0.0, NY) == 2.3
    # direct evaluation of the ramp at 50 m
    assert alpha_of(0.05, NY) == pytest.approx(2.3 + 2.4 * np.tanh(1.0), abs=1e-14)
    assert alpha_of(0.05, NY) == pytest.approx(4.1278, abs=5e-5)
    assert alpha_of(1e9, NY) <= 4.7
    assert alpha_of(1e9, NY) == pytest.approx(4.7, abs=1e-12)


def test_monotone_ramps_on_grid():
    d = np.linspace(0.0, 1.0, 4001)
    assert np.all(np.diff(alpha_of(d, NY)) >= 0)
    assert np.all(np.diff(sigma_of(d, NY)) >= 0)
    assert np.all(np.diff(m_of(d, NY)) <= 0)


def test_sigma_and_m_values():
    assert sigma_of(0.0, NY) == 6.1
    assert m_of(0.0, NY) == 2.0
    assert sigma_of(0.05, NY) == pytest.approx(6.1 + 6.5 * np.tanh(1.0), abs=1e-14)
    assert sigma_of(0.05, NY) == pytest.approx(11.05, abs=5e-3)
    assert m_of(0.05, NY) == pytest.approx(2.0 - np.tanh(1.0), abs=1e-14)
    assert m_of(0.05, NY) == pytest.approx(1.2384, abs=5e-5)
    d = np.linspace(0.0, 0.9, 500)  # mu*d <= 18, below fp tanh saturation
    m = m_of(d, NY)
    assert np.all((m > NY.m_min) & (m <= NY.m_max))
    assert m_of(50.0, NY) >= NY.m_min


def test_path_loss():
    assert path_loss(NY.d0, NY) == 1.0
    # direct evaluation at twice the reference distance
    expected = 2.0 ** -(2.3 + 2.4 * np.tanh(20 * 0.008))
    assert path_loss(0.008, NY) == pytest.approx(expected, rel=1e-14)
    assert path_loss(0.008, NY) == pytest.approx(0.1559, abs=5e-4)
    # clamped to 1 below the reference distance
    assert path_loss(0.001, NY) == 1.0
    assert path_loss(0.0, NY) == 1.0
    d = np.linspace(NY.d0, 3.0, 2000)
    assert np.all(np.diff(path_loss(d, NY)) < 0)
    assert path_loss(0.1, NY) < path_loss(0.05, NY)


def test_round_integer_m():
    assert round_integer_m(0.05, NY) == 1          # m = 1.2384
    assert round_integer_m(0.0, NY) == 2           # m = m_max = 2
    d_tie = np.arctanh(0.5) / NY.mu                # m exactly 1.5
    assert m_of(d_tie, NY) == pytest.approx(1.5, abs=1e-12)
    assert round_integer_m(d_tie, NY) == 2         # ties round up
    assert round_integer_m(1e6, NY) >= 1


def test_sample_shadowing_moments():
    rng = np.random.default_rng(123)
    xi = sample_shadowing(np.full(10**6, 0.05), NY, rng)
    sigma = sigma_of(0.05, NY)  # 11.05 dB
    assert abs(np.mean(xi)) <= 0.05
    assert np.std(xi) == pytest.approx(sigma, abs=0.05)


def test_sample_shadowing_degenerate_sigma():
    p = PropagationParams(2.3, 4.7, 8.0, 8.0, 1.0, 2.0)
    assert sigma_of(0.0, p) == sigma_of(5.0, p) == 8.0
    rng = np.random.default_rng(5)
    xi = sample_shadowing(np.array([0.0, 0.1, 2.0]), p, rng)
    assert xi.shape == (3,)


def test_sample_shadowing_reproducible():
    d = np.linspace(0.01, 1.0, 100)
    a = sample_shadowing(d, NY, np.random.default_rng(7))
    b = sample_shadowing(d, NY, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_sample_power_gain_moments():
    rng = np.random.default_rng(42)
    g = sample_power_gain(1.0, rng, size=10**6)
    assert np.mean(g) == pytest.approx(1.0, abs=0.005)
    g2 = sample_power_gain(2.0, rng, size=10**6)
    assert np.mean(g2) == pytest.approx(1.0, abs=0.005)
    assert np.var(g2) == pytest.approx(0.5, abs=0.01)  # gamma variance 1/m


def test_sample_power_gain_no_fading_limit():
    rng = np.random.default_rng(0)
    g = sample_power_gain(1e4, rng, size=10**5)
    assert np.mean(g) == pytest.approx(1.0, abs=1e-3)
    assert np.std(g) < 0.02
    assert np.all(np.abs(g - 1.0) < 0.1)


def test_sample_power_gain_domain():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_power_gain(0.3, rng)
    g = sample_power_gain(0.5, rng, size=10)
    assert g.shape == (10,)
    assert isinstance(sample_power_gain(1.5, rng), float)


def test_slot_averaging_doubles_shape():
    # mean of two iid shape-m gains must be distributed as shape 2m
    rng = np.random.default_rng(2024)
    m0 = 1.0
    avg = 0.5 * (sample_power_gain(m0, rng, size=10**5)
                 + sample_power_gain(m0, rng, size=10**5))
    direct = sample_power_gain(2 * m0, rng, size=10**5)
    stat = stats.ks_2samp(avg, direct)
    assert stat.pvalue > 0.01
