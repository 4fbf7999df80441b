import numpy as np
import pytest

from fhuplink.beams import BeamParams
from fhuplink.config import ConfigError, RunConfig
from fhuplink.experiments import (TRIAL_DTYPE, cm_ratio_of, code_rate,
                                  densification_sweep, per_link_rate_curves,
                                  run_campaign, run_trial, scale_to_cm, sweep)
from fhuplink.linkbudget import HopPlan, InterferenceProfile
from fhuplink.propagation import PropagationParams
from fhuplink.seeding import DOMAIN_TRIAL, derive_rng

from oracles import noise_only_outage

# small surrogate network so unit tests stay fast
SMALL = RunConfig(bs_count=16, extent_km=0.8, trials=12, seed=3,
                  candidate_bs=8)


def _topo(cfg, seed=3):
    from fhuplink.config import build_topology
    return build_topology(cfg, seed)


def test_code_rate():
    # beta = 3 dB with the 1 dB implementation loss
    assert code_rate(10 ** 0.3, 0.794) == pytest.approx(1.3697390989650053,
                                                        rel=1e-12)
    assert code_rate(1.0, 1.0) == 1.0
    assert code_rate(1e-12, 0.794) < 1e-11


def test_run_trial_deterministic():
    t = _topo(SMALL)
    a, _ = run_trial(t, SMALL, derive_rng(3, DOMAIN_TRIAL, 0))
    b, _ = run_trial(t, SMALL, derive_rng(3, DOMAIN_TRIAL, 0))
    assert a == b
    assert len(a) == len(TRIAL_DTYPE.names)
    c, _ = run_trial(t, SMALL, derive_rng(3, DOMAIN_TRIAL, 1))
    assert c != a  # different trial index, different realization


@pytest.mark.parametrize("d_r_override", [None, 0.05])
def test_run_trial_checks_each_object_once(monkeypatch, d_r_override):
    # the config's parameter objects were checked when SMALL was built;
    # a trial reuses them and builds (and checks) its one profile once
    t = _topo(SMALL)
    built = {}
    for cls in (InterferenceProfile, HopPlan, BeamParams, PropagationParams):
        def counted(self, _init=cls.__post_init__, _name=cls.__name__):
            built[_name] = built.get(_name, 0) + 1
            _init(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    _, profile = run_trial(t, SMALL, derive_rng(3, DOMAIN_TRIAL, 0),
                           d_r_override)
    assert profile.n_interferers > 0
    assert built == {"InterferenceProfile": 1}


def test_single_mobile_reduces_to_noise_only():
    # density * area rounds to one mobile: it is the reference, there are
    # no interferers, and the trial outage equals the pure-noise gamma CDF
    cfg = RunConfig(bs_count=4, extent_km=0.1, density_per_km2=100.0,
                    r_ex_km=0.0, ref_zone_km=0.0, trials=1, seed=9)
    t = _topo(cfg, 9)
    row, profile = run_trial(t, cfg, derive_rng(9, DOMAIN_TRIAL, 0))
    result = dict(zip(TRIAL_DTYPE.names, row))
    assert profile.n_interferers == 0
    assert result["n_interferers"] == 0
    want = noise_only_outage(profile.gamma0, profile.m0, cfg.beta_linear)
    assert result["epsilon"] == pytest.approx(want, abs=1e-12)
    want_nh = noise_only_outage(profile.gamma0, profile.m0, cfg.beta_linear,
                                hopping=False)
    assert result["epsilon_no_hop"] == pytest.approx(want_nh, abs=1e-12)


def test_campaign_stats_and_identities():
    t = _topo(SMALL)
    stats, records = run_campaign(t, SMALL)
    assert stats.n_trials == 12 and len(records) == 12
    eps = records["epsilon"]
    assert eps.min() <= stats.epsilon_bar <= eps.max()
    # the area-spectral-efficiency identity holds exactly
    assert stats.ase == stats.density * stats.code_rate * (1 - stats.epsilon_bar)
    assert stats.throughput == stats.code_rate * (1 - stats.epsilon_bar)
    assert 0.0 <= stats.epsilon_bar <= 1.0


def test_campaign_single_trial_mean():
    t = _topo(SMALL)
    stats, records = run_campaign(t, SMALL, n_trials=1)
    assert stats.epsilon_bar == records["epsilon"][0]
    assert stats.halfwidth95 == 0.0


def test_campaign_thread_invariance():
    t = _topo(SMALL)
    s1, r1 = run_campaign(t, SMALL, n_trials=8, threads=1)
    s2, r2 = run_campaign(t, SMALL, n_trials=8, threads=2)
    assert np.array_equal(r1, r2)
    assert s1 == s2


def test_campaign_seed_sensitivity():
    t = _topo(SMALL)
    s1, _ = run_campaign(t, SMALL, n_trials=6, seed=1)
    s2, _ = run_campaign(t, SMALL, n_trials=6, seed=2)
    assert s1.epsilon_bar != s2.epsilon_bar


def test_densification_sweep_typical_lengths():
    t = _topo(SMALL)
    rows = densification_sweep(t, SMALL, ratios=[1.0, 0.25], n_trials=4)
    assert [r["cm_ratio"] for r in rows] == [1.0, 0.25]
    # typical link length: 25 m at C/M = 1, 50 m at C/M = 0.25
    assert rows[0]["d_r_km"] == pytest.approx(0.025, rel=1e-12)
    assert rows[1]["d_r_km"] == pytest.approx(0.05, rel=1e-12)
    for row in rows:
        assert row["ase_bpcu_km2"] == pytest.approx(
            SMALL.density_per_km2 * row["code_rate_bpcu"]
            * (1 - row["epsilon_bar"]), rel=0, abs=0)


def test_densification_scaling_keeps_density():
    t = _topo(SMALL)
    for ratio in (0.2, 0.5, 1.0):
        scaled = scale_to_cm(t, SMALL.density_per_km2, ratio)
        assert cm_ratio_of(scaled, SMALL.density_per_km2) == pytest.approx(ratio)


def test_densification_warns_outside_range():
    t = _topo(SMALL)
    with pytest.warns(UserWarning, match="outside"):
        densification_sweep(t, SMALL, ratios=[0.01], n_trials=2)


def test_densification_realized_mode():
    cfg = SMALL.replace(dr_mode="realized")
    t = _topo(cfg)
    rows = densification_sweep(t, cfg, ratios=[1.0], n_trials=4)
    # realized link lengths vary; the mean cannot equal the typical value
    assert rows[0]["d_r_km"] != pytest.approx(0.025, rel=1e-9)


def test_per_link_rate_curves():
    cfg = SMALL.replace(density_per_km2=60.0)
    t = _topo(cfg)
    rows = per_link_rate_curves(t, cfg, n_links=4, beta_db_grid=[0.0, 3.0, 6.0])
    links = {r["link"] for r in rows}
    assert links == {"link1", "link2", "link3", "link4", "average"}
    assert len(rows) == 5 * 3
    # outage non-decreasing in the threshold for every series
    for name in links:
        series = [r["epsilon"] for r in rows if r["link"] == name]
        assert np.all(np.diff(series) >= 0)
    # link-to-link variability exists for a shadowed realization
    eps_at_first = [r["epsilon"] for r in rows
                    if r["beta_db"] == 6.0 and r["link"] != "average"]
    assert max(eps_at_first) - min(eps_at_first) > 0

    single = per_link_rate_curves(t, cfg, n_links=2, beta_db_grid=[3.0])
    assert len(single) == 3


def test_sweep_axes():
    cfg = SMALL.replace(trials=3)
    rows = sweep(cfg, "delta", [0.0, 0.5], ratios=[0.5, 1.0], n_trials=3)
    assert len(rows) == 4
    assert {(r["axis"], r["value"]) for r in rows} == {("delta", 0.0),
                                                       ("delta", 0.5)}
    assert sweep(cfg, "delta", [], n_trials=2) == []
    with pytest.raises(ValueError, match="unknown sweep axis"):
        sweep(cfg, "warp_factor", [1.0])


def test_sweep_bandwidth_axis_sets_blocks():
    cfg = SMALL.replace(trials=2)
    rows = sweep(cfg, "L_over_Lj", [1, 10], ratios=[1.0], n_trials=2)
    assert len(rows) == 2
    with pytest.raises(ValueError, match="divide"):
        sweep(cfg, "L_over_Lj", [3], ratios=[1.0], n_trials=2)


def test_sweep_zeta_rebuilds_topology():
    cfg = SMALL.replace(trials=2)
    rows = sweep(cfg, "zeta", [8, "24"], ratios=[1.0], n_trials=2)
    assert [r["value"] for r in rows] == [8, 24]
    assert all(type(r["value"]) is int for r in rows)


def test_sweep_integer_axes_reject_fractions():
    # a fractional value used to be truncated while the rows kept its label
    with pytest.raises(ConfigError, match="zeta: expected int"):
        sweep(SMALL, "zeta", [8.5], ratios=[1.0], n_trials=2)
    with pytest.raises(ConfigError, match="k_strongest"):
        sweep(SMALL, "k_strongest", ["2.5"], ratios=[1.0], n_trials=2)
    with pytest.raises(ValueError, match="integer"):
        sweep(SMALL, "L_over_Lj", [2.5], ratios=[1.0], n_trials=2)


def test_sweep_any_config_key_is_an_axis():
    rows = sweep(SMALL, "trials", [2, 3], ratios=[1.0])
    assert [r["n_trials"] for r in rows] == [2, 3]
    rows = sweep(SMALL, "candidate_bs", [1, 8], ratios=[1.0])
    assert [r["value"] for r in rows] == [1, 8]
    assert rows[0]["epsilon_bar"] != rows[1]["epsilon_bar"]
    # each value's seed drives its topology and trials
    rows = sweep(SMALL, "seed", [1, 2], ratios=[1.0])
    assert rows[0]["epsilon_bar"] != rows[1]["epsilon_bar"]
    assert sweep(SMALL, "seed", [1], ratios=[1.0]) == rows[:1]
    # an explicit seed argument is the base the axis overrides
    assert sweep(SMALL, "seed", [1, 2], ratios=[1.0], seed=7) == rows
    with pytest.raises(ValueError, match="unknown sweep axis"):
        sweep(SMALL, "beta_linear", [1.0])
