import numpy as np
import pytest

from fhuplink.association import Association, draw_shadowing_table, associate
from fhuplink.beams import mobile_levels, sector_levels
from fhuplink.config import ConfigError, RunConfig
from fhuplink.linkbudget import (InterferenceProfile, build_interferer_sets,
                                 collision_probability, empty_profile,
                                 fractional_durations, gamma0, link_profiles,
                                 power_control_ratio, spectral_factor,
                                 timing_offset, truncate_strongest)
from fhuplink.propagation import (SPEED_OF_LIGHT_KM_S, path_gain_db,
                                  round_integer_m, sample_shadowing)
from fhuplink.topology import Topology, generate_topology, place_mobiles, square

NY = RunConfig()


def test_hopping_layout():
    assert NY.sector_capacity == 10
    assert RunConfig(hopset_channels=200).sector_capacity == 20
    # 7 does not divide 100; spectral_factor needs blocks >= 1
    for key, value, named in [
            ("ref_block_channels", 7, "ref_block_channels must divide"),
            ("sector_block_channels", 7, "sector_block_channels must divide"),
            ("activity_prob", 1.5, "activity_prob must be in"),
            ("ref_block_channels", 0, "ref_block_channels must be >= 1"),
            ("slot_ms", 0.0, "slot_ms must be positive")]:
        with pytest.raises(ConfigError, match=named):
            RunConfig(**{key: value})
    # degenerate full-band reference block is allowed for sweeps
    assert RunConfig(ref_block_channels=100,
                     sector_block_channels=100).sector_capacity == 1


def test_spectral_factor():
    assert spectral_factor(10, 10) == 1.0
    assert spectral_factor(10, 20) == 0.5
    assert spectral_factor(20, 10) == 1.0  # capped


def test_timing_offset():
    assert timing_offset(0.3, 0.3, 0.5) == 0.0
    # 150 m difference -> 0.5003 microseconds
    t = timing_offset(0.25, 0.10, 0.5)
    assert t == pytest.approx(0.15 / SPEED_OF_LIGHT_KM_S * 1e3, rel=1e-12)
    assert t == pytest.approx(5.0035e-4, abs=1e-7)
    # negative difference wraps into [0, T)
    tn = timing_offset(0.10, 0.25, 0.5)
    assert 0.0 <= tn < 0.5
    assert tn == pytest.approx(0.5 - t, rel=1e-9)
    # large differences wrap too
    many = timing_offset(np.array([500.0, 0.0]), np.array([0.0, 500.0]), 0.5)
    assert np.all((many >= 0) & (many < 0.5))


def test_fractional_durations():
    assert np.allclose(fractional_durations(0.0, 0.5), [0, 0.5, 0, 0.5])
    c = fractional_durations(0.1, 0.5)  # t = 0.2 T
    assert np.allclose(c, [0.1, 0.4, 0.1, 0.4])
    t = np.random.default_rng(0).uniform(0, 0.5, 100)
    cs = fractional_durations(t, 0.5)
    assert np.allclose(cs.sum(axis=1), 1.0)
    assert np.array_equal(cs[:, 0], cs[:, 2])
    assert np.array_equal(cs[:, 1], cs[:, 3])


def test_collision_probability():
    assert collision_probability(5, 10, 10, 100, 1.0) == 0.5
    # light sector load: floor at L_j / L
    assert collision_probability(1, 5, 10, 100, 1.0) == pytest.approx(0.1)
    assert collision_probability(5, 10, 10, 100, 0.0) == 0.0
    q = collision_probability(np.array([1, 5, 10]), 10, 10, 100, 1.0)
    assert np.allclose(q, [0.1, 0.5, 1.0])


def _toy_association():
    # sectors: 0 holds {0,1}; 1 holds {2,3,4}; 2 holds {5}; mobile 6 denied;
    # each served mobile's serving BS is its nearest candidate (column 0)
    serving = np.array([0, 0, 1, 1, 1, 2, -1])
    loads = np.array([[2, 3, 1]])
    return Association(serving, np.where(serving >= 0, 0, -1), loads, np.array([6]))


def test_build_interferer_sets():
    assoc = _toy_association()
    hop = RunConfig()  # blocks of 10 channels each: keep at most 1/sector
    rng = np.random.default_rng(0)
    picks = set()
    for _ in range(100):
        s = build_interferer_sets(assoc, hop, [0], [rng], [0])[1]
        assert len(s) == 2                      # one from sector 1, one from 2
        assert 5 in s                           # lone mobile always kept
        assert not set(s) & {0, 1}              # reference sector never
        assert 6 not in s                       # denied mobiles do not transmit
        picks.add(tuple(s))
    # the sector-1 pick varies uniformly over {2, 3, 4}
    assert picks == {(2, 5), (3, 5), (4, 5)}

    # wide reference block keeps everyone: max(L_j/L_l, 1) = 10 >= N_l
    hop_wide = RunConfig(ref_block_channels=100, sector_block_channels=10)
    s = build_interferer_sets(assoc, hop_wide, [0], [rng], [0])[1]
    assert np.array_equal(s, [2, 3, 4, 5])

    # fractional ratio floors: L_j/L_l = 2.5 -> keep 2 per sector
    hop_frac = RunConfig(ref_block_channels=25, sector_block_channels=10)
    s = build_interferer_sets(assoc, hop_frac, [0], [rng], [0])[1]
    assert len(s) == 3  # 2 from sector 1, 1 from sector 2


def test_gamma0():
    assert gamma0(70.0, 0.0) == 1e7
    assert gamma0(70.0, -10.0) == pytest.approx(1e6)
    assert gamma0(20.0, 10 * np.log10(0.5)) == pytest.approx(50.0)
    assert gamma0(70.0, np.array([0.0, -10.0])) == pytest.approx([1e7, 1e6])


def test_profile_validation():
    p = empty_profile(10.0, 1, 2.0)
    assert p.n_interferers == 0 and p.z == 0.1
    with pytest.raises(ValueError):
        empty_profile(-1.0, 1, 2.0)
    with pytest.raises(ValueError):
        empty_profile(10.0, 1.5, 2.0)        # non-integer m0
    with pytest.raises(ValueError):
        InterferenceProfile(10.0, 1, 2.0, [1.0], [1.0],
                            [[0.5, 0.5, 0.5, 1.5]],     # q > 1
                            [[0.25, 0.25, 0.25, 0.25]])
    with pytest.raises(ValueError):
        InterferenceProfile(10.0, 1, 2.0, [1.0], [1.0],
                            [[1, 1, 1, 1]], [[0.3, 0.3, 0.3, 0.3]])  # sum != 1
    quarter = [[0.25, 0.25, 0.25, 0.25]]
    with pytest.raises(ValueError):
        InterferenceProfile(10.0, 1, 2.0, [-1.0], [1.0], quarter, quarter)
    with pytest.raises(ValueError):
        InterferenceProfile(10.0, 1, 2.0, [1.0], [0.4], quarter, quarter)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            empty_profile(bad, 1, 2.0)
        with pytest.raises(ValueError):
            empty_profile(10.0, 1, bad)


def test_truncate_strongest():
    omega = np.array([0.5, 3.0, 1.0, 2.0, 0.1])
    assert truncate_strongest(omega, 5).tolist() == [0, 1, 2, 3, 4]
    assert truncate_strongest(omega, 10).tolist() == [0, 1, 2, 3, 4]
    assert truncate_strongest(omega, 1).tolist() == [1]
    assert truncate_strongest(omega, 3).tolist() == [1, 2, 3]  # index order
    assert truncate_strongest(np.empty(0), 3).tolist() == []
    # ties at the K-th place go to the lower index
    tied = np.array([1.0, 2.0, 2.0, 2.0, 0.5])
    assert truncate_strongest(tied, 2).tolist() == [1, 2]
    assert truncate_strongest(tied, 4).tolist() == [0, 1, 2, 3]
    assert truncate_strongest(np.zeros(4), 3).tolist() == [0, 1, 2]
    # with groups, each keeps its own K under the same rule
    grouped = np.array([1.0, 1.0, 3.0, 2.0, 2.0, 2.0, 0.0])
    assert truncate_strongest(grouped, 2, [0, 0, 0, 1, 1, 1, 2]).tolist() == \
        [0, 2, 3, 4, 6]


def test_power_control_ratio_full_inversion():
    # delta = 1, the interferer's link gain toward the reference sector
    # equals its serving link's, mainlobe-to-mainlobe, F = 1: local-mean
    # powers equalize exactly
    om = power_control_ratio(-30.0, -30.0, -20.0, 1.0, 1.0,
                             mobile_levels(NY)[0], sector_levels(NY)[0], NY)
    assert om == 1.0


def test_power_control_ratio_sidelobe_scaling():
    kwargs = dict(g_ij_db=-40.0, g_ig_db=-30.0, g_ref_db=-20.0, delta=0.1,
                  spec_factor=1.0, cfg=NY)
    main = power_control_ratio(mobile_level=mobile_levels(NY)[0],
                               sector_level=sector_levels(NY)[0], **kwargs)
    side = power_control_ratio(mobile_level=mobile_levels(NY)[1],
                               sector_level=sector_levels(NY)[1], **kwargs)
    assert side / main == pytest.approx((0.1 * 0.01) / (18.1 * 23.77), rel=1e-12)


def test_power_control_ratio_delta_zero_ignores_own_link():
    base = dict(g_ij_db=-37.0, g_ref_db=-22.0, delta=0.0, spec_factor=0.5,
                mobile_level=mobile_levels(NY)[0],
                sector_level=sector_levels(NY)[1], cfg=NY)
    a = power_control_ratio(g_ig_db=-30.0, **base)
    b = power_control_ratio(g_ig_db=-45.0, **base)
    assert a == b


def _small_scene(zeta=4, seed=3):
    rng = np.random.default_rng(seed)
    t = generate_topology("uniform-random", 12, 1.0, rng, sectors_per_bs=zeta)
    xy = place_mobiles(t, 300.0, 0.002, rng)
    near, dist = t.nearest_bs(xy, 12)
    shadow = draw_shadowing_table(t, xy, near, dist, NY, [rng])
    # New York propagation, 100 channels in blocks of 10, delta 0.1, K 30
    cfg = RunConfig(zeta=zeta, p_over_n_db=70.0, beta_db=3.0)
    assoc = associate(shadow, cfg.sector_capacity, [rng])
    served = np.flatnonzero(assoc.served_mask)
    ref = int(served[0])
    return t, xy, shadow, assoc, cfg, ref


def test_one_reference_link_invariants():
    # a block of one reference: its profile is row 0 of the block and info
    t, xy, shadow, assoc, cfg, ref = _small_scene()
    rng = np.random.default_rng(10)
    prof, info = link_profiles(cfg, shadow, assoc, [ref], [rng])
    assert prof.gamma0[0] > 0 and prof.m0[0] >= 1
    assert prof.n_interferers[0] <= 30
    assert np.all(prof.omega >= 0)
    assert np.all((prof.q >= 0) & (prof.q <= 1))
    assert np.allclose(prof.c.sum(axis=1), 1.0)
    assert np.array_equal(prof.c[:, 0], prof.c[:, 2])
    assert np.array_equal(prof.c[:, 1], prof.c[:, 3])
    # realized reference distance matches the geometry
    j = assoc.serving[ref]
    assert info["d_r"][0] == pytest.approx(
        np.linalg.norm(xy[ref] - t.sector_position(j)))
    # the reference link's gain is the value association ranked it by;
    # 1-element arrays round as the block's arrays do
    slot = list(shadow.near[ref]).index(j // t.sectors_per_bs)
    assert prof.gamma0[0] == gamma0(70.0, shadow.gain_db[ref, slot:slot + 1])[0]
    assert prof.beta[0] == cfg.beta_linear


def test_one_reference_link_typical_override():
    t, xy, shadow, assoc, cfg, ref = _small_scene()
    prof, info = link_profiles(cfg, shadow, assoc, [ref],
                               [np.random.default_rng(10)], 0.05)
    assert info["d_r"][0] == 0.05
    # the typical link's shadowing is the rng's first draw, at length d_r
    d_r = np.array([0.05])
    xi = sample_shadowing(d_r, NY, np.random.default_rng(10))
    assert prof.gamma0[0] == gamma0(70.0, xi + path_gain_db(d_r, NY))[0]
    for d_r in (0.0, -0.05):
        with pytest.raises(ValueError, match="length must be positive"):
            link_profiles(cfg, shadow, assoc, [ref],
                          [np.random.default_rng(10)], d_r)


def test_one_reference_link_without_interferers():
    # one single-sector BS serves every mobile, so no sector interferes
    ext = square(1.0)
    t = Topology(np.array([[0.5, 0.5]]), ext, ext)
    xy = np.array([[0.2, 0.3], [0.7, 0.6], [0.4, 0.9]])
    near, dist = t.nearest_bs(xy, 1)
    shadow = draw_shadowing_table(t, xy, near, dist, NY,
                                  [np.random.default_rng(0)])
    cfg = RunConfig(zeta=1)
    assoc = associate(shadow, cfg.sector_capacity,
                      [np.random.default_rng(1)])
    prof, info = link_profiles(cfg, shadow, assoc, [1],
                               [np.random.default_rng(2)])
    d_r = info["d_r"]
    want = empty_profile(gamma0(cfg.p_over_n_db, shadow.gain_db[1:2, 0])[0],
                         round_integer_m(d_r[0], NY), cfg.beta_linear)
    assert info["n_potential"][0] == prof.n_interferers[0] == 0
    assert (prof.gamma0[0], prof.m0[0], prof.beta[0]) == (want.gamma0, want.m0,
                                                          want.beta)
    for name in ("omega", "m", "q", "c"):
        assert getattr(prof, name).shape == getattr(want, name).shape


def test_one_reference_link_keeps_the_strongest_rows():
    t, xy, shadow, assoc, cfg, ref = _small_scene()
    full, _ = link_profiles(cfg.replace(k_strongest=10**6), shadow, assoc,
                            [ref], [np.random.default_rng(10)])
    cut, info = link_profiles(cfg, shadow, assoc, [ref],
                              [np.random.default_rng(10)])
    assert full.n_interferers[0] == info["n_potential"][0] > 30
    top = np.sort(np.argsort(-full.omega)[:30])
    assert (cut.gamma0[0], cut.m0[0]) == (full.gamma0[0], full.m0[0])
    for name in ("omega", "m", "q", "c"):
        assert np.array_equal(getattr(cut, name), getattr(full, name)[top])
