import numpy as np
import pytest

from fhuplink.association import Association, draw_shadowing_table, associate
from fhuplink.beams import BeamParams
from fhuplink.linkbudget import (HopPlan, InterferenceProfile,
                                 build_interferer_sets, collision_probability,
                                 empty_profile, fractional_durations, gamma0,
                                 power_control_ratio, reference_link_profile,
                                 spectral_factor, timing_offset,
                                 truncate_strongest)
from fhuplink.propagation import SPEED_OF_LIGHT_KM_S, path_loss, preset_params
from fhuplink.topology import generate_topology, place_mobiles

NY = preset_params("newyork")


def test_hop_plan():
    hop = HopPlan()
    assert hop.sector_capacity == 10
    with pytest.raises(ValueError):
        HopPlan(hopset=100, ref_block=7)   # 7 does not divide 100
    with pytest.raises(ValueError):
        HopPlan(activity=1.5)
    with pytest.raises(ValueError):
        HopPlan(ref_block=0)               # spectral_factor needs blocks >= 1
    # degenerate full-band reference block is allowed for sweeps
    assert HopPlan(hopset=100, ref_block=100, block=100).sector_capacity == 1


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
    # sectors: 0 holds {0,1}; 1 holds {2,3,4}; 2 holds {5}; mobile 6 denied
    serving = np.array([0, 0, 1, 1, 1, 2, -1])
    loads = np.array([2, 3, 1])
    return Association(serving, loads, np.array([6]))


def test_build_interferer_sets():
    assoc = _toy_association()
    hop = HopPlan(hopset=100, ref_block=10, block=10)  # keep at most 1/sector
    rng = np.random.default_rng(0)
    picks = set()
    for _ in range(100):
        s = build_interferer_sets(assoc, hop, 0, rng)
        assert len(s) == 2                      # one from sector 1, one from 2
        assert 5 in s                           # lone mobile always kept
        assert not set(s) & {0, 1}              # reference sector never
        assert 6 not in s                       # denied mobiles do not transmit
        picks.add(tuple(s))
    # the sector-1 pick varies uniformly over {2, 3, 4}
    assert picks == {(2, 5), (3, 5), (4, 5)}

    # wide reference block keeps everyone: max(L_j/L_l, 1) = 10 >= N_l
    hop_wide = HopPlan(hopset=100, ref_block=100, block=10)
    s = build_interferer_sets(assoc, hop_wide, 0, rng)
    assert np.array_equal(s, [2, 3, 4, 5])

    # fractional ratio floors: L_j/L_l = 2.5 -> keep 2 per sector
    hop_frac = HopPlan(hopset=100, ref_block=25, block=10)
    s = build_interferer_sets(assoc, hop_frac, 0, rng)
    assert len(s) == 3  # 2 from sector 1, 1 from sector 2


def test_gamma0():
    assert gamma0(1e7, 0.0, 1.0) == 1e7
    assert gamma0(1e7, -10.0, 1.0) == pytest.approx(1e6)
    assert gamma0(100.0, 0.0, 0.5) == pytest.approx(50.0)


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


def test_power_control_ratio_full_inversion():
    bp = BeamParams()
    # delta = 1, no shadowing, interferer's distance to the reference
    # sector equals its serving distance, mainlobe-to-mainlobe, F = 1:
    # local-mean powers equalize exactly
    om = power_control_ratio(0.0, 0.0, 0.0, 1e-3, 1e-3, 1e-2, 1.0, 1.0,
                             bp.mobile_mainlobe_level,
                             bp.sector_mainlobe_level, bp)
    assert om == 1.0


def test_power_control_ratio_sidelobe_scaling():
    bp = BeamParams()
    kwargs = dict(xi_ij_db=0.0, xi_ig_db=0.0, xi_ref_db=0.0, f_ij=1e-4,
                  f_ig=1e-3, f_dr=1e-2, delta=0.1, spec_factor=1.0, bp=bp)
    main = power_control_ratio(mobile_level=bp.mobile_mainlobe_level,
                               sector_level=bp.sector_mainlobe_level, **kwargs)
    side = power_control_ratio(mobile_level=bp.mobile_sidelobe_level,
                               sector_level=bp.sector_sidelobe_level, **kwargs)
    assert side / main == pytest.approx((0.1 * 0.01) / (18.1 * 23.77), rel=1e-12)


def test_power_control_ratio_delta_zero_ignores_own_link():
    bp = BeamParams()
    base = dict(xi_ij_db=3.0, xi_ref_db=-2.0, f_ij=1e-4, f_dr=1e-2,
                delta=0.0, spec_factor=0.5,
                mobile_level=bp.mobile_mainlobe_level,
                sector_level=bp.sector_sidelobe_level, bp=bp)
    a = power_control_ratio(xi_ig_db=0.0, f_ig=1e-3, **base)
    b = power_control_ratio(xi_ig_db=25.0, f_ig=1e-7, **base)
    assert a == b


def _small_scene(zeta=4, seed=3):
    rng = np.random.default_rng(seed)
    t = generate_topology("uniform-random", 12, 1.0, rng, sectors_per_bs=zeta)
    pl = place_mobiles(t, 300.0, 0.002, rng)
    near, dist = t.nearest_bs(pl.xy, 12)
    shadow = draw_shadowing_table(t, pl.xy, near, dist, NY, rng)
    hop = HopPlan(hopset=100, ref_block=10, block=10)
    assoc = associate(shadow, NY, hop.sector_capacity, rng)
    bp = BeamParams(zeta=zeta)
    served = np.flatnonzero(assoc.served_mask)
    ref = int(served[0])
    return t, pl, shadow, assoc, hop, bp, ref


def test_reference_link_profile_invariants():
    t, pl, shadow, assoc, hop, bp, ref = _small_scene()
    rng = np.random.default_rng(10)
    prof, info = reference_link_profile(
        t, NY, bp, hop, pl.xy, shadow, assoc, ref, rng,
        delta=0.1, beta=2.0, p_over_n=1e7, k_strongest=30)
    assert prof.gamma0 > 0 and prof.m0 >= 1
    assert prof.n_interferers <= 30
    assert np.all(prof.omega >= 0)
    assert np.all((prof.q >= 0) & (prof.q <= 1))
    assert np.allclose(prof.c.sum(axis=1), 1.0)
    assert np.array_equal(prof.c[:, 0], prof.c[:, 2])
    assert np.array_equal(prof.c[:, 1], prof.c[:, 3])
    # realized reference distance matches the geometry
    j = assoc.serving[ref]
    assert info["d_r"] == pytest.approx(
        np.linalg.norm(pl.xy[ref] - t.sector_position(j)))
    assert info["serving_sector"] == j
    # the reference link's shadowing is the value association ranked it by
    slot = list(shadow.near[ref]).index(j // t.sectors_per_bs)
    assert prof.gamma0 == gamma0(1e7, shadow.xi_db[ref, slot],
                                 path_loss(info["d_r"], NY))


def test_reference_link_profile_typical_override():
    t, pl, shadow, assoc, hop, bp, ref = _small_scene()
    rng = np.random.default_rng(10)
    prof, info = reference_link_profile(
        t, NY, bp, hop, pl.xy, shadow, assoc, ref, rng,
        delta=0.1, beta=2.0, p_over_n=1e7, k_strongest=30,
        d_r=0.05, xi_ref_db=0.0)
    assert info["d_r"] == 0.05
    # gamma0 = (P/N) * f(d_r) exactly when the shadowing is zeroed
    assert prof.gamma0 == pytest.approx(1e7 * path_loss(0.05, NY), rel=1e-12)


def test_reference_link_profile_keeps_the_strongest_rows():
    t, pl, shadow, assoc, hop, bp, ref = _small_scene()
    kw = dict(delta=0.1, beta=2.0, p_over_n=1e7)
    full, _ = reference_link_profile(t, NY, bp, hop, pl.xy, shadow, assoc, ref,
                                     np.random.default_rng(10),
                                     k_strongest=10**6, **kw)
    cut, info = reference_link_profile(t, NY, bp, hop, pl.xy, shadow, assoc,
                                       ref, np.random.default_rng(10),
                                       k_strongest=30, **kw)
    assert full.n_interferers == info["n_potential"] > 30
    top = np.sort(np.argsort(-full.omega)[:30])
    assert (cut.gamma0, cut.m0) == (full.gamma0, full.m0)
    for name in ("omega", "m", "q", "c"):
        assert np.array_equal(getattr(cut, name), getattr(full, name)[top])
