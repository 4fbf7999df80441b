import numpy as np
import pytest

from fhuplink.association import (ShadowingTable, associate,
                                  draw_shadowing_table)
from oracles import associate_sequential
from fhuplink.propagation import preset_params
from fhuplink.topology import Topology, generate_topology, place_mobiles, square

NY = preset_params("newyork")


def _zero_shadow(m, c, per="bs", zeta=1):
    shape = (m, c) if per == "bs" else (m, c, zeta)
    return ShadowingTable(np.zeros(shape), per)


def _dist(xy, bs_xy):
    return np.linalg.norm(xy[:, None, :] - bs_xy[None, :, :], axis=2)


def test_no_shadowing_gives_nearest_bs():
    rng = np.random.default_rng(5)
    t = generate_topology("uniform-random", 9, 2.0, rng, sectors_per_bs=4)
    pl = place_mobiles(t, 50.0, 0.0, rng)
    dist = _dist(pl.xy, t.bs_xy)
    shadow = _zero_shadow(pl.n_mobiles, t.n_bs)
    assoc = associate(t, pl.xy, dist, NY, shadow, capacity=1000, rng=rng)
    assert len(assoc.denied) == 0
    nearest = np.argmin(dist, axis=1)
    expected = t.covering_sector(nearest, pl.xy)
    assert np.array_equal(assoc.serving, expected)
    # every served mobile is covered by its sector's mainlobe wedge
    assert np.array_equal(
        t.covering_sector(assoc.serving // 4, pl.xy), assoc.serving)


def test_loads_consistent_and_capacity_respected():
    rng = np.random.default_rng(6)
    t = generate_topology("uniform-random", 6, 1.0, rng, sectors_per_bs=3)
    pl = place_mobiles(t, 200.0, 0.0, rng)
    dist = _dist(pl.xy, t.bs_xy)
    shadow = draw_shadowing_table(dist, NY, rng)
    cap = 5
    assoc = associate(t, pl.xy, dist, NY, shadow, cap, rng)
    assert np.all(assoc.loads <= cap)
    served = assoc.serving[assoc.serving >= 0]
    counts = np.bincount(served, minlength=t.n_sectors)
    assert np.array_equal(counts, assoc.loads)
    assert np.array_equal(np.flatnonzero(assoc.serving < 0), assoc.denied)


def test_capacity_one_single_bs_denies_second():
    # one BS, 4 sectors, capacity 1, two mobiles in the same wedge: the
    # loser has no other candidate (a single BS offers one covering
    # sector) and is denied
    ext = square(2.0)
    t = Topology(np.array([[1.0, 1.0]]), ext, ext, sectors_per_bs=4)
    xy = np.array([[1.3, 1.1], [1.4, 1.2]])  # both in the first quadrant wedge
    dist = _dist(xy, t.bs_xy)
    shadow = _zero_shadow(2, 1)
    assoc = associate(t, xy, dist, NY, shadow, capacity=1, rng=np.random.default_rng(0))
    assert sorted([assoc.serving[0], assoc.serving[1]])[0] == -1
    assert len(assoc.denied) == 1
    assert assoc.loads.sum() == 1


def test_overflow_goes_to_next_candidate():
    # two BSs: both mobiles prefer BS0's covering sector; with capacity 1
    # the overflow mobile is served by BS1's covering sector instead
    ext = square(4.0)
    t = Topology(np.array([[1.0, 1.0], [3.0, 1.0]]), ext, ext, sectors_per_bs=1)
    xy = np.array([[1.1, 1.0], [1.2, 1.0]])
    dist = _dist(xy, t.bs_xy)
    shadow = _zero_shadow(2, 2)
    assoc = associate(t, xy, dist, NY, shadow, capacity=1,
                      rng=np.random.default_rng(3))
    assert sorted(assoc.serving.tolist()) == [0, 1]
    assert len(assoc.denied) == 0


def test_strong_shadowing_flips_to_far_bs():
    ext = square(4.0)
    t = Topology(np.array([[1.0, 1.0], [3.0, 1.0]]), ext, ext, sectors_per_bs=1)
    xy = np.array([[1.1, 1.0]])  # much closer to BS0
    dist = _dist(xy, t.bs_xy)
    xi = np.array([[0.0, 200.0]])  # absurdly favorable shadowing toward BS1
    assoc = associate(t, xy, dist, NY, ShadowingTable(xi), capacity=10,
                      rng=np.random.default_rng(0))
    assert assoc.serving[0] == 1


def test_deterministic_given_seed():
    rng = np.random.default_rng(12)
    t = generate_topology("uniform-random", 8, 1.0, rng, sectors_per_bs=6)
    pl = place_mobiles(t, 150.0, 0.0, rng)
    dist = _dist(pl.xy, t.bs_xy)
    shadow = draw_shadowing_table(dist, NY, rng)
    a = associate(t, pl.xy, dist, NY, shadow, 3, np.random.default_rng(42))
    b = associate(t, pl.xy, dist, NY, shadow, 3, np.random.default_rng(42))
    assert np.array_equal(a.serving, b.serving)
    assert np.array_equal(a.loads, b.loads)


def test_candidate_restriction_k_nearest():
    rng = np.random.default_rng(2)
    t = generate_topology("uniform-random", 30, 2.0, rng, sectors_per_bs=1)
    pl = place_mobiles(t, 30.0, 0.0, rng)
    dist = _dist(pl.xy, t.bs_xy)
    shadow = _zero_shadow(pl.n_mobiles, t.n_bs)
    # without shadowing the nearest BS always wins, so k=1 and k=30 agree
    a1 = associate(t, pl.xy, dist, NY, shadow, 1000, np.random.default_rng(0),
                   k_nearest=1)
    a30 = associate(t, pl.xy, dist, NY, shadow, 1000, np.random.default_rng(0),
                    k_nearest=30)
    assert np.array_equal(a1.serving, a30.serving)


def test_sector_mode_shadowing():
    rng = np.random.default_rng(7)
    t = generate_topology("uniform-random", 4, 1.0, rng, sectors_per_bs=3)
    pl = place_mobiles(t, 100.0, 0.0, rng)
    dist = _dist(pl.xy, t.bs_xy)
    shadow = draw_shadowing_table(dist, NY, rng, per="sector", sectors_per_bs=3)
    assert shadow.xi_db.shape == (pl.n_mobiles, 4, 3)
    assoc = associate(t, pl.xy, dist, NY, shadow, 10, rng)
    assert np.all(assoc.loads <= 10)
    # toward_sector picks the matching local sector entry
    val = shadow.toward_sector(0, 5, t)  # BS 1, local sector 2
    assert val == shadow.xi_db[0, 1, 2]


def test_draw_shadowing_table_stddev_tracks_distance():
    rng = np.random.default_rng(123)
    d = np.full((200000, 1), 0.05)
    shadow = draw_shadowing_table(d, NY, rng)
    assert np.std(shadow.xi_db) == pytest.approx(11.0503, abs=0.05)
    with pytest.raises(ValueError):
        draw_shadowing_table(d, NY, rng, per="link")


def _against_oracle(t, xy, dist, shadow, capacity, k, seed):
    """associate vs the sequential oracle from equal rng states; the path taken."""
    rng_new = np.random.default_rng(seed)
    rng_old = np.random.default_rng(seed)
    got = associate(t, xy, dist, NY, shadow, capacity, rng_new, k_nearest=k)
    want = associate_sequential(t, xy, dist, NY, shadow, capacity, rng_old,
                                k_nearest=k)
    for a, b in zip((got.serving, got.loads, got.denied), want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    assert rng_new.bit_generator.state == rng_old.bit_generator.state
    return got.sequential


def test_associate_matches_sequential_oracle():
    paths = set()
    for scene in range(32):
        rng = np.random.default_rng(500 + scene)
        capacity = (1, 2, 3, 1000)[scene % 4]
        per = ("bs", "sector")[scene // 4 % 2]
        k = (1, 4, 12, 40)[scene // 8]      # 12 BSs: k >= C in the last two
        zeta = (1, 3, 4)[scene % 3]
        t = generate_topology("uniform-random", 12, 1.0, rng, sectors_per_bs=zeta)
        pl = place_mobiles(t, 150.0, 0.0, rng)
        dist = _dist(pl.xy, t.bs_xy)
        shadow = draw_shadowing_table(dist, NY, rng, per=per, sectors_per_bs=zeta)
        sequential = _against_oracle(t, pl.xy, dist, shadow, capacity, k, scene)
        if capacity == 1:
            assert sequential
        if capacity == 1000:
            assert not sequential
        paths.add(sequential)
    assert paths == {False, True}


def test_associate_ties_take_the_sequential_path():
    # (2, 2) and (1, 2) sit at equal distance from four BSs of a 4x4 grid
    ext = square(4.0)
    t = generate_topology("grid", 16, ext, sectors_per_bs=3)
    rng = np.random.default_rng(8)
    xy = np.vstack([[[2.0, 2.0], [1.0, 2.0]], place_mobiles(t, 20.0, 0.0, rng).xy])
    dist = _dist(xy, t.bs_xy)
    assert dist[0, 5] == dist[0, 6] == dist[0, 9] == dist[0, 10]
    shadow = draw_shadowing_table(dist, NY, rng)
    # k = 2 cuts through the four: a tie at the k-th distance
    assert _against_oracle(t, xy, dist, shadow, 1000, 2, 1)
    # k = 4 takes all four, and distinct shadowing ranks them
    assert not _against_oracle(t, xy, dist, shadow, 1000, 4, 2)
    # without shadowing the four tie at the top rank
    assert _against_oracle(t, xy, dist, _zero_shadow(len(xy), 16), 1000, 4, 3)
