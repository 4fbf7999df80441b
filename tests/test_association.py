import numpy as np
import pytest

from fhuplink.association import (ShadowingTable, associate,
                                  draw_shadowing_table)
from oracles import associate_sequential
from fhuplink.config import ConfigError, RunConfig, build_topology
from fhuplink.experiments import scale_to_cm
from fhuplink.propagation import alpha_of, path_gain_db, sigma_of
from fhuplink.seeding import derive_rng
from fhuplink.topology import (Topology, distance, distance_matrix,
                               generate_topology, place_mobiles, square)

NY = RunConfig()


def _table(t, xy, rng=None, k=12, per="bs", xi=None):
    """Link gains of one trial's mobiles at xy: shadowing drawn from rng,
    or xi dB (nearest first), plus the path gain."""
    xy, cfg = np.asarray(xy, dtype=float), NY.replace(shadowing_per=per)
    near, dist = t.nearest_bs(xy, k)
    if xi is None:
        return draw_shadowing_table(t, xy, near, dist, cfg, [rng])
    return ShadowingTable(t, xy, near, dist,
                          np.asarray(xi, dtype=float) + path_gain_db(dist, cfg),
                          cfg)


def test_no_shadowing_gives_nearest_bs():
    rng = np.random.default_rng(5)
    t = generate_topology("uniform-random", 9, 2.0, rng, sectors_per_bs=4)
    xy = place_mobiles(t, 50.0, 0.0, rng)
    shadow = _table(t, xy, xi=0.0)
    assoc = associate(shadow, capacity=1000, rngs=[rng])
    assert len(assoc.denied) == 0
    nearest = np.argmin(distance_matrix(xy, t.bs_xy), axis=1)
    expected = t.covering_sector(nearest, xy)
    assert np.array_equal(assoc.serving, expected)
    # every served mobile is covered by its sector's mainlobe wedge
    assert np.array_equal(
        t.covering_sector(assoc.serving // 4, xy), assoc.serving)


def test_loads_consistent_and_capacity_respected():
    rng = np.random.default_rng(6)
    t = generate_topology("uniform-random", 6, 1.0, rng, sectors_per_bs=3)
    xy = place_mobiles(t, 200.0, 0.0, rng)
    shadow = _table(t, xy, rng)
    cap = 5
    assoc = associate(shadow, cap, [rng])
    assert np.all(assoc.loads <= cap)
    served = assoc.serving[assoc.serving >= 0]
    counts = np.bincount(served, minlength=t.n_sectors)
    assert np.array_equal(counts, assoc.loads[0])
    assert np.array_equal(np.flatnonzero(assoc.serving < 0), assoc.denied)


def test_capacity_one_single_bs_denies_second():
    # one BS, 4 sectors, capacity 1, two mobiles in the same wedge: the
    # loser has no other candidate (a single BS offers one covering
    # sector) and is denied
    ext = square(2.0)
    t = Topology(np.array([[1.0, 1.0]]), ext, ext, sectors_per_bs=4)
    xy = np.array([[1.3, 1.1], [1.4, 1.2]])  # both in the first quadrant wedge
    assoc = associate(_table(t, xy, xi=0.0), capacity=1,
                      rngs=[np.random.default_rng(0)])
    assert sorted([assoc.serving[0], assoc.serving[1]])[0] == -1
    assert len(assoc.denied) == 1
    assert assoc.loads.sum() == 1


def test_overflow_goes_to_next_candidate():
    # two BSs: both mobiles prefer BS0's covering sector; with capacity 1
    # the overflow mobile is served by BS1's covering sector instead
    ext = square(4.0)
    t = Topology(np.array([[1.0, 1.0], [3.0, 1.0]]), ext, ext, sectors_per_bs=1)
    xy = np.array([[1.1, 1.0], [1.2, 1.0]])
    assoc = associate(_table(t, xy, xi=0.0), capacity=1,
                      rngs=[np.random.default_rng(3)])
    assert sorted(assoc.serving.tolist()) == [0, 1]
    assert len(assoc.denied) == 0


def test_strong_shadowing_flips_to_far_bs():
    ext = square(4.0)
    t = Topology(np.array([[1.0, 1.0], [3.0, 1.0]]), ext, ext, sectors_per_bs=1)
    xy = np.array([[1.1, 1.0]])  # much closer to BS0
    # absurdly favorable shadowing toward the second candidate, BS1
    shadow = _table(t, xy, xi=[[0.0, 200.0]])
    assoc = associate(shadow, capacity=10, rngs=[np.random.default_rng(0)])
    assert assoc.serving[0] == 1


def test_deterministic_given_seed():
    rng = np.random.default_rng(12)
    t = generate_topology("uniform-random", 8, 1.0, rng, sectors_per_bs=6)
    xy = place_mobiles(t, 150.0, 0.0, rng)
    shadow = _table(t, xy, rng)
    a = associate(shadow, 3, [np.random.default_rng(42)])
    b = associate(shadow, 3, [np.random.default_rng(42)])
    assert np.array_equal(a.serving, b.serving)
    assert np.array_equal(a.loads, b.loads)


def test_candidate_restriction_k_nearest():
    rng = np.random.default_rng(2)
    t = generate_topology("uniform-random", 30, 2.0, rng, sectors_per_bs=1)
    xy = place_mobiles(t, 30.0, 0.0, rng)
    # without shadowing the nearest BS always wins, so k=1 and k=30 agree
    a1 = associate(_table(t, xy, k=1, xi=0.0), 1000,
                   [np.random.default_rng(0)])
    a30 = associate(_table(t, xy, k=30, xi=0.0), 1000,
                    [np.random.default_rng(0)])
    assert np.array_equal(a1.serving, a30.serving)


def test_sector_mode_shadowing():
    rng = np.random.default_rng(7)
    t = generate_topology("uniform-random", 4, 1.0, rng, sectors_per_bs=3)
    xy = place_mobiles(t, 100.0, 0.0, rng)
    shadow = _table(t, xy, rng, per="sector")
    assert shadow.gain_db.shape == (len(xy), 4)
    assoc = associate(shadow, 10, [rng])
    assert np.all(assoc.loads <= 10)
    # a candidate link is the covering sector of the candidate BS
    bs = shadow.near[0, 1]
    covering = t.covering_sector(bs, xy[0])
    assert shadow.gain_toward(0, covering) == shadow.gain_db[0, 1]
    # another sector of the same BS gets its own draw, not the ranked value
    other = bs * 3 + (covering + 1) % 3
    d = distance_matrix(xy[:1], t.bs_xy[bs:bs + 1])[0, 0]
    want = derive_rng(shadow.seed[0], other).standard_normal(len(xy))[0]
    assert shadow.gain_toward(0, other) == (want * sigma_of(d, NY)
                                            + path_gain_db(d, NY))
    assert shadow.gain_toward(0, other) != shadow.gain_db[0, 1]


def test_draw_shadowing_table_stddev_tracks_distance():
    # 200000 mobiles at one point: BS0 is their one candidate at 10 m,
    # BS1 is read from its own column at 50 m
    ext = square(1.0)
    t = Topology(np.array([[0.5, 0.5], [0.55, 0.5]]), ext, ext)
    xy = np.tile([0.5, 0.51], (200000, 1))
    shadow = _table(t, xy, np.random.default_rng(123), k=1)
    assert np.array_equal(shadow.near, np.zeros((200000, 1), dtype=int))
    # the path gain is the same on every row: the rest is shadowing
    xi_near = shadow.gain_db[:, 0] - path_gain_db(0.01, NY)
    assert np.std(xi_near) == pytest.approx(float(sigma_of(0.01, NY)), rel=0.01)
    rows = np.arange(200000)
    xi_far = (shadow.gain_toward(rows, np.ones_like(rows))
              - path_gain_db(np.hypot(0.05, 0.01), NY))
    assert np.std(xi_far) == pytest.approx(11.0503, abs=0.05)
    assert abs(np.corrcoef(xi_far, xi_near)[0, 1]) < 0.01
    # the config, not the table, checks the shadowing mode
    with pytest.raises(ConfigError, match="shadowing_per"):
        _table(t, xy[:2], np.random.default_rng(1), per="link")


@pytest.mark.parametrize("per", ["bs", "sector"])
@pytest.mark.parametrize("cm", [0.05, 1.0])
def test_table_holds_each_candidate_links_gain(cm, per):
    # link_profiles reads a candidate link's gain from the table instead of
    # computing it again, so the table must hold distance()'s bits and the
    # shadowing plus the path gain at that distance
    cfg = RunConfig(seed=29, shadowing_per=per)
    t = scale_to_cm(build_topology(cfg), cfg.density_per_km2, cm)
    xy = place_mobiles(t, cfg.density_per_km2, cfg.r_ex_km,
                       np.random.default_rng(3))
    near, dist = t.nearest_bs(xy, cfg.candidate_bs)
    shadow = draw_shadowing_table(t, xy, near, dist, cfg,
                                  [np.random.default_rng(4)])
    d = distance(xy[:, None, :], t.bs_xy[near])
    assert np.array_equal(shadow.dist, d)
    # the linear law (d/d0)^(-alpha(d)), clamped at d0, then its dB value
    z = np.random.default_rng(4).standard_normal(near.shape)
    dd = np.maximum(d, cfg.d0_km)
    want = (z * sigma_of(d, cfg)
            + 10.0 * np.log10((dd / cfg.d0_km) ** -alpha_of(dd, cfg)))
    assert np.max(np.abs(shadow.gain_db - want)) <= 1e-9


def _scene(seed, n_bs=12, zeta=4, per="bs", k=12, density=150.0):
    rng = np.random.default_rng(seed)
    t = generate_topology("uniform-random", n_bs, 1.0, rng, sectors_per_bs=zeta)
    xy = place_mobiles(t, density, 0.0, rng)
    return t, xy, _table(t, xy, rng, k=k, per=per)


@pytest.mark.parametrize("per", ["bs", "sector"])
def test_one_link_one_shadowing_value(per):
    t, xy, shadow = _scene(31, per=per, k=4)
    assoc = associate(shadow, 1000, [np.random.default_rng(0)])
    m = len(xy)
    rows = np.arange(m)
    # the serving link (g_ref, g_ig) reads the value it was ranked by
    slot = np.argmax(shadow.near == (assoc.serving // t.sectors_per_bs)[:, None],
                     axis=1)
    assert np.array_equal(shadow.gain_toward(rows, assoc.serving),
                          shadow.gain_db[rows, slot])
    # so does every other candidate link toward its covering sector (g_ij)
    cand_sec = t.covering_sector(shadow.near, xy[:, None, :])
    every = np.broadcast_to(rows[:, None], cand_sec.shape)
    assert np.array_equal(shadow.gain_toward(every, cand_sec), shadow.gain_db)
    # all (mobile, sector) links: any read order, one value per link
    i, s = np.divmod(np.arange(m * t.n_sectors), t.n_sectors)
    at_once = shadow.gain_toward(i, s)
    fresh = _scene(31, per=per, k=4)[2]
    rev = np.random.default_rng(1).permutation(len(i))
    one_by_one = np.array([fresh.gain_toward(i[n], s[n]) for n in rev])
    assert np.array_equal(one_by_one, at_once[rev])
    per_link = at_once.reshape(m, t.n_bs, t.sectors_per_bs)
    if per == "bs":     # the sectors of one BS share the link's value
        assert np.all(per_link == per_link[:, :, :1])
    else:               # and differ with per-sector shadowing
        assert len(np.unique(per_link)) == per_link.size


@pytest.mark.parametrize("per", ["bs", "sector"])
@pytest.mark.parametrize("capacity", [1000, 2])
def test_slot_names_the_serving_link(per, capacity):
    # capacity 2 overflows sectors, so the sequential admission loop runs
    t, xy, shadow = _scene(37, per=per, k=4)
    assoc = associate(shadow, capacity, [np.random.default_rng(0)])
    assert assoc.sequential == (capacity == 2)
    served = np.flatnonzero(assoc.served_mask)
    assert np.array_equal(shadow.gain_db[served, assoc.slot[served]],
                          shadow.gain_toward(served, assoc.serving[served]))
    assert np.all(assoc.slot[assoc.denied] == -1)
    assert (len(assoc.denied) > 0) == (capacity == 2)


def _against_oracle(shadow, capacity, seed):
    """associate vs the sequential oracle from equal rng states; the path taken."""
    rng_new = np.random.default_rng(seed)
    rng_old = np.random.default_rng(seed)
    got = associate(shadow, capacity, [rng_new])
    want = associate_sequential(shadow, capacity, rng_old)
    for a, b in zip((got.serving, got.loads[0], got.denied), want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    assert rng_new.bit_generator.state == rng_old.bit_generator.state
    return got.sequential


def test_associate_matches_sequential_oracle():
    paths = set()
    for scene in range(32):
        capacity = (1, 2, 3, 1000)[scene % 4]
        per = ("bs", "sector")[scene // 4 % 2]
        k = (1, 4, 12, 40)[scene // 8]      # 12 BSs: k >= C in the last two
        zeta = (1, 3, 4)[scene % 3]
        t, xy, shadow = _scene(500 + scene, zeta=zeta, per=per, k=k)
        sequential = _against_oracle(shadow, capacity, scene)
        if capacity == 1:
            assert sequential
        if capacity == 1000:
            assert not sequential
        paths.add(sequential)
    assert paths == {False, True}


def test_associate_ties_give_the_oracle_answer_on_either_path():
    # (2, 2) and (1, 2) sit at equal distance from four BSs of a 4x4 grid
    ext = square(4.0)
    t = generate_topology("grid", 16, ext, sectors_per_bs=3)
    rng = np.random.default_rng(8)
    xy = np.vstack([[[2.0, 2.0], [1.0, 2.0]], place_mobiles(t, 20.0, 0.0, rng)])
    dist = distance_matrix(xy, t.bs_xy)
    assert dist[0, 5] == dist[0, 6] == dist[0, 9] == dist[0, 10]
    for capacity, sequential in ((1000, False), (1, True)):
        # k = 2 cuts through the four: a tie at the k-th distance
        assert _against_oracle(_table(t, xy, rng, k=2), capacity, 1) == sequential
        # k = 4 takes all four, and distinct shadowing ranks them
        assert _against_oracle(_table(t, xy, rng, k=4), capacity, 2) == sequential
        # without shadowing the four tie at the top rank
        assert _against_oracle(_table(t, xy, k=4, xi=0.0), capacity, 3) == sequential


def test_block_association_matches_the_oracle_per_trial():
    # one two-trial table: trial 0 packs its mobiles a few metres from
    # one BS, so a sector overflows and sequential admission runs; trial 1
    # puts each mobile next to its own BS, so first choices fit
    t = generate_topology("uniform-random", 12, 1.0, np.random.default_rng(4),
                          sectors_per_bs=3)
    m, capacity = 8, 2
    offsets = np.random.default_rng(5).uniform(0.002, 0.004, (m, 2))
    cluster = np.clip(t.bs_xy[0] + offsets, 0.0, 1.0)
    spread = np.clip(t.bs_xy[:m] + offsets, 0.0, 1.0)
    trials = (cluster, spread)
    xy = np.vstack(trials)
    near, dist = t.nearest_bs(xy, 12)
    rngs = [np.random.default_rng(b) for b in (0, 1)]
    block = draw_shadowing_table(t, xy, near, dist, NY, rngs)
    got = associate(block, capacity, rngs)
    assert got.loads.shape == (2, t.n_sectors)
    for b, own_xy in enumerate(trials):
        rng = np.random.default_rng(b)
        own = _table(t, own_xy, rng)
        rows = slice(b * m, (b + 1) * m)
        assert np.array_equal(own.gain_db, block.gain_db[rows])
        assert own.seed[0] == block.seed[b]
        alone = associate(own, capacity, [np.random.default_rng(b)])
        assert alone.sequential == (b == 0)
        serving, loads, denied = associate_sequential(own, capacity, rng)
        assert np.array_equal(got.serving[rows], serving)
        assert np.array_equal(got.loads[b], loads)
        assert np.array_equal(got.denied[got.denied // m == b] - b * m, denied)
        assert rng.bit_generator.state == rngs[b].bit_generator.state
