import concurrent.futures
import multiprocessing
import pickle

import numpy as np
import pytest

from fhuplink import cli, experiments
from fhuplink.config import (ConfigError, RunConfig, build_topology,
                             parse_config_text, serialize, set_key)
from fhuplink.experiments import (GROUP, TRIAL_BLOCK, TRIAL_DTYPE,
                                  _run_block, cm_ratio_of, code_rate,
                                  densification_sweep, per_link_rate_curves,
                                  run_campaign, run_trials, scale_to_cm, sweep)
from fhuplink.linkbudget import ProfileBlock
from fhuplink.seeding import DOMAIN_TRIAL, derive_rng
from fhuplink.topology import distance

from oracles import noise_only_outage

# small surrogate network so unit tests stay fast
SMALL = RunConfig(bs_count=16, extent_km=0.8, trials=12, seed=3,
                  candidate_bs=8)


def _topo(cfg, seed=3):
    return build_topology(cfg, seed)


def test_code_rate():
    # beta = 3 dB with the 1 dB implementation loss
    assert code_rate(10 ** 0.3, 0.794) == pytest.approx(1.3697390989650053,
                                                        rel=1e-12)
    assert code_rate(1.0, 1.0) == 1.0
    assert code_rate(1e-12, 0.794) < 1e-11


def test_run_trial_deterministic():
    t = _topo(SMALL)
    a = run_trials(t, SMALL, 0, 1)
    b = run_trials(t, SMALL, 0, 1)
    assert a.dtype == TRIAL_DTYPE and a.tobytes() == b.tobytes()
    c = run_trials(t, SMALL, 1, 2)
    assert c.tobytes() != a.tobytes()  # different trial index, different realization


@pytest.mark.parametrize("d_r_override", [None, 0.05])
def test_run_trial_checks_each_object_once(monkeypatch, d_r_override):
    # the config was checked when SMALL was built; a trial reads it, builds
    # no other config, and checks its block once
    t = _topo(SMALL)
    built, sizes = [], []
    init = RunConfig.__post_init__
    monkeypatch.setattr(RunConfig, "__post_init__",
                        lambda self: built.append(self) or init(self))
    checked = ProfileBlock.checked
    monkeypatch.setattr(ProfileBlock, "checked",
                        lambda self: sizes.append(len(self.m0)) or checked(self))
    ((_, _, block),) = _run_block(t, SMALL, 0, 1, d_r_override)
    assert block.n_interferers[0] > 0
    assert built == [] and sizes == [1]


def test_campaign_checks_each_profile_once(monkeypatch):
    # a block's profiles are checked where link_profiles builds them, and
    # joining checked blocks for the closed forms checks nothing again
    t = _topo(SMALL)
    sizes = []
    checked = ProfileBlock.checked
    monkeypatch.setattr(ProfileBlock, "checked",
                        lambda self: sizes.append(len(self.m0)) or checked(self))
    run_campaign(t, SMALL, n_trials=10, threads=1)
    assert sum(sizes) == 10


def test_single_mobile_reduces_to_noise_only():
    # density * area rounds to one mobile: it is the reference, there are
    # no interferers, and the trial outage equals the pure-noise gamma CDF
    cfg = RunConfig(bs_count=4, extent_km=0.1, density_per_km2=100.0,
                    r_ex_km=0.0, ref_zone_km=0.0, trials=1, seed=9)
    t = _topo(cfg, 9)
    ((_, _, block),) = _run_block(t, cfg, 0, 1, None)
    _, (result,) = run_campaign(t, cfg)
    assert block.n_interferers[0] == 0
    assert result["n_interferers"] == 0
    want = noise_only_outage(block.gamma0[0], block.m0[0], cfg.beta_linear)
    assert result["epsilon"] == pytest.approx(want, abs=1e-12)
    want_nh = noise_only_outage(block.gamma0[0], block.m0[0], cfg.beta_linear,
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


def test_campaign_thread_invariance(tmp_path):
    t = _topo(SMALL)
    s1, r1 = run_campaign(t, SMALL, n_trials=8, threads=1)
    s2, r2 = run_campaign(t, SMALL, n_trials=8, threads=2)
    assert np.array_equal(r1, r2)
    assert s1 == s2

    # one pool runs every ratio of a sweep; capacity 2 a sector makes
    # sequential admission run inside the workers' blocks; 13 trials end
    # inside a group
    full = SMALL.replace(zeta=1, ref_block_channels=50, sector_block_channels=50)
    for cfg in (SMALL, full):
        t = _topo(cfg)
        rows = [densification_sweep(t, cfg.replace(trials=13, threads=threads),
                                    ratios=(1.0, 0.25, 0.1))
                for threads in (1, 2, 3)]
        assert rows[0] == rows[1] == rows[2]
    # points of different trial counts and seeds share one pool
    for axis in ("trials", "seed"):
        rows = [sweep(SMALL.replace(trials=4, threads=threads), axis, [3, 6],
                      ratios=(1.0, 0.25)) for threads in (1, 2)]
        assert rows[0] == rows[1]

    path = tmp_path / "small.cfg"
    path.write_text(serialize(SMALL))
    for threads in ("1", "2"):
        assert cli.main(["densify", "--config", str(path), "--ratios",
                         "1,0.25,0.1", "--trials", "6", "--threads", threads,
                         "--out", str(tmp_path / f"{threads}.csv")]) == 0
    assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()


def test_densification_sweep_opens_one_pool(monkeypatch):
    pools = []
    executor = concurrent.futures.ProcessPoolExecutor

    def counted(*args, **kwargs):
        pools.append(executor(*args, **kwargs))
        return pools[-1]
    monkeypatch.setattr(experiments.concurrent.futures, "ProcessPoolExecutor",
                        counted)
    densification_sweep(_topo(SMALL), SMALL.replace(trials=4, threads=2),
                        ratios=(1.0, 0.25, 0.1))
    assert len(pools) == 1
    # a sweep runs every (value, ratio) point in one pool too
    sweep(SMALL.replace(trials=2, threads=2), "delta", [0.0, 0.5],
          ratios=(1.0, 0.25))
    assert len(pools) == 2
    # and checks every value before any trial runs
    calls = []
    monkeypatch.setattr(experiments, "run_trials",
                        lambda *args: calls.append(args))
    with pytest.raises(ConfigError, match="zeta: expected int"):
        sweep(SMALL.replace(trials=2), "zeta", [8, 8.5], ratios=[1.0])
    assert calls == []


def test_workers_get_each_layouts_grid(monkeypatch):
    # the points a pool pickles for its workers carry the nearest-BS grid,
    # one for every rescaled copy of a layout, so no worker builds it
    shipped = []
    executor = concurrent.futures.ProcessPoolExecutor

    def recorded(*args, **kwargs):
        shipped.append(pickle.loads(pickle.dumps(kwargs["initargs"][0])))
        return executor(*args, **kwargs)
    monkeypatch.setattr(experiments.concurrent.futures, "ProcessPoolExecutor",
                        recorded)
    densification_sweep(_topo(SMALL), SMALL.replace(trials=2, threads=2),
                        ratios=(1.0, 0.25))
    ((a, cfg, _), (b, _, _)) = shipped[0]
    assert a._grids is b._grids and cfg.candidate_bs in a._grids


@pytest.mark.parametrize("affinity", [True, False])
def test_the_pool_has_at_most_one_worker_per_cpu(monkeypatch, affinity):
    # 100,000 threads would be a worker per chunk of 8 trials; results do
    # not depend on the worker count, so the pool stops at the usable CPUs
    class Started(Exception):
        pass

    def recorded(max_workers, **_):
        workers.append(max_workers)
        raise Started       # no process starts
    workers = []
    monkeypatch.setattr(experiments.concurrent.futures, "ProcessPoolExecutor",
                        recorded)
    if affinity:
        monkeypatch.setattr(experiments.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2}, raising=False)
    else:   # where the affinity call does not exist, the CPU count
        monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
    cfg = SMALL.replace(trials=8 * GROUP)
    with pytest.raises(Started):
        experiments.run_points([(_topo(cfg), cfg, None)], 100_000)
    assert workers == [3]


def test_densify_worker_error_exits_2_and_leaves_no_worker(tmp_path, capsys):
    # no mobile falls in a 1 mm reference zone, so a worker raises
    path = tmp_path / "empty_zone.cfg"
    path.write_text(serialize(SMALL.replace(ref_zone_km=1e-6)))
    assert cli.main(["densify", "--config", str(path), "--ratios", "1,0.25",
                     "--trials", "4", "--threads", "2",
                     "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "reference zone" in err, err
    assert multiprocessing.active_children() == []


def _one_trial_records(t, cfg, n, d_r_override=None):
    """The records of trials 0 .. n - 1, each run as a block of one."""
    return np.concatenate([run_trials(t, cfg, i, i + 1, d_r_override)
                           for i in range(n)])


def test_block_size_does_not_change_a_record(monkeypatch):
    # 10 trials are one block; the first 10 of 70 share a block with 54
    # other trials, so a record must not depend on its block partners
    t = _topo(SMALL)
    _, short = run_campaign(t, SMALL, n_trials=10, threads=1)
    _, long = run_campaign(t, SMALL, n_trials=70, threads=1)
    assert 10 < TRIAL_BLOCK < 70
    assert short.tobytes() == long[:10].tobytes()
    assert short.tobytes() == _one_trial_records(t, SMALL, 10).tobytes()
    # a range cut inside groups at both ends gives the same records
    assert (run_trials(t, SMALL, 3, 13).tobytes()
            == run_trials(t, SMALL, 0, 16)[3:13].tobytes())

    # 600 mobiles a realization: the row budget splits 5 groups into
    # sub-blocks of 3 realizations
    big = SMALL.replace(extent_km=2.0, density_per_km2=150.0, bs_count=40)
    t = _topo(big)
    assert 1 < experiments.ROW_BUDGET // 600 < 5
    _, got = run_campaign(t, big, n_trials=5 * GROUP, threads=1,
                          d_r_override=0.05)
    assert got.tobytes() == _one_trial_records(t, big, 5 * GROUP, 0.05).tobytes()

    # capacity 2 a sector: sequential admission runs inside the block
    full = SMALL.replace(zeta=1, ref_block_channels=50, sector_block_channels=50)
    t = _topo(full)
    _, got = run_campaign(t, full, n_trials=6, threads=1)
    assert np.all(got["n_denied"] > 0)
    assert got.tobytes() == _one_trial_records(t, full, 6).tobytes()

    # a small reference zone is often empty: some groups of the block
    # realize again, together, and the others do not
    sizes = []
    realize = experiments.realize_network

    def counted(t, cfg, rng):
        sizes.append(len(rng))
        return realize(t, cfg, rng)
    sparse = SMALL.replace(ref_zone_km=0.1)
    t = _topo(sparse)
    monkeypatch.setattr(experiments, "realize_network", counted)
    _, got = run_campaign(t, sparse, n_trials=TRIAL_BLOCK, threads=1)
    groups = TRIAL_BLOCK // GROUP
    assert sizes[0] == groups and 1 < sizes[1] < groups
    monkeypatch.undo()
    assert got.tobytes() == _one_trial_records(t, sparse, TRIAL_BLOCK).tobytes()


def test_halfwidth_is_cluster_robust():
    # a group's trials share a realization, so on equal groups the
    # halfwidth comes from the spread of the group means
    stats, rec = run_campaign(_topo(SMALL), SMALL, n_trials=3 * GROUP,
                              threads=1)
    for key, hw in (("epsilon", stats.halfwidth95),
                    ("epsilon_no_hop", stats.halfwidth95_no_hop)):
        means = rec[key].reshape(3, GROUP).mean(axis=1)
        assert hw / 1.96 == pytest.approx(np.std(means, ddof=1) / np.sqrt(3),
                                          rel=1e-12)


@pytest.mark.parametrize("keys", [
    {}, {"shadowing_per": "sector", "psi_offsets": "random"},
    {"topology": "grid"}])
@pytest.mark.parametrize("ratio", [0.05, 1.0])
def test_the_table_holds_each_serving_link(ratio, keys):
    # link_profiles reads serving-link lengths from the table, not from a
    # second distance() call: the two must agree bit for bit.  The layout
    # is the benchmark's, master seed 29
    cfg = RunConfig(seed=29, **keys)
    t = scale_to_cm(build_topology(cfg), cfg.density_per_km2, ratio)
    rngs = [derive_rng(cfg.seed, DOMAIN_TRIAL, i) for i in range(2)]
    shadow, assoc = experiments.realize_network(t, cfg, rngs)
    r = np.flatnonzero(assoc.served_mask)
    slot, serving, xy = assoc.slot[r], assoc.serving[r], shadow.mobile_xy[r]
    assert len(r) > 200
    assert np.array_equal(shadow.dist[r, slot],
                          distance(xy, t.sector_position(serving)))
    # the serving sector covers the mobile from the BS of its slot
    assert np.array_equal(t.covering_sector(shadow.near[r, slot], xy), serving)


def test_campaign_seed_sensitivity():
    t = _topo(SMALL)
    s1, _ = run_campaign(t, SMALL, n_trials=6, seed=1)
    s2, _ = run_campaign(t, SMALL, n_trials=6, seed=2)
    assert s1.epsilon_bar != s2.epsilon_bar


def test_densification_sweep_typical_lengths():
    t = _topo(SMALL)
    rows = densification_sweep(t, SMALL.replace(trials=4), ratios=[1.0, 0.25])
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
        densification_sweep(t, SMALL.replace(trials=2), ratios=[0.01])


def test_densification_realized_mode():
    cfg = SMALL.replace(dr_mode="realized", trials=4)
    t = _topo(cfg)
    rows = densification_sweep(t, cfg, ratios=[1.0])
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
    rows = sweep(cfg, "delta", [0.0, 0.5], ratios=[0.5, 1.0])
    assert len(rows) == 4
    assert {(r["axis"], r["value"]) for r in rows} == {("delta", 0.0),
                                                       ("delta", 0.5)}
    assert sweep(cfg, "delta", []) == []
    with pytest.raises(ValueError, match="unknown sweep axis"):
        sweep(cfg, "warp_factor", [1.0])


def test_sweep_bandwidth_axis_sets_blocks():
    cfg = SMALL.replace(trials=2)
    rows = sweep(cfg, "L_over_Lj", [1, 10], ratios=[1.0])
    assert len(rows) == 2
    assert [r["value"] for r in rows] == [1, 10]
    assert all(type(r["value"]) is int for r in rows)
    # set_key is the one setter: L_over_Lj sets both block sizes, but it
    # is no config key
    wide = set_key(cfg.replace(ref_block_channels=20), "L_over_Lj", "10")
    assert (wide.ref_block_channels, wide.sector_block_channels) == (10, 10)
    assert wide.L_over_Lj == 10 and "L_over_Lj" not in serialize(wide)
    with pytest.raises(ConfigError, match="unknown key 'L_over_Lj'"):
        parse_config_text("L_over_Lj = 10")
    with pytest.raises(ValueError, match="divide"):
        sweep(cfg, "L_over_Lj", [3], ratios=[1.0])


def test_sweep_zeta_rebuilds_topology():
    cfg = SMALL.replace(trials=2)
    rows = sweep(cfg, "zeta", [8, "24"], ratios=[1.0])
    assert [r["value"] for r in rows] == [8, 24]
    assert all(type(r["value"]) is int for r in rows)


def test_sweep_integer_axes_reject_fractions():
    # a fractional value used to be truncated while the rows kept its label
    cfg = SMALL.replace(trials=2)
    with pytest.raises(ConfigError, match="zeta: expected int"):
        sweep(cfg, "zeta", [8.5], ratios=[1.0])
    with pytest.raises(ConfigError, match="k_strongest"):
        sweep(cfg, "k_strongest", ["2.5"], ratios=[1.0])
    with pytest.raises(ValueError, match="integer"):
        sweep(cfg, "L_over_Lj", [2.5], ratios=[1.0])


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
    # the base config's seed is what the axis overrides
    assert sweep(SMALL.replace(seed=7), "seed", [1, 2], ratios=[1.0]) == rows
    with pytest.raises(ValueError, match="unknown sweep axis"):
        sweep(SMALL, "beta_linear", [1.0])
