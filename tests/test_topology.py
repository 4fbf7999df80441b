from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from fhuplink.topology import (Rect, Topology, _exclusion_conflicts,
                               central_zone, distance_matrix,
                               generate_topology, load_topology,
                               pick_reference_mobile, place_mobiles,
                               save_coordinates, scale_topology, square)
from oracles import exclusion_sequential, place_sequential


def test_rect_basics():
    r = Rect(0, 0, 2, 1)
    assert r.area == 2 and r.width == 2 and r.height == 1
    assert np.array_equal(r.contains([[0, 0], [2, 1], [2.1, 0.5]]),
                          [True, True, False])
    with pytest.raises(ValueError):
        Rect(1, 0, 0, 1)


def test_topology_invariants():
    ext = square(2.0)
    with pytest.raises(ValueError):  # duplicates
        Topology(np.array([[1.0, 1.0], [1.0, 1.0]]), ext, ext)
    with pytest.raises(ValueError):  # outside extent
        Topology(np.array([[3.0, 1.0]]), ext, ext)
    with pytest.raises(ValueError):  # zone outside extent
        Topology(np.array([[1.0, 1.0]]), ext, Rect(1, 1, 3, 3))
    with pytest.raises(ValueError):  # non-finite
        Topology(np.array([[np.nan, 1.0]]), ext, ext)
    with pytest.raises(ValueError):  # empty
        Topology(np.empty((0, 2)), ext, ext)


def test_load_topology(tmp_path):
    path = tmp_path / "bs.txt"
    rng = np.random.default_rng(3)
    xy = rng.uniform(0, 2, size=(132, 2))
    save_coordinates(path, xy, comment="surrogate deployment")
    t = load_topology(path, extent=square(2.0))
    assert t.n_bs == 132
    assert t.extent.area == pytest.approx(4.0)
    assert t.reference_zone == t.extent
    assert np.allclose(t.bs_xy, xy)

    single = tmp_path / "one.txt"
    single.write_text("0.0 0.0\n")
    t1 = load_topology(single)
    assert t1.n_bs == 1
    assert t1.reference_zone == t1.extent  # defaults to the full extent

    dup = tmp_path / "dup.txt"
    dup.write_text("1 1\n1 1\n")
    with pytest.raises(ValueError):
        load_topology(dup)

    empty = tmp_path / "empty.txt"
    empty.write_text("# only comments\n")
    with pytest.raises(ValueError):
        load_topology(empty)

    bad = tmp_path / "bad.txt"
    bad.write_text("1 inf\n")
    with pytest.raises(ValueError):
        load_topology(bad)

    outside = tmp_path / "outside.txt"
    outside.write_text("5 5\n")
    with pytest.raises(ValueError):
        load_topology(outside, extent=square(2.0))


def test_generate_grid():
    t = generate_topology("grid", 4, 2.0)
    expected = {(0.5, 0.5), (1.5, 0.5), (0.5, 1.5), (1.5, 1.5)}
    assert {tuple(p) for p in t.bs_xy} == expected
    with pytest.raises(ValueError):
        generate_topology("grid", 0, 2.0)
    with pytest.raises(ValueError):
        generate_topology("voronoi", 4, 2.0)


def test_generate_uniform_deterministic():
    a = generate_topology("uniform-random", 132, 2.0, np.random.default_rng(9))
    b = generate_topology("uniform-random", 132, 2.0, np.random.default_rng(9))
    assert np.array_equal(a.bs_xy, b.bs_xy)
    assert np.all(a.extent.contains(a.bs_xy))


def test_scale_topology():
    t = replace(generate_topology("uniform-random", 20, 2.0,
                                  np.random.default_rng(1)),
                reference_zone=central_zone(square(2.0), 1.0))
    assert scale_topology(t, 1.0).extent == t.extent
    assert np.array_equal(scale_topology(t, 1.0).bs_xy, t.bs_xy)

    half = scale_topology(t, 0.5)
    assert half.extent.area == pytest.approx(t.extent.area / 4)
    # with fixed mobile density, M quarters, so C/M quadruples
    density = 100.0
    cm = t.n_bs / (density * t.extent.area)
    cm_half = half.n_bs / (density * half.extent.area)
    assert cm_half == pytest.approx(4 * cm)

    # composition and similarity invariance
    ab = scale_topology(scale_topology(t, 0.7), 1.3)
    direct = scale_topology(t, 0.7 * 1.3)
    assert np.allclose(ab.bs_xy, direct.bs_xy)
    d0 = np.linalg.norm(t.bs_xy[3] - t.bs_xy[11])
    d1 = np.linalg.norm(t.bs_xy[5] - t.bs_xy[17])
    h0 = np.linalg.norm(half.bs_xy[3] - half.bs_xy[11])
    h1 = np.linalg.norm(half.bs_xy[5] - half.bs_xy[17])
    assert d0 / d1 == pytest.approx(h0 / h1, rel=1e-12)
    with pytest.raises(ValueError):
        scale_topology(t, 0.0)


def test_covering_sector_tiles_plane():
    rng = np.random.default_rng(4)
    t = replace(generate_topology("uniform-random", 5, 2.0, rng,
                                  sectors_per_bs=6),
                sector_offsets=rng.uniform(0, 2 * np.pi, 5))
    pts = rng.uniform(0, 2, size=(200, 2))
    for bs in range(t.n_bs):
        sec = t.covering_sector(bs, pts)
        assert np.all((sec >= bs * 6) & (sec < (bs + 1) * 6))
        # wedge membership: angle within the wedge span
        rel = pts - t.bs_xy[bs]
        theta = np.mod(np.arctan2(rel[:, 1], rel[:, 0]), 2 * np.pi)
        start = t.sector_offsets[bs] + (sec - bs * 6) * 2 * np.pi / 6
        off = np.mod(theta - start, 2 * np.pi)
        assert np.all(off < 2 * np.pi / 6 + 1e-12)


def _one_bs(zeta, offset=0.0):
    ext = square(2.0, origin=(-1.0, -1.0))
    return Topology(np.zeros((1, 2)), ext, ext, sectors_per_bs=zeta,
                    sector_offsets=[offset])


def test_covering_sector_wedge_edges():
    # zeta = 4 puts the wedge edges on the axes, where angles are exact
    t = _one_bs(4)
    assert t.covering_sector(0, [1.0, 0.0]) == 0      # lower edge in
    assert t.covering_sector(0, [1.0, 0.5]) == 0
    assert t.covering_sector(0, [0.0, 1.0]) == 1      # upper edge out
    assert t.covering_sector(0, [-1.0, 0.0]) == 2
    # membership is modulo 2*pi: negative angles fall in the last wedge,
    # and a wedge starting at 7*pi/4 holds the angles on both sides of 0
    assert t.covering_sector(0, [1.0, -0.5]) == 3
    wrap = _one_bs(4, 7 * np.pi / 4)
    assert np.all(wrap.covering_sector(0, [[1.0, -0.2], [1.0, 0.0],
                                           [1.0, 0.2]]) == 0)


def test_covering_sector_wedges_tile_circle():
    # zeta wedges from an offset: every angle lies in exactly one wedge,
    # the one of the sector that covers it
    theta = np.random.default_rng(1).uniform(0, 2 * np.pi, 500)
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    for zeta in (1, 3, 24):
        width = 2 * np.pi / zeta
        starts = np.arange(zeta) * width + 0.3
        inside = np.mod(theta - starts[:, None], 2 * np.pi) < width
        assert np.all(inside.sum(axis=0) == 1)
        sec = _one_bs(zeta, 0.3).covering_sector(0, pts)
        assert np.array_equal(sec, inside.argmax(axis=0))
        assert len(np.unique(sec)) == zeta


def _brute_nearest(t, xy, k):
    """k nearest BSs by brute force: all distances, (distance, index) order."""
    d = distance_matrix(xy, t.bs_xy)
    order = np.lexsort((np.broadcast_to(np.arange(t.n_bs), d.shape), d), axis=1)
    order = order[:, :min(k, t.n_bs)]
    return order, np.take_along_axis(d, order, axis=1)


def _edge_points(t, rng, n=400):
    """Random points, plus points on the extent's edges and corners and on
    the edges and corners of the grid cells nearest_bs searches
    (ceil(6 sqrt(C)) per side)."""
    ext = t.extent
    cells = int(np.ceil(6.0 * np.sqrt(t.n_bs)))
    edges = np.r_[0.0, 1.0, np.arange(1, cells) / cells]
    frac = np.vstack([np.column_stack([edges, rng.uniform(size=len(edges))]),
                      np.column_stack([rng.uniform(size=len(edges)), edges]),
                      np.stack(np.meshgrid(edges, edges), axis=-1).reshape(-1, 2),
                      rng.uniform(size=(n, 2))])
    lo = np.array([ext.xmin, ext.ymin])
    pts = lo + frac * [ext.width, ext.height]
    return np.clip(pts, lo, [ext.xmax, ext.ymax])


def _check_nearest(t, xy, k):
    near, dist = t.nearest_bs(xy, k)
    want_near, want_dist = _brute_nearest(t, xy, k)
    assert near.shape == (len(xy), min(k, t.n_bs))
    assert np.array_equal(near, want_near)
    assert np.array_equal(dist, want_dist)


def test_nearest_bs_matches_brute_force():
    rng = np.random.default_rng(21)
    uniform = generate_topology("uniform-random", 132, 2.0, rng)
    grid = generate_topology("grid", 16, 4.0)     # exact distance ties
    for t in (uniform, grid):
        xy = _edge_points(t, rng)
        for k in (1, 2, 4, 12, t.n_bs, t.n_bs + 5):
            _check_nearest(t, xy, k)
    # grid points between BSs sit at equal distance from two or four BSs,
    # also on scaled copies, which search the grid's own cell lists
    xy = np.array([[2.0, 2.0], [1.0, 2.0], [2.0, 1.5], [0.5, 2.0]])
    for factor in (1.0, 0.1, 3.7):
        scaled = scale_topology(grid, factor)
        for k in (1, 2, 3, 4, 5):
            _check_nearest(scaled, xy * factor, k)
        _check_nearest(scaled, _edge_points(scaled, rng), 4)
    with pytest.raises(ValueError):
        uniform.nearest_bs(xy, 0)
    with pytest.raises(ValueError):
        uniform.nearest_bs([[2.5, 1.0]], 3)


def test_nearest_bs_single_bs_file_extent_and_scaling(tmp_path):
    one = Topology(np.array([[0.3, 0.7]]), square(1.0), square(1.0))
    near, dist = one.nearest_bs([[0.0, 0.0], [0.3, 0.7], [1.0, 1.0]], 12)
    assert np.array_equal(near, [[0], [0], [0]])
    assert dist[1, 0] == 0.0

    # a coordinate file's extent is the bounding square: BSs on its edges
    path = tmp_path / "bs.txt"
    rng = np.random.default_rng(5)
    save_coordinates(path, rng.uniform(-1.0, 3.0, size=(40, 2)))
    t = load_topology(path)
    xy = np.vstack([_edge_points(t, rng), t.bs_xy])
    for k in (1, 10, 40):
        _check_nearest(t, xy, k)

    # scaled copies reuse the grid built on t: its cell lists are in cell
    # units, and each copy places points with its own extent and BSs
    t.nearest_bs(xy, 10)
    for factor in (0.25, 3.0):
        scaled = scale_topology(t, factor)
        _check_nearest(scaled, _edge_points(scaled, rng), 10)


def test_scaled_copies_build_one_grid(monkeypatch):
    builds = []
    cell_grid = Topology._cell_grid

    def counted(self, k):
        builds.append(k)
        return cell_grid(self, k)
    monkeypatch.setattr(Topology, "_cell_grid", counted)
    rng = np.random.default_rng(13)
    base = generate_topology("uniform-random", 132, 2.0, rng)
    # built first on a scaled copy, then used by the base, by another
    # copy and by a copy of the copy
    first = scale_topology(base, 0.3)
    for t in (first, base, scale_topology(base, 7.0), scale_topology(first, 2.5)):
        for k in (12, 3):
            _check_nearest(t, _edge_points(t, rng), k)
    assert builds == [12, 3]


def test_place_mobiles_count_and_exclusion():
    t = generate_topology("grid", 4, 2.0)
    rng = np.random.default_rng(11)
    xy = place_mobiles(t, 100.0, 0.004, rng)
    assert xy.shape == (400, 2)  # round(100 * 4 km^2)
    d = np.linalg.norm(xy[:, None] - xy[None, :], axis=2)
    np.fill_diagonal(d, np.inf)
    assert d.min() >= 0.004
    assert np.all(t.extent.contains(xy))


def test_place_mobiles_dense_exclusion():
    # hard enough that rejections actually happen
    t = generate_topology("grid", 1, 0.2)
    rng = np.random.default_rng(8)
    xy = place_mobiles(t, 2500.0, 0.005, rng)
    assert len(xy) == 100
    d = np.linalg.norm(xy[:, None] - xy[None, :], axis=2)
    np.fill_diagonal(d, np.inf)
    assert d.min() >= 0.005


def test_place_mobiles_zero_exclusion_and_determinism():
    t = generate_topology("grid", 1, 1.0)
    a = place_mobiles(t, 50.0, 0.0, np.random.default_rng(2))
    b = place_mobiles(t, 50.0, 0.0, np.random.default_rng(2))
    assert np.array_equal(a, b)
    assert len(a) == 50


@pytest.mark.parametrize("n_bs, side, density, r_ex", [
    (4, 2.0, 100.0, 0.004),     # 400 mobiles, 1 or 2 redrawn
    (1, 0.2, 2500.0, 0.005),    # 3 to 8 of 100 candidates redrawn
    (4, 2.0, 100.0, 0.0)])
def test_place_mobiles_matches_sequential_oracle(n_bs, side, density, r_ex):
    t = generate_topology("grid", n_bs, side)
    for seed in range(3):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(place_mobiles(t, density, r_ex, rng),
                              place_sequential(t, density, r_ex, ref))
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("cand, r_ex, rejected", [
    # equal x: a pair is found whichever way round the sort puts it
    ([[0.5, 0.0], [0.5, 0.3], [0.5, 0.05], [0.2, 0.2], [0.5, 0.35]], 0.1, {2, 4}),
    # exactly r_ex apart (a 3-4-5 triangle, exact in binary): kept
    ([[0.0, 0.0], [0.375, 0.5], [2.0, 0.0], [2.0, 0.625], [4.0, 0.0],
      [4.625, 0.0]], 0.625, set()),
    # a - b - c: b is rejected by a, so c, which only b is near, is kept
    ([[0.0, 0.0], [0.6, 0.0], [1.2, 0.0]], 1.0, {1}),
    ([[1.2, 0.0], [0.6, 0.0], [0.0, 0.0]], 1.0, {1})])
def test_exclusion_conflicts_hand_built(cand, r_ex, rejected):
    assert _exclusion_conflicts(np.array(cand), r_ex) == rejected
    assert exclusion_sequential(cand, r_ex) == rejected


def test_exclusion_conflicts_with_many_equal_x():
    # x on a lattice of 8 values: long runs of equal x, in no set order
    rng = np.random.default_rng(4)
    for _ in range(5):
        cand = np.column_stack([rng.integers(0, 8, 400) / 8, rng.uniform(size=400)])
        want = exclusion_sequential(cand, 0.01)
        assert len(want) > 5
        assert _exclusion_conflicts(cand, 0.01) == want


def test_place_mobiles_packing_failure():
    t = generate_topology("grid", 1, 0.1)
    rng = np.random.default_rng(1)
    with pytest.raises(RuntimeError, match="packing|rejections"):
        place_mobiles(t, 1000.0, 0.2, rng)


def test_place_mobiles_uniform_chi2():
    t = generate_topology("grid", 1, 2.0)
    rng = np.random.default_rng(77)
    counts = np.zeros((10, 10))
    for _ in range(50):
        xy = place_mobiles(t, 100.0, 0.004, rng)
        ix = np.minimum((xy[:, 0] / 0.2).astype(int), 9)
        iy = np.minimum((xy[:, 1] / 0.2).astype(int), 9)
        np.add.at(counts, (ix, iy), 1)
    res = stats.chisquare(counts.ravel())
    assert res.pvalue > 0.01


def test_pick_reference_mobile():
    ext = square(2.0)
    t = Topology(np.array([[1.0, 1.0]]), ext, central_zone(ext, 1.0))
    xy = np.array([[1.0, 1.0], [0.1, 0.1], [1.2, 0.8], [1.9, 1.9]])
    rng = np.random.default_rng(0)
    picks = {pick_reference_mobile(xy, t, [[rng]])[0] for _ in range(200)}
    assert picks == {0, 2}  # only the in-zone mobiles

    # exactly one candidate -> always chosen
    only = np.array([[0.1, 0.1], [1.0, 1.0]])
    assert all(pick_reference_mobile(only, t, [[rng]])[0] == 1 for _ in range(20))

    # none inside -> -1
    none = np.array([[0.1, 0.1]])
    assert pick_reference_mobile(none, t, [[rng]])[0] == -1

    # eligibility mask is honored
    assert pick_reference_mobile(xy, t, [[rng]],
                                 eligible=[False, True, True, True])[0] == 2

    # one pick per generator from its realization; an empty zone draws
    # nothing, so a realization drawn again picks as if it were the first
    gens = [np.random.default_rng(s) for s in range(3)]
    state = gens[2].bit_generator.state
    picks = pick_reference_mobile(np.vstack([xy, np.repeat(none, 4, axis=0)]),
                                  t, [gens[:2], gens[2:]])
    assert set(picks[:2]) <= {0, 2} and picks[2] == -1
    assert gens[2].bit_generator.state == state


def test_pick_reference_uniform_frequency():
    ext = square(2.0)
    t = Topology(np.array([[1.0, 1.0]]), ext, central_zone(ext, 1.0))
    xy = np.vstack([np.full((7, 2), 1.0) + np.linspace(0, 0.4, 7)[:, None],
                    [[0.1, 0.1]]])
    rng = np.random.default_rng(13)
    counts = np.zeros(8)
    for _ in range(10**5):
        counts[pick_reference_mobile(xy, t, [[rng]])[0]] += 1
    assert counts[7] == 0
    res = stats.chisquare(counts[:7])
    assert res.pvalue > 0.01
