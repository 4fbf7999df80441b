"""Base-station geometry and per-trial mobile placement.

Base stations sit at fixed coordinates inside a square network extent and
are split into equal angular sectors.  Mobiles are re-placed every trial
with a uniform clustering rule: sequential uniform draws, rejecting any
candidate that lands within the exclusion radius of an already accepted
mobile.  Coordinates are in km, and a trial's mobiles are a bare (M, 2)
array.  The reference pick runs on a block of realizations, one
generator per pick.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle [xmin, xmax] x [ymin, ymax] in km."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        if not (self.xmax >= self.xmin and self.ymax >= self.ymin):
            raise ValueError("degenerate rectangle: max corner below min corner")

    @property
    def width(self):
        return self.xmax - self.xmin

    @property
    def height(self):
        return self.ymax - self.ymin

    @property
    def area(self):
        return self.width * self.height

    @property
    def center(self):
        return np.array([(self.xmin + self.xmax) / 2.0,
                         (self.ymin + self.ymax) / 2.0])

    def contains(self, xy):
        """Boolean mask of points inside the rectangle (boundary included)."""
        xy = np.atleast_2d(np.asarray(xy, dtype=float))
        return ((xy[:, 0] >= self.xmin) & (xy[:, 0] <= self.xmax)
                & (xy[:, 1] >= self.ymin) & (xy[:, 1] <= self.ymax))

    def contains_rect(self, other: "Rect") -> bool:
        return (other.xmin >= self.xmin and other.xmax <= self.xmax
                and other.ymin >= self.ymin and other.ymax <= self.ymax)

    def scaled(self, factor):
        return Rect(self.xmin * factor, self.ymin * factor,
                    self.xmax * factor, self.ymax * factor)


def square(side, origin=(0.0, 0.0)):
    """Square Rect of the given side with its lower-left corner at origin."""
    ox, oy = origin
    return Rect(ox, oy, ox + side, oy + side)


def central_zone(extent: Rect, side):
    """Square of the given side centered inside the extent."""
    cx, cy = extent.center
    return Rect(cx - side / 2.0, cy - side / 2.0, cx + side / 2.0, cy + side / 2.0)


@dataclass(frozen=True, eq=False)
class Topology:
    """Static BS/sector geometry, immutable and shareable across trials.

    Sector l of BS c gets the global index c * sectors_per_bs + l; its
    mainlobe wedge starts at sector_offsets[c] + l * 2*pi / sectors_per_bs
    and spans 2*pi / sectors_per_bs, so the wedges of one BS tile [0, 2*pi).
    """

    bs_xy: np.ndarray          # (C, 2) positions in km
    extent: Rect
    reference_zone: Rect
    sectors_per_bs: int = 1
    sector_offsets: np.ndarray | None = None  # (C,) radians, default all zero
    _grids: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        xy = np.asarray(self.bs_xy, dtype=float)
        if xy.ndim != 2 or xy.shape[1] != 2 or xy.shape[0] < 1:
            raise ValueError("bs_xy must be a (C, 2) array with C >= 1")
        if not np.all(np.isfinite(xy)):
            raise ValueError("BS coordinates must be finite")
        object.__setattr__(self, "bs_xy", xy)
        if len(np.unique(xy, axis=0)) != len(xy):
            raise ValueError("duplicate BS positions: check bs_count and "
                             "extent_km, or the topology file")
        if not np.all(self.extent.contains(xy)):
            raise ValueError("all BS positions must lie inside the extent")
        if not self.extent.contains_rect(self.reference_zone):
            raise ValueError("reference zone must lie inside the extent")
        if self.sectors_per_bs < 1:
            raise ValueError("sectors_per_bs must be >= 1")
        off = np.zeros(len(xy)) if self.sector_offsets is None else \
            np.asarray(self.sector_offsets, dtype=float)
        if off.shape != (len(xy),):
            raise ValueError("sector_offsets must hold one angle per BS")
        object.__setattr__(self, "sector_offsets", np.mod(off, TWO_PI))

    @property
    def n_bs(self) -> int:
        return len(self.bs_xy)

    @property
    def n_sectors(self) -> int:
        return self.n_bs * self.sectors_per_bs

    def sector_position(self, sector):
        """Sector receivers are collocated with their BS."""
        return self.bs_xy[np.asarray(sector) // self.sectors_per_bs]

    def covering_sector(self, bs_idx, xy=None, rel=None):
        """Global index of the sector of bs_idx whose mainlobe covers xy.

        Exactly one sector per BS covers any point (wedges tile the circle).
        Vectorized: bs_idx and xy broadcast elementwise, xy shaped (..., 2);
        a caller that has formed rel, xy minus the BS position, passes it.
        """
        bs_idx = np.asarray(bs_idx)
        rel = np.asarray(xy, dtype=float) - self.bs_xy[bs_idx] if rel is None else rel
        theta = np.mod(np.arctan2(rel[..., 1], rel[..., 0]), TWO_PI)
        width = TWO_PI / self.sectors_per_bs
        local = np.floor(np.mod(theta - self.sector_offsets[bs_idx], TWO_PI)
                         / width).astype(int) % self.sectors_per_bs
        return bs_idx * self.sectors_per_bs + local

    def nearest_bs(self, xy, k):
        """The k nearest BSs of each point, ordered by (distance, BS index).

        Returns (M, k) BS indices and distances in km, k capped at C, for
        points inside the extent.  A point compares only the BSs its cell
        of a uniform grid keeps: all within d_k(centre) + 2h of the cell
        centre, h the half-diagonal.  The k-th-nearest distance d_k is
        1-Lipschitz, so that covers every BS within d_k(p) of any point p
        of the cell.  The grid is cached per k in cell units, which scaled
        copies share: its test scales with the layout, to well within 1e-9.
        Distances round as in distance(); a row is sorted by distance alone
        unless its first k + 1 hold an exact tie, which the index breaks.
        """
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        k = min(int(k), self.n_bs)
        if k < 1:
            raise ValueError("k must be >= 1")
        if not np.all(self.extent.contains(xy)):
            raise ValueError("points must lie inside the extent")
        if k not in self._grids:
            self._grids[k] = self._cell_grid(k)
        n, cand = self._grids[k]
        lo = np.array([self.extent.xmin, self.extent.ymin])
        span = np.array([self.extent.width, self.extent.height])
        cell = np.minimum(((xy - lo) * (n / np.where(span > 0, span, 1.0)))
                          .astype(int), n - 1)
        near = cand[cell[:, 0] * n + cell[:, 1]]
        bx, by = np.append(self.bs_xy, [[np.inf, np.inf]], axis=0).T.copy()
        dx, dy = bx[near], by[near]
        np.subtract(xy[:, :1], dx, out=dx)     # distance()'s arithmetic, in place
        np.subtract(xy[:, 1:], dy, out=dy)
        dx *= dx
        dy *= dy
        dx += dy
        d = np.sqrt(dx, out=dx)
        # cells list their BSs by index, so a stable sort breaks ties by it;
        # only a row with a tie among its first k + 1 needs that sort
        at = np.arange(len(d))[:, None] * d.shape[1]    # flat positions
        order = np.argsort(d, axis=1)[:, :k + 1] + at
        top = d.ravel()[order]
        tie = np.flatnonzero((top[:, 1:] == top[:, :-1]).any(axis=1))
        order[tie] = np.argsort(d[tie], axis=1, kind="stable")[:, :k + 1] + at[tie]
        return near.ravel()[order[:, :k]], d.ravel()[order[:, :k]]

    def _cell_grid(self, k):
        """Cells per side and each cell's BS list (by index, padded with C,
        a BS at infinity), in cell units, so scaled copies share them."""
        n = int(np.ceil(6.0 * np.sqrt(self.n_bs)))
        lo = np.array([self.extent.xmin, self.extent.ymin])
        span = np.array([self.extent.width, self.extent.height])
        reach = float(distance(span / n, 0.0)) * (1.0 + 1e-9)   # 2h, rounded up
        centre_y = lo[1] + (np.arange(n) + 0.5) * span[1] / n
        cols, c = [], self.n_bs
        for x in lo[0] + (np.arange(n) + 0.5) * span[0] / n:
            d = distance_matrix(np.column_stack([np.full(n, x), centre_y]), self.bs_xy)
            d_k = np.partition(d, k - 1, axis=1)[:, k - 1:k]
            keep = d <= d_k * (1.0 + 1e-9) + reach
            row = np.sort(np.where(keep, np.arange(c), c))    # kept BSs, then C
            cols.append(row[:, :keep.sum(1).max()].copy())   # frees the rest
        cand = np.full((n * n, max(col.shape[1] for col in cols)), c)
        for i, col in enumerate(cols):
            cand[i * n:(i + 1) * n, :col.shape[1]] = col
        return n, cand


def load_topology(path, *, extent=None, sectors_per_bs=1):
    """Read BS coordinates from a text file: one "x y" pair (km) per line.

    Lines starting with '#' (or inline '#' tails) are comments.  The
    extent defaults to the bounding square of the coordinates; the
    reference zone is the full extent.
    """
    coords = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'x y', got {raw!r}")
            try:
                coords.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric coordinate") from None
    if not coords:
        raise ValueError(f"{path}: no BS coordinates found")
    xy = np.asarray(coords, dtype=float)
    if not np.all(np.isfinite(xy)):
        raise ValueError(f"{path}: non-finite coordinate")
    if extent is None:
        extent = _bounding_square(xy)
    return Topology(xy, extent, extent, sectors_per_bs)


def save_coordinates(path, xy, comment=None):
    """Write positions in the coordinate-file format (one "x y" per line)."""
    with open(path, "w") as fh:
        if comment:
            for line in str(comment).splitlines():
                fh.write(f"# {line}\n")
        for x, y in np.asarray(xy, dtype=float):
            fh.write(f"{float(x)!r} {float(y)!r}\n")


def _bounding_square(xy):
    lo = xy.min(axis=0)
    hi = xy.max(axis=0)
    side = float(max(hi[0] - lo[0], hi[1] - lo[1]))
    if side == 0.0:
        side = 1.0  # single BS: fall back to a unit square around it
    cx, cy = (lo + hi) / 2.0
    return Rect(cx - side / 2.0, cy - side / 2.0, cx + side / 2.0, cy + side / 2.0)


def generate_topology(kind, count, extent, rng=None, *, sectors_per_bs=1):
    """Place BSs synthetically: 'uniform-random' draws or a square 'grid'.

    extent may be a Rect or a square side in km.  The grid generator puts
    BSs at the cell centers of the smallest square lattice holding count
    points; uniform-random requires an rng and is deterministic given its
    seed.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not isinstance(extent, Rect):
        side = float(extent)
        if not 0 < side < np.inf:
            raise ValueError(f"extent must be a positive, finite square side "
                             f"in km, got {side!r}")
        extent = square(side)
    if kind == "uniform-random":
        if rng is None:
            raise ValueError("uniform-random generation needs an rng")
        xy = np.column_stack([
            rng.uniform(extent.xmin, extent.xmax, size=count),
            rng.uniform(extent.ymin, extent.ymax, size=count),
        ])
    elif kind == "grid":
        side_n = int(np.ceil(np.sqrt(count)))
        cx = extent.xmin + (np.arange(side_n) + 0.5) * extent.width / side_n
        cy = extent.ymin + (np.arange(side_n) + 0.5) * extent.height / side_n
        gx, gy = np.meshgrid(cx, cy)
        xy = np.column_stack([gx.ravel(), gy.ravel()])[:count]
    else:
        raise ValueError(f"unknown topology generator {kind!r}")
    return Topology(xy, extent, extent, sectors_per_bs)


def scale_topology(t: Topology, factor) -> Topology:
    """Scale every coordinate by factor, preserving the relative layout;
    the copy shares t's nearest-BS cell lists, which do not depend on it."""
    factor = float(factor)
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    scaled = replace(t, bs_xy=t.bs_xy * factor,
                     extent=t.extent.scaled(factor),
                     reference_zone=t.reference_zone.scaled(factor))
    object.__setattr__(scaled, "_grids", t._grids)
    return scaled


def mobile_count(t: Topology, density) -> int:
    """Mobiles of a trial: round(density * area), at least one."""
    expected = density * t.extent.area
    if not expected <= np.iinfo(np.intp).max:      # also inf and NaN
        raise ValueError(f"density_per_km2 = {density:g} times the extent "
                         f"area {t.extent.area:g} km^2 is too many mobiles")
    m = int(round(expected))
    if m < 1:
        raise ValueError(f"density_per_km2 = {density:g} times the extent_km "
                         f"area {t.extent.area:g} km^2 rounds to zero mobiles")
    return m


def place_mobiles(t: Topology, density, r_ex, rng: np.random.Generator) -> np.ndarray:
    """Place round(density * area) mobiles by uniform clustering; (M, 2).

    The M candidates are drawn uniformly over the extent, x then y; one
    within r_ex of an earlier accepted one is rejected, then redrawn, x
    then y, until it lies r_ex or more from every mobile accepted so far.
    Fails after 10,000 consecutive rejections for a single mobile.
    """
    if density <= 0:
        raise ValueError("density must be positive")
    if r_ex < 0:
        raise ValueError("exclusion radius must be non-negative")
    ext = t.extent
    m = mobile_count(t, density)
    cand = np.column_stack([rng.uniform(ext.xmin, ext.xmax, size=m),
                            rng.uniform(ext.ymin, ext.ymax, size=m)])
    if r_ex == 0.0:
        return cand

    # the first candidate is always accepted, so acc is never empty
    gone = sorted(_exclusion_conflicts(cand, r_ex))
    acc = np.concatenate([np.delete(cand, gone, axis=0), np.empty((len(gone), 2))])
    for n in range(m - len(gone), m):
        for _ in range(10_000):
            px = rng.uniform(ext.xmin, ext.xmax)
            py = rng.uniform(ext.ymin, ext.ymax)
            if np.min((acc[:n, 0] - px) ** 2 + (acc[:n, 1] - py) ** 2) >= r_ex * r_ex:
                acc[n] = px, py
                break
        else:
            raise RuntimeError(
                "uniform clustering failed: 10000 rejections while "
                f"packing {m} mobiles with r_ex_km={r_ex} into "
                f"{ext.area:g} km^2")
    return acc


def _exclusion_conflicts(cand, r_ex):
    """Indices of candidates rejected under sequential exclusion checking.

    A candidate conflicts only with earlier candidates that were accepted.
    Pairs closer than r_ex are found with a sorted-x sweep, so the common
    no-conflict case costs O(M log M).  Equal x may sort in any order: that
    only turns a found pair round, which leaves its squared distance.
    """
    order = np.argsort(cand[:, 0])
    x, y = cand[order].T.copy()
    pairs = []
    for off in range(1, len(cand)):
        dx = x[off:] - x[:-off]
        rows = np.flatnonzero(dx < r_ex)
        if not rows.size:
            break
        dy = y[rows + off] - y[rows]
        dx = dx[rows]
        hit = rows[dx * dx + dy * dy < r_ex * r_ex]
        for r in hit:
            a, b = order[r], order[r + off]
            pairs.append((min(a, b), max(a, b)))
    rejected = set()
    for i, j in sorted(pairs, key=lambda p: p[1]):
        if i not in rejected and j not in rejected:
            rejected.add(j)
    return rejected


def distance(a, b):
    """Euclidean distances between points a and b shaped (..., 2), as
    sqrt(dx*dx + dy*dy) elementwise: no BLAS, so the bits never depend
    on the CPU."""
    rel = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return np.sqrt(rel[..., 0] * rel[..., 0] + rel[..., 1] * rel[..., 1])


def distance_matrix(a, b):
    """All distances between two point sets, (len(a), len(b)); the
    brute-force reference for Topology.nearest_bs."""
    return distance(np.asarray(a, dtype=float)[:, None], b)


def pick_reference_mobile(mobile_xy, t: Topology, rngs, eligible=None):
    """Uniformly pick mobiles in each realization's reference zone.

    mobile_xy holds the realizations' mobiles one after another and rngs,
    per realization, one generator per pick, with replacement; eligible
    optionally restricts the draw (e.g. to served mobiles).  Returns the
    picks in order, each as an index within its realization, or -1 for an
    empty zone, which draws nothing.
    """
    mask = t.reference_zone.contains(mobile_xy).reshape(len(rngs), -1)
    if eligible is not None:
        mask = mask & np.asarray(eligible, dtype=bool).reshape(mask.shape)
    return np.array([int(idx[r.integers(len(idx))]) if len(idx) else -1
                     for gens, idx in zip(rngs, map(np.flatnonzero, mask))
                     for r in gens])
