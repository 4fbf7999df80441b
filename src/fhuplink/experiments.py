"""Monte Carlo campaigns over network realizations and parameter sweeps.

A trial is one reference link of a network realization (mobile drop,
shadowing, association) and its conditional outage; a campaign averages
trials into outage, throughput, and area spectral efficiency.  The GROUP
trials of a group share a realization drawn from (seed, DOMAIN_TRIAL,
group); a trial draws its reference pick, typical-length shadowing and
interferer subset from (seed, DOMAIN_REFERENCE, trial).  A record thus
depends only on (seed, trial), and results are reduced in index order,
so campaigns are bit-for-bit the same for any worker count.  Half-widths
use a cluster-robust standard error from the group sums.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .association import associate, draw_shadowing_table
from .config import RunConfig, build_topology, set_key
from .linkbudget import link_profiles
from .outage import outage_batch
from .seeding import (DOMAIN_LINKS, DOMAIN_REFERENCE, DOMAIN_TRIAL,
                      derive_rng)
from .topology import (Topology, mobile_count, pick_reference_mobile,
                       place_mobiles, scale_topology)


# trials whose profiles are held at once and evaluated in one call
TRIAL_BLOCK = 64
# trials that share one network realization, each with its own reference
GROUP = 8
# mobiles whose realization arrays a sub-block stacks at once
ROW_BUDGET = 2 ** 11


def code_rate(beta_linear, shannon_loss) -> float:
    """Code rate in bpcu supported by an SINR threshold.

    shannon_loss discounts the Shannon bound for a practical modem.
    Domain: beta_linear > 0, 0 < shannon_loss <= 1.
    """
    return math.log2(1.0 + shannon_loss * beta_linear)


@dataclass(frozen=True)
class OutageStats:
    """Spatially averaged campaign outputs.

    ase is exactly density * code_rate * (1 - epsilon_bar); half-widths
    are 95% normal intervals with the cluster-robust standard error of the
    group sums, as a group's trials share one DOMAIN_TRIAL realization.
    """

    epsilon_bar: float
    halfwidth95: float
    epsilon_bar_no_hop: float
    halfwidth95_no_hop: float
    code_rate: float
    throughput: float
    ase: float
    n_trials: int
    density: float
    mean_d_r: float
    mean_interferers: float
    mean_denied: float


TRIAL_DTYPE = np.dtype([
    ("epsilon", "f8"),          # conditional outage of the reference link
    ("epsilon_no_hop", "f8"),   # same realization without slot diversity
    ("d_r", "f8"),              # reference link length used (km)
    ("serving_sector", "i8"),
    ("n_interferers", "i8"),    # after strongest-K truncation
    ("n_denied", "i8")])


def realize_network(t: Topology, cfg: RunConfig, rngs):
    """Draw network realizations, one per generator in rngs: placement,
    shadowing, association.  Returns (shadow, assoc); shadow.mobile_xy
    holds the realizations' mobiles one after another."""
    xy = np.concatenate([place_mobiles(t, cfg.density_per_km2, cfg.r_ex_km, r)
                         for r in rngs])
    near, dist = t.nearest_bs(xy, cfg.candidate_bs)
    shadow = draw_shadowing_table(t, xy, near, dist, cfg, rngs)
    assoc = associate(shadow, cfg.sector_capacity, rngs)
    return shadow, assoc


def _run_block(t: Topology, cfg: RunConfig, lo, hi, d_r_override):
    """Run trials lo .. hi - 1 of cfg.seed on their groups' realizations:
    yields, per realization attempt, (trials, TRIAL_DTYPE records without
    their outages, ProfileBlock) of the groups that found a served mobile
    in the reference zone; the others realize again, together, up to 100
    attempts in all."""
    trials = np.arange(lo, hi)
    gens = {g: derive_rng(cfg.seed, DOMAIN_TRIAL, g) for g in set(trials // GROUP)}
    refs = {i: derive_rng(cfg.seed, DOMAIN_REFERENCE, i) for i in trials}
    for _ in range(100):
        todo, owner = np.unique(trials // GROUP, return_inverse=True)
        shadow, assoc = realize_network(t, cfg, [gens[g] for g in todo])
        picks = [[refs[i] for i in trials[owner == k]] for k in range(len(todo))]
        ref = pick_reference_mobile(shadow.mobile_xy, t, picks, assoc.served_mask)
        ok = ref >= 0
        if ok.any():
            rows = (owner * (len(shadow.mobile_xy) // len(todo)) + ref)[ok]
            block, info = link_profiles(cfg, shadow, assoc, rows,
                                        [refs[i] for i in trials[ok]],
                                        d_r_override)
            denied = np.sum(assoc.serving.reshape(len(todo), -1) < 0, axis=1)
            records = np.empty(len(rows), dtype=TRIAL_DTYPE)
            records["d_r"], records["n_denied"] = info["d_r"], denied[owner[ok]]
            records["serving_sector"] = assoc.serving[rows]
            records["n_interferers"] = block.n_interferers
            yield trials[ok], records, block
        trials = trials[~ok]
        if not trials.size:
            return
    raise RuntimeError("no served mobile fell inside the reference zone; "
                       "check density_per_km2 and ref_zone_km")


def _spans(lo, hi, step):
    """The spans (a, b) of lo .. hi cut at the multiples of step."""
    cuts = sorted({lo, hi, *range(lo - lo % step + step, hi, step)})
    return list(zip(cuts, cuts[1:]))


def run_trials(t: Topology, cfg: RunConfig, lo, hi, d_r_override=None):
    """TRIAL_DTYPE records of trials lo .. hi - 1 of cfg.seed, which do not
    depend on lo and hi.  Blocks start at multiples of TRIAL_BLOCK trials
    and are realized and linked in sub-blocks of whole groups, at most
    ROW_BUDGET mobiles (or one realization) in all; a block's outages are
    one outage_batch call."""
    records = np.empty(hi - lo, dtype=TRIAL_DTYPE)
    cap = GROUP * max(1, ROW_BUDGET // mobile_count(t, cfg.density_per_km2))
    for start, stop in _spans(lo, hi, TRIAL_BLOCK):
        trials, rows, profiles = zip(*(
            part for a, b in _spans(start, stop, cap)
            for part in _run_block(t, cfg, a, b, d_r_override)))
        rows = np.concatenate(rows)
        rows["epsilon"], rows["epsilon_no_hop"] = outage_batch(profiles)
        records[np.concatenate(trials) - lo] = rows
    return records


# worker-process state for pooled campaigns
_WORKER = {}


def _init_worker(points):
    _WORKER["points"] = points


def _run_chunk(task):
    point, lo, hi = task
    t, cfg, d_r_override = _WORKER["points"][point]
    return run_trials(t, cfg, lo, hi, d_r_override)


def run_points(points, threads):
    """Each point's TRIAL_DTYPE records, in trial order; a point is a
    (topology, RunConfig, d_r_override) triple, run for cfg.trials trials
    of cfg.seed.  With threads > 1 one pool, of one process per usable CPU
    at most, gets the point list once and runs chunks of trials point by
    point, so the first points start first and the last ones fill the tail."""
    if threads <= 1 or sum(cfg.trials for _, cfg, _ in points) <= 1:
        return [run_trials(t, cfg, 0, cfg.trials, d_r)
                for t, cfg, d_r in points]

    # whole groups a chunk, so no group is realized in two workers
    chunk = GROUP * -(-max(cfg.trials for _, cfg, _ in points)
                      // (threads * 8 * GROUP))
    for t, cfg, _ in points:    # the workers get each layout's grid built
        t.nearest_bs(t.extent.center, cfg.candidate_bs)
    tasks = [(point, lo, min(lo + chunk, cfg.trials))
             for point, (_, cfg, _) in enumerate(points)
             for lo in range(0, cfg.trials, chunk)]
    runs = [[] for _ in points]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(threads, len(tasks), cpus), initializer=_init_worker,
            initargs=(points,)) as pool:
        for (point, _, _), rows in zip(tasks, pool.map(_run_chunk, tasks)):
            runs[point].append(rows)
    return [np.concatenate(rows) for rows in runs]


def _with_run(cfg: RunConfig, n_trials, seed, threads) -> RunConfig:
    """cfg with its trials, seed and threads set from those given."""
    given = {"trials": n_trials, "seed": seed, "threads": threads}
    return cfg.replace(**{k: v for k, v in given.items() if v is not None})


def run_campaign(t: Topology, cfg: RunConfig, n_trials=None, seed=None,
                 threads=None, d_r_override=None):
    """Average cfg.trials reference links; returns (stats, records).

    Group g of GROUP trials realizes the network (placement, shadowing
    table and its seed, admission order) from DOMAIN_TRIAL, g, and trial i
    draws its reference pick, typical-length shadowing and interferer
    subset from DOMAIN_REFERENCE, i; half-widths are cluster-robust, from
    the group sums.  Records come back in trial order and are reduced by
    a fixed-order pairwise sum, whatever the number of workers.
    """
    cfg = _with_run(cfg, n_trials, seed, threads)
    (records,) = run_points([(t, cfg, d_r_override)], cfg.threads)
    return _stats_from_records(records, cfg), records


def _halfwidth95(eps) -> float:
    """95% normal half-width of the mean of trials 0 .. n - 1, cluster-robust
    over groups of n_g trials summing to S_g: s^2 = G / (G - 1) * sum_g (S_g
    - n_g * mean)^2 / n^2.  One group keeps the trial-level s, 0 for n = 1."""
    n = len(eps)
    starts = np.arange(0, n, GROUP if n > GROUP else 1)
    g, mean = len(starts), np.sum(eps) / n
    dev = np.add.reduceat(eps, starts) - np.diff(starts, append=n) * mean
    return 1.96 * math.sqrt(g / max(g - 1, 1) * float(np.sum(dev ** 2))) / n


def _stats_from_records(records, cfg: RunConfig) -> OutageStats:
    n, eps, eps_nh = len(records), records["epsilon"], records["epsilon_no_hop"]
    eps_bar = float(np.sum(eps) / n)
    r = code_rate(cfg.beta_linear, cfg.shannon_loss)
    return OutageStats(
        epsilon_bar=eps_bar, halfwidth95=_halfwidth95(eps),
        epsilon_bar_no_hop=float(np.sum(eps_nh) / n),
        halfwidth95_no_hop=_halfwidth95(eps_nh),
        code_rate=r, throughput=r * (1.0 - eps_bar),
        ase=cfg.density_per_km2 * r * (1.0 - eps_bar),
        n_trials=n, density=cfg.density_per_km2,
        mean_d_r=float(np.sum(records["d_r"]) / n),
        mean_interferers=float(np.sum(records["n_interferers"]) / n),
        mean_denied=float(np.sum(records["n_denied"]) / n))


def _area_error(t: Topology) -> ValueError:
    return ValueError(f"extent_km gives a layout area of {t.extent.area:g} "
                      "km^2; a C/M ratio needs it positive and finite")


def cm_ratio_of(t: Topology, density) -> float:
    """BS-per-mobile ratio of a topology at the given mobile density,
    whose mobile count must be one or more and fit an array index."""
    if not t.extent.area > 0:
        raise _area_error(t)
    mobile_count(t, density)
    return t.n_bs / (density * t.extent.area)


def scale_to_cm(t: Topology, density, ratio) -> Topology:
    """Rescale the whole network to a BS-per-mobile ratio at fixed density.

    The BS layout is kept, so the mobile count follows the scaled area.
    ratio and the layout's area must be positive and finite.
    """
    if not 0 < ratio < math.inf:
        raise ValueError(f"C/M ratio must be positive and finite, got {ratio}")
    if not 0 < t.extent.area < math.inf:
        raise _area_error(t)
    scale = t.n_bs / (density * ratio) / t.extent.area if density * ratio else math.inf
    if not 0 < scale < math.inf:    # of the area: the square of the layout's scale
        raise ValueError(f"C/M ratio {ratio} at density_per_km2 = {density:g} "
                         "scales the layout out of float range")
    return scale_topology(t, math.sqrt(scale))


def resolve_dr_override(cfg: RunConfig, cm, sweep_default="typical"):
    """Typical reference-link length for the mode, or None for realized."""
    mode = sweep_default if cfg.dr_mode == "auto" else cfg.dr_mode
    return cfg.dr0_km / math.sqrt(cm) if mode == "typical" else None


def _ratio_rows(layouts, ratios, threads):
    """The summary rows of each (topology, cfg) layout at every C/M
    ratio; one run_points call runs every rescaled point."""
    points = []
    for t, cfg in layouts:
        for ratio in ratios:
            scaled = scale_to_cm(t, cfg.density_per_km2, ratio)
            mobile_count(scaled, cfg.density_per_km2)   # fail before warning
            if not (0.05 <= ratio <= 1.0):
                warnings.warn(f"C/M ratio {ratio} outside the calibrated "
                              "range [0.05, 1]; computing anyway")
            points.append((scaled, cfg, resolve_dr_override(cfg, ratio)))
    runs = iter(run_points(points, threads))
    return [[summary_row(ratio, _stats_from_records(next(runs), cfg))
             for ratio in ratios] for _, cfg in layouts]


def densification_sweep(t: Topology, cfg: RunConfig, ratios=None, *,
                        n_trials=None, seed=None, threads=None):
    """Re-run the campaign over BS-per-mobile ratios C/M.

    The network is rescaled per ratio by scale_to_cm.  Unless dr_mode
    says otherwise the reference link takes the typical length for each
    ratio.  Every ratio is rescaled first, then one run_points call runs
    them all.  Returns one row dict per ratio.
    """
    cfg = _with_run(cfg, n_trials, seed, threads)
    ratios = cfg.cm_ratios if ratios is None else tuple(ratios)
    return _ratio_rows([(t, cfg)], ratios, cfg.threads)[0]


def summary_row(ratio, stats: OutageStats) -> dict:
    """The summary columns of a campaign at one C/M ratio, as a CSV row."""
    return {
        "cm_ratio": ratio,
        "d_r_km": stats.mean_d_r,
        "epsilon_bar": stats.epsilon_bar,
        "halfwidth95": stats.halfwidth95,
        "epsilon_bar_no_hop": stats.epsilon_bar_no_hop,
        "halfwidth95_no_hop": stats.halfwidth95_no_hop,
        "code_rate_bpcu": stats.code_rate,
        "throughput_bpcu": stats.throughput,
        "ase_bpcu_km2": stats.ase,
        "n_trials": stats.n_trials,
    }


def sweep(cfg: RunConfig, axis, values, *, ratios=None):
    """Nested sweep: for each axis value, the densification sweep.

    Every RunConfig key but cm_ratios, which ratios sets, is an axis, and
    so is L_over_Lj; set_key checks every value, as in a config file,
    before any trial runs.  The topology is rebuilt per value (the axis
    may change the sector count) from the value's master seed.  One
    run_points call on cfg.threads workers runs every (value, ratio)
    point.  Returns row dicts tagged with (axis, value as cast).
    """
    if axis != "L_over_Lj" and axis not in RunConfig.__dataclass_fields__:
        raise ValueError(f"unknown sweep axis {axis!r}; choose a config key "
                         "or L_over_Lj")
    if axis == "cm_ratios":
        raise ValueError("cm_ratios is not a sweep axis: every value sweeps "
                         "the C/M ratios, set them with --ratios")
    ratios = cfg.cm_ratios if ratios is None else tuple(ratios)
    cfgs = [set_key(cfg, axis, value) for value in values]
    tables = _ratio_rows([(build_topology(c), c) for c in cfgs], ratios,
                         cfg.threads)
    return [{"axis": axis, "value": getattr(c, axis), **row}
            for c, rows in zip(cfgs, tables) for row in rows]


def per_link_rate_curves(t: Topology, cfg: RunConfig, n_links, beta_db_grid):
    """Outage versus code rate for sampled uplinks of one realization.

    Draws a single network realization, picks n_links served uplinks
    uniformly at random, and evaluates each link's outage over the SINR
    thresholds in beta_db_grid, each checked as the beta_db key; an
    'average' row series averages over every served uplink of the
    realization.  Link lengths are the realized ones.
    """
    if n_links < 1:
        raise ValueError("n_links must be >= 1")
    betas = [set_key(cfg, "beta_db", beta_db).beta_linear
             for beta_db in beta_db_grid]
    rng = derive_rng(cfg.seed, DOMAIN_LINKS)
    shadow, assoc = realize_network(t, cfg, [rng])
    served = np.flatnonzero(assoc.served_mask)
    if len(served) == 0:
        raise RuntimeError("realization has no served mobiles")
    n_links = min(int(n_links), len(served))
    chosen = np.sort(rng.choice(served, size=n_links, replace=False))

    size = max(1, ROW_BUDGET // len(shadow.mobile_xy))
    profiles = [link_profiles(cfg, shadow, assoc, refs, [rng] * len(refs))[0]
                for refs in np.split(served, range(size, len(served), size))]

    eps = outage_batch(profiles, [2] * len(betas), betas)
    rows = []
    for beta_db, beta, eps_all in zip(beta_db_grid, betas, eps):
        series = [(f"link{rank}", int(idx), eps_all[np.searchsorted(served, idx)])
                  for rank, idx in enumerate(chosen, start=1)]
        series.append(("average", -1, np.sum(eps_all) / len(eps_all)))
        rows += [{"link": link, "mobile_index": idx, "beta_db": float(beta_db),
                  "code_rate_bpcu": code_rate(beta, cfg.shannon_loss),
                  "epsilon": float(e)} for link, idx, e in series]
    return rows
