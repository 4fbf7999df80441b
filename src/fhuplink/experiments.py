"""Monte Carlo campaigns over network realizations and parameter sweeps.

A trial freezes one network realization (mobile drop, shadowing,
association), evaluates the reference link's conditional outage in closed
form, and the campaign averages trials into outage, throughput, and area
spectral efficiency.  Trials are embarrassingly parallel: each derives
its own RNG from (master seed, trial index) and results are reduced in
index order, so campaigns are reproducible bit-for-bit regardless of the
worker count.
"""

from __future__ import annotations

import concurrent.futures
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .association import associate, draw_shadowing_table
from .config import RunConfig, build_topology, set_key
from .linkbudget import reference_link_profile
from .outage import outage_closed_form, outage_no_hopping
from .propagation import sample_shadowing
from .seeding import DOMAIN_LINKS, DOMAIN_TRIAL, derive_rng
from .topology import (Topology, pick_reference_mobile, place_mobiles,
                       scale_topology)


def code_rate(beta_linear, shannon_loss=0.794) -> float:
    """Code rate in bpcu supported by an SINR threshold.

    shannon_loss discounts the Shannon bound for a practical modem; the
    default corresponds to a 1 dB implementation loss.  Domain:
    beta_linear > 0, 0 < shannon_loss <= 1.
    """
    return math.log2(1.0 + shannon_loss * beta_linear)


@dataclass(frozen=True)
class OutageStats:
    """Spatially averaged campaign outputs.

    ase is exactly density * code_rate * (1 - epsilon_bar); half-widths
    are 95% normal-approximation intervals on the trial means.
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


def realize_network(t: Topology, cfg: RunConfig, rng: np.random.Generator):
    """Draw one network realization: placement, shadowing, association."""
    prop = cfg.propagation_params
    placement = place_mobiles(t, cfg.density_per_km2, cfg.r_ex_km, rng)
    near, dist = t.nearest_bs(placement.xy, cfg.candidate_bs)
    shadow = draw_shadowing_table(t, placement.xy, near, dist, prop, rng,
                                  cfg.shadowing_per)
    assoc = associate(shadow, prop, cfg.hop_plan.sector_capacity, rng)
    return placement, shadow, assoc


def run_trial(t: Topology, cfg: RunConfig, rng: np.random.Generator,
              d_r_override=None):
    """One simulation trial; returns (row, InterferenceProfile).

    row is a tuple of the TRIAL_DTYPE fields in order.  Fully
    deterministic given the rng state.  d_r_override switches the
    reference link to the typical length used in densification studies;
    its shadowing is then redrawn at that length so the whole link model
    is consistent.
    """
    prop = cfg.propagation_params
    for _ in range(100):
        placement, shadow, assoc = realize_network(t, cfg, rng)
        ref = pick_reference_mobile(placement, t, rng,
                                    eligible=assoc.served_mask)
        if ref is not None:
            break
    else:
        raise RuntimeError("no served mobile fell inside the reference zone; "
                           "check density and reference-zone size")
    xi_ref = (None if d_r_override is None
              else float(sample_shadowing(d_r_override, prop, rng)))
    profile, info = reference_link_profile(
        t, prop, cfg.beam_params, cfg.hop_plan, placement.xy, shadow,
        assoc, ref, rng, delta=cfg.delta, beta=cfg.beta_linear,
        p_over_n=cfg.p_over_n_linear, k_strongest=cfg.k_strongest,
        d_r=d_r_override, xi_ref_db=xi_ref)
    row = (outage_closed_form(profile), outage_no_hopping(profile),
           info["d_r"], info["serving_sector"], profile.n_interferers,
           len(assoc.denied))
    return row, profile


# worker-process state for parallel campaigns
_WORKER = {}


def _init_worker(t, cfg, seed, d_r_override):
    _WORKER["args"] = (t, cfg, seed, d_r_override)


def _run_chunk(bounds):
    t, cfg, seed, d_r_override = _WORKER["args"]
    lo, hi = bounds
    return lo, [run_trial(t, cfg, derive_rng(seed, DOMAIN_TRIAL, i),
                          d_r_override)[0] for i in range(lo, hi)]


def run_campaign(t: Topology, cfg: RunConfig, n_trials=None, seed=None,
                 threads=None, d_r_override=None):
    """Average n_trials independent realizations; returns (stats, records).

    The per-trial records come back in trial order and the reduction is a
    fixed-order pairwise sum, so the result does not depend on the number
    of workers.
    """
    n = int(cfg.trials if n_trials is None else n_trials)
    if n < 1:
        raise ValueError("need at least one trial")
    seed = cfg.seed if seed is None else int(seed)
    threads = cfg.threads if threads is None else int(threads)

    records = np.empty(n, dtype=TRIAL_DTYPE)
    if threads <= 1 or n == 1:
        for i in range(n):
            records[i], _ = run_trial(t, cfg, derive_rng(seed, DOMAIN_TRIAL, i),
                                      d_r_override)
    else:
        chunk = max(1, -(-n // (threads * 8)))
        bounds = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=threads, initializer=_init_worker,
                initargs=(t, cfg, seed, d_r_override)) as pool:
            for lo, rows in pool.map(_run_chunk, bounds):
                for off, row in enumerate(rows):
                    records[lo + off] = row

    return _stats_from_records(records, cfg), records


def _stats_from_records(records, cfg: RunConfig) -> OutageStats:
    n = len(records)
    eps = records["epsilon"]
    eps_nh = records["epsilon_no_hop"]
    eps_bar = float(np.sum(eps) / n)
    eps_nh_bar = float(np.sum(eps_nh) / n)
    hw = 1.96 * float(np.std(eps, ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    hw_nh = 1.96 * float(np.std(eps_nh, ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    r = code_rate(cfg.beta_linear, cfg.shannon_loss)
    return OutageStats(
        epsilon_bar=eps_bar, halfwidth95=hw,
        epsilon_bar_no_hop=eps_nh_bar, halfwidth95_no_hop=hw_nh,
        code_rate=r, throughput=r * (1.0 - eps_bar),
        ase=cfg.density_per_km2 * r * (1.0 - eps_bar),
        n_trials=n, density=cfg.density_per_km2,
        mean_d_r=float(np.sum(records["d_r"]) / n),
        mean_interferers=float(np.sum(records["n_interferers"]) / n),
        mean_denied=float(np.sum(records["n_denied"]) / n))


def cm_ratio_of(t: Topology, density) -> float:
    """BS-per-mobile ratio of a topology at the given mobile density."""
    return t.n_bs / (density * t.extent.area)


def scale_to_cm(t: Topology, density, ratio) -> Topology:
    """Rescale the whole network to a BS-per-mobile ratio at fixed density.

    The BS layout is kept, so the mobile count follows the scaled area.
    """
    target_area = t.n_bs / (density * ratio)
    return scale_topology(t, math.sqrt(target_area / t.extent.area))


def resolve_dr_override(cfg: RunConfig, cm, sweep_default="typical"):
    """Typical reference-link length for the mode, or None for realized."""
    mode = cfg.dr_mode
    if mode == "auto":
        mode = sweep_default
    if mode == "typical":
        return cfg.dr0_km / math.sqrt(cm)
    return None


def densification_sweep(t: Topology, cfg: RunConfig, ratios=None, *,
                        n_trials=None, seed=None, threads=None):
    """Re-run the campaign over BS-per-mobile ratios C/M.

    The network is rescaled per ratio by scale_to_cm.  Unless dr_mode
    says otherwise the reference link takes the typical length for each
    ratio.  Returns one row dict per ratio.
    """
    ratios = cfg.cm_ratios if ratios is None else tuple(ratios)
    rows = []
    for ratio in ratios:
        if not (0.05 <= ratio <= 1.0):
            warnings.warn(f"C/M ratio {ratio} outside the calibrated range "
                          "[0.05, 1]; computing anyway")
        scaled = scale_to_cm(t, cfg.density_per_km2, ratio)
        override = resolve_dr_override(cfg, ratio, sweep_default="typical")
        stats, _ = run_campaign(scaled, cfg, n_trials, seed, threads,
                                d_r_override=override)
        rows.append(_sweep_row(ratio, stats))
    return rows


def _sweep_row(ratio, stats: OutageStats) -> dict:
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


def _set_l_over_lj(cfg: RunConfig, value):
    try:
        ratio = int(str(value))
    except ValueError:
        raise ValueError(f"L/L_j must be an integer, got {value!r}") from None
    if ratio < 1 or cfg.hopset_channels % ratio:
        raise ValueError(f"L/L_j = {value} must divide the hopset size "
                         f"{cfg.hopset_channels}")
    block = cfg.hopset_channels // ratio
    return cfg.replace(ref_block_channels=block,
                       sector_block_channels=block), ratio


def sweep(cfg: RunConfig, axis, values, *, ratios=None, n_trials=None,
          seed=None, threads=None):
    """Nested sweep: for each axis value, run the densification sweep.

    Every RunConfig key is an axis, its values parsed and checked as in a
    config file; L_over_Lj sets both block sizes from the hopset size.
    The topology is rebuilt per value (the axis may change the sector
    count) from the value's master seed, so BS positions stay comparable
    across values; seed, when given, replaces the config's seed before
    the axis applies.  Returns row dicts tagged with (axis, value as cast).
    """
    if axis != "L_over_Lj" and axis not in RunConfig.__dataclass_fields__:
        raise ValueError(f"unknown sweep axis {axis!r}; choose a config key "
                         "or L_over_Lj")
    cfg = cfg if seed is None else cfg.replace(seed=int(seed))
    rows = []
    for value in values:
        if axis == "L_over_Lj":
            cfg_v, value = _set_l_over_lj(cfg, value)
        else:
            cfg_v = set_key(cfg, axis, value)
            value = getattr(cfg_v, axis)
        t = build_topology(cfg_v)
        for row in densification_sweep(t, cfg_v, ratios, n_trials=n_trials,
                                       threads=threads):
            rows.append({"axis": axis, "value": value, **row})
    return rows


def per_link_rate_curves(t: Topology, cfg: RunConfig, n_links, beta_db_grid,
                         seed=None):
    """Outage versus code rate for sampled uplinks of one realization.

    Draws a single network realization, picks n_links served uplinks
    uniformly at random, and evaluates each link's outage over the SINR
    threshold grid; an 'average' row series averages over every served
    uplink of the realization.  Link lengths are the realized ones.
    """
    if n_links < 1:
        raise ValueError("n_links must be >= 1")
    seed = cfg.seed if seed is None else int(seed)
    rng = derive_rng(seed, DOMAIN_LINKS)
    placement, shadow, assoc = realize_network(t, cfg, rng)
    served = np.flatnonzero(assoc.served_mask)
    if len(served) == 0:
        raise RuntimeError("realization has no served mobiles")
    n_links = min(int(n_links), len(served))
    chosen = np.sort(rng.choice(served, size=n_links, replace=False))

    profiles = {}
    for idx in served:
        profiles[idx], _ = reference_link_profile(
            t, cfg.propagation_params, cfg.beam_params, cfg.hop_plan,
            placement.xy, shadow, assoc, int(idx), rng,
            delta=cfg.delta, beta=cfg.beta_linear,
            p_over_n=cfg.p_over_n_linear, k_strongest=cfg.k_strongest)

    rows = []
    for beta_db in beta_db_grid:
        beta = float(10.0 ** (beta_db / 10.0))
        rate = code_rate(beta, cfg.shannon_loss)
        eps_all = np.array([outage_closed_form(profiles[idx], beta=beta)
                            for idx in served])
        for rank, idx in enumerate(chosen, start=1):
            rows.append({"link": f"link{rank}", "mobile_index": int(idx),
                         "beta_db": float(beta_db), "code_rate_bpcu": rate,
                         "epsilon": float(eps_all[np.searchsorted(served, idx)])})
        rows.append({"link": "average", "mobile_index": -1,
                     "beta_db": float(beta_db), "code_rate_bpcu": rate,
                     "epsilon": float(np.sum(eps_all) / len(eps_all))})
    return rows
