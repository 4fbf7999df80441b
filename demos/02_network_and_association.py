"""Build a network realization and inspect the serving-sector assignment.

Mobiles associate with the sector receiving their strongest shadowed
local-mean power, which under heavy shadowing is not always the nearest
BS.  Sector capacity (hopset size over block size) caps how many mobiles
a sector can hold; the overflow falls to the next-best candidate.
"""

import numpy as np

from fhuplink import (RunConfig, build_topology, max_pair_gain, mobile_levels,
                      sector_levels)
from fhuplink.experiments import realize_network
from fhuplink.seeding import DOMAIN_TRIAL, derive_rng
from fhuplink.topology import distance


def main():
    print("=" * 72)
    print("Network realization: 132 BSs over 4 km^2, 24 sectors each")
    print("=" * 72)

    cfg = RunConfig(seed=3)
    topo = build_topology(cfg)
    rng = derive_rng(cfg.seed, DOMAIN_TRIAL, 0)
    shadow, assoc = realize_network(topo, cfg, [rng])
    xy = shadow.mobile_xy
    m = len(xy)

    print(f"\nmobiles: {m} (density {cfg.density_per_km2}/km^2, "
          f"exclusion {cfg.r_ex_km*1000:.0f} m)")
    print(f"sector capacity: {cfg.sector_capacity} "
          f"mobiles; denied: {len(assoc.denied)}")
    loads = assoc.loads[0][assoc.loads[0] > 0]
    print(f"loaded sectors: {len(loads)}; max load {loads.max()}; "
          f"mean load {loads.mean():.2f}")

    nearest = topo.nearest_bs(xy, 1)[0][:, 0]
    serving_bs = assoc.serving // topo.sectors_per_bs
    flipped = np.mean(serving_bs[assoc.served_mask]
                      != nearest[assoc.served_mask])
    print(f"\nshadowing sends {flipped:.1%} of mobiles to a BS that is not "
          "their nearest")
    d_serving = distance(xy, topo.bs_xy[serving_bs.clip(min=0)])
    print(f"serving-link length: median {np.median(d_serving)*1000:.0f} m, "
          f"90th pct {np.percentile(d_serving, 90)*1000:.0f} m")

    sec_main, sec_side = sector_levels(cfg)
    mob_main, mob_side = mobile_levels(cfg)
    print(f"\nbeam levels: sector mainlobe {sec_main:.2f}, "
          f"mobile mainlobe {mob_main:.2f}")
    print(f"maximum antenna-pair gain: {10*np.log10(max_pair_gain(cfg)):.1f} dB")
    print("sidelobe-to-sidelobe coupling sits "
          f"{10*np.log10(sec_side*mob_side/ (sec_main*mob_main)):.0f} dB "
          "below mainlobe-to-mainlobe")


if __name__ == "__main__":
    main()
