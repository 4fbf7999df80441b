"""Frequency-hopping millimeter-wave cellular uplink simulator.

Computes the conditional outage probability of a reference uplink in
closed form for arbitrary base-station topologies, and spatially averages
it over random mobile placements into outage, throughput, and area
spectral efficiency.
"""

from .association import Association, ShadowingTable, associate, draw_shadowing_table
from .beams import (max_pair_gain, mobile_gain_toward, mobile_levels,
                    sector_levels)
from .config import (ConfigError, RunConfig, build_topology, config_sha256,
                     parse_config, parse_config_text, serialize)
from .experiments import (OutageStats, cm_ratio_of, code_rate,
                          densification_sweep, per_link_rate_curves,
                          run_campaign, sweep)
from .linkbudget import (InterferenceProfile, build_interferer_sets,
                         collision_probability, fractional_durations, gamma0,
                         spectral_factor, timing_offset, truncate_strongest)
from .outage import (outage_batch, outage_closed_form, outage_monte_carlo,
                     random_profile, run_validation)
from .propagation import (PRESETS, alpha_of, m_of, path_gain_db,
                          round_integer_m, sample_power_gain, sample_shadowing,
                          sigma_of)
from .topology import (Rect, Topology, central_zone, generate_topology,
                       load_topology, pick_reference_mobile, place_mobiles,
                       save_coordinates, scale_topology, square)

__version__ = "0.1.0"
