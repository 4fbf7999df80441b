"""The simulator's layers as the tracer sees them, and their metrics.

Each Layer names a public function, the module that defines it, and the
module namespaces whose code calls it; the tracer wraps it there.  Hooks
turn arguments and results into counters at the same boundary.  The
PER_LAYER_METRICS list is the per-layer half of BENCHMARK.json.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Layer:
    name: str
    module: str
    function: str
    callers: tuple
    hook: object = None
    before: object = None


def _children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _mobiles(tr, args, result, state):
    tr.count("mobiles", len(result.xy))


def _cells(tr, args, result, state):
    tr.count("cells", result.size)


def _values(tr, args, result, state):
    tr.count("shadow_values", result.xi_db.size)


def _associate(tr, args, result, state):
    m, c = args["dist_mc"].shape
    k = min(int(args["k_nearest"]), c)
    tr.count("denied", len(result.denied))
    tr.count("full_sectors", int(np.count_nonzero(result.loads >= args["capacity"])))
    tr.count("shadow_reads", m * k)


def _profile(tr, args, result, state):
    profile, info = result
    tr.count("potential", info["n_potential"])
    tr.count("kept", profile.n_interferers)
    # every mobile's link toward the reference sector's BS is readable
    tr.count("shadow_reads", len(args["mobile_xy"]))


def _live_pairs(tr, args, result, state):
    p = args["profile"]
    if p.n_interferers:
        w = np.repeat(p.omega[:, None], 4, axis=1) * p.c
        tr.count("live_pairs", int(np.count_nonzero((p.q > 0) & (w > 0))))


def _samples(tr, args, result, state):
    tr.count("mc_samples", int(args["n_samples"]))


def _pool_cpu(tr, args, result, state):
    tr.count("pool_cpu_s", _children_cpu() - state)


_E = "fhuplink.experiments"
LAYERS = (
    Layer("config.build_topology", "fhuplink.config", "build_topology",
          ("fhuplink.config", "fhuplink.cli", _E)),
    Layer("topology.scale_topology", "fhuplink.topology", "scale_topology",
          ("fhuplink.topology", "fhuplink.cli", _E)),
    Layer("experiments.run_campaign", _E, "run_campaign",
          (_E, "fhuplink.cli"), _pool_cpu, _children_cpu),
    Layer("seeding.derive_rng", "fhuplink.seeding", "derive_rng",
          ("fhuplink.seeding", "fhuplink.config", _E)),
    Layer("experiments.run_trial", _E, "run_trial", (_E,)),
    Layer("experiments.realize_network", _E, "realize_network", (_E,)),
    Layer("topology.place_mobiles", "fhuplink.topology", "place_mobiles",
          (_E,), _mobiles),
    Layer("topology.distance_matrix", "fhuplink.topology", "distance_matrix",
          (_E,), _cells),
    Layer("association.draw_shadowing_table", "fhuplink.association",
          "draw_shadowing_table", (_E,), _values),
    Layer("association.associate", "fhuplink.association", "associate",
          (_E,), _associate),
    Layer("topology.pick_reference_mobile", "fhuplink.topology",
          "pick_reference_mobile", (_E,)),
    Layer("linkbudget.reference_link_profile", "fhuplink.linkbudget",
          "reference_link_profile", (_E,), _profile),
    Layer("linkbudget.build_interferer_sets", "fhuplink.linkbudget",
          "build_interferer_sets", ("fhuplink.linkbudget",)),
    Layer("linkbudget.truncate_strongest", "fhuplink.linkbudget",
          "truncate_strongest", ("fhuplink.linkbudget",)),
    Layer("outage.outage_closed_form", "fhuplink.outage", "outage_closed_form",
          ("fhuplink.outage", _E)),
    Layer("outage.outage_no_hopping", "fhuplink.outage", "outage_no_hopping",
          ("fhuplink.outage", _E)),
    Layer("outage.h_t_all", "fhuplink.outage", "h_t_all",
          ("fhuplink.outage",), _live_pairs),
    Layer("outage.outage_monte_carlo", "fhuplink.outage", "outage_monte_carlo",
          ("fhuplink.outage",), _samples),
)

# a pool's workers run trials in other processes, where spans would be
# lost, so the process-pool workload traces only the layers of the parent
PARENT_LAYERS = ("config.build_topology", "topology.scale_topology",
                 "experiments.run_campaign")

_TOPO_ASSOC = ("topology.place_mobiles", "topology.distance_matrix",
               "topology.pick_reference_mobile",
               "association.draw_shadowing_table", "association.associate")

# (name, unit); per layer: ms per call and self ms per op
PER_LAYER_METRICS = []
for _layer in LAYERS:
    PER_LAYER_METRICS += [(f"{_layer.name}.ms_per_call", "ms"),
                          (f"{_layer.name}.self_ms_per_op", "ms")]
PER_LAYER_METRICS += [
    ("topology.place_mobiles.mobiles_per_call", "count"),
    ("topology.distance_matrix.cells_per_call", "count"),
    ("association.draw_shadowing_table.values_per_call", "count"),
    ("association.associate.denied_per_call", "count"),
    ("association.associate.full_sectors_per_call", "count"),
    ("association.shadow_read_frac", "frac"),
    ("linkbudget.kept_frac", "frac"),
    ("outage.h_t_all.live_pairs_per_call", "count"),
    ("outage.outage_monte_carlo.samples_per_s", "1/s"),
    ("outage.outage_monte_carlo.run_frac", "frac"),
    ("experiments.run_trial.ms_p50", "ms"),
    ("experiments.run_trial.ms_tail", "ms"),
    ("experiments.run_trial.tail_pct", "%"),
    ("experiments.run_trial.topo_assoc_frac", "frac"),
    ("experiments.realize_attempts_per_trial", "count"),
    ("experiments.run_campaign.wall_s", "s"),
    ("experiments.pool_cpu_per_wall", "frac"),
    ("tracer.absent_layers", "count"),
    ("tracing_overhead_frac", "frac"),
]
PER_LAYER_UNITS = dict(PER_LAYER_METRICS)


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def tail_percentile(durations):
    """(percentile, value) of the highest of p50/p90/p99/p99.9 that has
    at least ten samples beyond it."""
    n = len(durations)
    best = 50.0
    for pct in (90.0, 99.0, 99.9):
        if n * (1.0 - pct / 100.0) >= 10:
            best = pct
    value = float(np.percentile(durations, best)) if n else 0.0
    return best, value


def per_layer_metrics(tracer, ops, wall_s, overhead_frac):
    """Every PER_LAYER_METRICS value from one traced run of `ops` ops."""
    times = tracer.layer_times()
    c = tracer.counters
    out = {}

    def calls(name):
        return times[name]["calls"] if name in times else 0

    for layer in LAYERS:
        t = times.get(layer.name)
        if t is None:
            out[f"{layer.name}.ms_per_call"] = 0.0
            out[f"{layer.name}.self_ms_per_op"] = 0.0
            continue
        out[f"{layer.name}.ms_per_call"] = 1e3 * _ratio(t["total_s"], t["calls"])
        out[f"{layer.name}.self_ms_per_op"] = 1e3 * _ratio(t["self_s"], ops)

    out["topology.place_mobiles.mobiles_per_call"] = _ratio(
        c["mobiles"], calls("topology.place_mobiles"))
    out["topology.distance_matrix.cells_per_call"] = _ratio(
        c["cells"], calls("topology.distance_matrix"))
    out["association.draw_shadowing_table.values_per_call"] = _ratio(
        c["shadow_values"], calls("association.draw_shadowing_table"))
    n_assoc = calls("association.associate")
    out["association.associate.denied_per_call"] = _ratio(c["denied"], n_assoc)
    out["association.associate.full_sectors_per_call"] = _ratio(
        c["full_sectors"], n_assoc)
    out["association.shadow_read_frac"] = _ratio(c["shadow_reads"],
                                                  c["shadow_values"])
    out["linkbudget.kept_frac"] = _ratio(c["kept"], c["potential"])
    out["outage.h_t_all.live_pairs_per_call"] = _ratio(
        c["live_pairs"], calls("outage.h_t_all"))
    mc = times.get("outage.outage_monte_carlo", {"total_s": 0.0})
    out["outage.outage_monte_carlo.samples_per_s"] = _ratio(c["mc_samples"],
                                                            mc["total_s"])
    out["outage.outage_monte_carlo.run_frac"] = _ratio(mc["total_s"], wall_s)

    trial = times.get("experiments.run_trial")
    if trial is not None and trial["calls"]:
        durations = 1e3 * trial["durations"]
        out["experiments.run_trial.ms_p50"] = float(np.median(durations))
        pct, value = tail_percentile(durations)
        out["experiments.run_trial.ms_tail"] = value
        out["experiments.run_trial.tail_pct"] = pct
        out["experiments.run_trial.topo_assoc_frac"] = _ratio(
            tracer.descendant_time("experiments.run_trial", _TOPO_ASSOC),
            trial["total_s"])
    else:
        for key in ("ms_p50", "ms_tail", "tail_pct", "topo_assoc_frac"):
            out[f"experiments.run_trial.{key}"] = 0.0
    out["experiments.realize_attempts_per_trial"] = _ratio(
        calls("experiments.realize_network"), calls("experiments.run_trial"))
    camp = times.get("experiments.run_campaign", {"total_s": 0.0, "calls": 0})
    out["experiments.run_campaign.wall_s"] = _ratio(camp["total_s"], camp["calls"])
    out["experiments.pool_cpu_per_wall"] = _ratio(c["pool_cpu_s"], camp["total_s"])
    out["tracer.absent_layers"] = float(len(tracer.absent))
    out["tracing_overhead_frac"] = float(overhead_frac)
    if set(out) != set(PER_LAYER_UNITS):
        raise RuntimeError("per-layer metrics out of step with PER_LAYER_METRICS")
    return out
