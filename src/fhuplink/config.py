"""Run configuration: defaults, file parsing, validation, serialization.

The config file is flat human-readable text, one ``key = value`` (or
``key: value``) per line, '#' comments, optional ``[section]`` headers
that are purely cosmetic.  Keys match the RunConfig field names.  All
dB-valued quantities stay in dB here and are converted once at this
boundary; the simulation modules work in linear scale throughout.
"""

from __future__ import annotations

import dataclasses
import hashlib
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .beams import BeamParams
from .linkbudget import HopPlan
from .propagation import PRESETS, PropagationParams, preset_params
from .seeding import DOMAIN_TOPOLOGY, derive_rng
from .topology import (Topology, central_zone, generate_topology,
                       load_topology, square)


class ConfigError(ValueError):
    """Raised for unknown keys, bad values, or violated invariants."""


def db_to_linear(x_db):
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


@dataclass(frozen=True)
class RunConfig:
    """Every tunable of a simulation run, with the standard defaults."""

    # propagation (urban preset resolved into explicit values)
    preset: str = "newyork"
    alpha_min: float = 2.3
    alpha_max: float = 4.7
    sigma_min_db: float = 6.1
    sigma_max_db: float = 12.6
    m_min: float = 1.0
    m_max: float = 2.0
    mu_per_km: float = 20.0
    d0_km: float = 0.004

    # topology and mobile placement
    topology: str = "uniform-random"    # uniform-random | grid | file
    topology_file: str = ""
    bs_count: int = 132
    extent_km: float = 2.0              # square side; 0 = infer from file
    ref_zone_km: float | None = None    # central square side; None = extent/2, 0 = full
    psi_offsets: str = "zero"           # zero | random sector offsets
    density_per_km2: float = 100.0
    r_ex_km: float = 0.004
    candidate_bs: int = 12
    shadowing_per: str = "bs"           # bs | sector

    # antennas
    zeta: int = 24
    sidelobe_bs: float = 0.01
    mobile_beamwidth_rad: float = 0.1 * np.pi
    sidelobe_mobile: float = 0.1

    # frequency hopping
    hopset_channels: int = 100
    ref_block_channels: int = 10
    sector_block_channels: int = 10
    slot_ms: float = 0.5
    activity_prob: float = 1.0

    # link budget
    beta_db: float = 3.0
    delta: float = 0.1
    p_over_n_db: float = 70.0
    k_strongest: int = 30
    dr_mode: str = "auto"               # auto | typical | realized
    dr0_km: float = 0.025
    shannon_loss: float = 0.794

    # campaign control
    trials: int = 100000
    seed: int = 1
    threads: int = 1
    cm_ratios: tuple = (0.05, 0.1, 0.2, 0.35, 0.5, 1.0)

    def __post_init__(self):
        validate_config(self)

    # --- derived views -------------------------------------------------
    @property
    def beta_linear(self) -> float:
        return float(db_to_linear(self.beta_db))

    @property
    def p_over_n_linear(self) -> float:
        return float(db_to_linear(self.p_over_n_db))

    @cached_property
    def propagation_params(self) -> PropagationParams:
        return PropagationParams(self.alpha_min, self.alpha_max,
                                 self.sigma_min_db, self.sigma_max_db,
                                 self.m_min, self.m_max,
                                 self.mu_per_km, self.d0_km)

    @cached_property
    def beam_params(self) -> BeamParams:
        return BeamParams(self.zeta, self.sidelobe_bs,
                          self.mobile_beamwidth_rad, self.sidelobe_mobile)

    @cached_property
    def hop_plan(self) -> HopPlan:
        return HopPlan(self.hopset_channels, self.ref_block_channels,
                       self.sector_block_channels, self.slot_ms,
                       self.activity_prob)

    def replace(self, **kw) -> "RunConfig":
        return dataclasses.replace(self, **kw)


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}

_INT_KEYS = {"bs_count", "candidate_bs", "zeta", "hopset_channels",
             "ref_block_channels", "sector_block_channels", "k_strongest",
             "trials", "seed", "threads"}
_STR_KEYS = {"preset", "topology", "topology_file", "psi_offsets",
             "shadowing_per", "dr_mode"}

_CHOICES = {
    "preset": set(PRESETS),
    "topology": {"uniform-random", "grid", "file"},
    "psi_offsets": {"zero", "random"},
    "shadowing_per": {"bs", "sector"},
    "dr_mode": {"auto", "typical", "realized"},
}

# closed ranges checked per key; cross-field invariants live in
# validate_config
_RANGES = {
    "delta": (0.0, 1.0, "must be in [0, 1]"),
    "activity_prob": (0.0, 1.0, "must be in [0, 1]"),
    "sidelobe_bs": (0.0, 1.0 - 1e-12, "must be in [0, 1)"),
    "sidelobe_mobile": (0.0, 1.0 - 1e-12, "must be in [0, 1)"),
    "mobile_beamwidth_rad": (1e-12, 2 * np.pi, "must be in (0, 2*pi]"),
    "shannon_loss": (1e-12, 1.0, "must be in (0, 1]"),
}
_POSITIVE = {"mu_per_km", "d0_km", "density_per_km2", "slot_ms", "dr0_km",
             "alpha_min", "alpha_max", "sigma_min_db", "sigma_max_db",
             "m_min", "m_max"}
_NONNEG = {"r_ex_km", "extent_km", "seed", "beta_db"}
_MIN_ONE = {"bs_count", "candidate_bs", "zeta", "hopset_channels",
            "ref_block_channels", "sector_block_channels", "k_strongest",
            "trials", "threads"}

_LINE_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*[:=]\s*(.*?)\s*$")


def _where(line):
    return f" (line {line})" if line else ""


def _cast(key, text, line):
    if key in _STR_KEYS:
        return text
    if key == "ref_zone_km":
        return None if text.lower() == "none" else _num(key, text, line, float)
    if key == "cm_ratios":
        try:
            return tuple(float(v) for v in text.split(",") if v.strip())
        except ValueError:
            raise ConfigError(f"{key}: expected comma-separated numbers"
                              f"{_where(line)}") from None
    return _num(key, text, line, int if key in _INT_KEYS else float)


def _num(key, text, line, typ):
    try:
        return typ(text)
    except ValueError:
        raise ConfigError(f"{key}: expected {typ.__name__} value, got "
                          f"{text!r}{_where(line)}") from None


def _check_key(key, value, line):
    where = _where(line)
    if key in _CHOICES and value not in _CHOICES[key]:
        raise ConfigError(f"{key} must be one of "
                          f"{sorted(_CHOICES[key])}{where}")
    if key in _RANGES:
        lo, hi, msg = _RANGES[key]
        if not (lo <= value <= hi):
            raise ConfigError(f"{key} {msg}{where}")
    if key in _POSITIVE and not value > 0:
        raise ConfigError(f"{key} must be positive{where}")
    if key in _NONNEG and value < 0:
        raise ConfigError(f"{key} must be non-negative{where}")
    if key in _MIN_ONE and value < 1:
        raise ConfigError(f"{key} must be >= 1{where}")
    if key == "ref_zone_km" and value is not None and value < 0:
        raise ConfigError(f"{key} must be non-negative or 'none'{where}")
    if key == "cm_ratios":
        if any(v <= 0 for v in value):
            raise ConfigError(f"cm_ratios must be positive{where}")


def _preset_keys(name) -> dict:
    """RunConfig values set by a named propagation preset."""
    p = preset_params(name)
    return dict(preset=name, alpha_min=p.alpha_min, alpha_max=p.alpha_max,
                sigma_min_db=p.sigma_min, sigma_max_db=p.sigma_max,
                m_min=p.m_min, m_max=p.m_max)


def set_key(cfg: RunConfig, key, text) -> RunConfig:
    """cfg with one key set from its text form, checked as in a config file.

    Setting preset also resets the propagation values it names.
    """
    if key not in _FIELDS:
        raise ConfigError(f"unknown key '{key}'")
    value = _cast(key, str(text), None)
    _check_key(key, value, None)
    return cfg.replace(**(_preset_keys(value) if key == "preset"
                          else {key: value}))


def parse_config_text(text, source="<config>") -> RunConfig:
    """Parse config text; omitted keys keep their defaults."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or (line.startswith("[") and line.endswith("]")):
            continue
        m = _LINE_RE.match(line)
        if not m:
            raise ConfigError(f"{source}:{lineno}: cannot parse line {raw!r}")
        key, value = m.group(1), m.group(2)
        if key not in _FIELDS:
            raise ConfigError(f"unknown key '{key}' (line {lineno})")
        if key in entries:
            raise ConfigError(f"duplicate key '{key}' (line {lineno})")
        entries[key] = (value, lineno)

    kwargs = {}
    # preset first so explicit propagation values override it regardless
    # of the order they appear in the file
    if "preset" in entries:
        text_v, line = entries["preset"]
        _check_key("preset", text_v, line)
        kwargs.update(_preset_keys(text_v))
    for key in _FIELDS:
        if key == "preset" or key not in entries:
            continue
        text_v, line = entries[key]
        value = _cast(key, text_v, line)
        _check_key(key, value, line)
        kwargs[key] = value
    return RunConfig(**kwargs)


def parse_config(path) -> RunConfig:
    """Parse a config file; an empty file yields all defaults."""
    with open(path) as fh:
        return parse_config_text(fh.read(), source=str(path))


def validate_config(cfg: RunConfig):
    """Check every key and cross-field invariant; raises ConfigError.

    RunConfig runs it on construction, which also builds (and so checks)
    the cached parameter objects every trial reuses.
    """
    for key in _FIELDS:
        _check_key(key, getattr(cfg, key), None)
    try:
        cfg.propagation_params, cfg.beam_params, cfg.hop_plan
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if cfg.topology == "file" and not cfg.topology_file:
        raise ConfigError("topology_file: missing topology source "
                          "(required when topology = file)")
    if cfg.topology != "file" and cfg.extent_km <= 0:
        raise ConfigError("extent_km must be positive (0 only infers the "
                          "extent from a topology file)")
    if cfg.ref_zone_km is not None and cfg.extent_km > 0 \
            and cfg.ref_zone_km > cfg.extent_km:
        raise ConfigError("ref_zone_km cannot exceed extent_km")


def serialize(cfg: RunConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) == cfg."""
    lines = []
    for key in _FIELDS:
        val = getattr(cfg, key)
        if val is None:
            continue
        if key == "cm_ratios":
            txt = ",".join(repr(float(v)) for v in val)
        elif isinstance(val, float):
            txt = repr(val)
        else:
            txt = str(val)
        lines.append(f"{key} = {txt}")
    return "\n".join(lines) + "\n"


def provenance_lines(cfg: RunConfig):
    """Config echo for output headers: everything that affects results.

    The seed is reported separately and the thread count cannot change
    any result, so both are left out to keep outputs byte-identical
    across execution setups.
    """
    skip = ("seed = ", "threads = ")
    return [ln for ln in serialize(cfg).splitlines()
            if not ln.startswith(skip)]


def config_sha256(cfg: RunConfig) -> str:
    return hashlib.sha256("\n".join(provenance_lines(cfg)).encode()).hexdigest()


def build_topology(cfg: RunConfig, master_seed=None) -> Topology:
    """Construct the run's Topology; deterministic given the master seed."""
    seed = cfg.seed if master_seed is None else master_seed
    rng = derive_rng(seed, DOMAIN_TOPOLOGY)
    if cfg.topology == "file":
        extent = square(cfg.extent_km) if cfg.extent_km > 0 else None
        t = load_topology(cfg.topology_file, extent=extent,
                          sectors_per_bs=cfg.zeta)
    else:
        t = generate_topology(cfg.topology, cfg.bs_count,
                              square(cfg.extent_km), rng,
                              sectors_per_bs=cfg.zeta)
    side = min(t.extent.width, t.extent.height)
    if cfg.ref_zone_km is None:
        zone = central_zone(t.extent, side / 2.0)
    elif cfg.ref_zone_km == 0:
        zone = t.extent
    else:
        if cfg.ref_zone_km > side:
            raise ConfigError("ref_zone_km exceeds the topology extent")
        zone = central_zone(t.extent, cfg.ref_zone_km)
    offsets = t.sector_offsets
    if cfg.psi_offsets == "random":
        offsets = rng.uniform(0.0, 2.0 * np.pi, size=t.n_bs)
    return dataclasses.replace(t, reference_zone=zone, sector_offsets=offsets)
