"""Run configuration: defaults, file parsing, validation, serialization.

The config file is flat human-readable text, one ``key = value`` (or
``key: value``) per line, '#' comments, optional ``[section]`` headers
that are purely cosmetic.  Keys match the RunConfig field names.
dB-valued keys stay in dB: link gains are dB sums, converted once per
interference ratio and once per SNR, and beta_db once, by beta_linear.

A RunConfig is the model's one parameter set: the propagation, beam,
hopping and link-budget functions read their values from it, and it is
the one place those values are checked, key by key (file errors name
the line) and across keys.
"""

from __future__ import annotations

import dataclasses
import hashlib
import re
from dataclasses import dataclass

import numpy as np

from .propagation import PRESETS
from .seeding import DOMAIN_TOPOLOGY, derive_rng
from .topology import (Topology, central_zone, generate_topology,
                       load_topology, square)


class ConfigError(ValueError):
    """Raised for unknown keys, bad values, or violated invariants."""


def db_to_linear(x_db):
    with np.errstate(over="ignore"):    # inf: a dB key's check rejects it
        return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


@dataclass(frozen=True)
class RunConfig:
    """Every tunable of a simulation run, with the standard defaults."""

    # propagation: the urban preset's values, unless given explicitly
    preset: str = "newyork"
    alpha_min: float | None = None
    alpha_max: float | None = None
    sigma_min_db: float | None = None
    sigma_max_db: float | None = None
    m_min: float | None = None          # Nakagami shape at long range
    m_max: float | None = None          # Nakagami shape at short range
    mu_per_km: float = 20.0             # transition rate of the tanh ramp
    d0_km: float = 0.004                # reference distance; path gain 1 there

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

    # antennas; sidelobe levels are relative to an isotropic pattern
    zeta: int = 24                      # sectors per BS
    sidelobe_bs: float = 0.01           # sector sidelobe level b
    mobile_beamwidth_rad: float = 0.1 * np.pi   # mobile mainlobe width Theta
    sidelobe_mobile: float = 0.1        # mobile sidelobe level a

    # frequency hopping, shared by the network
    hopset_channels: int = 100          # disjoint channels L in the hopset
    ref_block_channels: int = 10        # channels per reference hop, L_j
    # channels per hop in every sector, L_l; the hopping model assumes
    # hopset/block >= 2, but 1 is accepted to cover the degenerate
    # full-band assignment used in bandwidth sweeps
    sector_block_channels: int = 10
    slot_ms: float = 0.5                # hop slot T; a codeword spans two slots
    activity_prob: float = 1.0          # P(a mobile transmits in a subframe)

    # link budget
    beta_db: float = 3.0
    delta: float = 0.1
    p_over_n_db: float = 70.0
    k_strongest: int = 30
    dr_mode: str = "auto"               # auto | typical | realized
    dr0_km: float = 0.025
    shannon_loss: float = 0.794         # a 1 dB implementation loss

    # campaign control
    trials: int = 100000
    seed: int = 1
    threads: int = 1
    cm_ratios: tuple = (0.05, 0.1, 0.2, 0.35, 0.5, 1.0)

    def __post_init__(self):
        _check_key("preset", self.preset, None)
        for key, value in PRESETS[self.preset].items():
            if getattr(self, key) is None:
                object.__setattr__(self, key, value)
        validate_config(self)

    # --- derived views -------------------------------------------------
    @property
    def beta_linear(self) -> float:
        return float(db_to_linear(self.beta_db))

    @property
    def sector_capacity(self) -> int:
        """Mobiles with orthogonal patterns a sector can hold: L / L_l."""
        return self.hopset_channels // self.sector_block_channels

    @property
    def L_over_Lj(self) -> int:
        """Hopset size over reference block size, L / L_j; set_key sets it."""
        return self.hopset_channels // self.ref_block_channels

    def replace(self, **kw) -> "RunConfig":
        """A copy with kw set; a preset in kw also resets the values it
        sets that kw does not."""
        if "preset" in kw:
            kw = {**dict.fromkeys(PRESETS[self.preset]), **kw}
        return dataclasses.replace(self, **kw)


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}

# each key's type is its RunConfig annotation (a string, see __future__)
_INT_KEYS = {k for k, f in _FIELDS.items() if f.type == "int"}
_STR_KEYS = {k for k, f in _FIELDS.items() if f.type == "str"}

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
    "m_min": (0.5, np.inf, "must be >= 0.5 for a valid Nakagami shape"),
    # below 1 mm every path gain, 10*alpha*log10(d0/d), runs toward -inf dB
    "d0_km": (1e-6, np.inf, "must be at least 1e-6 (1 mm)"),
    # m0 <= m_max sets the closed form's 2*m0 terms, folded in O(m0^2) calls
    "m_max": (0.0, 100.0, "must be at most 100"),
    # omega is 10^(x/10) of shadowed gains: 8 SDs stay far below x = 3,080 dB
    "sigma_max_db": (0.0, 100.0, "must be at most 100 dB"),
}
_POSITIVE = {"mu_per_km", "d0_km", "density_per_km2", "slot_ms", "dr0_km",
             "alpha_min", "alpha_max", "sigma_min_db", "sigma_max_db",
             "m_max"}
_NONNEG = {"r_ex_km", "extent_km", "seed"}
_MIN_ONE = _INT_KEYS - {"seed"}

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
    if isinstance(value, float) and not np.isfinite(value):
        raise ConfigError(f"{key} must be finite{where}")
    if key in _CHOICES and value not in _CHOICES[key]:
        raise ConfigError(f"{key} must be one of "
                          f"{sorted(_CHOICES[key])}{where}")
    if key in _POSITIVE and not value > 0:
        raise ConfigError(f"{key} must be positive{where}")
    if key in _RANGES:
        lo, hi, msg = _RANGES[key]
        if not (lo <= value <= hi):
            raise ConfigError(f"{key} {msg}{where}")
    if key in _NONNEG and value < 0:
        raise ConfigError(f"{key} must be non-negative{where}")
    if key in ("beta_db", "p_over_n_db") and not 0 < db_to_linear(value) < np.inf:
        raise ConfigError(f"{key} must have a positive, finite linear value{where}")
    if key == "beta_db" and not -300 <= value <= 300:
        # products of beta overflow above it; gamma0's floor needs beta >= 1e-30
        raise ConfigError(f"beta_db must be at most 300 dB in magnitude{where}")
    if key in _MIN_ONE and value < 1:
        raise ConfigError(f"{key} must be >= 1{where}")
    if key == "ref_zone_km" and value is not None and value < 0:
        raise ConfigError(f"{key} must be non-negative or 'none'{where}")
    if key == "cm_ratios":
        if not value or not all(0 < v < np.inf for v in value):
            raise ConfigError(f"cm_ratios must be one or more positive, "
                              f"finite ratios{where}")


def set_key(cfg: RunConfig, key, text) -> RunConfig:
    """cfg with one key set from its text form, checked as in a config file.

    Setting preset also resets the propagation values it names.  L_over_Lj,
    not a config key, sets both block sizes to the hopset size over it.
    """
    if key == "L_over_Lj":
        ratio = int(text) if str(text).strip().isdecimal() else 0
        if ratio < 1 or cfg.hopset_channels % ratio:
            raise ConfigError(f"L_over_Lj must be an integer that divides "
                              f"hopset_channels, got {text!r}")
        block = cfg.hopset_channels // ratio
        return cfg.replace(ref_block_channels=block, sector_block_channels=block)
    if key not in _FIELDS:
        raise ConfigError(f"unknown key '{key}'")
    return cfg.replace(**{key: _cast(key, str(text), None)})


def parse_config_text(text, source="<config>") -> RunConfig:
    """Parse config text; omitted keys keep their defaults (the preset's
    values, for the propagation keys)."""
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
    for key in [k for k in _FIELDS if k in entries]:
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

    RunConfig runs it on construction.
    """
    for key in _FIELDS:
        _check_key(key, getattr(cfg, key), None)
    for low, high in (("alpha_min", "alpha_max"),
                      ("sigma_min_db", "sigma_max_db"), ("m_min", "m_max")):
        if getattr(cfg, low) > getattr(cfg, high):
            raise ConfigError(f"{low} cannot exceed {high}")
    for key in ("ref_block_channels", "sector_block_channels"):
        if cfg.hopset_channels % getattr(cfg, key):
            raise ConfigError(f"{key} must divide hopset_channels")
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
