"""Run configuration: defaults, file parsing, validation, serialization.

The config file is flat human-readable text, one ``key = value`` (or
``key: value``) per line, '#' comments, optional ``[section]`` headers
that are purely cosmetic.  Keys match the RunConfig field names.
dB-valued keys stay in dB: link gains are dB sums, converted once per
interference ratio and once per SNR, and beta_db once, by beta_linear.

A RunConfig is the model's one parameter set: the propagation, beam,
hopping and link-budget functions read their values from it.  It is the
one place they are checked: each key against its one declaration in
DOMAINS, a kind and ordered (low, high, message) rules (file errors name
the line), then across keys.
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


# Each key's domain, declared once and in field order: its kind, then the
# rules (low, high, message) it must meet, in order, closed at both ends.
# A str key's kind is the set of its choices; a "line" is text that a config
# line carries unchanged; a "dB" value's linear value is positive and finite.
POSITIVE = (np.nextafter(0.0, 1.0), np.inf, "must be positive")
NON_NEGATIVE = (0.0, np.inf, "must be non-negative")
COUNT = ("int", (1, np.inf, "must be >= 1"))
PROBABILITY = ("float", (0.0, 1.0, "must be in [0, 1]"))
SIDELOBE = ("float", (0.0, 1.0 - 1e-12, "must be in [0, 1)"))
# a path gain, 10*alpha*log10(d0/d), and a sum of three stay finite, as
# log10(d/d0) < 315 for any float d and d0 >= 1e-6 km
ALPHA = ("float", POSITIVE, (0.0, 1e300, "must be at most 1e300"))
DOMAINS = {
    "preset": (set(PRESETS),), "alpha_min": ALPHA, "alpha_max": ALPHA,
    "sigma_min_db": ("float", POSITIVE),
    # omega is 10^(x/10) of shadowed gains: 8 SDs stay far below x = 3,080 dB
    "sigma_max_db": ("float", POSITIVE, (0.0, 100.0, "must be at most 100 dB")),
    "m_min": ("float", (0.5, np.inf, "must be >= 0.5 for a valid Nakagami shape")),
    # m0 <= m_max sets the closed form's 2*m0 terms, folded in O(m0^2) calls
    "m_max": ("float", POSITIVE, (0.0, 100.0, "must be at most 100")),
    "mu_per_km": ("float", POSITIVE),
    # below 1 mm every path gain, 10*alpha*log10(d0/d), runs toward -inf dB
    "d0_km": ("float", POSITIVE, (1e-6, np.inf, "must be at least 1e-6 (1 mm)")),
    "topology": ({"uniform-random", "grid", "file"},), "topology_file": ("line",),
    "bs_count": COUNT, "extent_km": ("float", NON_NEGATIVE),
    "ref_zone_km": ("float|none", (0.0, np.inf, "must be non-negative or 'none'")),
    "psi_offsets": ({"zero", "random"},), "density_per_km2": ("float", POSITIVE),
    "r_ex_km": ("float", NON_NEGATIVE), "candidate_bs": COUNT,
    "shadowing_per": ({"bs", "sector"},), "zeta": COUNT, "sidelobe_bs": SIDELOBE,
    "mobile_beamwidth_rad": ("float", (1e-12, 2 * np.pi, "must be in (0, 2*pi]")),
    "sidelobe_mobile": SIDELOBE, "hopset_channels": COUNT,
    "ref_block_channels": COUNT, "sector_block_channels": COUNT,
    "slot_ms": ("float", POSITIVE), "activity_prob": PROBABILITY,
    # products of beta overflow above it; gamma0's floor needs beta >= 1e-30
    "beta_db": ("dB", (-300.0, 300.0, "must be at most 300 dB in magnitude")),
    "delta": PROBABILITY, "p_over_n_db": ("dB",), "k_strongest": COUNT,
    "dr_mode": ({"auto", "typical", "realized"},),
    # dr0/sqrt(C/M) and a run's mean of it stay finite: C/M >= 2^-63 (mobiles < 2^63)
    "dr0_km": ("float", POSITIVE, (0.0, 1e200, "must be at most 1e200")),
    "shannon_loss": ("float", (1e-12, 1.0, "must be in (0, 1]")),
    "trials": COUNT, "seed": ("int", NON_NEGATIVE), "threads": COUNT,
    "cm_ratios": ("ratios", (POSITIVE[0], np.finfo(float).max,
                             "must be one or more positive, finite ratios")),
}

# the types a numeric kind takes in a RunConfig: a bool is an int to
# Python, and a str is text for the parser, so neither is a number here
NUMBER_TYPES = {"int": (int, np.integer),
                **dict.fromkeys(("float", "dB", "float|none"),
                                (int, float, np.integer, np.floating))}

_LINE_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*[:=]\s*(.*?)\s*$")


def _error(message, line):
    return ConfigError(message + (f" (line {line})" if line else ""))


def _cast(key, text, line):
    kind = DOMAINS[key][0]
    if isinstance(kind, set) or kind == "line":
        return text
    if kind == "float|none" and text.lower() == "none":
        return None
    try:
        if kind == "ratios":
            return tuple(float(v) for v in text.split(",") if v.strip())
        return int(text) if kind == "int" else float(text)
    except ValueError:
        what = "comma-separated numbers" if kind == "ratios" else \
            f"{'int' if kind == 'int' else 'float'} value, got {text!r}"
        raise _error(f"{key}: expected {what}", line) from None


def _check_key(key, value, line):
    kind, *rules = DOMAINS[key]
    number = NUMBER_TYPES.get(kind) if isinstance(kind, str) else None
    if number and not (value is None and kind == "float|none") and (
            isinstance(value, bool) or not isinstance(value, number)):
        raise _error(f"{key}: expected {'int' if kind == 'int' else 'float'} "
                     f"value, got {str(value)!r}", line)
    if isinstance(value, float) and not np.isfinite(value):
        raise _error(f"{key} must be finite", line)
    if isinstance(kind, set) and value not in kind:
        raise _error(f"{key} must be one of {sorted(kind)}", line)
    if kind == "line" and ("#" in (text := str(value)) or text != text.strip()
                           or len(text.splitlines()) > 1):
        raise _error(f"{key} must be one line, without '#' or white space "
                     "around it", line)
    if kind == "dB" and not 0 < db_to_linear(value) < np.inf:
        raise _error(f"{key} must have a positive, finite linear value", line)
    if value is None and kind == "float|none":
        return
    values = value if kind == "ratios" else (value,)
    for low, high, message in rules:    # an empty ratio list meets no rule
        if not (len(values) and all(low <= v <= high for v in values)):
            raise _error(f"{key} {message}", line)


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
    if key not in DOMAINS:
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
        if key not in DOMAINS:
            raise ConfigError(f"unknown key '{key}' (line {lineno})")
        if key in entries:
            raise ConfigError(f"duplicate key '{key}' (line {lineno})")
        entries[key] = (value, lineno)

    kwargs = {}
    for key in [k for k in DOMAINS if k in entries]:
        kwargs[key] = _cast(key, *entries[key])
        _check_key(key, kwargs[key], entries[key][1])
    return RunConfig(**kwargs)


def parse_config(path) -> RunConfig:
    """Parse a config file; an empty file yields all defaults."""
    with open(path) as fh:
        return parse_config_text(fh.read(), source=str(path))


def validate_config(cfg: RunConfig):
    """Check every key and cross-field invariant; raises ConfigError.

    RunConfig runs it on construction.
    """
    for key in DOMAINS:
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
    for key, (kind, *_) in DOMAINS.items():
        val = getattr(cfg, key)
        if kind == "ratios":
            val = ",".join(repr(float(v)) for v in val)
        if val is not None:
            lines.append(f"{key} = {val}")
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
