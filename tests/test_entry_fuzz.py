"""Fuzz the entry points with values drawn from each key's declared domain.

A key's values come from config.DOMAINS: each choice and a near miss of
it, or each rule's bounds and their float neighbours, plus the extremes
0, 1e-300, 1e308, inf, nan and -1; a number key also draws bools and
numeric strings, which RunConfig refuses.  A key added to the declaration is
fuzzed without a test edit.  Runs stay small: the base config has 20 BSs
on a 1 km square, 3 trials and 4 sectors, a draw that would place more
than MAX_MOBILES mobiles is skipped, threads never exceeds 1 and validate
never draws more than 1,000 samples.
"""

import contextlib
import csv
import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from fhuplink import cli
from fhuplink.config import (DOMAINS, NUMBER_TYPES, ConfigError, RunConfig,
                             parse_config_text, serialize, set_key)

EXTREMES = (0.0, 1e-300, 1e308, math.inf, math.nan, -1.0)
BASE = {"bs_count": 20, "extent_km": 1.0, "trials": 3, "zeta": 4,
        "cm_ratios": (0.5, 1.0)}
MAX_MOBILES = 300
FUZZ = settings(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _unique(values):
    seen = {}
    for v in values:
        seen.setdefault((type(v), repr(v)), v)
    return list(seen.values())


def domain_values(key):
    """The fuzz values of a key, from its declared kind and rules."""
    kind, *rules = DOMAINS[key]
    if isinstance(kind, set):
        return sorted(kind) + [choice[:-1] for choice in sorted(kind)]
    if kind == "line":
        return ["bs.txt", "a b.txt", "", "a#b.txt", " a.txt", "a.txt ",
                "a\nb.txt"]
    floats = list(EXTREMES)
    for low, high, _ in rules:
        for bound in (low, high):
            if math.isfinite(bound):
                with np.errstate(over="ignore"):
                    floats += [float(np.nextafter(bound, -math.inf)),
                               float(bound), float(np.nextafter(bound, math.inf))]
    if kind == "ratios":
        return _unique([(v,) for v in floats] + [(), (0.5, 1.0)])
    floats += [True, False, "0.5", "70"]
    if kind == "int":   # integral values also as ints, a few hundred at most
        return _unique(floats + ["3"] + [int(v) for v in floats if isinstance(
            v, float) and v.is_integer() and abs(v) <= 300])
    return _unique(floats + [None] if kind == "float|none" else floats)


def text_of(value):
    """A value as written in a config file."""
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    return "none" if value is None else str(value)


PAIRS = [(key, value) for key in DOMAINS for value in domain_values(key)]


def test_the_declaration_covers_every_key_in_field_order():
    assert list(DOMAINS) == [f.name for f in dataclasses.fields(RunConfig)]


def _outcome(build):
    try:
        return build(), None
    except ConfigError as exc:
        return None, str(exc)


@pytest.mark.parametrize("key", DOMAINS)
def test_every_path_accepts_and_rejects_the_same_values(key):
    kind = DOMAINS[key][0]
    for value in domain_values(key):
        text = text_of(value)
        direct, why = _outcome(lambda: RunConfig(**{key: value}))
        if isinstance(value, str) and isinstance(kind, str) and kind in NUMBER_TYPES:
            # a str is a number only as config text, which the number covers
            name = "int" if kind == "int" else "float"
            assert why == f"{key}: expected {name} value, got {value!r}", why
            continue
        paths = [_outcome(lambda: set_key(RunConfig(), key, text))]
        # '#', a line break or white space around a text is line syntax
        if text == text.strip() and "#" not in text and len(text.splitlines()) < 2:
            paths.append(_outcome(lambda: parse_config_text(f"{key} = {text}\n")))
        for cfg, message in paths:
            assert (cfg is None) == (direct is None), (value, why, message)
            if direct is not None:
                assert cfg == direct, value
                assert parse_config_text(serialize(direct)) == direct, value
            else:
                assert key in message, (value, message)
                assert message in (why, f"{why} (line 1)"), (value, why, message)


@settings(FUZZ, max_examples=300)
@given(st.lists(st.sampled_from(PAIRS), max_size=4))
# a text that a config line reads back otherwise: '#' starts a comment
@example([("topology", "file"), ("topology_file", "a#b.txt")])
@example([("topology_file", " a.txt")])
# int keys took floats and bools, which their text form does not parse as
@example([("trials", 1.0000000000000002)])
@example([("trials", True)])
@example([("zeta", 3.0)])
def test_serialize_round_trips(pairs):
    try:
        cfg = RunConfig(**dict(pairs))
    except ConfigError:
        return
    assert parse_config_text(serialize(cfg)) == cfg


CM = [repr(v[0]) for v in domain_values("cm_ratios") if len(v) == 1] + ["2.0"]
RATIOS = [text_of(v) for v in domain_values("cm_ratios")]
COUNTS = [str(v) for v in domain_values("trials") if type(v) is int] + ["2"]
BETAS = [text_of(v) for v in domain_values("beta_db")]
AXES = [(key, text_of(v)) for key, v in PAIRS] + [
    ("L_over_Lj", v) for v in ("1", "3", "10", "0", "2.5")]
COMMANDS = st.one_of(
    st.just(["campaign"]),
    st.sampled_from(CM).map(lambda cm: ["campaign", "--cm", cm]),
    st.just(["densify"]),
    st.sampled_from(RATIOS).map(lambda r: ["densify", "--ratios", r]),
    st.tuples(st.sampled_from(AXES), st.sampled_from(["1"] + RATIOS)).map(
        lambda a: ["sweep", "--axis", a[0][0], "--values", a[0][1],
                   "--ratios", a[1]]),
    st.tuples(st.sampled_from(COUNTS), st.sampled_from(BETAS)).map(
        lambda a: ["links", "--links", a[0], "--beta-db", a[1]]),
    st.sampled_from(CM).map(lambda cm: ["links", "--links", "2", "--cm", cm]),
    st.tuples(st.sampled_from(COUNTS), st.sampled_from(COUNTS + ["1000"])).map(
        lambda a: ["validate", "--profiles", a[0], "--samples", a[1]]))
# overrides a config line can carry: a line break would make it two lines
OVERRIDES = st.lists(st.sampled_from(
    [(k, v) for k, v in PAIRS if len(text_of(v).splitlines()) < 2]),
    max_size=2, unique_by=lambda kv: kv[0])


def _option(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def _mobile_counts(argv, cfg):
    """The mobiles a realization of each of the run's points places."""
    cfgs = [cfg]
    if argv[0] == "sweep":
        cfgs = []
        for text in _option(argv, "--values").split(","):
            with contextlib.suppress(ConfigError, ValueError):
                cfgs.append(set_key(cfg, _option(argv, "--axis"), text))
    counts = []
    for c in cfgs if argv[0] != "validate" else ():
        ratios = [_option(argv, "--cm")]    # None: no rescale
        if argv[0] in ("densify", "sweep"):
            ratios = (_option(argv, "--ratios") or "").split(",") or c.cm_ratios
        with np.errstate(all="ignore"):
            counts += [np.divide(c.bs_count, float(r)) if r is not None else
                       c.density_per_km2 * np.float64(c.extent_km) ** 2
                       for r in ratios if r != ""]
    return counts


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        for name in ("FHUPLINK_SEED", "FHUPLINK_THREADS"):
            mp.delenv(name, raising=False)
        yield tmp_path_factory.mktemp("fuzz")


@settings(FUZZ, max_examples=300)
@given(COMMANDS, OVERRIDES)
# a steep path law: 10^(x/10) of a +3,000 dB sum overflowed omega, and
# alpha = 1.7e308 overflowed the path gain itself
@example(["campaign"], [("alpha_max", 400.0), ("seed", 4)])
@example(["campaign"], [("alpha_max", 1e300)])
@example(["campaign"], [("alpha_max", 1.7e308)])
# a ratio whose mobile count is out of range warned, then failed
@example(["densify", "--ratios", "1e-300"], [])
@example(["densify", "--ratios", "1e+300"], [])
# density * ratio overflowed to inf and underflowed to 0 in scale_to_cm
@example(["campaign", "--cm", "1e+308"], [])
@example(["densify"], [("density_per_km2", 5e-324)])
# mu * d overflowed for a long reference distance, and the mean of the
# typical link lengths dr0 / sqrt(C/M) overflowed
@example(["campaign"], [("d0_km", 1e308)])
@example(["densify"], [("dr0_km", 1e308)])
# 2 * slot_ms overflowed, so the period durations summed to 0
@example(["campaign"], [("slot_ms", 1e308)])
# rejections that named no key, option or value
@example(["validate", "--profiles", "0", "--samples", "1"], [])
@example(["campaign"], [("extent_km", 5e-324)])
@example(["campaign"], [("ref_zone_km", 5e-324)])
@example(["densify"], [("density_per_km2", 1e308)])
def test_commands_exit_0_or_2_with_one_line(workdir, argv, overrides):
    values = {**BASE, **dict(overrides)}
    text = "".join(f"{k} = {text_of(v)}\n" for k, v in values.items())
    with contextlib.suppress(ConfigError, ValueError):
        cfg = parse_config_text(text)
        assume(not any(MAX_MOBILES < n <= np.iinfo(np.intp).max
                       for n in _mobile_counts(argv, cfg)))
    path, out = workdir / "run.cfg", workdir / "out.csv"
    path.write_text(text)
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--config", str(path), "--out", str(out)])
    err = err.getvalue()
    assert code in (0, 2), (code, err)
    if code == 2:
        assert err.count("\n") == 1 and not out.exists(), err
        line = err.split(": ", 1)[1]
        names = [*DOMAINS, *(w.lstrip("-") for w in argv if w.startswith("--")),
                 *argv[2::2], *(text_of(v) for _, v in overrides)]
        assert any(name and name in line for name in names), err
        return
    assert "encountered" not in err, err     # numpy's floating-point warnings
    rows = list(csv.DictReader(
        ln for ln in out.read_text().splitlines() if not ln.startswith("#")))
    assert rows
    for row in rows:
        assert "nan" not in {v.lower() for v in row.values()}, row
        for col in row:
            if col.startswith("eps"):
                assert 0.0 <= float(row[col]) <= 1.0, row
