import math

import numpy as np
import pytest

from fhuplink import cli
from fhuplink.config import (ConfigError, RunConfig, build_topology,
                             config_sha256, parse_config, parse_config_text,
                             provenance_lines, serialize)


def test_empty_config_gives_defaults():
    cfg = parse_config_text("")
    assert cfg == RunConfig()
    # the standard parameter set
    assert cfg.zeta == 24
    assert cfg.hopset_channels // cfg.ref_block_channels == 10
    assert cfg.hopset_channels // cfg.sector_block_channels == 10
    assert cfg.mu_per_km == 20.0
    assert cfg.beta_db == 3.0
    assert cfg.delta == 0.1
    assert cfg.slot_ms == 0.5
    assert cfg.p_over_n_db == 70.0
    assert cfg.density_per_km2 == 100.0
    assert cfg.r_ex_km == 0.004
    assert cfg.d0_km == 0.004
    assert cfg.activity_prob == 1.0
    assert cfg.mobile_beamwidth_rad == pytest.approx(0.1 * np.pi)
    assert cfg.sidelobe_bs == 0.01 and cfg.sidelobe_mobile == 0.1
    assert cfg.dr0_km == 0.025 and cfg.k_strongest == 30


def test_delta_out_of_range_names_bounds():
    with pytest.raises(ConfigError, match=r"delta.*\[0, 1\]"):
        parse_config_text("delta: 1.5")


def test_unknown_and_duplicate_keys_report_line():
    with pytest.raises(ConfigError, match=r"unknown key 'turbo'.*line 2"):
        parse_config_text("delta = 0.2\nturbo = 5\n")
    with pytest.raises(ConfigError, match=r"duplicate key 'delta'.*line 3"):
        parse_config_text("delta = 0.2\n# fine\ndelta = 0.3\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config_text("what even is this\n")
    with pytest.raises(ConfigError, match="zeta.*int"):
        parse_config_text("zeta = many")


def test_sections_comments_and_colon_syntax():
    cfg = parse_config_text("""
[propagation]
preset: austin        # Texas measurement set
mu_per_km = 15

[link]
beta_db: 6.0
""")
    assert cfg.preset == "austin"
    assert cfg.sigma_min_db == 4.6 and cfg.sigma_max_db == 12.3
    assert cfg.alpha_max == 3.3
    assert cfg.mu_per_km == 15.0 and cfg.beta_db == 6.0


def test_preset_with_explicit_override_any_order():
    a = parse_config_text("alpha_max = 5.0\npreset = austin\n")
    b = parse_config_text("preset = austin\nalpha_max = 5.0\n")
    assert a == b
    assert a.alpha_max == 5.0 and a.alpha_min == 1.9


def test_preset_expands_on_direct_construction():
    austin = parse_config_text("preset = austin\n")
    assert RunConfig(preset="austin") == austin
    assert (austin.alpha_min, austin.alpha_max) == (1.9, 3.3)
    assert RunConfig(preset="austin", alpha_max=5.0) == \
        parse_config_text("alpha_max = 5.0\npreset = austin\n")
    with pytest.raises(ConfigError, match="preset must be one of"):
        RunConfig(preset="paris")


def test_preset_expands_on_replace():
    austin = parse_config_text("preset = austin\n")
    assert RunConfig().replace(preset="austin") == austin
    assert austin.replace(preset="newyork") == RunConfig()
    # values given with the preset win; without a preset, values stay
    assert RunConfig().replace(preset="austin", alpha_max=5.0) == \
        parse_config_text("preset = austin\nalpha_max = 5.0\n")
    assert austin.replace(delta=0.2).alpha_max == 3.3


def test_round_trip():
    cfg = parse_config_text("""
preset = austin
delta = 0.35
cm_ratios = 0.1,0.5,1
ref_zone_km = 0.75
topology = grid
bs_count = 36
trials = 123
seed = 99
""")
    again = parse_config_text(serialize(cfg))
    assert again == cfg
    assert parse_config_text(serialize(RunConfig())) == RunConfig()


def test_validation_errors():
    with pytest.raises(ConfigError, match="missing topology source"):
        parse_config_text("topology = file\n")
    with pytest.raises(ConfigError, match="divide"):
        parse_config_text("hopset_channels = 100\nref_block_channels = 7\n")
    with pytest.raises(ConfigError, match="one of"):
        parse_config_text("dr_mode = sometimes\n")
    with pytest.raises(ConfigError, match="ref_zone_km"):
        parse_config_text("ref_zone_km = 5.0\n")  # larger than the extent
    with pytest.raises(ConfigError, match="trials"):
        parse_config_text("trials = 0\n")
    with pytest.raises(ConfigError, match="k_strongest"):
        parse_config_text("k_strongest = 0\n")
    with pytest.raises(ConfigError, match=r"shannon_loss.*\(0, 1\]"):
        parse_config_text("shannon_loss = 0\n")
    # densify would write a CSV without rows, or crash on a ratio
    for ratios in (",", "0.5,inf"):
        with pytest.raises(ConfigError, match="cm_ratios"):
            parse_config_text(f"cm_ratios = {ratios}\n")


@pytest.mark.parametrize("key, value", [
    ("dr_mode", "typcial"), ("psi_offsets", "randm"), ("shannon_loss", 0.0),
    ("delta", 1.5), ("k_strongest", 0), ("extent_km", math.inf),
    ("density_per_km2", math.inf), ("r_ex_km", math.nan)])
def test_direct_run_config_is_validated(key, value):
    with pytest.raises(ConfigError) as direct:
        RunConfig(**{key: value})
    with pytest.raises(ConfigError) as from_file:
        parse_config_text(f"{key} = {value}\n")
    assert str(from_file.value) == f"{direct.value} (line 1)"


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("beta_db = 0.0\n")
    assert parse_config(path).beta_db == 0.0


def test_provenance_excludes_execution_details():
    cfg = RunConfig(seed=77, threads=8)
    lines = provenance_lines(cfg)
    joined = "\n".join(lines)
    assert "threads" not in joined and "seed" not in joined
    # hash ignores seed and threads but tracks physics parameters
    assert config_sha256(cfg) == config_sha256(RunConfig(seed=1, threads=1))
    assert config_sha256(cfg) != config_sha256(RunConfig(delta=0.2))


def test_build_topology_defaults_and_modes(tmp_path):
    cfg = RunConfig()
    t = build_topology(cfg, 7)
    assert t.n_bs == 132
    assert t.extent.area == pytest.approx(4.0)
    assert t.reference_zone.area == pytest.approx(1.0)  # central half-side
    assert t.sectors_per_bs == 24
    t2 = build_topology(cfg, 7)
    assert np.array_equal(t.bs_xy, t2.bs_xy)

    grid = build_topology(RunConfig(topology="grid", bs_count=9), 1)
    assert grid.n_bs == 9

    full = build_topology(RunConfig(ref_zone_km=0.0), 1)
    assert full.reference_zone == full.extent

    rand_psi = build_topology(RunConfig(psi_offsets="random"), 5)
    assert not np.all(rand_psi.sector_offsets == 0.0)

    # file mode round-trips through gen-topo output
    out = tmp_path / "bs.txt"
    assert cli.main(["gen-topo", "--kind", "uniform-random", "--count", "40",
                     "--extent", "1.5", "--seed", "4", "--out", str(out)]) == 0
    cfg_f = RunConfig(topology="file", topology_file=str(out), extent_km=1.5,
                      bs_count=40)
    tf = build_topology(cfg_f, 1)
    assert tf.n_bs == 40
    assert np.all(tf.extent.contains(tf.bs_xy))


SMALL_CFG = """
bs_count = 12
extent_km = 0.6
trials = 10
candidate_bs = 6
seed = 5
"""


def _write_cfg(tmp_path, text=SMALL_CFG):
    p = tmp_path / "small.cfg"
    p.write_text(text)
    return str(p)


def test_cli_campaign_deterministic(tmp_path):
    cfg = _write_cfg(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["campaign", "--config", cfg, "--seed", "7",
                     "--out", str(out1)]) == 0
    assert cli.main(["campaign", "--config", cfg, "--seed", "7",
                     "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert "# seed = 7" in text
    assert "# config_sha256 = " in text
    assert "epsilon_bar" in text
    # a different seed changes the results
    out3 = tmp_path / "c.csv"
    assert cli.main(["campaign", "--config", cfg, "--seed", "8",
                     "--out", str(out3)]) == 0
    assert out3.read_bytes() != out1.read_bytes()


def test_cli_campaign_header_reproducible(tmp_path):
    # the config echoed in the header reproduces the run
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "a.csv"
    assert cli.main(["campaign", "--config", cfg, "--seed", "7",
                     "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    echoed = [ln[len("#   "):] for ln in lines if ln.startswith("#   ")]
    cfg2 = _write_cfg(tmp_path, "\n".join(echoed) + "\n")
    out2 = tmp_path / "b.csv"
    assert cli.main(["campaign", "--config", cfg2, "--seed", "7",
                     "--out", str(out2)]) == 0
    assert out2.read_bytes() == out.read_bytes()


def test_cli_densify_rows(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "d.csv"
    assert cli.main(["densify", "--config", cfg, "--ratios", "0.5,1",
                     "--trials", "5", "--out", str(out)]) == 0
    rows = [ln for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#")]
    assert rows[0].startswith("cm_ratio,")
    assert len(rows) == 3
    assert rows[1].split(",")[0] == "0.5"


def test_cli_sweep_and_links(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--config", cfg, "--axis", "delta",
                     "--values", "0,1", "--ratios", "1", "--trials", "4",
                     "--out", str(out)]) == 0
    lines = [ln for ln in out.read_text().splitlines()
             if ln and not ln.startswith("#")]
    assert len(lines) == 3 and lines[0].startswith("axis,value,")

    out2 = tmp_path / "l.csv"
    assert cli.main(["links", "--config", cfg, "--links", "3",
                     "--beta-db", "0,6", "--out", str(out2)]) == 0
    body = [ln for ln in out2.read_text().splitlines()
            if ln and not ln.startswith("#")]
    assert len(body) == 1 + 2 * 4  # header + (3 links + average) per beta


def test_cli_validate(tmp_path, capsys):
    out = tmp_path / "v.csv"
    code = cli.main(["validate", "--profiles", "4", "--samples", "4000",
                     "--seed", "2", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "4/4 within 4 standard errors" in captured.out
    assert out.exists()


def test_cli_validate_help_says_what_each_option_does(capsys):
    with pytest.raises(SystemExit) as done:
        cli.main(["validate", "--help"])
    assert done.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--out OUT report CSV path (no CSV when omitted)" in text
    assert "--profiles PROFILES random interference profiles to check" in text
    assert "--samples SAMPLES Monte Carlo samples per profile" in text
    # validate runs in one process; --threads is kept for a command line
    # shared with the commands that run trials
    assert "--threads THREADS ignored: this command runs in one process" in text


def test_cli_parser_is_built_once_and_keeps_no_options(tmp_path, capsys,
                                                       monkeypatch):
    monkeypatch.delenv("FHUPLINK_SEED", raising=False)
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    argv = ["validate", "--profiles", "1", "--samples", "100"]
    assert cli.main(argv + ["--seed", "5", "--out", str(first)]) == 0
    built = cli.build_parser.cache_info().misses
    assert cli.main(argv + ["--out", str(second)]) == 0
    assert cli.build_parser.cache_info().misses == built
    assert "# seed = 5\n" in first.read_text()
    assert f"# seed = {RunConfig().seed}\n" in second.read_text()


def test_cli_error_reporting(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("delta = 3\n")
    assert cli.main(["campaign", "--config", str(bad)]) == 2
    assert "delta" in capsys.readouterr().err
    # integer keys take integers on a sweep axis too
    assert cli.main(["sweep", "--config", _write_cfg(tmp_path), "--axis",
                     "k_strongest", "--values", "2.5", "--ratios", "1",
                     "--trials", "1"]) == 2
    assert "k_strongest: expected int" in capsys.readouterr().err
    # a validation of no profiles would report success for a check that
    # never ran
    for n in ("0", "-3"):
        assert cli.main(["validate", "--profiles", n, "--samples", "10"]) == 2
        assert "at least one profile" in capsys.readouterr().err


@pytest.mark.parametrize("args, named", [
    ("campaign --cm 0", "0.0"),
    ("campaign --cm -1", "-1.0"),
    ("densify --ratios 0", "0.0"),
    ("densify --ratios ,", "--ratios"),
    ("sweep --axis delta --values ,", "--values"),
    ("sweep --axis cm_ratios --values 1", "cm_ratios"),
    ("sweep --axis L_over_Lj --values 3", "L_over_Lj"),
    ("extent_km=1e-300 campaign", "extent_km"),
    ("dr_mode=typical extent_km=1e200 campaign", "density_per_km2"),
    ("links --beta-db=,", "--beta-db"),
    ("FHUPLINK_SEED=abc campaign", "FHUPLINK_SEED must be an integer, got 'abc'"),
    ("FHUPLINK_THREADS=2x densify", "FHUPLINK_THREADS must be an integer, got '2x'"),
    ("FHUPLINK_THREADS=0 campaign", "FHUPLINK_THREADS=0: threads must be >= 1"),
    ("FHUPLINK_SEED=-3 campaign", "FHUPLINK_SEED=-3: seed must be non-negative"),
    # dB values whose linear value overflows or underflows
    ("beta_db=1e200 campaign", "beta_db must have a positive"),
    ("p_over_n_db=1e200 campaign", "p_over_n_db must have a positive"),
    ("p_over_n_db=-1e200 campaign", "p_over_n_db must have a positive"),
    ("beta_db=1e200 validate --profiles 1 --samples 10",
     "beta_db must have a positive")])
def test_cli_bad_input_exits_2_with_one_line(args, named, tmp_path, capsys,
                                             monkeypatch):
    # an empty list would leave a CSV without rows, so without a column line
    out = tmp_path / "out.csv"
    args = args.split()
    cfg = dict(line.split(" = ") for line in SMALL_CFG.split("\n") if line)
    # leading NAME=value words are the environment, key=value ones config
    while "=" in args[0]:
        name, value = args.pop(0).split("=", 1)
        if name.isupper():
            monkeypatch.setenv(name, value)
        else:
            cfg[name] = value
    text = "".join(f"{key} = {value}\n" for key, value in cfg.items())
    assert cli.main(args + ["--config", _write_cfg(tmp_path, text),
                            "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and named in err, err
    assert not out.exists()


@pytest.mark.parametrize("line", ["extent_km = 1e200", "density_per_km2 = 1e300"])
def test_campaign_rejects_too_many_mobiles(line, tmp_path, capsys):
    # finite inputs whose mobile count overflows an array index
    out = tmp_path / "out.csv"
    cfg = _write_cfg(tmp_path, f"bs_count = 16\n{line}\n")
    assert cli.main(["campaign", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "density_per_km2" in err, err
    assert "extent area" in err and not out.exists()


@pytest.mark.parametrize("command", [["campaign", "--cm", "0.3"],
                                     ["densify", "--trials", "2"]])
def test_cm_rescale_rejects_an_infinite_area(command, tmp_path, capsys):
    # a finite extent whose area overflows: the rescale factor would be 0
    out = tmp_path / "out.csv"
    cfg = _write_cfg(tmp_path, "bs_count = 16\nextent_km = 1e200\n")
    assert cli.main([*command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "extent_km" in err, err
    assert "area of inf km^2" in err and not out.exists()


@pytest.mark.parametrize("extent", ["inf", "0", "-2"])
def test_gen_topo_rejects_a_bad_extent(extent, tmp_path, capsys):
    out = tmp_path / "bs.txt"
    assert cli.main(["gen-topo", "--count", "3", "--extent", extent,
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "extent" in err, err
    assert not out.exists()


def test_cli_out_of_range_ratio_warns_in_one_line(tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert cli.main(["densify", "--ratios", "2", "--trials", "2", "--config",
                     _write_cfg(tmp_path), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert err.startswith("fhuplink densify: C/M ratio 2.0 outside"), err
    assert out.exists()


def test_cli_env_overrides(tmp_path, monkeypatch):
    cfg = _write_cfg(tmp_path)
    out1, out2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
    monkeypatch.setenv("FHUPLINK_SEED", "31")
    assert cli.main(["campaign", "--config", cfg, "--out", str(out1)]) == 0
    assert "# seed = 31" in out1.read_text()
    # explicit flag beats the environment
    assert cli.main(["campaign", "--config", cfg, "--seed", "32",
                     "--out", str(out2)]) == 0
    assert "# seed = 32" in out2.read_text()
