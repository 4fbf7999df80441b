"""Golden output: SHA-256 of small campaign, sweep, links and validate CSVs.

Each case runs one CLI command on the 40-BS network of acceptance
criterion 9, plus optional config lines, and compares the hash of the
whole CSV, header included, to a committed value.  A refactor that keeps behaviour keeps every hash; a
change that moves a result must re-pin the hash and state why in
CHANGES.md.  The hashes must not depend on the BLAS kernel the CPU
selects, so no hashed result may pass through a BLAS call.  They do
depend on numpy's SIMD dispatch level: its AVX2 (X86_V3) loops round
exp, log, log10, power and arctan2 unlike its AVX-512 ones in the last
bit, so each level has its own exact set.  tests/golden/ holds the
CSVs of the default set; a hash that fails is shown as a cell diff
against them.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from numpy._core._multiarray_umath import (__cpu_baseline__, __cpu_dispatch__,
                                           __cpu_features__)

from fhuplink import cli

CONFIG = "bs_count = 40\nextent_km = 1.0\ntrials = 6\ncandidate_bs = 10\n"

# zeta = 1 with 50-channel blocks leaves a capacity of 2 per sector, so
# sectors overflow and association's sequential admission runs
SATURATED = "zeta = 1\nref_block_channels = 50\nsector_block_channels = 50\n"

CASES = {
    "campaign": (["campaign"],
                 "eda91b9ba16ae09f9ea62e53d77ece2f1520d803eeda8547c9039d58e967b86e"),
    "campaign_cm": (["campaign", "--cm", "0.3"],
                    "4ec4b2c4c7fd2550a6bd7a11dccc00046f15b2e05bbc9d9d7c7f8445683af06d"),
    "densify": (["densify", "--ratios", "0.35,1"],
                "8b5be3718f9f4689673785bd4ba268bdff35d7644ef5ec220c1a178e42cf5105"),
    "sweep_delta": (["sweep", "--axis", "delta", "--values", "0,0.5",
                     "--ratios", "1", "--trials", "3"],
                    "3547bc4ed8ad967a3f6c42ceac6da5a0a6e604f1cffab025b3f1d403add54d01"),
    "sweep_zeta": (["sweep", "--axis", "zeta", "--values", "8,24",
                    "--ratios", "1", "--trials", "3"],
                   "acd1a250783151697a9f9df7181a494674fb70ec9c8f462fc6741dd325210853"),
    "sweep_preset": (["sweep", "--axis", "preset", "--values",
                      "newyork,austin", "--ratios", "1", "--trials", "3"],
                     "0dd46c59cc3b700138c3314c1cc19ef2b718f5e9f160a58f5f0f0762ab11e513"),
    "links_cm": (["links", "--cm", "0.3", "--links", "3",
                  "--beta-db", "0,3"],
                 "ec9374829c1775e459ade0bd0b05383b8ea970b5fee03149c0aa2cbd0f3a0b3b"),
    "validate": (["validate", "--profiles", "4", "--samples", "2000"],
                 "84c96998ac7e13dd56f65c73566a2b3cbc443a138d1fcbdafb635c7a6c00e1d7"),
    "campaign_saturated": (
        ["campaign"],
        "191594e1f03a9c81e33405c44a83d71649ccf1d07b1f80886b184f2889f25fcd",
        SATURATED),
    "campaign_sector_shadowing": (
        ["campaign"],
        "fe74b0cc362ccab9ea97751bbfdb33b0ca1d1f450a17dd70a412fc4ac11cd24c",
        "shadowing_per = sector\n"),
    # the one case whose sector wedges do not start at angle 0
    "campaign_random_offsets": (
        ["campaign"],
        "ef5edd2edb099efe2e4acf71534694d1893f23e5bd4a83a98bde7334a8366b7a",
        "psi_offsets = random\n"),
    "sweep_beta_db": (["sweep", "--axis", "beta_db", "--values", "0,6",
                       "--ratios", "1", "--trials", "3"],
                      "a03cbf833ccacfe8e0ed4abb162cea0a1eeb783fca8a10c2e3ad6b4225a4ffae"),
    "sweep_p_over_n_db": (["sweep", "--axis", "p_over_n_db", "--values",
                           "40,70", "--ratios", "0.35", "--trials", "3"],
                          "5af7a08a43b1a8ee1926794996fb785a1872028eccb1029091f0ed1feae7ca0e"),
    # no --ratios: the ratios come from cfg.cm_ratios
    "densify_default_ratios": (
        ["densify"],
        "a5f6fc02666480f88b552353821e78f89639806bf8f27c061f92d72c33286ca9"),
    "links": (["links", "--links", "3", "--beta-db", "0,3"],
              "4aa4b2198a2a902fc1febc72511648b7c913ba60962b37df8aeef92b9e0cb5f5"),
    "sweep_l_over_lj": (["sweep", "--axis", "L_over_Lj", "--values", "1,10",
                         "--ratios", "1", "--trials", "3"],
                        "1a429bd1a588101592ddfdbe51f570146ee341986a73c721c483d58ba1ae4777"),
}

# the same cases at numpy's X86_V3 dispatch, pinned from the code the
# default set was pinned on
X86_V3 = {
    "campaign": "ca00db7a6c680fe3c72cf429f6ab6f229d0b99ac4e43fcc3c0c0c4116c90f45e",
    "campaign_cm": "4ec4b2c4c7fd2550a6bd7a11dccc00046f15b2e05bbc9d9d7c7f8445683af06d",
    "campaign_random_offsets": "747a6978da22e09c52d656843de5f4387e7a118a35200c67f53b3a814b760264",
    "campaign_saturated": "251ad5f4b2ad51ba431c519bbf7f160f402a545ac64d4dd149929d19b999656d",
    "campaign_sector_shadowing": "aa592b700af3bac371d573246cbd0b1cf341e8dfa290fb4e9ab3887b87709282",
    "densify": "13cfc6de0595a2eeda4b1d4240c8bab9f5fbc17081c681f657f939ad4de286b5",
    "densify_default_ratios": "0b15cb6d7e20de5e6fa3e744166ef65e5ac4a80615394501acb42fe255c6502f",
    "links": "d53cc341abc05d71cf1ba58c6cdeeb0d9e9d7b99a8d4fa929a70a3de8db755d0",
    "links_cm": "62c898549eabe11479363996b362e3d95ca5f40d7f54b310b6a25c737b940f17",
    "sweep_beta_db": "558e2b6ffe785685bd77ba6e71bf98f79c6947e53b856d8f04143345434e99e5",
    "sweep_delta": "d61ec65fbf3526c327515196beb0f72c5f9eb42f78d370ac77d8502773b5ded3",
    "sweep_l_over_lj": "935a542b4edf67d3a3a02eeba415fb64456fbaf419ffb1affbc07e2d06a6b5f3",
    "sweep_p_over_n_db": "d44ade2f442aad63e862195ca1038bd76a5b0f94ba2c4b5a405c4a73bb8e411f",
    "sweep_preset": "95ad9f432f8df28f18a499e261a495e45830320b61044bfbfc42e89379a2cdae",
    "sweep_zeta": "5a2741ea8ab82e9740a810758513d788df5d0bda1103bae77393d153cd6cd868",
    "validate": "378e6530f68ac386d31db6c5d685c8d2a6901650c723b75a0b0dea1eca5735e4",
}

# the highest dispatch target numpy runs at in this process
LEVEL = (__cpu_baseline__
         + [t for t in __cpu_dispatch__ if __cpu_features__.get(t)])[-1]
PINNED = {"AVX512_SPR": {name: case[1] for name, case in CASES.items()},
          "X86_V3": X86_V3}

GOLDEN = pathlib.Path(__file__).with_name("golden")


def _cell(text):
    """A CSV cell as int, float or str, whichever parses first."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _cell_diff(got, want):
    """The cells that differ between two CSV texts: every integer and
    text cell, and the float cell with the largest relative change.  A
    comment line is one text cell; data cells are named by the column
    line."""
    moved, worst, columns = [], None, None
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for n, (g_line, w_line) in enumerate(zip(got_lines, want_lines), start=1):
        if w_line.startswith("#") or columns is None:
            columns = None if w_line.startswith("#") else w_line.split(",")
            pairs = [("line", g_line, w_line)]
        else:
            pairs = list(zip(columns, g_line.split(","), w_line.split(",")))
            if g_line.count(",") != w_line.count(","):
                pairs = [("row", g_line, w_line)]
        for column, g, w in pairs:
            if g == w:
                continue
            g_cell, w_cell = _cell(g), _cell(w)
            if isinstance(g_cell, float) and isinstance(w_cell, float):
                rel = abs(g_cell - w_cell) / abs(w_cell) if w_cell else np.inf
                if worst is None or not rel <= worst[0]:
                    worst = (rel, f"line {n} {column}: {g} against {w}")
            else:
                moved.append(f"line {n} {column}: {g!r} against {w!r}")
    report = [f"{len(moved)} integer or text cells moved"] + moved[:20]
    if not moved and worst is None:
        report = ["no cell differs"]
    if len(got_lines) != len(want_lines):
        report.insert(0, f"{len(got_lines)} lines, want {len(want_lines)}")
    if worst is not None:
        report.append(f"largest relative float change {worst[0]:.3g}, "
                      f"{worst[1]}")
    return "\n".join(report)


def _golden_run(env_update):
    # every case again in a fresh process with env_update in its environment
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, **env_update)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    # one line per failing case, naming it and its hash, so that one run
    # gives a whole re-pin
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--tb=line", f"{__file__}::test_golden_csv_hash"],
        cwd=root, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_csv_hash(name, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("FHUPLINK_SEED", raising=False)
    monkeypatch.delenv("FHUPLINK_THREADS", raising=False)
    cfg_file = tmp_path / "golden.cfg"
    argv, _, *extra = CASES[name]
    cfg_file.write_text(CONFIG + "".join(extra))
    out = tmp_path / "out.csv"
    rc = cli.main(argv + ["--config", str(cfg_file), "--seed", "29",
                          "--threads", "1", "--out", str(out)])
    assert rc == 0
    got = hashlib.sha256(out.read_bytes()).hexdigest()
    if got != PINNED.get(LEVEL, {}).get(name):
        why = (f"CSV hash {got}" if LEVEL in PINNED else
               f"no golden hashes pinned for numpy {np.__version__}")
        pytest.fail(f"{name}: {why} at dispatch level {LEVEL}; {out} against "
                    f"tests/golden/{name}.csv:\n" + _cell_diff(
                        out.read_text(), (GOLDEN / f"{name}.csv").read_text()))


def test_golden_csvs_are_the_default_pinned_outputs():
    for name, case in CASES.items():
        data = (GOLDEN / f"{name}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == case[1], name


def test_cell_diff_names_what_moved():
    want = "# seed = 29\na,n,x\nrun,3,1.0\nrun,4,2.0\n"
    got = "# seed = 30\na,n,x\nrun,3,1.5\nrun,5,2.0000001\n"
    report = _cell_diff(got, want).splitlines()
    assert report[0] == "2 integer or text cells moved"
    assert report[1] == "line 1 line: '# seed = 30' against '# seed = 29'"
    assert report[2] == "line 4 n: '5' against '4'"
    assert report[3] == "largest relative float change 0.5, line 3 x: 1.5 against 1.0"


def test_hashes_do_not_depend_on_the_blas_kernel():
    # an OpenBLAS kernel without FMA rounds a matrix product unlike the
    # default one
    _golden_run({"OPENBLAS_CORETYPE": "Prescott"})


def test_hashes_at_the_x86_v3_dispatch_level():
    # numpy's AVX2 ufunc loops, as on a CPU without AVX-512
    if not __cpu_features__.get("X86_V3"):
        pytest.skip("the CPU lacks X86_V3")
    _golden_run({"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"})
