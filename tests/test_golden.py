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
                 "b5e2b9a3e9020bc1afc1bb7dea91e071def9ee897f4a64c66e54aff498524ecb"),
    "campaign_cm": (["campaign", "--cm", "0.3"],
                    "1446b394fa157ffc93e7fc77521a4810b28dfe3efca15ec6e2d6f3e6c66d13d3"),
    "densify": (["densify", "--ratios", "0.35,1"],
                "8d3116613a3afaafbd425081a196d1a46062786cc531e3ce2cbcb9a945b6726e"),
    "sweep_delta": (["sweep", "--axis", "delta", "--values", "0,0.5",
                     "--ratios", "1", "--trials", "3"],
                    "800ef65c52e6a79ac5adea0fe057be8e0365105bf754b43e9d0b918ffc52a9d1"),
    "sweep_zeta": (["sweep", "--axis", "zeta", "--values", "8,24",
                    "--ratios", "1", "--trials", "3"],
                   "106383d74e74186a1c80a90703dc89eaf007cac3aebe49b68d865c2db6189624"),
    "sweep_preset": (["sweep", "--axis", "preset", "--values",
                      "newyork,austin", "--ratios", "1", "--trials", "3"],
                     "fab254b30ff77dfe63018b76cebde6d5abdb19744714b15cf42963df0c3d246d"),
    "links_cm": (["links", "--cm", "0.3", "--links", "3",
                  "--beta-db", "0,3"],
                 "fa92c00468e04de7aa146bd9ab175fcd9726cebb49ab7ad7944cb932f08ae391"),
    "validate": (["validate", "--profiles", "4", "--samples", "2000"],
                 "84c96998ac7e13dd56f65c73566a2b3cbc443a138d1fcbdafb635c7a6c00e1d7"),
    "campaign_saturated": (
        ["campaign"],
        "2751338c243ba635dad528a5cb1dd40d9948b803122ffd1d27b33a9e18b49b3f",
        SATURATED),
    "campaign_sector_shadowing": (
        ["campaign"],
        "570474fff7b72c214ff7ace8c20d9d8d8d143d1d97378fcd9f1cfb8dc6aabbb1",
        "shadowing_per = sector\n"),
    # the one case whose sector wedges do not start at angle 0
    "campaign_random_offsets": (
        ["campaign"],
        "cf71ed62fe4a48a8b5df9d79e8254912d4cb61e31a2375b3498a41f3919bbffa",
        "psi_offsets = random\n"),
    "sweep_beta_db": (["sweep", "--axis", "beta_db", "--values", "0,6",
                       "--ratios", "1", "--trials", "3"],
                      "a03cbf833ccacfe8e0ed4abb162cea0a1eeb783fca8a10c2e3ad6b4225a4ffae"),
    "sweep_p_over_n_db": (["sweep", "--axis", "p_over_n_db", "--values",
                           "40,70", "--ratios", "0.35", "--trials", "3"],
                          "fb15130c88e63c39cf60f266af32f8454abc376242e40c4b53e388f17c80c8e6"),
    # no --ratios: the ratios come from cfg.cm_ratios
    "densify_default_ratios": (
        ["densify"],
        "e73d43bc4363d92c38ae90b925c34820cf9f76721a0b80d6077e231d60c21566"),
    "links": (["links", "--links", "3", "--beta-db", "0,3"],
              "a9bd84ad376af46c953f1b331881ed0523deef50f1046bb645c62ec725b15cdc"),
    "sweep_l_over_lj": (["sweep", "--axis", "L_over_Lj", "--values", "1,10",
                         "--ratios", "1", "--trials", "3"],
                        "80f35c744fc82ae20ffc2e7275152adfe0f59132b3be361834156f913e563144"),
}

# the same cases at numpy's X86_V3 dispatch, pinned from the code the
# default set was pinned on
X86_V3 = {
    "campaign": "ed56e18a8263df620c74eda6ad88ea41a73fef210413e1156bf98aed1eae5978",
    "campaign_cm": "1446b394fa157ffc93e7fc77521a4810b28dfe3efca15ec6e2d6f3e6c66d13d3",
    "campaign_random_offsets": "4dce5937e5dc69ade77e6d07ba893b11a73cb15dd84d10f0744d58e5e74f2e5b",
    "campaign_saturated": "2b6c3c7d9ebca682b71e93e8b33352dadd7ec74361c02880bd62bcd45bf44404",
    "campaign_sector_shadowing": "968e1dec031bf2caa85405982c17dcb1caa8a97c8f3a7882a666aefc73b96920",
    "densify": "8d4eb308d2ab32ba4c93d94c3c8496e57e6d176ec71cc379ea89aaa21b52411e",
    "densify_default_ratios": "03cceb82c6dd480f75f575f25984f961ee05780c0e1ff86babf7a8679dac1e82",
    "links": "a434e26f52f05e1362eca41a58bd58ea45444ab94b949e0c2e72147a6a485312",
    "links_cm": "ee9b94dbce4ba762dd0b8cd20ca274f367c1829e6ae7a4b978b45dc60c95ed61",
    "sweep_beta_db": "558e2b6ffe785685bd77ba6e71bf98f79c6947e53b856d8f04143345434e99e5",
    "sweep_delta": "bd1ed152696357369c447ed4d608baeac469a490f492fd5dbf0e6e2bd14cdf32",
    "sweep_l_over_lj": "10561b55570fa1457ac4000c85cca01e6b277dd1cbaa11980de5779591cc5dfb",
    "sweep_p_over_n_db": "ad3c1b55419bdbc993a481df2f50ab3c036598219b936da3ff1ddc887d56a338",
    "sweep_preset": "01c89b57cf49ed6d9834a89ed39dc389b4311ffc0ee797bfc2250d329b04d909",
    "sweep_zeta": "64369b9111217e7054f6be2dc4563db7d63efdbdca426541dd20f29209b574f3",
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
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_golden_csv_hash"],
        cwd=root, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-3000:]


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
