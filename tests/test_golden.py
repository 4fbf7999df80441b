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
                 "4424439de71d0a38199d9d47d517aefd3d290e2d29c1a07e3633f27404bdf186"),
    "campaign_cm": (["campaign", "--cm", "0.3"],
                    "66969b8a684ec5b15380086c13b839820b974acd0573816c138fa900bbbddba9"),
    "densify": (["densify", "--ratios", "0.35,1"],
                "49ba5b9b281b0d8d80af209fb28e3cdced6cec528840c338a3c5c9a1cc99d602"),
    "sweep_delta": (["sweep", "--axis", "delta", "--values", "0,0.5",
                     "--ratios", "1", "--trials", "3"],
                    "4231b2d6bc4db0968a54c4805ba1e2c8389dad9c7dd493ad0fa9c20a7c554497"),
    "sweep_zeta": (["sweep", "--axis", "zeta", "--values", "8,24",
                    "--ratios", "1", "--trials", "3"],
                   "2301521d49d2c7642a7d489647c8e12c04c42466e74ec0453ffdb9d191113b99"),
    "sweep_preset": (["sweep", "--axis", "preset", "--values",
                      "newyork,austin", "--ratios", "1", "--trials", "3"],
                     "4bd4a036398ac42c2313708831ddaf3f15dddc9107df0f6b38ad583065c24344"),
    "links_cm": (["links", "--cm", "0.3", "--links", "3",
                  "--beta-db", "0,3"],
                 "ec9374829c1775e459ade0bd0b05383b8ea970b5fee03149c0aa2cbd0f3a0b3b"),
    "validate": (["validate", "--profiles", "4", "--samples", "2000"],
                 "84c96998ac7e13dd56f65c73566a2b3cbc443a138d1fcbdafb635c7a6c00e1d7"),
    "campaign_saturated": (
        ["campaign"],
        "a25f74a9f6b2a64411dbcc6901e7617f9ff889e3e888137ca74c842b614c203a",
        SATURATED),
    "campaign_sector_shadowing": (
        ["campaign"],
        "249e1b856f15e285e76843afcc3e76f361306874003a4c729c308f2676369138",
        "shadowing_per = sector\n"),
    # the one case whose sector wedges do not start at angle 0
    "campaign_random_offsets": (
        ["campaign"],
        "7ea39c8c7b72d3a3bbe0a1414cf5d527b378ce8c9b43751c07826d1d7a56bcdb",
        "psi_offsets = random\n"),
    "sweep_beta_db": (["sweep", "--axis", "beta_db", "--values", "0,6",
                       "--ratios", "1", "--trials", "3"],
                      "b2749c6fd3fa1b9988fc144d6444414a5820ffee17349fb3f573f9632045dd6f"),
    "sweep_p_over_n_db": (["sweep", "--axis", "p_over_n_db", "--values",
                           "40,70", "--ratios", "0.35", "--trials", "3"],
                          "3c1d45aebbe84b3bf4d1ef19aee402ca4069056269453bd69c71444fcd824a2d"),
    # no --ratios: the ratios come from cfg.cm_ratios
    "densify_default_ratios": (
        ["densify"],
        "00185cefd7b0f01d6326fccef0b9620c7519adea824780d8eda4883168263f11"),
    "links": (["links", "--links", "3", "--beta-db", "0,3"],
              "4aa4b2198a2a902fc1febc72511648b7c913ba60962b37df8aeef92b9e0cb5f5"),
    "sweep_l_over_lj": (["sweep", "--axis", "L_over_Lj", "--values", "1,10",
                         "--ratios", "1", "--trials", "3"],
                        "a58372c5815a4b44f35ba4a036e24eb985f6587f0ab808e2c94a9ad83147f75c"),
}

# the same cases at numpy's X86_V3 dispatch, pinned from the code the
# default set was pinned on
X86_V3 = {
    "campaign": "d69a4cc332dba01b0bc5bbae0a57a0e101a7aad86f85a1d1521b484d48d92920",
    "campaign_cm": "aa3fd9172f42947c0e5a53fcfbfca044e9a0e3b54b05782b47358e9fe7a45ba2",
    "campaign_random_offsets": "826e410be1c84b16da6dac87c3fd20f65c09c178ac9668061c112de9cdc6b133",
    "campaign_saturated": "261d4ce791fa8c08aadc7176a49b3be8140bd11330383f5bbaabd36c1b733a87",
    "campaign_sector_shadowing": "249e1b856f15e285e76843afcc3e76f361306874003a4c729c308f2676369138",
    "densify": "66e5e64ed740c97e4ea139c481cf87b7f6259d7f46feebfb20aab290cd69c46b",
    "densify_default_ratios": "cf25b32d179d2e8514722e1199134d40f5ee3488144987ff21a2d12a53aeebc0",
    "links": "d53cc341abc05d71cf1ba58c6cdeeb0d9e9d7b99a8d4fa929a70a3de8db755d0",
    "links_cm": "62c898549eabe11479363996b362e3d95ca5f40d7f54b310b6a25c737b940f17",
    "sweep_beta_db": "c83221b374fdadc1bbcb466b037e357c37cee149eadd2c4971f1a7b238fc393f",
    "sweep_delta": "c1763c487ff9a4ffcca9c8cf54b086b579ceb5d254f5798413b106d6f02d4e95",
    "sweep_l_over_lj": "034de8e0d4e082a8130e942640496fcab9e3e101b53cb0ff9eec7d6ae1170cf1",
    "sweep_p_over_n_db": "e3d0f94a12292ade1b30b5702f35dafc20b9583e9d4f520511b4648ce942e171",
    "sweep_preset": "5ea5bec2510c54fe592784e5dd3f8700d2ab29e9f879acce492c3c2ff9a0a094",
    "sweep_zeta": "8155772427b7e02f7b329c00de7760063a8a07f1f6f34ce4ce98b68e243dc8c7",
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
