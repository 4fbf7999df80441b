"""Golden output: SHA-256 of small campaign, sweep, links and validate CSVs.

Each case runs one CLI command on the 40-BS network of acceptance
criterion 9, plus optional config lines, and compares the hash of the
whole CSV, header included, to a committed value.  A refactor that keeps behaviour keeps every hash; a
change that moves a result must re-pin the hash and state why in
CHANGES.md.  The hashes must not depend on the BLAS kernel the CPU
selects, so no hashed result may pass through a BLAS call.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

from fhuplink import cli

CONFIG = "bs_count = 40\nextent_km = 1.0\ntrials = 6\ncandidate_bs = 10\n"

# zeta = 1 with 50-channel blocks leaves a capacity of 2 per sector, so
# sectors overflow and association's sequential admission runs
SATURATED = "zeta = 1\nref_block_channels = 50\nsector_block_channels = 50\n"

CASES = {
    "campaign": (["campaign"],
                 "3f990e15856517048f034c64ae8fa31c2ef70a45d1060c8f527488331b93c5ce"),
    "campaign_cm": (["campaign", "--cm", "0.3"],
                    "f5a19a5ca1a4391c10764be0d1e8e1ab8797e50c1ffeca79a7bdc682261a41b1"),
    "densify": (["densify", "--ratios", "0.35,1"],
                "833197282c848113a772d53b1d368b36774e030a5f6c5ac02ac82001c2cd31c4"),
    "sweep_delta": (["sweep", "--axis", "delta", "--values", "0,0.5",
                     "--ratios", "1", "--trials", "3"],
                    "fb5281c8396d132743ad203de3c33dbeab1b30fbfafd70f85d540b4715aadbca"),
    "sweep_zeta": (["sweep", "--axis", "zeta", "--values", "8,24",
                    "--ratios", "1", "--trials", "3"],
                   "09d816002dcb7175179d732748e920af2739dab734b7d4cea9e7287e1a7a3ba3"),
    "sweep_preset": (["sweep", "--axis", "preset", "--values",
                      "newyork,austin", "--ratios", "1", "--trials", "3"],
                     "f6d7fee4c70baa071e5bf068e5e5253bdc6110f793fcf607a311fc5fad98fd95"),
    "links_cm": (["links", "--cm", "0.3", "--links", "3",
                  "--beta-db", "0,3"],
                 "ceb21f384fbe8c8ef70d28d4776e513243feb4bc904a797e05cd56568e884883"),
    "validate": (["validate", "--profiles", "4", "--samples", "2000"],
                 "fd8dc632952dd670c3bd951e070d9c11b71abdfbeabcdd5df0cf5672a83e704e"),
    "campaign_saturated": (
        ["campaign"],
        "191594e1f03a9c81e33405c44a83d71649ccf1d07b1f80886b184f2889f25fcd",
        SATURATED),
    "campaign_sector_shadowing": (
        ["campaign"],
        "81d2eb9671bca57fcc930fd0139dd1c316b60ea5cc458a95fef8dc23042166c3",
        "shadowing_per = sector\n"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_csv_hash(name, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("FHUPLINK_SEED", raising=False)
    monkeypatch.delenv("FHUPLINK_THREADS", raising=False)
    cfg_file = tmp_path / "golden.cfg"
    argv, want, *extra = CASES[name]
    cfg_file.write_text(CONFIG + "".join(extra))
    out = tmp_path / "out.csv"
    rc = cli.main(argv + ["--config", str(cfg_file), "--seed", "29",
                          "--threads", "1", "--out", str(out)])
    assert rc == 0
    got = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == want, f"{name}: CSV hash {got}"


def test_hashes_do_not_depend_on_the_blas_kernel():
    # the ten cases again in a fresh process whose OpenBLAS uses a kernel
    # without FMA, which rounds a matrix product unlike the default one
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_golden_csv_hash"],
        cwd=root, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-3000:]
