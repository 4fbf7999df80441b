"""Golden output: SHA-256 of small campaign, sweep, links and validate CSVs.

Each case runs one CLI command on the 40-BS network of acceptance
criterion 9, plus optional config lines, and compares the hash of the
whole CSV, header included, to a committed value.  A refactor that keeps behaviour keeps every hash; a
change that moves a result must re-pin the hash and state why in
CHANGES.md.
"""

import hashlib

import pytest

from fhuplink import cli

CONFIG = "bs_count = 40\nextent_km = 1.0\ntrials = 6\ncandidate_bs = 10\n"

# zeta = 1 with 50-channel blocks leaves a capacity of 2 per sector, so
# sectors overflow and association's sequential admission runs
SATURATED = "zeta = 1\nref_block_channels = 50\nsector_block_channels = 50\n"

CASES = {
    "campaign": (["campaign"],
                 "69adc525c0026329a559f66e1115cbfb635f90d1419b2e391af9e870d67ddd0c"),
    "campaign_cm": (["campaign", "--cm", "0.3"],
                    "0eb9144fc5414215bfbd4557c604eb336276f8f86e2999629b205cdbbb43b81a"),
    "densify": (["densify", "--ratios", "0.35,1"],
                "a3bfdcc3e726cba3c913ae69bbec6fd311bb4b24aba2bf198970d9b06cc188a6"),
    "sweep_delta": (["sweep", "--axis", "delta", "--values", "0,0.5",
                     "--ratios", "1", "--trials", "3"],
                    "9c8814ae165e2db5dba4491f33f74d8b1ef05ca78ed5f4d3db047fa4b2010d9b"),
    "sweep_zeta": (["sweep", "--axis", "zeta", "--values", "8,24",
                    "--ratios", "1", "--trials", "3"],
                   "65cb5cec44175904f1470047fc19bd027721bd7de607893dae726e7b83ed8604"),
    "sweep_preset": (["sweep", "--axis", "preset", "--values",
                      "newyork,austin", "--ratios", "1", "--trials", "3"],
                     "675731fed62dadac76b35cd49fbc4faf2a4e6fb4df28fd16a495a9c1f03683bc"),
    "links_cm": (["links", "--cm", "0.3", "--links", "3",
                  "--beta-db", "0,3"],
                 "1d494a870660e0991189215b5fac72c0c032c7fd2462cf37b0948fe7fcf08f2b"),
    "validate": (["validate", "--profiles", "4", "--samples", "2000"],
                 "5a6341b80a24b688934a29866e5eab56e1071c8d932ab397448d0fd3d5bb17dc"),
    "campaign_saturated": (
        ["campaign"],
        "fcaf2bcf2972a9ec5d1fb8b2f42b49c79046f3afabe6d355cfeca1b8dcd69b41",
        SATURATED),
    "campaign_sector_shadowing": (
        ["campaign"],
        "8e1df230a22734d9e7a9b4661a75c16f049d1f93664541ab9a00880e14619ee0",
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
