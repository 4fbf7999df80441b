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
                 "aa798ae2ab7fe598eac544532f246874731690f5d8e32a384b37b68bbd5c31ec"),
    "campaign_cm": (["campaign", "--cm", "0.3"],
                    "306bacb35f1434c9e0c7e4a032ee731366990a936fc88a42c628f7f72d955ef6"),
    "densify": (["densify", "--ratios", "0.35,1"],
                "60b12ec80b0dd40875590e27577d4126db402136392ff79623f8e1dabc478a8f"),
    "sweep_delta": (["sweep", "--axis", "delta", "--values", "0,0.5",
                     "--ratios", "1", "--trials", "3"],
                    "6031a9c2dfcb600a9541dfc00218d1c4b6a93d57e232333f59d216d34545c1b8"),
    "sweep_zeta": (["sweep", "--axis", "zeta", "--values", "8,24",
                    "--ratios", "1", "--trials", "3"],
                   "a27788d88c3c3e0fffd4fde3b329e4726832ae580414e442d811a954b90f1ca5"),
    "sweep_preset": (["sweep", "--axis", "preset", "--values",
                      "newyork,austin", "--ratios", "1", "--trials", "3"],
                     "979726fef38fd4b7bc7687ebdfb90ca25a1b56369c0d32ee77c49bc40738615d"),
    "links_cm": (["links", "--cm", "0.3", "--links", "3",
                  "--beta-db", "0,3"],
                 "b2103442634bdcaa5f0fba2d90a5c41f238289ef1731b937445a4c0166af1ae6"),
    "validate": (["validate", "--profiles", "4", "--samples", "2000"],
                 "155e07fc8a0fc8f8af015cc82d463246c60bf320a6a1cf6a3ddef184849c2d4e"),
    "campaign_saturated": (
        ["campaign"],
        "7ba36ae45b57d2a297722d73561b308a84f66425211dd43482af8467187ea244",
        SATURATED),
    "campaign_sector_shadowing": (
        ["campaign"],
        "1b9494693881c6a703f6d8f52e651b09dff7c6944a9017e0a8d810c6610941a4",
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
