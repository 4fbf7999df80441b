"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

The campaign-level criteria run on a 132-BS uniform-random surrogate over
4 km^2 (the measured deployment behind the published curves is not
redistributable) with the standard parameter set and 2000 trials per
point; statistical gates use the campaigns' own standard errors.  Run
with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats as sstats

from fhuplink import cli
from fhuplink.config import RunConfig, build_topology, serialize
from fhuplink.experiments import densification_sweep
from fhuplink.linkbudget import InterferenceProfile, empty_profile
from fhuplink.outage import h_t_all, outage_closed_form
from fhuplink.propagation import sample_power_gain
from oracles import h_t_enumeration, noise_only_outage

BASE = RunConfig(trials=2000, seed=29, threads=2)
RATIOS = (0.05, 0.1, 0.2, 0.35, 0.5, 1.0)

_cache = {}


def _point(cfg, ratio):
    """One densification point, cached across criteria."""
    key = (serialize(cfg), ratio)
    if key not in _cache:
        topo = build_topology(cfg, cfg.seed)
        _cache[key] = densification_sweep(topo, cfg, ratios=[ratio])[0]
    return _cache[key]


def _se(row):
    return row["halfwidth95"] / 1.96


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def densify_rows():
    start = time.monotonic()
    topo = build_topology(BASE, BASE.seed)
    rows = densification_sweep(topo, BASE, ratios=RATIOS)
    return rows, time.monotonic() - start


def test_criterion_1_closed_form_oracle_equivalence(capsys):
    start = time.monotonic()
    rc = cli.main(["validate", "--profiles", "50", "--samples", "100000",
                   "--seed", str(BASE.seed)])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    with capsys.disabled():
        _report(1, rc == 0 and "50/50 within 4 standard errors" in out
                and elapsed < 60.0,
                f"validate 50 profiles at 1e5 samples in {elapsed:.1f} s "
                f"(< 60 s), exit {rc}")


def test_criterion_2_h_t_combinatorial_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(12):
        n_pairs = int(rng.integers(1, 4))
        # spread the active pairs over 1..n_pairs interferers, at least
        # one period each so the active-pair total stays at n_pairs
        n_int = int(rng.integers(1, n_pairs + 1))
        counts = np.ones(n_int, dtype=int)
        for _extra in range(n_pairs - n_int):
            counts[rng.integers(n_int)] += 1
        c = np.zeros((n_int, 4))
        for i, k_active in enumerate(counts):
            c[i, :k_active] = rng.dirichlet(np.ones(k_active))
        prof = InterferenceProfile(
            10.0 ** rng.uniform(0, 4), int(rng.integers(1, 3)), 2.0,
            10.0 ** rng.uniform(-2, 1, n_int), rng.uniform(1, 2, n_int),
            np.repeat(rng.uniform(0.1, 1, n_int)[:, None], 4, axis=1), c)
        beta0 = 2 * prof.beta * prof.m0
        h_fast = h_t_all(prof, beta0, 5)
        h_ref = h_t_enumeration(prof, beta0, 5)
        rel = np.max(np.abs(h_fast - h_ref) / np.abs(h_ref))
        worst = max(worst, rel)
    _report(2, worst <= 1e-12,
            f"convolution vs enumeration, t <= 5: worst relative error "
            f"{worst:.2e} (<= 1e-12)")


def test_criterion_3_noise_only_reduction():
    worst = 0.0
    for m0 in (1, 2, 3):
        for beta in (0.5, 2.0, 10 ** 0.6):
            for g0 in (1.0, 10.0, 1e4, 1e7):
                got = outage_closed_form(empty_profile(g0, m0, beta))
                want = noise_only_outage(g0, m0, beta)
                worst = max(worst, abs(got - want))
    worked = outage_closed_form(empty_profile(10.0, 1, 2.0))
    ok = worst <= 1e-12 and abs(worked - 0.061551935550105) <= 1e-12
    _report(3, ok, f"gamma-CDF reduction: worst |diff| {worst:.2e} "
                   f"(<= 1e-12); worked value {worked:.6f} = 0.061552")


def test_criterion_4_diversity_doubling_distribution():
    rng = np.random.default_rng(41)
    pvals = []
    for m0 in (1.0, 2.0):
        avg = 0.5 * (sample_power_gain(m0, rng, size=10**5)
                     + sample_power_gain(m0, rng, size=10**5))
        direct = sample_power_gain(2 * m0, rng, size=10**5)
        pvals.append(sstats.ks_2samp(avg, direct).pvalue)
    ok = all(p > 0.01 for p in pvals)
    _report(4, ok, "two-sample KS on averaged two-slot gains vs doubled "
                   f"shape, 1e5 draws: p = {[f'{p:.3f}' for p in pvals]} "
                   "(> 0.01)")


def test_criterion_5_densification_trends(densify_rows):
    rows, elapsed = densify_rows
    eps = np.array([r["epsilon_bar"] for r in rows])
    eps_nh = np.array([r["epsilon_bar_no_hop"] for r in rows])
    se = np.array([_se(r) for r in rows])
    se_nh = np.array([r["halfwidth95_no_hop"] / 1.96 for r in rows])

    # (a) monotone non-increasing in C/M up to two standard errors
    mono = all(eps[i + 1] - eps[i] <= 2 * math.hypot(se[i], se[i + 1])
               for i in range(len(rows) - 1))
    # (b) hopping never above no-hopping
    hop_wins = bool(np.all(eps <= eps_nh))
    # (c) the 5% crossing needs more densification without hopping
    cross_hop = float(np.interp(0.05, eps[::-1], np.array(RATIOS)[::-1]))
    cross_nh = float(np.interp(0.05, eps_nh[::-1], np.array(RATIOS)[::-1]))
    spans = eps.min() < 0.05 < eps.max() and eps_nh.min() < 0.05 < eps_nh.max()
    ok = mono and hop_wins and spans and cross_nh > cross_hop \
        and elapsed < 600.0
    _report(5, ok,
            f"monotone={mono}, hop<=no-hop={hop_wins}, 5% crossing at "
            f"C/M={cross_hop:.3f} (hop) vs {cross_nh:.3f} (no hop), "
            f"runtime {elapsed:.0f} s (< 600 s); "
            f"eps={np.array2string(eps, precision=4)}, "
            f"se_nh_max={se_nh.max():.4f}")


def test_criterion_6_noise_and_bandwidth_ordering():
    base = _point(BASE, 0.5)
    low_pn = _point(BASE.replace(p_over_n_db=60.0), 0.5)
    low_bw = _point(BASE.replace(ref_block_channels=100,
                                 sector_block_channels=100), 0.5)
    d_pn = low_pn["epsilon_bar"] - base["epsilon_bar"]
    g_pn = 2 * math.hypot(_se(low_pn), _se(base))
    d_bw = low_bw["epsilon_bar"] - base["epsilon_bar"]
    g_bw = 2 * math.hypot(_se(low_bw), _se(base))
    ok = d_pn > g_pn and d_bw > g_bw
    _report(6, ok,
            f"at C/M=0.5: dropping P/N 70->60 dB raises eps by {d_pn:.4f} "
            f"(> {g_pn:.4f}); L/L_j 10->1 raises eps by {d_bw:.4f} "
            f"(> {g_bw:.4f})")


def test_criterion_7_ase_identity_and_threshold_gain(densify_rows):
    rows, _ = densify_rows
    # identity must hold exactly on every emitted row, including after
    # the CSV round-trip
    columns, *lines = [line.split(",") for line in
                       cli._csv_text(["test"], rows).splitlines()
                       if not line.startswith("#")]
    exact = len(lines) == len(rows)
    for line in lines:
        vals = dict(zip(columns, line))
        lam = BASE.density_per_km2
        exact &= (float(vals["ase_bpcu_km2"])
                  == lam * float(vals["code_rate_bpcu"])
                  * (1.0 - float(vals["epsilon_bar"])))
    a0 = _point(BASE.replace(beta_db=0.0), 1.0)
    a6 = _point(BASE.replace(beta_db=6.0), 1.0)
    lam = BASE.density_per_km2
    se_a0 = lam * a0["code_rate_bpcu"] * _se(a0)
    se_a6 = lam * a6["code_rate_bpcu"] * _se(a6)
    gain = a6["ase_bpcu_km2"] - a0["ase_bpcu_km2"]
    gate = 2 * math.hypot(se_a0, se_a6)
    ok = exact and gain > gate
    _report(7, ok,
            f"ASE identity exact on all rows={exact}; at C/M=1 ASE(6 dB)="
            f"{a6['ase_bpcu_km2']:.1f} vs ASE(0 dB)={a0['ase_bpcu_km2']:.1f},"
            f" gain {gain:.1f} (> {gate:.1f})")


def test_criterion_8_power_control_flatness():
    deltas = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    rows05 = [_point(BASE.replace(delta=d), 0.05) for d in deltas]
    eps05 = [r["epsilon_bar"] for r in rows05]
    spread = max(eps05) - min(eps05)
    gate = 4 * max(_se(r) for r in rows05)
    rows50 = [_point(BASE.replace(delta=d), 0.5) for d in deltas]
    eps50 = [r["epsilon_bar"] for r in rows50]
    ok = spread <= gate and all(e < 0.05 for e in eps50)
    _report(8, ok,
            f"at C/M=0.05 spread over delta = {spread:.4f} (<= {gate:.4f}); "
            f"at C/M=0.5 all eps < 0.05: max {max(eps50):.4f}")


def test_criterion_9_thread_count_determinism(tmp_path):
    cfg_file = tmp_path / "det.cfg"
    cfg_file.write_text("bs_count = 40\nextent_km = 1.0\ntrials = 150\n"
                        "candidate_bs = 10\n")
    out1, out8 = tmp_path / "t1.csv", tmp_path / "t8.csv"
    rc1 = cli.main(["campaign", "--config", str(cfg_file), "--seed", "29",
                    "--threads", "1", "--out", str(out1)])
    rc8 = cli.main(["campaign", "--config", str(cfg_file), "--seed", "29",
                    "--threads", "8", "--out", str(out8)])
    identical = out1.read_bytes() == out8.read_bytes()
    ok = rc1 == 0 and rc8 == 0 and identical
    _report(9, ok, f"campaign CSV byte-identical across 1 and 8 worker "
                   f"threads: {identical}")
