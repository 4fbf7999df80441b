import warnings

import mpmath
import numpy as np
import pytest
from scipy import special

from fhuplink.config import RunConfig, build_topology
from fhuplink.experiments import _run_block, scale_to_cm
from fhuplink.linkbudget import (InterferenceProfile, empty_profile,
                                 fractional_durations, gamma0)
from fhuplink.outage import (h_t_all, outage_batch, outage_closed_form,
                             outage_monte_carlo, random_profile,
                             run_validation)
from oracles import (frozen_outage_monte_carlo, g_coeff, h_t_enumeration,
                     noise_only_outage, outage_g_series_mpmath,
                     plain_outage_monte_carlo, single_pair_outage_quadrature)


def _profile(gamma0, m0, beta, omega, m, q, c):
    omega = np.atleast_1d(np.asarray(omega, float))
    n = len(omega)
    q = np.broadcast_to(np.asarray(q, float).reshape(-1, 1) if np.ndim(q) == 1
                        else np.asarray(q, float), (n, 4)).copy() \
        if np.ndim(q) != 2 else np.asarray(q, float)
    return InterferenceProfile(gamma0, m0, beta, omega,
                               np.atleast_1d(np.asarray(m, float)), q,
                               np.asarray(c, float))


def test_g_coeff():
    # silent interferer
    assert g_coeff(0, 0.0, 1.0, 0.25, 1.0, 4.0) == 1.0
    for ell in (1, 2, 3):
        assert g_coeff(ell, 0.0, 1.0, 0.25, 1.0, 4.0) == 0.0
    # worked example: q=1, omega=1, c=0.25, m=1, beta0=4
    assert g_coeff(0, 1.0, 1.0, 0.25, 1.0, 4.0) == pytest.approx(0.5)
    assert g_coeff(1, 1.0, 1.0, 0.25, 1.0, 4.0) == pytest.approx(0.0625)
    # ell = 1 reduces to q*omega*c*psi^(m+1), psi = 1/(beta0 omega c/m + 1)
    p = 1.0 / (5.0 * 0.7 * 0.3 / 1.6 + 1.0)
    assert g_coeff(1, 0.9, 0.7, 0.3, 1.6, 5.0) == pytest.approx(
        0.9 * 0.7 * 0.3 * p ** 2.6, rel=1e-12)


def test_g_coeff_gamma_ratio_matches_special():
    # rising-factorial prefactor equals Gamma(ell+m)/(ell! Gamma(m))
    m, ell, q, om, c, b0 = 1.7, 3, 0.8, 0.9, 0.3, 5.0
    p = 1.0 / (b0 * om * c / m + 1.0)
    expected = (q * special.gamma(ell + m)
                / (special.factorial(ell) * special.gamma(m))
                * (om * c / m) ** ell * p ** (m + ell))
    assert g_coeff(ell, q, om, c, m, b0) == pytest.approx(expected, rel=1e-12)


def test_h_t_no_interferers():
    prof = empty_profile(10.0, 2, 2.0)
    h = h_t_all(prof, 8.0, 3)
    assert h[0] == 1.0 and np.all(h[1:] == 0.0)


def test_h_t_single_pair_equals_g():
    # one interferer active in a single period: H_t = G_t
    c = np.array([[1.0, 0.0, 0.0, 0.0]])
    prof = _profile(10.0, 1, 2.0, [0.8], [1.4], np.full((1, 4), 0.6), c)
    beta0 = 4.0
    h = h_t_all(prof, beta0, 4)
    for t in range(5):
        assert h[t] == pytest.approx(
            g_coeff(t, 0.6, 0.8, 1.0, 1.4, beta0), rel=1e-12)


def test_h_t_two_pairs_composition():
    # two active pairs: H_2 = G2 G0' + G1 G1' + G0 G2'
    c = np.array([[0.4, 0.6, 0.0, 0.0]])
    prof = _profile(5.0, 2, 2.0, [1.2], [1.1], np.full((1, 4), 0.5), c)
    beta0 = 8.0
    h = h_t_all(prof, beta0, 2)
    g_a = [g_coeff(t, 0.5, 1.2, 0.4, 1.1, beta0) for t in range(3)]
    g_b = [g_coeff(t, 0.5, 1.2, 0.6, 1.1, beta0) for t in range(3)]
    assert h[2] == pytest.approx(
        g_a[2] * g_b[0] + g_a[1] * g_b[1] + g_a[0] * g_b[2], rel=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_h_t_matches_enumeration(seed):
    # up to 3 active pairs, t <= 5, against explicit composition sums
    rng = np.random.default_rng(seed)
    n_pairs = int(rng.integers(1, 4))
    c_rows = np.zeros((n_pairs, 4))
    c_rows[:, 0] = 1.0  # one active period per interferer
    prof = _profile(10.0 ** rng.uniform(0, 4), int(rng.integers(1, 3)), 2.0,
                    10.0 ** rng.uniform(-2, 1, n_pairs),
                    rng.uniform(1, 2, n_pairs),
                    np.repeat(rng.uniform(0, 1, n_pairs)[:, None], 4, axis=1),
                    c_rows)
    beta0 = 2 * prof.beta * prof.m0
    h_fast = h_t_all(prof, beta0, 5)
    h_ref = h_t_enumeration(prof, beta0, 5)
    assert np.allclose(h_fast, h_ref, rtol=1e-12, atol=0)


def test_noise_only_closed_form_matches_gamma_cdf():
    for m0, beta, g0 in [(1, 2.0, 10.0), (2, 2.0, 10.0), (1, 0.5, 3.0),
                         (2, 10 ** 0.3, 1e4), (3, 1.0, 50.0)]:
        prof = empty_profile(g0, m0, beta)
        assert outage_closed_form(prof) == pytest.approx(
            noise_only_outage(g0, m0, beta), abs=1e-12)
        assert outage_closed_form(prof, hopping=False) == pytest.approx(
            noise_only_outage(g0, m0, beta, hopping=False), abs=1e-12)


def test_noise_only_worked_values():
    # m0=1, beta=2, Gamma0=10: 1 - e^-0.4 (1 + 0.4)
    assert outage_closed_form(empty_profile(10.0, 1, 2.0)) == pytest.approx(
        0.061551935550105, abs=1e-12)
    # without hopping: 1 - e^-0.2
    assert outage_closed_form(empty_profile(10.0, 1, 2.0),
                              hopping=False) == pytest.approx(
        0.18126924692201818, abs=1e-12)


def test_limits():
    assert outage_closed_form(empty_profile(1e300, 1, 2.0)) == 0.0
    assert outage_closed_form(empty_profile(10.0, 1, 1e-12)) < 1e-9
    assert outage_closed_form(empty_profile(1e-12, 2, 2.0)) == 1.0
    # e^-(beta0 z) underflows to 0 and no (beta0 z)^k ever forms
    assert outage_closed_form(empty_profile(1e-300, 2, 2.0)) == 1.0
    # gamma0's -2700 dB floor: at the lowest threshold the config accepts,
    # -300 dB, and the widest reference shape, noise alone is outage 1
    floor = gamma0(0.0, -3000.0)
    assert floor == gamma0(0.0, -2700.0)
    assert outage_closed_form(empty_profile(floor, 100, 1e-30)) == 1.0


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_beta_override_is_checked(bad):
    prof = empty_profile(10.0, 1, 2.0)
    msg = "SINR threshold must be positive and finite"
    for hopping in (True, False):
        with pytest.raises(ValueError, match=msg):
            outage_closed_form(prof, beta=bad, hopping=hopping)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=msg):
        outage_monte_carlo(prof, 100, rng, beta=bad)
    assert rng.bit_generator.state == before


def _relative_error(got, want):
    return float(abs(mpmath.mpf(got) - want) / want)


def test_noise_only_relative_accuracy_down_to_1e_250():
    # the Poisson tail of a gamma CDF, against mpmath's regularized
    # incomplete gamma; double precision alone would cancel below 1e-16
    worst, smallest = 0.0, 1.0
    for m0 in (1, 2, 3):
        for log_g0 in (1, 3, 6, 12, 25, 50, 90, 125, 250):
            prof = empty_profile(10.0 ** log_g0, m0, 2.0)
            for shape, hopping in ((2 * m0, True), (m0, False)):
                got = outage_closed_form(prof, hopping=hopping)
                with mpmath.workdps(50):
                    want = mpmath.gammainc(shape, 0, 2.0 * shape / mpmath.mpf(
                        prof.gamma0), regularized=True)
                if want > 1e-300:
                    worst = max(worst, _relative_error(got, want))
                    smallest = min(smallest, float(want))
    assert smallest < 1e-250
    assert worst <= 1e-10


def _trial_like_profile(rng, gamma0, m0):
    # 30 weak, rarely colliding interferers, as in a C/M 1.0 trial
    omega = 10.0 ** rng.uniform(-11.0, -6.0, size=30)
    q = np.repeat(rng.uniform(0.05, 0.2, size=30)[:, None], 4, axis=1)
    c = fractional_durations(rng.uniform(0.0, 0.5, size=30), 0.5)
    return InterferenceProfile(gamma0, m0, 2.0, omega,
                               rng.uniform(1.0, 2.0, size=30), q, c)


def test_relative_accuracy_against_g_series():
    # the defining G-series in mpmath at 320 digits, so its own 1 - ...
    # cancellation leaves far more digits than the gate needs
    rng = np.random.default_rng(43)
    profiles = [random_profile(rng, beta=10 ** 0.3) for _ in range(17)]
    profiles += [_trial_like_profile(rng, 1e9, 1),
                 _trial_like_profile(rng, 1e12, 2)]
    cfg = RunConfig(seed=29)
    topo = scale_to_cm(build_topology(cfg, cfg.seed), cfg.density_per_km2, 1.0)
    ((_, _, trial),) = _run_block(topo, cfg, 0, 1, None)
    profiles.append(InterferenceProfile(trial.gamma0[0], trial.m0[0],
                                        trial.beta[0], trial.omega, trial.m,
                                        trial.q, trial.c))
    worst, smallest = 0.0, 1.0
    for prof in profiles:
        for hopping in (True, False):
            want = outage_g_series_mpmath(prof, hopping, dps=320)
            got = outage_closed_form(prof, hopping=hopping)
            worst = max(worst, _relative_error(got, want))
            smallest = min(smallest, float(want))
    assert smallest < 1e-20
    assert worst <= 1e-10


def test_all_silent_reduces_to_noise_only():
    c = fractional_durations(np.full(5, 0.2), 0.5)
    prof = _profile(25.0, 2, 2.0, np.ones(5), np.ones(5), np.zeros((5, 4)), c)
    assert outage_closed_form(prof) == outage_closed_form(empty_profile(25.0, 2, 2.0))


def test_silent_interferer_is_bit_identical():
    rng = np.random.default_rng(3)
    base = random_profile(rng, beta=2.0, max_interferers=6)
    eps0 = outage_closed_form(base)
    # append one interferer with q = 0 and one with omega = 0
    prof_q0 = InterferenceProfile(
        base.gamma0, base.m0, base.beta,
        np.r_[base.omega, 1.0], np.r_[base.m, 1.0],
        np.vstack([base.q, np.zeros(4)]),
        np.vstack([base.c, np.full(4, 0.25)]))
    prof_w0 = InterferenceProfile(
        base.gamma0, base.m0, base.beta,
        np.r_[base.omega, 0.0], np.r_[base.m, 1.0],
        np.vstack([base.q, np.full(4, 0.7)]),
        np.vstack([base.c, np.full(4, 0.25)]))
    assert outage_closed_form(prof_q0) == eps0
    assert outage_closed_form(prof_w0) == eps0


def test_batch_partners_do_not_change_a_row():
    rng = np.random.default_rng(5)
    profiles = [random_profile(rng, beta=10 ** 0.3) for _ in range(6)]
    assert {p.m0 for p in profiles} == {1, 2}       # n = 1, 2 and 4
    profiles.append(empty_profile(30.0, 2, 2.0))
    # dead pairs: q = 0 in some periods of one interferer, c = 0 in some
    # periods of another
    profiles.append(_profile(
        50.0, 1, 2.0, [0.3, 0.2, 0.0], [1.0, 1.5, 1.0],
        [[0.0, 0.5, 0.0, 0.4], [0.3, 0.3, 0.3, 0.3], [0.5, 0.5, 0.5, 0.5]],
        [[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.6, 0.4], [0.25] * 4]))
    # a deep tail with pmf ratios near 1/2 (m = 0.5, a = 1 with hopping):
    # its forward sum needs several blocks, where the weak pairs of the
    # random profiles stop after one
    profiles.append(_profile(20.0, 1, 2.0, [0.125], [0.5], [[1.0, 0, 0, 0]],
                             [[1.0, 0, 0, 0]]))
    alone = np.array([[outage_batch([p], [d])[0, 0] for p in profiles]
                      for d in (2, 1)])
    together = outage_batch(profiles)
    shuffled = outage_batch(profiles[::-1] + profiles[:3], [1, 2])
    assert together.tobytes() == alone.tobytes()
    k = len(profiles)
    assert shuffled[:, :k][:, ::-1].tobytes() == alone[::-1].tobytes()
    assert shuffled[:, k:].tobytes() == alone[::-1, :3].tobytes()
    for p, hop, no_hop in zip(profiles, *alone):
        assert outage_closed_form(p) == hop
        assert outage_closed_form(p, hopping=False) == no_hop
    # a lone one-profile block, and a campaign block among one-profile ones
    lone = np.hstack([outage_batch(p) for p in profiles])
    assert lone.tobytes() == alone.tobytes()
    cfg = RunConfig(bs_count=16, extent_km=0.8, candidate_bs=8, seed=3)
    _, _, trial = next(_run_block(build_topology(cfg), cfg, 0, 16, None))
    assert len(trial.m0) > 1 and trial.n_interferers.min() > 0
    stop = np.cumsum(trial.n_interferers)
    rows = [InterferenceProfile(*(f[b] for f in trial[:3]),
                                *(f[s - k:s] for f in trial[4:]))
            for b, (s, k) in enumerate(zip(stop, trial.n_interferers))]
    mixed = outage_batch(profiles[:4] + [trial] + profiles[4:])
    per_row = [[outage_closed_form(r, hopping=h) for r in rows]
               for h in (True, False)]
    want = np.hstack([alone[:, :4], per_row, alone[:, 4:]])
    assert mixed.tobytes() == want.tobytes()
    # a threshold per setting, as the links command evaluates a beta grid
    betas = [0.5, 2.0, 8.0]
    grid = outage_batch(profiles, [2, 2, 2], betas)
    assert grid.tolist() == [[outage_closed_form(p, beta=b) for p in profiles]
                             for b in betas]


@pytest.mark.parametrize("q, m", [(1.0, 0.5), (0.5, 1.5), (0.1, 2.0)])
def test_overwhelming_interferer_does_not_overflow(q, m):
    # beta0 * omega is 2e230 at omega = 1e200 and overflows at 1e300, while
    # noise alone stays far below the threshold: the outage must stay a
    # probability and must not fall as omega grows
    eps = []
    for omega in (1e-40, 1e200, 1e300, 1.7e308):
        prof = InterferenceProfile(1e300, 1, 1e30, [omega], [m], [[q] * 4],
                                   [[0.25] * 4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eps.append([outage_closed_form(prof, hopping=h)
                        for h in (True, False)])
    eps = np.array(eps)
    assert np.all((0 <= eps) & (eps <= 1))
    assert np.all(np.diff(eps, axis=0) >= 0)
    # a pair that always collides (q = 1) is outage 1, else each of the
    # four periods escapes it with 1 - q
    assert eps[-1, 0] == pytest.approx(1 - (1 - q) ** 4, rel=1e-12)


def test_single_pair_against_quadrature():
    cases = [
        dict(gamma0=10.0, m0=1, beta=2.0, omega=1.0, m=1.0, q=1.0, c=0.9),
        dict(gamma0=100.0, m0=2, beta=1.5, omega=3.0, m=1.7, q=0.6, c=0.5),
        dict(gamma0=5.0, m0=1, beta=10 ** 0.3, omega=0.2, m=1.2, q=0.3, c=1.0),
    ]
    for kw in cases:
        c_row = np.array([[kw["c"], 1 - kw["c"], 0.0, 0.0]])
        # keep only the first period active: q = 0 elsewhere
        q_row = np.array([[kw["q"], 0.0, 0.0, 0.0]])
        prof = _profile(kw["gamma0"], kw["m0"], kw["beta"], [kw["omega"]],
                        [kw["m"]], q_row, c_row)
        want = single_pair_outage_quadrature(
            kw["gamma0"], kw["m0"], kw["beta"], kw["omega"], kw["m"],
            kw["q"], kw["c"])
        assert outage_closed_form(prof) == pytest.approx(want, abs=1e-7)


def test_monotonicity_on_random_profiles():
    rng = np.random.default_rng(17)
    for _ in range(10):
        prof = random_profile(rng, beta=10 ** 0.3, max_interferers=8)
        eps = outage_closed_form(prof)
        assert 0.0 <= eps <= 1.0
        # non-decreasing in beta
        betas = [0.5, 1.0, 2.0, 4.0, 8.0]
        vals = [outage_closed_form(prof, beta=b) for b in betas]
        assert np.all(np.diff(vals) >= 0)
        # non-decreasing when any single omega grows
        i = rng.integers(prof.n_interferers)
        omega_up = prof.omega.copy()
        omega_up[i] *= 3.0
        up = InterferenceProfile(prof.gamma0, prof.m0, prof.beta, omega_up,
                                 prof.m, prof.q, prof.c)
        assert outage_closed_form(up) >= eps
        # non-increasing in gamma0
        richer = InterferenceProfile(prof.gamma0 * 5, prof.m0, prof.beta,
                                     prof.omega, prof.m, prof.q, prof.c)
        assert outage_closed_form(richer) <= eps


def test_no_hopping_dominates_hopping_in_operating_regime():
    # slot diversity helps whenever the link is usually out of outage;
    # the gamma CDFs of shapes m0 and 2m0 cross near threshold = mean,
    # so the ordering is asserted below the crossover
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(60):
        prof = random_profile(rng, beta=10 ** 0.3, max_interferers=10)
        no_hop = outage_closed_form(prof, hopping=False)
        if no_hop <= 0.6:
            assert no_hop >= outage_closed_form(prof) - 1e-12
            checked += 1
    assert checked >= 10


def test_hopping_ordering_reverses_in_deep_outage():
    # when the no-fading SINR is already below threshold, concentrating
    # the desired gain makes outage more certain; both branches still
    # match the gamma CDF oracle exactly
    prof = empty_profile(1.0, 1, 2.0)  # beta * z = 2: hopeless link
    hop = outage_closed_form(prof)
    no_hop = outage_closed_form(prof, hopping=False)
    assert hop == pytest.approx(noise_only_outage(1.0, 1, 2.0), abs=1e-12)
    assert no_hop == pytest.approx(noise_only_outage(1.0, 1, 2.0, hopping=False),
                                   abs=1e-12)
    assert hop > no_hop


def test_variants_converge_for_mild_fading():
    # large reference shape: fading nearly deterministic, the diversity
    # doubling stops mattering
    prof = empty_profile(4.0, 60, 2.0)  # beta * z = 0.5
    hop = outage_closed_form(prof)
    no_hop = outage_closed_form(prof, hopping=False)
    assert hop == pytest.approx(noise_only_outage(4.0, 60, 2.0), abs=1e-12)
    assert no_hop == pytest.approx(noise_only_outage(4.0, 60, 2.0, hopping=False),
                                   abs=1e-12)
    assert hop < 1e-4 and no_hop < 1e-4 and abs(hop - no_hop) < 1e-4


def _streams(seed):
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(2)]


def test_monte_carlo_matches_closed_form():
    # profiles and samples on separate streams, so a change in how the
    # sampler draws cannot re-draw the profiles that follow
    profile_rng, sample_rng = _streams(31)
    for _ in range(15):
        prof = random_profile(profile_rng, beta=10 ** 0.3, max_interferers=10)
        eps_cf = outage_closed_form(prof)
        eps_mc, se = outage_monte_carlo(prof, 20000, sample_rng)
        se_cf = np.sqrt(eps_cf * (1 - eps_cf) / 20000)
        assert abs(eps_cf - eps_mc) <= 4 * max(se, se_cf) + 1e-9


def test_monte_carlo_no_hopping_oracle():
    rng = np.random.default_rng(37)
    prof = random_profile(rng, beta=10 ** 0.3, max_interferers=5)
    eps_cf = outage_closed_form(prof, hopping=False)
    eps_mc, se = outage_monte_carlo(prof, 40000, rng, hopping=False)
    se_cf = np.sqrt(eps_cf * (1 - eps_cf) / 40000)
    assert abs(eps_cf - eps_mc) <= 4 * max(se, se_cf) + 1e-9


def test_monte_carlo_agrees_with_plain_sampler():
    # (profile, beta override, hopping); per side the larger of the
    # plug-in error and the one the closed form implies, as in validation
    n = 20000
    rand = random_profile(np.random.default_rng(41), beta=10 ** 0.3,
                          max_interferers=10)
    c = fractional_durations(np.linspace(0.05, 0.45, 6), 0.5)
    always = _profile(200.0, 1, 2.0, np.geomspace(0.01, 0.1, 6),
                      np.full(6, 1.5), np.ones((6, 4)), c)
    cases = [(rand, None, True), (rand, None, False), (rand, 0.2, True),
             (always, None, True), (always, None, False),
             (empty_profile(10.0, 1, 2.0), None, True)]
    for k, (prof, beta, hopping) in enumerate(cases):
        eps_cf = outage_closed_form(prof, beta=beta, hopping=hopping)
        floor = np.sqrt(eps_cf * (1 - eps_cf) / n)
        fast_rng, plain_rng = _streams(k)
        eps_a, se_a = outage_monte_carlo(prof, n, fast_rng, beta, hopping)
        eps_b, se_b = plain_outage_monte_carlo(prof, n, plain_rng, beta,
                                               hopping)
        se = np.hypot(max(se_a, floor), max(se_b, floor))
        assert abs(eps_a - eps_b) <= 4 * se + 1e-9, (k, eps_a, eps_b)


def test_monte_carlo_draws_nothing_for_decided_samples():
    c = fractional_durations(np.full(3, 0.2), 0.5)
    # beta z = 2e300 exceeds every gbar: all samples are decided by noise
    # alone, and no pair draws anything
    hopeless = _profile(1e-300, 2, 2.0, np.ones(3), np.ones(3),
                        np.full((3, 4), 0.5), c)
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    assert outage_monte_carlo(hopeless, 64, rng) == (1.0, 0.0)
    ref.gamma(4, 1.0 / 4, 64)
    assert rng.bit_generator.state == ref.bit_generator.state
    # no pair can collide: the noise-only fraction of the same gbar draws
    silent = _profile(2.0, 1, 2.0, np.ones(3), np.ones(3), np.zeros((3, 4)), c)
    rng, ref = np.random.default_rng(6), np.random.default_rng(6)
    eps, _ = outage_monte_carlo(silent, 1000, rng)
    gbar = ref.gamma(2, 1.0 / 2, 1000)
    assert eps == np.count_nonzero(gbar <= 2.0 * silent.z) / 1000
    assert 0 < eps < 1
    assert rng.bit_generator.state == ref.bit_generator.state


def test_monte_carlo_draws_as_the_frozen_sampler():
    # the same draws, in the same order, with the same rounding: an equal
    # estimate and an equal generator state afterwards
    profile_rng = np.random.default_rng(43)
    cases = []
    for _ in range(100):
        prof = random_profile(profile_rng, beta=10 ** 0.3)
        cases += [(prof, 3000, None, True), (prof, 3000, None, False),
                  (prof, 3000, float(profile_rng.uniform(0.1, 20.0)), True)]
    c = fractional_durations(np.full(3, 0.2), 0.5)
    certain = _profile(200.0, 1, 2.0, np.geomspace(0.01, 0.1, 3),
                       np.full(3, 1.5), np.ones((3, 4)), c)
    hopeless = _profile(1e-300, 2, 2.0, np.ones(3), np.ones(3),
                        np.full((3, 4), 0.5), c)
    silent = _profile(2.0, 1, 2.0, np.ones(3), np.ones(3), np.zeros((3, 4)), c)
    # w gain is near the top of the float range: finite only when the gain
    # is scaled by 1/m before w, as Generator.gamma(m, 1/m) scales
    edge = _profile(1e3, 1, 1e-306, [1e306], [1000.0], [[1, 0, 0, 0]],
                    [[1, 0, 0, 0]])
    cases += [(cases[0][0], 1, None, True), (certain, 3000, None, True),
              (certain, 3000, None, False), (hopeless, 3000, None, True),
              (silent, 3000, None, True), (edge, 3000, None, True)]
    for k, (prof, n, beta, hopping) in enumerate(cases):
        rng, ref = np.random.default_rng(k), np.random.default_rng(k)
        got = outage_monte_carlo(prof, n, rng, beta, hopping)
        assert got == frozen_outage_monte_carlo(prof, n, ref, beta, hopping), k
        assert rng.bit_generator.state == ref.bit_generator.state, k


def test_run_validation_small():
    records, ok = run_validation(8, 20000, seed=5, beta=10 ** 0.3)
    assert ok and len(records) == 8
    assert all(r["within_4_stderr"] for r in records)
