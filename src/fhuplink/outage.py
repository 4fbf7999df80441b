"""Exact conditional outage probability and its Monte Carlo oracle.

Conditioned on one network realization, the subframe-averaged SINR of the
reference link is gbar / (1/Gamma0 + sum of collided interference terms),
with gbar a unit-mean gamma gain of shape n = 2*m0 (the two hop slots fade
independently and their powers average; n = m0 without hopping).  A gamma
CDF of integer shape is a Poisson tail, and a Poisson count with a gamma
mean is negative binomial, so the outage is P(K + sum_ik N_ik >= n) with
K ~ Poisson(beta0 z) and N_ik = Bernoulli(q_ik) NegBin(m_i, 1 / (1 +
beta0 omega_i c_ik / m_i)), beta0 = beta n: the finite-network Nakagami
closed form of Torrieri and Valenti (IEEE Trans. Commun., 2012) read
through its generating function.  This module folds that tail from
positive terms only, so small outages keep their relative accuracy, and
provides a direct SINR-sampling estimator for validation.  The sampler
draws only what can still change a sample's outcome: the interference
only grows, so a sample stops drawing once it is in outage, and a pair
that does not collide draws no gain.
"""

from __future__ import annotations

import math

import numpy as np

from .linkbudget import InterferenceProfile, check_threshold


def _count_law(profile: InterferenceProfile, beta0, n):
    """Pmf of the interference count and tail of the total count.

    Returns (pmf, tail) with pmf[k] = P(sum N_ik = k) for k < n and
    tail = P(K + sum N_ik >= n).  Each term is one row of the (a, b, 0)
    recursion pmf_{k+1} = pmf_k (alpha + rho k) / (k + 1): rho = 0 for K
    and rho = 1 - p for a negative binomial.  Pairs that cannot collide
    (q = 0 or omega * c = 0) are skipped, which leaves the result
    bit-identical.  The fold P(A + B >= n) = P(A >= n) + sum_{k<n}
    P(A = k) P(B >= n - k) runs over all terms at once, K last, so its
    pmf never enters a prefix.
    """
    omega_c = profile.omega[:, None] * profile.c
    live = (profile.q > 0) & (omega_c > 0)
    m = np.broadcast_to(profile.m[:, None], live.shape)[live]
    a = beta0 * omega_c[live] / m
    lam = beta0 * profile.z
    q = np.append(profile.q[live], 1.0)
    rho = np.append(a / (1.0 + a), 0.0)
    alpha = np.append(m * rho[:-1], lam)
    log_p0 = np.append(-m * np.log1p(a), -lam)

    k = np.arange(n - 1)
    steps = np.empty((len(q), n))           # pmf_0, then pmf_{k+1} / pmf_k
    steps[:, 0] = np.exp(log_p0)
    steps[:, 1:] = (alpha[:, None] + rho[:, None] * k) / (k + 1)
    pmf = np.cumprod(steps, axis=1)
    first = -np.expm1(log_p0)               # P(X >= 1)
    head = np.zeros_like(pmf)               # sum of pmf_1 .. pmf_{r-1}
    head[:, 1:] = np.cumsum(pmf[:, 1:], axis=1)
    tails = first[:, None] - head           # tails[:, r-1] = P(X >= r)
    deep = np.flatnonzero(head[:, -1] > 0.5 * first)
    if deep.size:
        # there the subtraction would cancel: sum the pmf beyond n - 1
        al, rh = alpha[deep, None], rho[deep, None]
        term, beyond, j = pmf[deep, -1], 0.0, n - 1
        while True:
            ks = j + np.arange(32)
            terms = term[:, None] * np.cumprod((al + rh * ks) / (ks + 1),
                                               axis=1)
            beyond = beyond + terms.sum(axis=1)
            term, j = terms[:, -1], j + 32
            # later ratios stay below r, so the rest is below term r/(1-r)
            r = np.maximum((al[:, 0] + rh[:, 0] * j) / (j + 1), rh[:, 0])
            if np.all((r < 1) & (term * r <= 1e-17 * (1 - r) * beyond)):
                break
        tails[deep] = beyond[:, None]
        tails[deep, :-1] += np.cumsum(pmf[deep, :0:-1], axis=1)[:, ::-1]

    # prefix pmfs of the pair sums A_j, from one cumsum per degree on the
    # pmf ratios to P(A_j = 0); past a P(N = 0) that underflows, every
    # prefix is 0 whatever the ratio
    qp = q[:-1, None]
    none = (1.0 - qp) + qp * pmf[:-1, :1]
    ratio = np.divide(qp * pmf[:-1, 1:], none, out=np.zeros((len(qp), n - 1)),
                      where=none > 0)
    g = np.zeros((len(q), n))
    g[:, 0] = 1.0
    for d in range(1, n):
        g[1:, d] = np.cumsum((g[:-1, d - 1::-1] * ratio[:, :d]).sum(axis=1))
    prefix = np.cumprod(np.append(1.0, none))[:, None] * g
    tail = np.sum(prefix * (q[:, None] * tails)[:, ::-1])
    return prefix[-1], min(float(tail), 1.0)


def _outage(profile: InterferenceProfile, beta, diversity) -> float:
    """Outage for a desired-signal shape of diversity * m0."""
    beta = profile.beta if beta is None else check_threshold(beta)
    n = diversity * profile.m0
    return _count_law(profile, beta * n, n)[1]


def h_t_all(profile: InterferenceProfile, beta0, t_max):
    """Coefficients H_0..H_t_max of the joint interference polynomial.

    H_t is the coefficient of x^t in the product over all interferer-
    period pairs of their coefficient series; H_t beta0^t is the
    probability that the pairs' counts sum to t.  beta0 must be positive.
    """
    t = np.arange(t_max + 1)
    return _count_law(profile, beta0, t_max + 1)[0] / beta0 ** t


def outage_closed_form(profile: InterferenceProfile, beta=None) -> float:
    """Exact conditional outage probability with frequency hopping.

    The two independently faded slots double the effective fading shape of
    the desired signal to 2*m0.  beta overrides the profile's threshold.
    """
    return _outage(profile, beta, 2)


def outage_no_hopping(profile: InterferenceProfile, beta=None) -> float:
    """Outage with the desired signal fading constant over the subframe.

    Without hopping there is no slot diversity: the desired gain is a
    single unit-mean gamma of shape m0.  The interference model keeps its
    per-period structure.
    """
    return _outage(profile, beta, 1)


def _pack(a, keep):
    """Move a[keep] to the front of a, in order; returns its length."""
    kept = a[keep]
    a[:len(kept)] = kept
    return len(kept)


def outage_monte_carlo(profile: InterferenceProfile, n_samples: int,
                       rng: np.random.Generator, beta=None, hopping=True):
    """Estimate the outage probability by sampling the average SINR.

    Every interferer-period pair contributes an independent Bernoulli
    collision indicator and a unit-mean gamma gain.  A sample is in
    outage when gbar <= beta (z + I), and I only grows, so a sample
    decided by noise alone or by the pairs visited so far draws nothing
    more: the live pairs are visited strongest q omega c first, each
    draws its indicator for the undecided samples and its gain for the
    samples it hit.  Each indicator is the same function of independent
    draws as when every sample draws for every pair.  Returns the
    estimate and its binomial standard error.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    beta = profile.beta if beta is None else check_threshold(beta)
    shape = 2 * profile.m0 if hopping else profile.m0
    gbar = rng.gamma(shape, 1.0 / shape, n_samples)
    z = profile.z
    # the undecided samples are packed at the front of gbar and
    # interference, in place, so no long-lived array is reallocated
    left = _pack(gbar, gbar > beta * z)
    interference = np.zeros(left)
    w = profile.omega[:, None] * profile.c
    live = (profile.q > 0) & (w > 0)
    m = np.broadcast_to(profile.m[:, None], live.shape)[live]
    q, w = profile.q[live], w[live]
    for j in np.argsort(-(q * w), kind="stable"):
        if not left:
            break
        g, total = gbar[:left], interference[:left]
        hit = rng.random(left) < q[j]
        # in place, one temporary at a time: each step rounds as
        # interference + w gain and beta (z + interference) would
        grown = rng.gamma(m[j], 1.0 / m[j], np.count_nonzero(hit))
        grown *= w[j]
        grown += total[hit]
        total[hit] = grown
        grown += z
        grown *= beta
        out = g[hit] <= grown
        if out.any():
            hit[hit] = out                  # the samples just decided
            keep = np.logical_not(hit, out=hit)
            _pack(total, keep)
            left = _pack(g, keep)
    eps_hat = (n_samples - left) / n_samples
    stderr = math.sqrt(eps_hat * (1.0 - eps_hat) / n_samples)
    return eps_hat, stderr


def random_profile(rng: np.random.Generator, beta, *, max_interferers=30,
                   slot_ms=0.5) -> InterferenceProfile:
    """Randomized profile for cross-validating the closed form.

    Interference ratios are log-uniform over [1e-4, 10], the no-fading
    SNR log-uniform over [1, 1e7], interferer shapes uniform in [1, 2],
    the reference shape 1 or 2, and the period durations follow a random
    timing offset.
    """
    from .linkbudget import fractional_durations

    n = int(rng.integers(1, max_interferers + 1))
    m0 = int(rng.integers(1, 3))
    g0 = 10.0 ** rng.uniform(0.0, 7.0)
    omega = 10.0 ** rng.uniform(-4.0, 1.0, size=n)
    m = rng.uniform(1.0, 2.0, size=n)
    q = np.repeat(rng.uniform(0.0, 1.0, size=n)[:, None], 4, axis=1)
    c = fractional_durations(rng.uniform(0.0, slot_ms, size=n), slot_ms)
    return InterferenceProfile(g0, m0, beta, omega, m, q, c)


def run_validation(n_profiles, n_samples, seed, beta):
    """Compare the closed form against the Monte Carlo oracle.

    Draws n_profiles random profiles and checks |closed - MC| against
    four standard errors.  Near outage 0 or 1 the plug-in binomial error
    of the estimate collapses (an all-failure draw reports zero error),
    so the gate uses the larger of the plug-in error and the binomial
    error implied by the closed-form value, which is the standard
    one-sample proportion test.  Returns (records, all_ok).
    """
    from .seeding import DOMAIN_VALIDATE, derive_rng

    if n_profiles < 1:
        raise ValueError("validation needs at least one profile")
    n_samples = int(n_samples)
    records = []
    all_ok = True
    for p in range(int(n_profiles)):
        rng = derive_rng(seed, DOMAIN_VALIDATE, p)
        profile = random_profile(rng, beta)
        eps_cf = outage_closed_form(profile)
        eps_mc, stderr_hat = outage_monte_carlo(profile, n_samples, rng)
        stderr_cf = math.sqrt(eps_cf * (1.0 - eps_cf) / n_samples)
        stderr = max(stderr_hat, stderr_cf)
        diff = abs(eps_cf - eps_mc)
        ok = diff <= 4.0 * stderr + 1e-9
        all_ok &= ok
        records.append({
            "profile": p, "n_interferers": profile.n_interferers,
            "m0": profile.m0, "gamma0": profile.gamma0,
            "eps_closed_form": eps_cf, "eps_monte_carlo": eps_mc,
            "stderr": stderr, "abs_diff": diff,
            "within_4_stderr": ok,
        })
    return records, all_ok
