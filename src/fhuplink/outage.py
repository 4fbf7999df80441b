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
positive terms only, so small outages keep their relative accuracy, for
many profiles under several (diversity, threshold) settings in one call,
and provides a direct SINR-sampling estimator for validation.  Every
profile is a ProfileBlock, the one profile type, of one profile or many.
The sampler draws only what can still change a sample's outcome: the
interference only grows, so a sample stops drawing once it is in outage,
and a pair that does not collide draws no gain.
"""

from __future__ import annotations

import math

import numpy as np

from .linkbudget import (InterferenceProfile, ProfileBlock, check_threshold,
                         fractional_durations)
from .seeding import DOMAIN_VALIDATE, derive_rng


# term rows per evaluator call, so each temporary holds at most
# _MAX_TERMS * n doubles; a wider profile gets a call of its own
_MAX_TERMS = 2 ** 14
_DEEP_BLOCK = 8             # pmf terms per step of a deep tail's sum


def _live_pairs(block):
    """Live pairs of each profile as (q, omega c, m) columns, each (P, B),
    and their count per profile.

    A pair with q = 0 or omega c = 0 never adds interference.  A
    profile's pairs are interferer-major, packed at the front of its
    column and padded with q = 0 pairs.
    """
    w = block.omega[:, None] * block.c
    live = (block.q > 0) & (w > 0)
    n = np.size(block.m0)
    col = np.repeat(np.arange(n), 4 * block.n_interferers)[live.ravel()]
    count = np.bincount(col, minlength=n)
    shape = (int(count.max(initial=0)), n)
    cols = np.zeros(shape), np.zeros(shape), np.ones(shape)
    row = np.arange(len(col)) - (np.cumsum(count) - count)[col]
    for dst, src in zip(cols, (block.q, w, np.repeat(block.m[:, None], 4, axis=1))):
        dst[row, col] = src[live]
    return cols, count


def _beyond(alpha, rho, term, j):
    """Sum of pmf_{j+1}, pmf_{j+2}, ... of each row, given pmf_j = term.

    Each row adds _DEEP_BLOCK terms at a time and stops once a geometric
    bound on its rest is below 1e-17 of its own sum, so its value does
    not depend on the other rows.
    """
    total = np.zeros(len(term))
    todo = np.arange(len(term))
    ks = np.arange(_DEEP_BLOCK)[:, None]
    while todo.size:
        kk = j + ks
        # in place, so a step holds a single (block, row) array
        terms = rho * kk
        terms += alpha
        terms /= kk + 1
        np.multiply.accumulate(terms, axis=0, out=terms)
        terms *= term
        s = terms[0].copy()
        for t in terms[1:]:                 # in order, whatever the rows
            s += t
        s += total[todo]
        total[todo] = s
        term, j = terms[-1], j + _DEEP_BLOCK
        # later ratios stay below r, so the rest is below term r/(1-r)
        r = np.maximum((alpha + rho * j) / (j + 1), rho)
        going = (r >= 1) | (term * r > 1e-17 * (1 - r) * s)
        if not going.all():
            todo, alpha, rho, term = (todo[going], alpha[going], rho[going],
                                      term[going])
    return total


def _count_laws(q, w, m, z, beta0, n):
    """Pmfs of the interference counts and tails of the total counts.

    Row b has the live pairs (q, w, m)[:, b], noise term z[b] and
    beta0[b]; all rows share n.  Returns (pmf, tail) with pmf[b, k] =
    P(sum N_ik = k) for k < n and tail[b] = P(K + sum N_ik >= n).  Each
    term is one row of the (a, b, 0) recursion pmf_{k+1} = pmf_k (alpha +
    rho k) / (k + 1):
    rho = 0 for K and rho = 1 - p for a negative binomial.  Arrays are
    (degree, term, row); a row's terms are its pairs, then q = 0 padding,
    then K.  The fold P(A + B >= n) = P(A >= n) + sum_{k<n} P(A = k)
    P(B >= n - k) runs over all terms at once, K last, so its pmf never
    enters a prefix.  Padding pairs are exact no-ops (P(N = 0) = 1, ratio
    0) and every sum runs in a fixed order along its axis, so a row's
    bits do not depend on which rows share the call.
    """
    a = beta0 * w / m
    lam = beta0 * z
    rho = a / (1.0 + a)
    alpha = np.vstack([m * rho, lam])
    log_p0 = np.vstack([-m * np.log1p(a), -lam])
    q = np.vstack([q, np.ones_like(lam)])
    rho = np.vstack([rho, np.zeros_like(lam)])

    k = np.arange(n - 1)[:, None, None]
    pmf = np.empty((n,) + q.shape)          # pmf_0, then pmf_{k+1} / pmf_k
    pmf[0] = np.exp(log_p0)
    pmf[1:] = (alpha + rho * k) / (k + 1)
    np.multiply.accumulate(pmf, axis=0, out=pmf)
    first = -np.expm1(log_p0)               # P(X >= 1)
    tails = np.zeros_like(pmf)              # sum of pmf_1 .. pmf_{r-1}
    np.cumsum(pmf[1:], axis=0, out=tails[1:])
    deep = np.flatnonzero(tails[-1] > 0.5 * first)
    np.subtract(first, tails, out=tails)    # tails[r-1] = P(X >= r)
    if deep.size:
        # there the subtraction would cancel: sum the pmf beyond n - 1
        flat, pmf_d = tails.reshape(n, -1), pmf.reshape(n, -1)[:, deep]
        flat[:, deep] = _beyond(alpha.ravel()[deep], rho.ravel()[deep],
                                pmf_d[-1], n - 1)
        flat[:-1, deep] += np.cumsum(pmf_d[:0:-1], axis=0)[::-1]

    # prefix pmfs of the pair sums A_j, from one cumsum per degree on the
    # pmf ratios to P(A_j = 0); past a P(N = 0) that underflows, every
    # prefix is 0 whatever the ratio
    qp = q[:-1]
    none = (1.0 - qp) + qp * pmf[0, :-1]
    ratio = np.divide(qp * pmf[1:, :-1], none,
                      out=np.zeros((n - 1,) + none.shape), where=none > 0)
    g = np.zeros_like(pmf)
    g[0] = 1.0
    for d in range(1, n):
        acc = g[d - 1, :-1] * ratio[0]
        for e in range(1, d):
            acc += g[d - 1 - e, :-1] * ratio[e]
        g[d, 1:] = np.cumsum(acc, axis=0)
    g *= np.cumprod(np.vstack([np.ones_like(lam), none]), axis=0)
    prefix = g[:, -1].T.copy()              # g is now P(A_j = k)
    tails *= q
    g *= tails[::-1]                        # term j's share, by degree
    for d in range(1, n):
        g[0] += g[d]
    tail = np.cumsum(g[0], axis=0)[-1]
    return prefix, np.minimum(tail, 1.0)


def _chunks(rows, widths):
    """Split rows, in order, into calls of at most _MAX_TERMS term rows."""
    chunk, widest = [], 0
    for r in rows:
        if chunk and (len(chunk) + 1) * max(widest, widths[r]) > _MAX_TERMS:
            yield chunk
            chunk, widest = [], 0
        chunk.append(r)
        widest = max(widest, widths[r])
    if chunk:
        yield chunk


def outage_batch(profiles, diversity=(2, 1), beta=None) -> np.ndarray:
    """Outage of every profile under every setting, shaped (settings, profiles).

    profiles is a ProfileBlock, or a sequence of them taken in order.
    Setting s has the desired-signal diversity diversity[s], 2 with
    hopping (shape 2*m0) and 1 without (shape m0), and the threshold
    beta[s]; beta None takes each profile's own threshold.  The rows are
    grouped by n = diversity * m0 and each group is evaluated in as few
    calls as _MAX_TERMS allows; a row's value is bit-identical whichever
    rows share its call.
    """
    if not isinstance(profiles, ProfileBlock):
        profiles = ProfileBlock.concat(profiles)
    n = np.array(diversity, dtype=int)[:, None] * profiles.m0
    if beta is None:
        beta = profiles.beta
    else:
        beta = np.array([[check_threshold(b)]
                         for _, b in zip(diversity, beta, strict=True)])
    beta = np.broadcast_to(beta, n.shape).ravel()
    z = np.atleast_1d(profiles.z)
    (q, w, m), count = _live_pairs(profiles)
    col = np.tile(np.arange(len(z)), len(n))     # row -> profile
    widths = (count + 1)[col]
    eps = np.empty(n.size)
    for n_g in np.unique(n):
        for rows in _chunks(np.flatnonzero(n == n_g), widths):
            c, p = col[rows], widths[rows].max() - 1
            eps[rows] = _count_laws(q[:p, c], w[:p, c], m[:p, c], z[c],
                                    beta[rows] * n_g, int(n_g))[1]
    return eps.reshape(n.shape)


def h_t_all(profile: ProfileBlock, beta0, t_max):
    """Coefficients H_0..H_t_max of the joint interference polynomial.

    H_t is the coefficient of x^t in the product over all interferer-
    period pairs of their coefficient series; H_t beta0^t is the
    probability that the pairs' counts sum to t.  beta0 must be positive.
    """
    t = np.arange(t_max + 1)
    pairs, _ = _live_pairs(profile)
    pmf, _ = _count_laws(*pairs, np.array([profile.z]),
                         np.array([float(beta0)]), t_max + 1)
    return pmf[0] / beta0 ** t


def outage_closed_form(profile: ProfileBlock, beta=None,
                       hopping=True) -> float:
    """Exact conditional outage probability of one profile.

    With hopping the two independently faded slots double the effective
    fading shape of the desired signal to 2*m0; without, the desired gain
    is a single unit-mean gamma of shape m0, and the interference model
    keeps its per-period structure.  beta overrides the profile's
    threshold.
    """
    beta = None if beta is None else [beta]
    return float(outage_batch(profile, [2 if hopping else 1], beta)[0, 0])


def _pack(a, keep):
    """Move a[keep] to the front of a, in order; returns its length."""
    kept = a[keep]
    a[:len(kept)] = kept
    return len(kept)


def outage_monte_carlo(profile: ProfileBlock, n_samples: int,
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
    draws, mask = np.empty(left), np.empty(left, dtype=bool)
    q, w, m = (col[:, 0] for col in _live_pairs(profile)[0])
    for j in np.argsort(-(q * w), kind="stable"):
        if not left:
            break
        g, total = gbar[:left], interference[:left]
        hit_mask = np.less(rng.random(out=draws[:left]), q[j], out=mask[:left])
        hit = np.flatnonzero(hit_mask)
        # in place in one buffer: each step rounds as gamma(m, 1/m) (1/m
        # times a standard gamma), total + w gain and beta (z + total) would
        grown = rng.standard_gamma(m[j], out=draws[:len(hit)])
        grown *= 1.0 / m[j]
        grown *= w[j]
        grown += total.take(hit)
        total.put(hit, grown)
        grown += z
        grown *= beta
        out = g.take(hit) <= grown
        if out.any():
            hit_mask.put(hit, out)          # the samples just decided
            undecided = np.logical_not(hit_mask, out=hit_mask)
            _pack(total, undecided)
            left = _pack(g, undecided)
    eps_hat = (n_samples - left) / n_samples
    stderr = math.sqrt(eps_hat * (1.0 - eps_hat) / n_samples)
    return eps_hat, stderr


def random_profile(rng: np.random.Generator, beta, *, max_interferers=30,
                   slot_ms=0.5) -> ProfileBlock:
    """Randomized profile for cross-validating the closed form.

    Interference ratios are log-uniform over [1e-4, 10], the no-fading
    SNR log-uniform over [1, 1e7], interferer shapes uniform in [1, 2],
    the reference shape 1 or 2, and the period durations follow a random
    timing offset.
    """
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
    if n_profiles < 1:
        raise ValueError("validation needs at least one profile")
    n_samples = int(n_samples)
    records = []
    for p in range(int(n_profiles)):
        rng = derive_rng(seed, DOMAIN_VALIDATE, p)
        profile = random_profile(rng, beta)
        eps_cf = outage_closed_form(profile)
        eps_mc, stderr_hat = outage_monte_carlo(profile, n_samples, rng)
        stderr_cf = math.sqrt(eps_cf * (1.0 - eps_cf) / n_samples)
        stderr = max(stderr_hat, stderr_cf)
        diff = abs(eps_cf - eps_mc)
        ok = diff <= 4.0 * stderr + 1e-9
        records.append({
            "profile": p, "n_interferers": profile.n_interferers,
            "m0": profile.m0, "gamma0": profile.gamma0,
            "eps_closed_form": eps_cf, "eps_monte_carlo": eps_mc,
            "stderr": stderr, "abs_diff": diff,
            "within_4_stderr": ok,
        })
    return records, all(r["within_4_stderr"] for r in records)
