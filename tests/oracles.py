"""Independent reference implementations used to check the fast paths.

These deliberately mirror the defining expressions (explicit composition
enumeration, numerical quadrature, library CDFs) rather than the
production algorithms.
"""

import itertools
import math

import mpmath
import numpy as np
from scipy import integrate, stats

from fhuplink.linkbudget import check_threshold
from fhuplink.propagation import path_loss
from fhuplink.topology import distance_matrix, mobile_count


def g_coeff(ell, q, omega, c, m, beta0):
    """Series coefficient G_ell of one interferer-period pair.

    With psi = 1 / (beta0 omega c / m + 1), G_0 = 1 - q (1 - psi^m) covers
    the no-collision mass plus the collided kernel, and for ell > 0
    G_ell = q Gamma(ell + m) / (ell! Gamma(m)) (omega c / m)^ell
    psi^(m + ell), the gamma ratio taken as a rising factorial of m.
    Plain arithmetic, so it runs on floats and on mpmath numbers alike.
    """
    p = 1 / (beta0 * omega * c / m + 1)
    if ell == 0:
        return 1 - q * (1 - p ** m)
    rising = 1
    for r in range(ell):
        rising = rising * (m + r)
    return (q * rising / math.factorial(ell) * (omega * c / m) ** ell
            * p ** (m + ell))


def h_t_enumeration(profile, beta0, t_max):
    """H_t by explicit summation over index compositions.

    Enumerates every tuple of non-negative per-pair indices summing to t
    and accumulates the coefficient products.  Exponential in the pair
    count; only usable for a handful of active pairs.
    """
    pairs = []
    for i in range(profile.n_interferers):
        for k in range(4):
            # pairs that cannot collide contribute the factor
            # G_0 = 1, G_ell = 0 and drop out of every composition
            if profile.q[i, k] > 0 and profile.omega[i] * profile.c[i, k] > 0:
                pairs.append((profile.q[i, k], profile.omega[i],
                              profile.c[i, k], profile.m[i]))
    h = np.zeros(t_max + 1)
    for t in range(t_max + 1):
        total = 0.0
        for combo in itertools.product(range(t + 1), repeat=len(pairs)):
            if sum(combo) != t:
                continue
            prod = 1.0
            for (q, om, c, m), ell in zip(pairs, combo):
                prod *= g_coeff(ell, q, om, c, m, beta0)
            total += prod
        h[t] = total
    return h


def outage_g_series_mpmath(profile, hopping=True, dps=320):
    """Outage from the defining G-series, evaluated in mpmath.

    1 - e^(-beta0 z) sum_{s<n} sum_{t<=s} (beta0 z)^(s-t) / (s-t)!
    beta0^t H_t, with H the product of every pair's G polynomial truncated
    at degree n - 1.  The leading 1 - ... cancels, so an outage of 1e-k
    keeps about dps - k correct digits; the inputs are converted exactly.
    """
    with mpmath.workdps(dps):
        f = mpmath.mpf
        n = (2 if hopping else 1) * profile.m0
        beta0 = f(profile.beta) * n
        x = beta0 / f(profile.gamma0)
        h = [f(1)] + [f(0)] * (n - 1)
        for i in range(profile.n_interferers):
            for k in range(4):
                g = [g_coeff(ell, f(profile.q[i, k]), f(profile.omega[i]),
                             f(profile.c[i, k]), f(profile.m[i]), beta0)
                     for ell in range(n)]
                h = [mpmath.fsum(h[t - ell] * g[ell] for ell in range(t + 1))
                     for t in range(n)]
        total = mpmath.fsum(x ** (s - t) / mpmath.factorial(s - t)
                            * beta0 ** t * h[t]
                            for s in range(n) for t in range(s + 1))
        return 1 - mpmath.exp(-x) * total


def noise_only_outage(gamma0, m0, beta, hopping=True):
    """Interference-free outage via the gamma CDF."""
    shape = 2 * m0 if hopping else m0
    return float(stats.gamma(a=shape, scale=1.0 / shape).cdf(beta / gamma0))


def single_pair_outage_quadrature(gamma0, m0, beta, omega, m, q, c):
    """Outage with one interferer active in one period, by quadrature.

    Conditioning on the collision indicator: with probability 1-q only
    noise is present; with probability q the interferer's gamma gain is
    integrated against the desired-signal CDF.
    """
    z = 1.0 / gamma0
    desired_cdf = stats.gamma(a=2 * m0, scale=1.0 / (2 * m0)).cdf
    gain_pdf = stats.gamma(a=m, scale=1.0 / m).pdf
    # the unit-mean gamma pdf is below 1e-20 past u = 60 for m >= 1
    val, err = integrate.quad(
        lambda u: gain_pdf(u) * desired_cdf(beta * (z + omega * c * u)),
        0.0, 60.0, limit=400)
    assert err < 1e-7
    return (1.0 - q) * desired_cdf(beta * z) + q * val


def plain_outage_monte_carlo(profile, n_samples, rng, beta=None,
                             hopping=True):
    """Outage estimate with every sample drawing for every pair.

    Each interferer-period pair that can collide draws a Bernoulli
    collision indicator and a unit-mean gamma gain for all n_samples
    samples, in pair index order, and the outage indicator is read once
    at the end.  Returns the estimate and its binomial standard error.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    beta = profile.beta if beta is None else float(beta)
    shape = 2 * profile.m0 if hopping else profile.m0
    gbar = rng.gamma(shape, 1.0 / shape, n_samples)
    interference = np.zeros(n_samples)
    for i in range(profile.n_interferers):
        for k in range(4):
            w = profile.omega[i] * profile.c[i, k]
            qik = profile.q[i, k]
            if qik <= 0 or w <= 0:
                continue
            hit = rng.random(n_samples) < qik
            gain = rng.gamma(profile.m[i], 1.0 / profile.m[i], n_samples)
            interference += hit * (w * gain)
    outage = gbar <= beta * (profile.z + interference)
    eps_hat = float(np.mean(outage))
    stderr = math.sqrt(eps_hat * (1.0 - eps_hat) / n_samples)
    return eps_hat, stderr


def _pack(a, keep):
    """Move a[keep] to the front of a, in order; returns its length."""
    kept = a[keep]
    a[:len(kept)] = kept
    return len(kept)


def frozen_outage_monte_carlo(profile, n_samples, rng, beta=None,
                              hopping=True):
    """The early-stopping sampler with boolean-mask bookkeeping, frozen as
    the reference for its draws: fhuplink's outage_monte_carlo must
    return the same estimate and leave rng in the same state.

    A verbatim copy of that sampler, except that the live pairs of the
    one profile, in interferer-major order, are read here rather than
    from fhuplink, so a change there cannot move the reference.
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
    q, w, m = profile.q[live], w[live], np.repeat(profile.m, 4)[live.ravel()]
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


def associate_sequential(shadow, capacity, rng):
    """Association by the plain sequential admission pass.

    Takes each mobile's candidates, as many as the table has columns,
    from all its BS distances in (distance, index) order; reads their
    shadowing through the table, toward each BS's covering sector; ranks
    them by that plus path loss, ties to the earlier candidate; then
    admits mobiles in one uniformly random order, each to its
    best-ranked candidate with load below capacity.  Returns (serving,
    loads, denied).
    """
    t, xy = shadow.t, shadow.mobile_xy
    m, k = shadow.near.shape
    dist = distance_matrix(xy, t.bs_xy)
    index = np.broadcast_to(np.arange(t.n_bs), dist.shape)
    near = np.lexsort((index, dist), axis=1)[:, :k]
    rows = np.arange(m)[:, None]
    cand_sec = t.covering_sector(near, xy[:, None, :])
    xi = shadow.toward_sector(np.broadcast_to(rows, near.shape), cand_sec)
    rank_db = xi + 10.0 * np.log10(path_loss(dist[rows, near], shadow.cfg))
    pref = np.argsort(-rank_db, axis=1, kind="stable")
    serving = np.full(m, -1, dtype=int)
    loads = np.zeros(t.n_sectors, dtype=int)
    for i in rng.permutation(m):
        for slot in pref[i]:
            s = cand_sec[i, slot]
            if loads[s] < capacity:
                serving[i] = s
                loads[s] += 1
                break
    return serving, loads, np.flatnonzero(serving < 0)


def _clear(acc, x, y, r2):
    """Whether (x, y) lies at least sqrt(r2) from every point of acc."""
    return all((x - ax) * (x - ax) + (y - ay) * (y - ay) >= r2
               for ax, ay in acc)


def exclusion_sequential(cand, r_ex):
    """Indices of the candidates rejected one at a time, in O(M^2): a
    candidate is rejected when it lies closer than r_ex to a candidate
    accepted before it."""
    acc, rejected = [], set()
    for i, (x, y) in enumerate(np.asarray(cand, dtype=float).tolist()):
        if _clear(acc, x, y, r_ex * r_ex):
            acc.append((x, y))
        else:
            rejected.add(i)
    return rejected


def place_sequential(t, density, r_ex, rng):
    """Uniform clustering checked one candidate at a time.

    Draws all M candidate x, then all M y, from rng and keeps those that
    exclusion_sequential accepts; then, for each rejected one, redraws x
    then y until the point lies at least r_ex from every mobile accepted
    so far, and appends it.  Returns the (M, 2) positions.
    """
    ext, m = t.extent, mobile_count(t, density)
    cand = np.column_stack([rng.uniform(ext.xmin, ext.xmax, size=m),
                            rng.uniform(ext.ymin, ext.ymax, size=m)])
    rejected = exclusion_sequential(cand, r_ex)
    acc = [p for i, p in enumerate(cand.tolist()) if i not in rejected]
    while len(acc) < m:
        x = rng.uniform(ext.xmin, ext.xmax)
        y = rng.uniform(ext.ymin, ext.ymax)
        if _clear(acc, x, y, r_ex * r_ex):
            acc.append((x, y))
    return np.array(acc)
