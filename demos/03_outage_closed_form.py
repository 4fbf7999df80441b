"""Exact conditional outage versus brute-force SINR sampling.

For a fixed network realization the outage probability of the reference
link has an exact expression: frequency hopping gives the desired signal
two independently faded slots (a gamma gain of doubled shape), and the
outage is the tail of a count, a Poisson noise count plus one
collision-gated negative binomial count per interferer-period pair, folded
from positive terms only.  The Monte Carlo estimator here samples the
same SINR directly and should agree to sampling noise.
"""

import numpy as np

from fhuplink import (InterferenceProfile, fractional_durations,
                      outage_closed_form, outage_monte_carlo)
from fhuplink.outage import random_profile


def main():
    print("=" * 72)
    print("Closed-form outage vs direct SINR sampling (100k samples each)")
    print("=" * 72)
    # profiles and samples on separate streams, so the table's profiles
    # do not depend on how many draws the sampler takes
    profile_rng, sample_rng = (np.random.default_rng(s) for s in
                               np.random.SeedSequence(12).spawn(2))

    print(f"\n{'profile':>7} {'n_int':>5} {'m0':>3} {'gamma0':>10} "
          f"{'closed':>9} {'sampled':>9} {'z':>5}")
    shown = 0
    while shown < 8:
        prof = random_profile(profile_rng, beta=10 ** 0.3)
        eps = outage_closed_form(prof)
        est, se_hat = outage_monte_carlo(prof, 100_000, sample_rng)
        # near 0 or 1 the plug-in error collapses; use the model-implied one
        se = max(se_hat, float(np.sqrt(eps * (1 - eps) / 100_000)), 1e-12)
        z = abs(eps - est) / se
        print(f"{shown:>7} {prof.n_interferers:>5} {prof.m0:>3} "
              f"{prof.gamma0:>10.3e} {eps:>9.5f} {est:>9.5f} {z:>5.2f}")
        shown += 1

    print("\nSlot diversity on a link that is usually up (28 dB SNR, four")
    print("moderate interferers): hopping wins, and more so at high rate.")
    rng2 = np.random.default_rng(3)
    omega = np.array([0.3, 0.1, 0.05, 0.02])
    prof = InterferenceProfile(
        gamma0=10 ** 2.8, m0=2, beta=10 ** 0.3,
        omega=omega, m=np.array([1.2, 1.4, 1.1, 1.8]),
        q=np.full((4, 4), 0.3),
        c=fractional_durations(rng2.uniform(0, 0.5, 4), 0.5))
    for beta_db in (0.0, 3.0, 6.0, 9.0):
        beta = 10 ** (beta_db / 10)
        hop = outage_closed_form(prof, beta=beta)
        no_hop = outage_closed_form(prof, beta=beta, hopping=False)
        print(f"  beta = {beta_db:+.0f} dB: hopping {hop:.5f}  "
              f"constant-fading {no_hop:.5f}")


if __name__ == "__main__":
    main()
