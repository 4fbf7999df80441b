"""Per-trial relations of the link stage that hold whatever the bits are.

The link keys (beta_db, activity_prob, k_strongest, p_over_n_db) draw
nothing, so two runs of the same seed that differ in one of them share
every realization, reference and interferer: each record's d_r, serving
sector and denied count agree, and the model fixes the direction in
which each trial's outage moves.  The layout is the benchmark's, master
seed 29, at C/M 0.05 with the typical link length and at C/M 1.0 with
the realized one.
"""

import numpy as np
import pytest

from fhuplink.config import RunConfig, build_topology
from fhuplink.experiments import (_run_block, resolve_dr_override,
                                  run_trials, scale_to_cm)
from fhuplink.linkbudget import ProfileBlock, empty_profile
from fhuplink.outage import outage_batch

BASE = RunConfig(seed=29)
# key: (lower, higher) values, and whether the outage rises with the key
RELATIONS = {"beta_db": ((3.0, 6.0), True),
             "activity_prob": ((0.3, 1.0), True),
             "k_strongest": ((3, 30), True),
             "p_over_n_db": ((40.0, 70.0), False)}


@pytest.fixture(scope="module", params=[(0.05, "typical", 32),
                                        (1.0, "realized", 64)],
                ids=["cm0.05-typical", "cm1-realized"])
def point(request):
    ratio, mode, n = request.param
    t = scale_to_cm(build_topology(BASE), BASE.density_per_km2, ratio)
    d_r = resolve_dr_override(BASE, ratio, mode)

    def records(**keys):
        return run_trials(t, BASE.replace(**keys), 0, n, d_r)
    return t, d_r, n, records


@pytest.mark.parametrize("key", RELATIONS)
def test_a_link_key_moves_each_trials_outage_one_way(point, key):
    _, _, _, records = point
    (low, high), rises = RELATIONS[key]
    lo, hi = records(**{key: low}), records(**{key: high})
    for field in ("d_r", "serving_sector", "n_denied"):
        assert lo[field].tobytes() == hi[field].tobytes(), field
    for field in ("epsilon", "epsilon_no_hop"):
        up, down = (hi, lo) if rises else (lo, hi)
        assert np.all(up[field] >= down[field]), field
        assert np.any(up[field] > down[field]), field


def test_silent_interferers_leave_the_noise_only_outage(point):
    t, d_r, n, records = point
    silent = BASE.replace(activity_prob=0.0)
    got = records(activity_prob=0.0)
    blocks = [(trials, block) for trials, _, block in _run_block(t, silent, 0, n, d_r)]
    assert sum(block.n_interferers.sum() for _, block in blocks) > 0
    order = np.argsort(np.concatenate([trials for trials, _ in blocks]))
    block = ProfileBlock.concat([b for _, b in blocks])
    noise = ProfileBlock.concat([
        empty_profile(g, m0, silent.beta_linear)
        for g, m0 in zip(block.gamma0[order], block.m0[order])])
    eps, eps_no_hop = outage_batch(noise)
    assert got["epsilon"].tobytes() == eps.tobytes()
    assert got["epsilon_no_hop"].tobytes() == eps_no_hop.tobytes()


def test_a_cut_above_every_pool_keeps_everyone(point):
    _, _, _, records = point
    everyone = records(k_strongest=10**6)
    pool = int(everyone["n_interferers"].max())
    assert pool > RELATIONS["k_strongest"][0][1]
    assert records(k_strongest=pool).tobytes() == everyone.tobytes()
