"""The benchmark's workloads and the correctness gates on their outputs.

A workload sets itself up from an imported ``fhuplink`` package, then runs
numbered ops.  Op k takes its inputs from (seed, k) alone, so a traced
replay of the same ops computes the same outputs.  op_size(k) is the number
of unit ops (trials or validation profiles) in op k; op(k) returns how many
of them failed a gate and a digest of its outputs.  finish() applies the
gates that need the whole run and returns how many more unit ops failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

from common import REFERENCE_FILE, TOPOLOGY_SEED
from layers import PARENT_LAYERS

WARMUP_OP = 1_000_000       # op index used only for the untimed warm-up


def sub_seed(seed, *key):
    """Master seed for a key path (op index, ...) below the benchmark seed."""
    return int(np.random.SeedSequence([int(seed), *map(int, key)])
               .generate_state(1)[0])


def load_reference():
    with open(REFERENCE_FILE) as fh:
        data = json.load(fh)
    return {float(k): v for k, v in data["points"].items()}


def mean_within_reference(mean, sd, n, ref, key):
    """Is a run's mean outage within 4 combined standard errors of ref?

    The run's standard error uses the larger of its own and the
    reference's per-trial deviation: the outage is heavy-tailed at high
    C/M, and a run that drew none of the rare large outages would
    otherwise report a tiny error.  This is the one-sample test that
    ``fhuplink validate`` applies to each profile.
    """
    sd_ref = ref["sd" if key == "epsilon" else "sd_no_hop"]
    mean_ref = ref["epsilon_bar" if key == "epsilon" else "epsilon_bar_no_hop"]
    se_run = max(sd, sd_ref) / math.sqrt(n)
    se_ref = sd_ref / math.sqrt(ref["n_trials"])
    return bool(abs(mean - mean_ref) <= 4.0 * math.hypot(se_run, se_ref))


def in_unit_interval(x):
    x = np.asarray(x, dtype=float)
    return np.isfinite(x) & (x >= 0.0) & (x <= 1.0)


def ase_identity_holds(ase, density, rate, eps_bar):
    """The campaign's ASE is exactly density * rate * (1 - epsilon_bar)."""
    return ase == density * rate * (1.0 - eps_bar)


def read_csv(path):
    """Rows of a fhuplink CSV as dicts of strings, comment lines skipped."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:] if ln]


class Workload:
    """Base: subclasses set name, layers and op/setup/finish."""

    layers = None       # None: every layer; else a tuple of layer names

    def __init__(self, seed, workdir):
        self.seed = int(seed)
        self.workdir = workdir

    def begin(self):
        """Reset the per-pass state before a measured pass."""

    def prepare(self, k):
        """Untimed preparation of op k's inputs."""

    def warmup(self):
        self.op(WARMUP_OP)

    def finish(self):
        return 0


class CampaignPoint(Workload):
    """Campaign chunks at one C/M on the fixed layout, one worker."""

    def __init__(self, seed, workdir, ratio, chunk):
        super().__init__(seed, workdir)
        self.ratio = ratio
        self.chunk = chunk
        self.reference = load_reference()[ratio]

    def setup(self, fh):
        self.fh = fh
        self.cfg = fh.config.RunConfig(seed=TOPOLOGY_SEED, threads=1)
        topo = fh.config.build_topology(self.cfg)
        target_area = topo.n_bs / (self.cfg.density_per_km2 * self.ratio)
        self.topo = fh.topology.scale_topology(
            topo, math.sqrt(target_area / topo.extent.area))
        self.d_r = fh.experiments.resolve_dr_override(self.cfg, self.ratio,
                                                      "typical")

    def op_size(self, k):
        return self.chunk

    def begin(self):
        self.records = []

    def op(self, k):
        cfg = self.cfg
        stats, rec = self.fh.experiments.run_campaign(
            self.topo, cfg, n_trials=self.chunk, seed=sub_seed(self.seed, k),
            threads=1, d_r_override=self.d_r)
        ok = in_unit_interval(rec["epsilon"]) & in_unit_interval(rec["epsilon_no_hop"])
        failed = int(np.count_nonzero(~ok))
        if len(rec) != self.chunk or not ase_identity_holds(
                stats.ase, cfg.density_per_km2, stats.code_rate,
                stats.epsilon_bar):
            failed = self.chunk
        if k != WARMUP_OP:
            self.records.append(rec)
        return failed, rec.tobytes()

    def finish(self):
        rec = np.concatenate(self.records)
        n = len(rec)
        for key in ("epsilon", "epsilon_no_hop"):
            x = rec[key]
            sd = float(np.std(x, ddof=1)) if n > 1 else 0.0
            if not mean_within_reference(float(np.mean(x)), sd, n,
                                         self.reference, key):
                return n
        return 0


class SparseCM005(CampaignPoint):
    name = "sparse_cm005"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir, 0.05, 8)


class DenseCM1(CampaignPoint):
    name = "dense_cm1"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir, 1.0, 64)


class Validate(Workload):
    """`fhuplink validate` one random profile at a time, 1e5 samples each.

    A profile's sampling cost grows with its interferer count, which
    random_profile draws uniformly from 1..30.  The ops are
    stratified on that count: op k takes the first profile seed whose
    profile has the k-th count of the pattern 1, 30, 2, 29, ..., so every
    run sees the uniform mix in balanced order and its speed does not hinge
    on which counts the seed happened to draw.
    """

    name = "validate"
    samples = 100_000
    PATTERN = [n for pair in zip(range(1, 16), range(30, 15, -1)) for n in pair]

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.out = os.path.join(workdir, "validate.csv")
        self.seeds = {}     # op index -> profile seed, kept for the replay

    def setup(self, fh):
        self.fh = fh
        self.beta = fh.config.RunConfig().beta_linear

    def op_size(self, k):
        return 1

    def prepare(self, k):
        if k in self.seeds:
            return
        want = self.PATTERN[k % len(self.PATTERN)]
        fh = self.fh
        # a count the generator cannot draw falls back to the last seed tried
        for j in range(5000):
            s = sub_seed(self.seed, k, j)
            rng = fh.seeding.derive_rng(s, fh.seeding.DOMAIN_VALIDATE, 0)
            if fh.outage.random_profile(rng, self.beta).n_interferers == want:
                break
        self.seeds[k] = s

    def warmup(self):
        self.prepare(WARMUP_OP)
        self.op(WARMUP_OP)

    def op(self, k):
        argv = ["validate", "--profiles", "1", "--samples", str(self.samples),
                "--seed", str(self.seeds[k]), "--out", self.out]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.fh.cli.main(argv)
        (row,) = read_csv(self.out)
        cf = float(row["eps_closed_form"])
        mc = float(row["eps_monte_carlo"])
        n = self.samples
        se = max(math.sqrt(max(mc * (1.0 - mc), 0.0) / n),
                 math.sqrt(max(cf * (1.0 - cf), 0.0) / n))
        ok = (rc == 0 and bool(np.all(in_unit_interval([cf, mc])))
              and abs(cf - mc) <= 4.0 * se + 1e-9)
        return 0 if ok else 1, (cf, mc)


class Densify2W(Workload):
    """`fhuplink densify` over the six default ratios with two workers."""

    name = "densify_2w"
    layers = PARENT_LAYERS
    trials = 150        # per C/M point and call, the size of a quick sweep

    def setup(self, fh):
        self.fh = fh
        cfg = fh.config.RunConfig(seed=TOPOLOGY_SEED)
        self.density = cfg.density_per_km2
        self.n_ratios = len(cfg.cm_ratios)
        topo = fh.config.build_topology(cfg)
        bs_file = os.path.join(self.workdir, "bs.txt")
        fh.topology.save_coordinates(bs_file, topo.bs_xy)
        self.cfg_file = os.path.join(self.workdir, "densify.cfg")
        with open(self.cfg_file, "w") as out:
            out.write(f"topology = file\ntopology_file = {bs_file}\n")
        self.out = os.path.join(self.workdir, "densify.csv")
        self.reference = load_reference()

    def op_size(self, k):
        return self.trials * self.n_ratios

    def begin(self):
        self.points = {}

    def warmup(self):
        self._call(WARMUP_OP, ["--ratios", "1", "--trials", "4"])

    def _call(self, k, extra):
        argv = ["densify", "--config", self.cfg_file, "--threads", "2",
                "--seed", str(sub_seed(self.seed, k)), "--out", self.out] + extra
        rc = self.fh.cli.main(argv)
        return rc, read_csv(self.out)

    def op(self, k):
        rc, rows = self._call(k, ["--trials", str(self.trials)])
        failed = 0
        for row in rows:
            ratio = float(row["cm_ratio"])
            eps = float(row["epsilon_bar"])
            eps_nh = float(row["epsilon_bar_no_hop"])
            ok = (rc == 0 and int(row["n_trials"]) == self.trials
                  and ratio in self.reference
                  and bool(np.all(in_unit_interval([eps, eps_nh])))
                  and ase_identity_holds(float(row["ase_bpcu_km2"]),
                                         self.density,
                                         float(row["code_rate_bpcu"]), eps))
            if not ok:
                failed += self.trials
                continue
            hw_to_sd = math.sqrt(self.trials) / 1.96
            self.points.setdefault(ratio, []).append(
                (eps, float(row["halfwidth95"]) * hw_to_sd,
                 eps_nh, float(row["halfwidth95_no_hop"]) * hw_to_sd))
        if rc != 0 or len(rows) != self.n_ratios:
            failed = self.op_size(k)
        return failed, tuple(tuple(sorted(r.items())) for r in rows)

    def finish(self):
        failed = 0
        for ratio, calls in self.points.items():
            arr = np.asarray(calls)
            n = self.trials * len(arr)
            # equal-sized calls: pooled mean and per-trial deviation
            ok = all(mean_within_reference(
                float(arr[:, col].mean()),
                float(np.sqrt(np.mean(arr[:, col + 1] ** 2))), n,
                self.reference[ratio], key)
                for col, key in ((0, "epsilon"), (2, "epsilon_no_hop")))
            if not ok:
                failed += n
        return failed


WORKLOADS = {w.name: w for w in (SparseCM005, DenseCM1, Validate, Densify2W)}
