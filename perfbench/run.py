"""fhuplink benchmark: one workload, end to end or traced layer by layer.

    python3 perfbench/run.py --workload sparse_cm005 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the simulator is imported from
./src.  With --trace 0 it times the workload untraced and reports the
end-to-end metrics; with --trace 1 it times half the budget untraced, then
replays the same ops with span wrappers installed and reports the
per-layer metrics.  Every output is checked (see workloads.py).  The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Traces and a result record
with the environment are written under ./perfbench_out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench_out")

SETUP_REPS = 8           # set-ups before the timed loop, and again after it

END_TO_END_UNITS = {"ops_per_s": "1/s", "cpu_s_per_op": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def cpu_seconds():
    """CPU of this process (all threads) and of its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb():
    """Peak resident set of this process plus that of its largest child."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    """What the run found; the benchmark sets none of it."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")},
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def import_fhuplink():
    """Import the package afresh from ./src, with the submodules loaded."""
    for name in [n for n in sys.modules if n == "fhuplink" or n.startswith("fhuplink.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("fhuplink")
    for sub in ("cli", "config", "experiments", "topology", "outage", "seeding"):
        importlib.import_module(f"fhuplink.{sub}")
    return pkg


def time_setups(workload, reps):
    """Seconds of each of `reps` set-ups: a fresh import plus the workload's."""
    times = []
    for _ in range(reps):
        gc.collect()
        start = time.perf_counter()
        workload.setup(import_fhuplink())
        times.append(time.perf_counter() - start)
    return times


class Run:
    """Counts of one measured pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests = []
        self.wall_s = 0.0
        self.cpu_s = 0.0


def measure(workload, run, seconds=None, n_ops=None):
    """Run ops until `seconds` have passed (at least one) or `n_ops` ran.

    Wall and CPU time are summed over the ops themselves; the workload's
    untimed prepare() step falls outside them.
    """
    workload.begin()
    start = time.perf_counter()
    k = 0
    while (k < n_ops) if n_ops is not None else (
            k == 0 or time.perf_counter() - start < seconds):
        workload.prepare(k)
        run.attempted += workload.op_size(k)
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        failed, digest = workload.op(k)
        run.wall_s += time.perf_counter() - t0
        run.cpu_s += cpu_seconds() - cpu0
        run.failed += failed
        run.digests.append(digest)
        k += 1
    # a run-level gate may fail ops that a per-op gate already failed
    run.failed = min(run.attempted, run.failed + workload.finish())
    return k


def print_metrics(metrics):
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "fhuplink", "__init__.py")):
        print(f"perfbench: no simulator source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    os.makedirs(OUT_DIR, exist_ok=True)
    # scratch files of the CLI workloads; removed when the run ends
    workdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    untraced = Run()
    traced = Run()
    metrics = {}
    error = None
    try:
        setup_times = time_setups(workload, SETUP_REPS)
        workload.warmup()
        if args.trace == 0:
            measure(workload, untraced, seconds=args.seconds)
            # set up again after the loop, so the median spans the run
            setup_times += time_setups(workload, SETUP_REPS)
            values = {
                "ops_per_s": untraced.attempted / untraced.wall_s,
                "cpu_s_per_op": untraced.cpu_s / untraced.attempted,
                "peak_rss_mb": peak_rss_mb(),
                "setup_s": statistics.median(setup_times),
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in values.items()}
        else:
            metrics = traced_run(workload, untraced, traced, args)
    except Exception:
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = max(untraced.attempted + traced.attempted, 1)
    failed = untraced.failed + traced.failed
    if error is not None:
        failed = attempted
    print_metrics(metrics)
    print(f"failed_frac = {failed / attempted:.6g} frac "
          f"({failed} of {attempted} ops)")
    result = {"correct": failed == 0 and error is None, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, env=env,
                  failed_frac=failed / attempted, error=error)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def traced_run(workload, untraced, traced, args):
    """Untraced half, then the same ops replayed under the tracer."""
    from layers import LAYERS, per_layer_metrics, PER_LAYER_UNITS
    from tracer import Tracer

    n_ops = measure(workload, untraced, seconds=args.seconds / 2.0)
    tracer = Tracer()
    for layer in LAYERS:
        if workload.layers is None or layer.name in workload.layers:
            tracer.install(layer)
    try:
        # set up once more so the set-up layers leave spans too
        workload.setup(workload.fh)
        measure(workload, traced, n_ops=n_ops)
    finally:
        tracer.uninstall()
    if traced.digests != untraced.digests:
        traced.failed = traced.attempted
        print("perfbench: traced replay changed the outputs", file=sys.stderr)
    ops = traced.attempted
    overhead = traced.wall_s / untraced.wall_s - 1.0
    values = per_layer_metrics(tracer, ops, traced.wall_s, overhead)
    tracer.dump(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans.json"),
                {"workload": args.workload, "seed": args.seed, "ops": ops,
                 "wall_s": traced.wall_s})
    if tracer.absent:
        print("absent layers: " + ", ".join(tracer.absent))
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
