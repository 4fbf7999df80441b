"""Self-test of the benchmark: python3 -m pytest perfbench -q

Tiny runs of every workload must emit every metric named in
BENCHMARK.json with its unit, and an injected wrong outage must be counted
as failed rather than pass.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
from layers import PER_LAYER_METRICS, Layer  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert _units("end_to_end") == run.END_TO_END_UNITS
    assert _units("per_layer") == dict(PER_LAYER_METRICS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = _units("per_layer" if trace else "end_to_end")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def _run_with_fault(monkeypatch, capsys, workload, patch):
    real_import = run.import_fhuplink

    def faulty_import():
        pkg = real_import()
        patch(pkg)
        return pkg

    monkeypatch.setattr(run, "import_fhuplink", faulty_import)
    rc = run.main(["--workload", workload, "--seed", "5", "--seconds", "0.2"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return rc, result


def _outside_unit_interval(pkg):
    pkg.experiments.outage_closed_form = lambda profile, beta=None: 1.5


def _far_from_reference(pkg):
    real = pkg.experiments.outage_closed_form
    pkg.experiments.outage_closed_form = (
        lambda profile, beta=None: min(1.0, real(profile, beta) + 0.05))


def _raises(pkg):
    def broken(profile, beta=None):
        raise ArithmeticError("injected")
    pkg.experiments.outage_closed_form = broken


def _validate_closed_form_off(pkg):
    real = pkg.outage.outage_closed_form
    pkg.outage.outage_closed_form = (
        lambda profile, beta=None: min(1.0, real(profile, beta) + 0.05))


@pytest.mark.parametrize("workload,patch", [
    ("dense_cm1", _outside_unit_interval),
    ("dense_cm1", _far_from_reference),
    ("dense_cm1", _raises),
    ("validate", _validate_closed_form_off),
])
def test_injected_wrong_outage_fails(monkeypatch, capsys, workload, patch):
    rc, result = _run_with_fault(monkeypatch, capsys, workload, patch)
    assert rc != 0
    assert not result["correct"]
    assert result["failed"] >= 1
    if patch is not _validate_closed_form_off:
        # a wrong outage on a campaign fails every trial of the run
        assert result["failed"] == result["attempted"]


def test_tracer_self_time_and_absent_layer():
    import fhuplink.outage as outage

    tr = Tracer()
    inner = tr.wrap("inner", lambda: sum(range(10000)))
    outer = tr.wrap("outer", lambda: inner() + inner())
    outer()
    times = tr.layer_times()
    assert times["inner"]["calls"] == 2
    assert times["outer"]["self_s"] == pytest.approx(
        times["outer"]["total_s"] - times["inner"]["total_s"], abs=1e-12)
    assert tr.descendant_time("outer", ("inner",)) == pytest.approx(
        times["inner"]["total_s"])

    tr.install(Layer("outage.gone", "fhuplink.outage", "no_such_function",
                     ("fhuplink.outage",)))
    tr.install(Layer("outage.h_t_all", "fhuplink.outage", "h_t_all",
                     ("fhuplink.outage",)))
    try:
        assert tr.absent == ["outage.gone"]
        assert outage.h_t_all is not outage.h_t_all.__wrapped__
    finally:
        tr.uninstall()
    assert not hasattr(outage.h_t_all, "__wrapped__")


def test_failing_hook_leaves_the_call_alone():
    import fhuplink.outage as outage

    def stale_hook(tr, args, result, state):
        return args["argument_that_was_removed"]

    tr = Tracer()
    tr.install(Layer("outage.h_t_all", "fhuplink.outage", "h_t_all",
                     ("fhuplink.outage",), stale_hook))
    wrapped = tr.wrap("square", lambda x: x * x, stale_hook)
    try:
        assert wrapped(3) == 9
        assert wrapped(4) == 16
        with pytest.raises(TypeError):
            wrapped()       # the function's own error still reaches the caller
        assert outage.h_t_all is not outage.h_t_all.__wrapped__
    finally:
        tr.uninstall()
    assert tr.absent == ["square"]
    assert tr.layer_times()["square"]["calls"] == 3


def test_traced_run_survives_a_stale_hook(monkeypatch, capsys):
    import dataclasses

    import layers

    def stale_hook(tr, args, result, state):
        raise KeyError("dist_mc")

    monkeypatch.setattr(layers, "LAYERS", tuple(
        dataclasses.replace(layer, hook=stale_hook)
        if layer.name == "association.associate" else layer
        for layer in layers.LAYERS))
    rc = run.main(["--workload", "dense_cm1", "--seed", "5", "--seconds", "0.2",
                   "--trace", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 0 and result["correct"] and result["failed"] == 0
    assert result["metrics"]["tracer.absent_layers"]["value"] == 1.0
