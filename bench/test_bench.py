"""The benchmark's own tests: every workload at minimum size, the tracer and the speed probe.

    PYTHONPATH=src python3 -m pytest bench
"""

import json
import os
import signal
import time

import pytest

import gaitbo
import layertrace
import speedprobe
import workloads
from run import PHASES, QUALITY
from worker import iterate

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "BENCHMARK.json")


def test_every_per_layer_metric_has_a_source():
    with open(SPEC) as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    sources = (list(layertrace.layer_metrics(layertrace.Tracer())) + list(PHASES)
               + list(QUALITY) + ["trace.overhead_s", "failed_frac"])
    assert sorted(declared) == sorted(sources)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_passes_its_checks(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    record = iterate(workload, workload.build(0, "min"), str(tmp_path), traced=False)
    assert "error" not in record, record.get("error")
    assert record["failures"] == []
    assert record["episodes"] > 0
    assert record["total_s"] > 0.0
    assert list(tmp_path.iterdir()) == []


def test_tracing_restores_every_wrapped_function():
    before = [(module, key, getattr(module, key)) for module, key, _, _ in layertrace.bindings()]
    assert {name for _, _, name, _ in layertrace.bindings()} == {
        name for name, *_ in layertrace.LAYERS}
    tracer = layertrace.Tracer()
    with pytest.raises(RuntimeError):
        with layertrace.tracing(tracer):
            assert all(getattr(module, key) is not fn for module, key, fn in before)
            gaitbo.lookup(gaitbo.GainTable.constant(gaitbo.ControlParams.zero()),
                          gaitbo.GaitParameter(0.0, 0.0, 1.0))
            raise RuntimeError("leave the traced block by an exception")
    assert tracer.summary()["scheduler.lookup"]["calls"] == 1
    assert all(getattr(module, key) is fn for module, key, fn in before)


def test_speed_probe_samples_then_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with speedprobe.SpeedProbe() as probe:
        start = time.perf_counter()
        while time.perf_counter() - start < 4 * speedprobe.PERIOD_S:
            pass
        wall = time.perf_counter() - start
    assert len(probe.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.rescale(wall, wall) == pytest.approx(
        (wall - probe.spent_s) * speedprobe.REFERENCE_S * len(probe.samples) / probe.spent_s)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_self_times_add_up_to_the_root_span(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    inputs = workload.build(0, "min")
    untraced = iterate(workload, inputs, str(tmp_path), traced=False)
    traced = iterate(workload, inputs, str(tmp_path), traced=True)
    assert "error" not in traced, traced.get("error")
    assert traced["self_sum_s"] == pytest.approx(traced["root_s"], rel=1e-9, abs=1e-9)
    assert traced["digest"] == untraced["digest"]
    layers = traced["layers"]
    assert layers["plant.run_episode.calls"] > 0
    if name == "full_sweep":
        assert all(value == 0 for key, value in layers.items()
                   if key.startswith(("gp.", "bo.")))
    else:
        assert layers["bo.evaluations"] == untraced["episodes"] - (
            layers["safeset.sweep_commands.commands"])
