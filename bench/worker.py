"""One workload in one process: time its iterations and print them as JSON.

Started by run.py with ``src`` on PYTHONPATH and the BLAS thread count fixed.
With --setup-only it imports gaitbo, builds the workload's inputs, prints the
speed probe's figures for that set-up and exits; run.py times the process for
setup_s. Otherwise it warms up on the minimum size, runs untraced iterations
for the time budget (half of it with --trace 1, the other half traced) and
prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

import layertrace
import speedprobe

# Each iteration writes its artifacts to a fresh directory under this one.
TMP = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".bench_tmp")


def artifact_digest(out_dir) -> str:
    """SHA-256 over every file under out_dir: relative path, then bytes."""
    digest = hashlib.sha256()
    paths = []
    for parent, _, files in os.walk(out_dir):
        paths += [os.path.join(parent, f) for f in files]
    for path in sorted(paths):
        digest.update(os.path.relpath(path, out_dir).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def measure(iterate, budget: float) -> list:
    """Iterations until the next one would likely end past the budget; at least one."""
    records = []
    start = time.perf_counter()
    while True:
        records.append(iterate())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(records) > budget:
            return records


def iterate(workload, inputs, tmp_root, traced: bool) -> dict:
    """One iteration in a fresh output directory, checked, then deleted.

    An untraced iteration runs under a speed probe: ``total_s`` and the phase
    times are rescaled to the reference speed, and ``wall_s`` is the wall
    time without the probe's share. A traced one has no probe, so its spans
    hold wall time only.
    """
    out_dir = tempfile.mkdtemp(dir=tmp_root)
    tracer = layertrace.Tracer()
    phases: dict = {}
    try:
        start = time.perf_counter()
        if traced:
            with layertrace.tracing(tracer), tracer.span(layertrace.ROOT):
                outputs = workload.run(inputs, out_dir, phases)
            wall = total = time.perf_counter() - start
        else:
            with speedprobe.SpeedProbe() as probe:
                outputs = workload.run(inputs, out_dir, phases)
                elapsed = time.perf_counter() - start
            wall = elapsed - probe.spent_s
            total = probe.rescale(elapsed, elapsed)
            phases = {name: probe.rescale(t, elapsed) for name, t in phases.items()}
        episodes, quality, failures = workload.check(inputs, out_dir, outputs)
        record = {"total_s": total, "wall_s": wall, "phases": phases, "episodes": episodes,
                  "quality": quality, "failures": failures, "digest": artifact_digest(out_dir)}
    except Exception:
        return {"error": traceback.format_exc(limit=4)}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if traced:
        spans = tracer.summary()
        record["layers"] = layertrace.layer_metrics(tracer)
        record["root_s"] = spans[layertrace.ROOT]["busy_s"]
        record["self_sum_s"] = sum(entry["self_s"] for entry in spans.values())
        record["optimize_s"] = [span_end - span_start
                                for name, span_start, span_end, _ in tracer.spans
                                if name == "bo.optimize"]
    return record


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    with speedprobe.SpeedProbe() as probe:
        # setup_s covers importing gaitbo, so the import runs under the probe.
        import workloads

        workload = workloads.WORKLOADS[args.workload]
        inputs = workload.build(args.seed)
    if args.setup_only:
        print(json.dumps({"probe_s": probe.spent_s, "scale": probe.scale}))
        return 0

    import numpy
    import scipy

    os.makedirs(TMP, exist_ok=True)
    # The first calls import scipy submodules and fill caches; users of a
    # long-lived process pay that once, so it stays out of the timed iterations.
    warm = iterate(workload, workload.build(args.seed, "min"), TMP, traced=False)
    if "error" in warm:
        print(warm["error"], file=sys.stderr)

    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = measure(lambda: iterate(workload, inputs, TMP, False), budget)
    traced = []
    if args.trace:
        traced = measure(lambda: iterate(workload, inputs, TMP, True), budget)
    payload = {
        "untraced": untraced,
        "traced": traced,
        "peak_rss_mb": peak_rss_mb(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if args.trace and args.workload == "full_learn_sim":
        # The full-scale estimate scales this slice's sim-1 and sim-2 runs up
        # to the full config and adds one full-scale sweep, timed untraced.
        full = workloads.gaitbo.full_scale_config(args.seed)
        sweep = workloads.WORKLOADS["full_sweep"]
        record = iterate(sweep, sweep.build(args.seed), TMP, False)
        payload["estimate"] = {"sim1_runs": len(full.p_sim1), "sim2_runs": len(full.p_sim2),
                               "sweep_s": record.get("wall_s")}
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
