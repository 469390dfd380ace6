"""Run one gaitbo benchmark workload and print its metrics.

    python3 bench/run.py --workload desk --seed 0 --seconds 30 --trace 0

Run it from the repository root; it uses the sources under ``src/`` and
needs nothing installed beyond numpy and scipy. The workloads and metrics are
the ones BENCHMARK.json lists, and bench/README.md explains them. With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run. Report lines come first; the last line of output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
SETUP_SAMPLES = 9
# Per-layer entries that hold untraced phase times of the same run.
PHASES = ("learn_sim_s", "extract_safeset_s", "learn_real_s", "benchmark_s")
# Per-layer entries that hold the quality figures of the workload's checks.
QUALITY = ("sim_best_cost_mean", "tuned_track_err", "real_violation_frac", "safe_frac")
# Every run ends within this many seconds, its worker processes included.
DEADLINE_S = 170.0


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def summary_line(label: str, values, unit: str) -> str:
    values = sorted(values)
    return (f"{label}: median {median(values):.6g} {unit}, min {values[0]:.6g}, "
            f"max {values[-1]:.6g}, n={len(values)}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "gaitbo" / "__init__.py").is_file():
        print(f"error: no gaitbo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = worker_env()
    worker = [sys.executable, str(ROOT / "bench" / "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    setup, setup_wall = [], []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                start = time.perf_counter()
                proc = subprocess.run(worker + ["--setup-only"], env=env, cwd=ROOT, check=True,
                                      stdout=subprocess.PIPE, text=True,
                                      timeout=deadline - time.monotonic())
                wall = time.perf_counter() - start
                probe = json.loads(proc.stdout.strip().splitlines()[-1])
                setup_wall.append(wall - probe["probe_s"])
                setup.append(setup_wall[-1] * probe["scale"])
        proc = subprocess.run(
            worker + ["--trace", str(args.trace)],
            env=env, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True,
            timeout=deadline - time.monotonic())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1
    payload = json.loads(proc.stdout.strip().splitlines()[-1])

    untraced, traced = payload["untraced"], payload["traced"]
    records = untraced + traced
    ok = [r for r in records if "error" not in r]
    timed = [r for r in untraced if "error" not in r]
    if not timed:
        for r in records:
            print(r["error"], file=sys.stderr)
        print("error: no iteration completed", file=sys.stderr)
        return 1
    digest = timed[0]["digest"]
    problems = [r["error"] for r in records if "error" in r]
    failed = len(problems)
    for r in ok:
        bad = list(r["failures"])
        if r["digest"] != digest:
            bad.append(f"artifact digest {r['digest']} differs from {digest}")
        failed += bool(bad)
        problems += bad

    print("env: " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": payload["numpy"], "scipy": payload["scipy"],
        "blas_threads": BLAS_THREADS, "commit": git_commit(ROOT)}))
    print(f"artifact_digest: {digest}")
    print(f"iterations: attempted {len(records)}, failed {failed}")
    for problem in problems:
        print(f"check failed: {problem}")
    print(summary_line("total_s", [r["total_s"] for r in timed], "s"))
    print(summary_line("wall_s", [r["wall_s"] for r in timed], "s"))
    for phase in timed[0]["phases"]:
        print(summary_line(phase, [r["phases"][phase] for r in timed], "s"))
    quality = timed[0]["quality"]
    print("quality: " + json.dumps(quality, sort_keys=True))

    if args.trace:
        values = layer_values(spec, payload, timed, quality, failed / len(records))
    else:
        print(summary_line("setup_s", setup, "s"))
        print(summary_line("setup wall_s", setup_wall, "s"))
        values = {
            "total_s": median(r["total_s"] for r in timed),
            "setup_s": median(setup),
            "peak_rss_mb": payload["peak_rss_mb"],
            "episodes_per_s": median(r["episodes"] / r["total_s"] for r in timed),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_values(spec: dict, payload: dict, timed: list, quality: dict,
                 failed_frac: float) -> dict:
    """Per-layer metrics: medians over traced iterations, 0 for a layer not called.

    Phase times come from the untraced iterations of the same run, so they
    carry no tracing cost; trace.overhead_s is the difference in total_s.
    """
    traced = [r for r in payload["traced"] if "error" not in r]
    values = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in PHASES:
            values[name] = median(r["phases"].get(name, 0.0) for r in timed)
        elif name in QUALITY:
            values[name] = quality.get(name, 0.0)
        else:
            values[name] = median(r["layers"][name] for r in traced if name in r["layers"])
    values["failed_frac"] = failed_frac
    values["trace.overhead_s"] = (median(r["wall_s"] for r in traced)
                                  - median(r["wall_s"] for r in timed))
    for r in traced:
        print(f"trace: root span {r['root_s']:.6g} s, summed self time "
              f"{r['self_sum_s']:.6g} s")
    estimate = payload.get("estimate")
    if estimate and estimate["sweep_s"] is not None and traced:
        runs = traced[0]["optimize_s"]
        sim1, sim2 = runs[0], median(runs[1:])
        total = (estimate["sim1_runs"] * sim1 + estimate["sim2_runs"] * sim2
                 + estimate["sweep_s"])
        print(f"full-scale estimate: {estimate['sim1_runs']} x sim-1 {sim1:.4g} s + "
              f"{estimate['sim2_runs']} x sim-2 {sim2:.4g} s + sweep "
              f"{estimate['sweep_s']:.4g} s = {total:.4g} s (traced bo.optimize spans)")
    return values


if __name__ == "__main__":
    sys.exit(main())
