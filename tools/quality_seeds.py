"""Quality figures of a benchmark workload over a range of seeds.

    python3 tools/quality_seeds.py --workload desk --seeds 0-9

Run it from the repository root. For each seed it builds the workload as
bench/run.py does, runs one untraced iteration in a temporary directory and
prints one JSON line: the seed, the workload's quality figures, the artifact
digest and the raw wall time. The last line holds each figure's mean and
standard deviation over the seeds. BLAS runs on one thread, as in bench/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from worker import artifact_digest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def seed_range(text: str) -> range:
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def run_seed(workload, seed: int) -> dict:
    cfg = workload.build(seed)
    out_dir = tempfile.mkdtemp()
    try:
        start = time.perf_counter()
        outputs = workload.run(cfg, out_dir, {})
        wall = time.perf_counter() - start
        _, quality, failures = workload.check(cfg, out_dir, outputs)
        return {"seed": seed, **quality, "failures": failures,
                "digest": artifact_digest(out_dir), "wall_s": round(wall, 3)}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"),
                        help="an inclusive range such as 0-9, or one seed")
    args = parser.parse_args(argv)
    rows = []
    for seed in args.seeds:
        rows.append(run_seed(WORKLOADS[args.workload], seed))
        print(json.dumps(rows[-1]), flush=True)
    figures = [k for k, v in rows[0].items() if isinstance(v, float) and k != "wall_s"]
    print(json.dumps({"workload": args.workload, "seeds": [r["seed"] for r in rows],
                      **{k: {"mean": statistics.fmean(r[k] for r in rows),
                             "sd": statistics.stdev(r[k] for r in rows) if len(rows) > 1 else 0.0}
                         for k in figures}}))
    return 1 if any(r["failures"] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
