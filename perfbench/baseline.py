"""Record a baseline: every workload untraced and traced, at one seed.

    python3 perfbench/baseline.py [--seed 1] [--seconds 20] [--out perfbench/baseline.json]

Run from the root of a checkout.  Stores, per workload, the end-to-end and
per-layer metrics, the error rate with its failing exception classes, the
machine the numbers came from, and the cliff cases measured from the traced
run next to the estimates they replace.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("zeta_small_fields", "zeta_large_fields", "find_pair", "algebra")

# Estimates the cliff cases replace (one earlier manual measurement each).
PRIOR_ESTIMATES_S = {
    "E/F_31^2 N_2 count (vectorized)": 0.26,
    "E/F_37^2 N_2 count (fallback)": 23.4,
    "find_pairs 37..47": None,
    "line_f4 tower n=1..8 count": None,
    "solve -d 12": 0.14,
}


def run_one(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    detail_path = Path(".bench_build/perfbench") / f"{workload}-seed{seed}-trace{trace}" / "result.json"
    return summary, json.loads(detail_path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--out", default="perfbench/baseline.json")
    args = parser.parse_args(argv)

    baseline = {"seed": args.seed, "seconds": args.seconds, "workloads": {}, "cliff_cases": {}}
    for workload in WORKLOADS:
        plain, plain_detail = run_one(workload, args.seed, args.seconds, 0)
        traced, traced_detail = run_one(workload, args.seed, args.seconds, 1)
        baseline.setdefault("machine", plain_detail["machine"])
        baseline["workloads"][workload] = {
            "jobs_per_pass": plain_detail["jobs"],
            "passes": len(plain_detail["passes"]),
            "end_to_end": {k: v["value"] for k, v in plain["metrics"].items()},
            "error_rate": plain_detail["error_rate"],
            "failures": plain_detail["failures"],
            "tail_rule": plain_detail["tail_rule"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for name, case in traced_detail["cliff_cases"].items():
            baseline["cliff_cases"][name] = case | {
                "workload": workload,
                "prior_estimate_s": PRIOR_ESTIMATES_S.get(name),
            }
    Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
