"""fqzeta benchmark: one workload, measured in fresh single-threaded processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; fqzeta is imported from ./src.  Workloads:
zeta_small_fields, zeta_large_fields, find_pair, algebra (see workloads.py
for why each exists).  One pass runs every job of the workload in one
fresh worker process; passes run one at a time while another one fits in
--seconds (at least one pass, and with --trace 1 at least one untraced and
one traced pass).  The first pass is checked against the independent
oracles and every later pass must reproduce its outputs; a wrong answer
exits 1 without a result.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}.  --trace 0 reports the end-to-end metrics (medians over passes,
times normalized for host speed as hostspeed.py explains): wall_s,
job_p50_s, job_tail_s, setup_s, peak_rss_mb.  --trace 1 reports the
per-layer metrics of the traced passes plus trace.overhead_frac.  The error
rate is failed / attempted.  Details (machine, per-pass figures, failing
exception classes, cliff cases) go to .bench_build/perfbench/.
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

import hostspeed

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 9
RUN_TIMEOUT_S = 170
# job_tail_s is the job time with TAIL_BEYOND jobs slower than it, once a pass
# has at least 2 * TAIL_BEYOND jobs; smaller workloads report their slowest job.
TAIL_BEYOND = 10

PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}



class BenchError(Exception):
    """The run cannot produce a valid result."""


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def machine_info() -> dict:
    import numpy

    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": model,
        "loadavg": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def write_inputs(jobs: list[dict], work: Path) -> None:
    """Write the spec and profile files every CLI job reads."""
    import workloads as wl

    def dump(name: str, data: dict) -> str:
        path = work / name
        path.write_text(json.dumps(data))
        return str(path)

    curve_profile = dump("profile_curve.json", wl.CURVE_PROFILE)
    for job in jobs:
        kind = job["kind"]
        stem = f"job{job['id']}"
        if kind == "curve_zeta":
            job["files"] = {
                "spec": dump(f"{stem}.json", wl.curve_spec(job["p"], job["a"], job["b"])),
                "profile": curve_profile,
            }
        elif kind == "compare":
            job["files"] = {
                "spec_a": dump(f"{stem}a.json", wl.curve_spec(job["p"], *job["curve_a"])),
                "spec_b": dump(f"{stem}b.json", wl.curve_spec(job["p"], *job["curve_b"])),
                "profile": curve_profile,
            }
        elif kind == "surface_zeta":
            if job["surface"] == "fermat_cubic":
                spec = wl.diagonal_surface_spec("Fermat cubic surface over F_2", 2, [1] * 4, 3)
                betti = [1, 0, 7, 0, 1]
            else:
                label = f"quadric {job['coeffs']} over F_{job['p']}"
                spec = wl.diagonal_surface_spec(label, job["p"], job["coeffs"], 2)
                betti = [1, 0, 2, 0, 1]
            job["files"] = {
                "spec": dump(f"{stem}.json", spec),
                "profile": dump(f"{stem}p.json", {"d": 2, "betti": betti}),
            }
        elif kind == "count":
            spec = wl.line_f4_spec() if job["spec"] == "line_f4" else wl.binomial_spec(job["p"], job["c"])
            job["files"] = {"spec": dump(f"{stem}.json", spec)}
        else:
            job["files"] = {}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def measure_setup(root: Path, env: dict) -> tuple[float, float]:
    """Fresh interpreter to ready (start, import fqzeta, import numpy).

    Returns (normalized, raw) seconds; the host slowdown is the mean of the
    readings just before and just after the child process.
    """
    before = hostspeed.slowdown_now()
    # No timeout: with one, subprocess polls the child in sleeps of up to
    # 50 ms, which quantizes the measurement.
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import fqzeta, numpy"], cwd=root, env=env, check=True)
    raw = time.perf_counter() - t0
    return raw / ((before + hostspeed.slowdown_now()) / 2), raw


def run_worker(root, env, work, index, traced, check, deadline) -> dict:
    result_path = work / f"pass{index}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"), str(work / "jobs.json"), str(result_path),
        "--trace", str(int(traced)), "--check", str(int(check)),
    ]
    timeout = max(deadline - time.perf_counter(), 1.0)
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker pass {index} did not finish in time") from None
    if proc.returncode == 3:
        mismatches = json.loads(result_path.read_text())["mismatches"]
        raise BenchError(f"wrong answer: {json.dumps(mismatches[:5])}")
    if proc.returncode != 0:
        raise BenchError(f"worker pass {index} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(result_path.read_text())
    result["traced"] = traced
    return result


def tail_time(times: list[float]) -> float:
    ordered = sorted(times)
    if len(ordered) >= 2 * TAIL_BEYOND:
        return ordered[len(ordered) - 1 - TAIL_BEYOND]
    return ordered[-1]


def pass_figures(result: dict) -> dict:
    times = [j["seconds"] for j in result["jobs"]]
    return {
        "wall_s": result["wall_s"],
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_time(times),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "raw_wall_s": result["raw_wall_s"],
    }


def check_repeatable(passes: list[dict]) -> None:
    """Every pass must give the same outputs and failures as the checked one."""
    first = [(j["digest"], j["error"]) for j in passes[0]["jobs"]]
    for index, result in enumerate(passes[1:], start=1):
        again = [(j["digest"], j["error"]) for j in result["jobs"]]
        if again != first:
            changed = [i for i, (x, y) in enumerate(zip(first, again)) if x != y]
            raise BenchError(f"pass {index} output differs from pass 0 on jobs {changed[:10]}")


# ---------------------------------------------------------------------------
# Cliff cases, from the spans of a traced pass
# ---------------------------------------------------------------------------


def cliff_cases(jobs: list[dict], result: dict) -> dict:
    spans = json.loads(Path(result["spans"]).read_text())
    by_id = {job["id"]: job for job in jobs}
    timing = {j["id"]: j["raw_seconds"] for j in result["jobs"]}

    def duration(s):
        return s["end"] - s["start"]

    cases = {}
    counts = [s for s in spans if s["name"] == "varieties.count_points"]
    for p, name in ((31, "E/F_31^2 N_2 count (vectorized)"), (37, "E/F_37^2 N_2 count (fallback)")):
        hits = [
            duration(s) for s in counts
            if by_id[s["job"]]["kind"] == "curve_zeta" and by_id[s["job"]]["p"] == p and s["n"] == 2
        ]
        if hits:
            cases[name] = {"median_s": statistics.median(hits), "samples": len(hits)}
    tower = [s for s in counts if by_id[s["job"]].get("spec") == "line_f4"]
    if tower:
        cases["line_f4 tower n=1..8 count"] = {
            "total_s": sum(duration(s) for s in tower),
            "per_n_s": {str(s["n"]): duration(s) for s in tower},
        }
    window = [
        duration(s) for s in spans
        if s["name"] == "pairsearch.find_pairs" and 37 <= by_id[s["job"]]["p"] <= 47
    ]
    if window:
        cases["find_pairs 37..47"] = {"total_s": sum(window), "primes": len(window)}
    for job in jobs:
        if job["kind"] == "solve" and job["d"] == 12 and all(job["flags"].values()):
            cases["solve -d 12"] = {"job_s": timing[job["id"]]}
    return cases


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    root = Path.cwd().resolve()
    if not (root / "src" / "fqzeta" / "__init__.py").is_file():
        raise BenchError(f"no fqzeta sources under {root / 'src'}; run from a checkout root")
    sys.path.insert(0, str(root / "src"))
    import oracles
    import workloads as wl

    if workload not in wl.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {sorted(wl.WORKLOADS)}")
    oracles.self_test()

    start = time.perf_counter()
    hard_deadline = start + RUN_TIMEOUT_S
    work = root / ".bench_build" / "perfbench" / f"{workload}-seed{seed}-trace{int(trace)}"
    work.mkdir(parents=True, exist_ok=True)
    jobs = wl.generate(workload, seed)
    write_inputs(jobs, work)
    (work / "jobs.json").write_text(json.dumps(jobs))
    env = worker_env(root)
    detail = {"workload": workload, "seed": seed, "machine": machine_info(), "jobs": len(jobs)}

    setup = []
    if not trace:
        measure_setup(root, env)  # writes bytecode caches, which users also reuse
        setup = [measure_setup(root, env) for _ in range(SETUP_SAMPLES)]
        detail["setup_raw_s"] = [raw for _, raw in setup]
        setup = [normalized for normalized, _ in setup]

    # --seconds is the time for passes; set-up samples come on top of it.
    deadline = time.perf_counter() + seconds
    plan = [False, True] if trace else [False]
    passes: list[dict] = []
    while True:
        traced = plan[len(passes) % len(plan)]
        t0 = time.perf_counter()
        passes.append(run_worker(root, env, work, len(passes), traced, not passes, hard_deadline))
        # Oracle checks do not use up measuring time.
        check_s = passes[-1].get("check_s", 0.0)
        deadline += check_s
        # Start another pass only if one as long as the last still fits.
        pass_s = time.perf_counter() - t0 - check_s
        if len(passes) >= len(plan) and time.perf_counter() + pass_s > deadline:
            break
    check_repeatable(passes)

    plain = [pass_figures(r) for r in passes if not r["traced"]]
    traced_passes = [r for r in passes if r["traced"]]
    attempted = sum(len(r["jobs"]) for r in passes)
    failures: dict[str, int] = {}
    for r in passes:
        for j in r["jobs"]:
            if j["error"]:
                failures[j["error"]] = failures.get(j["error"], 0) + 1
    failed = sum(failures.values())

    if trace:
        metrics = {
            name: statistics.median(r["layers"][name] for r in traced_passes)
            for name in traced_passes[0]["layers"]
        }
        metrics["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced_passes)
            / statistics.median(p["wall_s"] for p in plain)
            - 1
        )
        detail["cliff_cases"] = cliff_cases(jobs, traced_passes[0])
    else:
        metrics = {
            name: statistics.median(p[name] for p in plain)
            for name in ("wall_s", "job_p50_s", "job_tail_s", "peak_rss_mb")
        }
        metrics["setup_s"] = statistics.median(setup)
        detail["setup_samples_s"] = setup
        detail["tail_rule"] = (
            f"{TAIL_BEYOND} jobs beyond" if len(jobs) >= 2 * TAIL_BEYOND else "slowest job"
        )

    detail.update(
        passes=[pass_figures(r) | {"traced": r["traced"]} for r in passes],
        error_rate=failed / attempted,
        failures=failures,
        loadavg_end=list(os.getloadavg()),
    )
    (work / "result.json").write_text(json.dumps(detail, indent=1))
    declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    missing = {m["name"] for m in declared} - set(metrics)
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {sorted(missing)}")
    summary = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    return summary, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        summary, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, AssertionError, subprocess.CalledProcessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    m = detail["machine"]
    print(
        f"# {args.workload} seed={args.seed} passes={len(detail['passes'])} "
        f"jobs/pass={detail['jobs']} python={m['python']} numpy={m['numpy']} "
        f"nproc={m['nproc']} cpu={m['cpu']!r} loadavg={m['loadavg']}"
    )
    print(
        f"# error_rate={detail['error_rate']:.4f} "
        f"({summary['failed']}/{summary['attempted']}) failures={detail['failures']}"
    )
    if "tail_rule" in detail:
        print(f"# job_tail_s: {detail['tail_rule']}, {detail['jobs']} jobs per pass")
    plain = [p for p in detail["passes"] if not p["traced"]]
    raw = statistics.median(p["raw_wall_s"] for p in plain)
    normalized = statistics.median(p["wall_s"] for p in plain)
    print(f"# raw wall_s {raw:.6g} s; host slowdown {raw / normalized:.3f} (times below are normalized)")
    for name, metric in summary["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for name, case in detail.get("cliff_cases", {}).items():
        print(f"# cliff {name}: {json.dumps(case)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
