"""One pass of a workload in a fresh single-threaded process.

    python3 perfbench/worker.py JOBS.json RESULT.json --trace 0|1 --check 0|1

Runs every job in order in this process, so fqzeta's caches persist across
jobs as in a batch session.  CLI jobs go through ``fqzeta.cli.main([...,
"--format", "json"])``; synthetic round trips call the public ``fqzeta.zeta``
functions.  Each job's time is recorded raw and normalized for host speed
(see hostspeed.py).  Oracle checks run after the timed jobs, and only with
--check 1.  A wrong answer makes the worker exit with status 3.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from hostspeed import SpeedProbe

EXIT_WRONG_ANSWER = 3


def _cli_argv(job: dict) -> list[str]:
    kind, files = job["kind"], job["files"]
    if kind in ("curve_zeta", "surface_zeta"):
        argv = ["zeta", files["spec"], "--profile", files["profile"]]
    elif kind == "compare":
        argv = ["compare", files["spec_a"], files["spec_b"], "--profile", files["profile"]]
    elif kind == "count":
        argv = ["count", files["spec"], "-n", str(job["n"])]
    elif kind == "find_pair":
        argv = ["find-pair", "--p-min", str(job["p"]), "--p-max", str(job["p"])]
    else:  # solve
        argv = ["solve", "-d", str(job["d"]), "--max-d", str(job["d"])]
        argv += [
            f"--{'' if on else 'no-'}{flag.replace('_', '-')}"
            for flag, on in job["flags"].items()
        ]
    return argv + ["--format", "json"]


def _roundtrip(zeta, job: dict) -> dict:
    """Counts -> zeta -> weight split -> traces and checks, on a synthetic Z(t)."""
    factors, q, d = job["factors"], job["q"], job["d"]
    profile = zeta.CohomologyProfile(d, tuple(len(f) - 1 for f in factors))
    source = zeta.ZetaFunction(q, tuple(job["num"]), tuple(job["den"]))
    series = zeta.counts_from_zeta(source, job["terms"])
    fitted = zeta.zeta_from_counts(
        series,
        profile.odd_total,
        profile.even_total,
        known_denominator=zeta.connected_denominator(q, d),
    )
    split = zeta.factor_by_weights(fitted, profile)
    traces = zeta.traces_from_factorization(split, job["depth"])
    duality = zeta.check_functional_equation(split)
    rh = zeta.check_riemann_hypothesis(split)
    return {
        "counts": list(series.counts),
        "zeta": fitted.to_dict(),
        "factors": [list(f) for f in split.factors],
        "traces": [list(t) for t in traces.traces],
        "duality": duality,
        "riemann_hypothesis": rh,
    }


def run_pass(jobs: list[dict], tracer) -> list[dict]:
    """Run every job; each record holds raw and host-normalized seconds."""
    from fqzeta import cli, zeta

    records = []
    with SpeedProbe() as probe:
        for job in jobs:
            records.append(_run_job(job, tracer, cli, zeta))
    for record in records:
        record["seconds"] = probe.normalize(record["start"], record["end"])
        record["raw_seconds"] = record["end"] - record["start"]
    return records


def _run_job(job: dict, tracer, cli, zeta) -> dict:
    record = {"id": job["id"], "kind": job["kind"], "error": None, "rc": None}
    failure = None
    t0 = time.perf_counter()
    if job["kind"] == "roundtrip":
        try:
            if tracer:
                out = tracer.call(job["id"], "bench.roundtrip", _roundtrip, zeta, job)
            else:
                out = _roundtrip(zeta, job)
            record["rc"] = 0
        except Exception as exc:
            out = None
            failure = exc
    else:
        argv = _cli_argv(job)
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if tracer:
                    record["rc"] = tracer.call(job["id"], "cli.main", cli.main, argv)
                else:
                    record["rc"] = cli.main(argv)
        except SystemExit as exc:
            record["rc"] = exc.code
        except Exception as exc:
            failure = exc
        out = stdout.getvalue()
        if failure is None and record["rc"] not in _expected_rcs(job):
            record["error"] = f"exit {record['rc']}"
            record["stderr"] = stderr.getvalue()[-500:]
    record["start"], record["end"] = t0, time.perf_counter()
    if failure is not None:
        record["error"] = type(failure).__name__
        record["stderr"] = "".join(traceback.format_exception(failure))[-500:]
    record["out"] = out
    return record


def _expected_rcs(job: dict):
    # solve exits 1 when degrees stay unforced; the oracle decides which.
    return (0, 1) if job["kind"] == "solve" else (0,)


def _digest(out) -> str:
    text = out if isinstance(out, str) else json.dumps(out, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("jobs")
    parser.add_argument("result")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import fqzeta
    import fqzeta.cli  # noqa: F401  (imported before any wrapper is installed)

    src = Path.cwd().resolve() / "src"
    if Path(fqzeta.__file__).resolve().parent.parent != src:
        print(f"fqzeta imported from {fqzeta.__file__}, not {src}", file=sys.stderr)
        return 2
    jobs = json.loads(Path(args.jobs).read_text())

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    records = run_pass(jobs, tracer)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "wall_s": sum(r["seconds"] for r in records),
        "raw_wall_s": records[-1]["end"] - records[0]["start"],
        "peak_rss_kb": peak_kb,
        "jobs": [
            {k: v for k, v in r.items() if k not in ("out", "start", "end")}
            | {"digest": _digest(r["out"])}
            for r in records
        ],
    }
    if tracer:
        from tracer import layer_metrics

        result["layers"] = layer_metrics(tracer.spans)
        result["spans"] = str(Path(args.result).with_suffix(".spans.json"))
        Path(result["spans"]).write_text(json.dumps(tracer.spans))

    status = 0
    if args.check:
        from oracles import OracleMismatch, check_job

        check_start = time.perf_counter()
        mismatches = []
        for job, r in zip(jobs, records):
            if r["error"] is not None:
                continue
            out = r["out"] if job["kind"] == "roundtrip" else json.loads(r["out"])
            try:
                check_job(job, out, r["rc"])
            except OracleMismatch as exc:
                mismatches.append({"id": job["id"], "job": job, "mismatch": str(exc)})
        result["mismatches"] = mismatches
        result["check_s"] = time.perf_counter() - check_start
        if mismatches:
            status = EXIT_WRONG_ANSWER
    Path(args.result).write_text(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
