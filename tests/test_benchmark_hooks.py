"""The benchmark's hooks into fqzeta still resolve.

perfbench/ checks answers with its own oracles and, under ``--trace 1``,
wraps fqzeta's functions by their module-level names.  A rename in src/
breaks those names without failing any other test, so this runs the oracle
self-test and installs the tracer against ./src in a fresh interpreter.
Some hooks also unpack the arguments of the call they wrap (``curves`` reads
find_pairs's primes, ``points`` count_points's spec and n), so a traced
find-pair and a traced count run there too, as a worker runs its jobs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_HOOKS = """
import os, sys
sys.path[:0] = ["src", "perfbench"]
import fqzeta, oracles, tracer
assert fqzeta.__file__ == os.path.abspath("src/fqzeta/__init__.py"), fqzeta.__file__
oracles.self_test()
t = tracer.Tracer()
tracer.install(t)
from fqzeta import cli
for job, argv in enumerate((
    ["find-pair", "--p-min", "5", "--p-max", "7"],
    ["count", "tests/fixtures/elliptic_f5.json", "-n", "2"],
)):
    rc = t.call(job, "cli.main", cli.main, argv + ["--format", "json"])
    assert rc == 0, (argv, rc)
metrics = tracer.layer_metrics(t.spans)
assert metrics["pairsearch.curves"] > 0 and metrics["pairsearch.pairs"] > 0, metrics
assert metrics["varieties.count_points.calls"] == 2 and metrics["varieties.points"] > 0, metrics
assert metrics["fields.make_extension.calls"] > 0, metrics
"""


def test_oracle_self_test_and_tracer_install_run_against_src():
    proc = subprocess.run(
        [sys.executable, "-c", _HOOKS], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
