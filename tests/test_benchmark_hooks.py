"""The benchmark's hooks into fqzeta still resolve.

perfbench/ checks answers with its own oracles and, under ``--trace 1``,
wraps fqzeta's functions by their module-level names.  A rename in src/
breaks those names without failing any other test, so this runs the oracle
self-test and installs the tracer against ./src in a fresh interpreter.
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
tracer.install(tracer.Tracer())
"""


def test_oracle_self_test_and_tracer_install_run_against_src():
    proc = subprocess.run(
        [sys.executable, "-c", _HOOKS], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
