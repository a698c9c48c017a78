"""The core package runs on the standard library alone.

``pyproject.toml`` declares no runtime dependency, and a heavy optional
one would still cost start-up time and resident memory in every sweep
worker if some module imported it.  The check runs in a fresh
interpreter, where nothing else has imported numpy first.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

SCRIPT = """
import sys

import repro
from repro.config import MachineConfig
from repro.experiments.runner import run_accounted
from repro.workloads.spec import build_program
from repro.workloads.suite import by_name

program = build_program(by_name("cholesky"), 2, scale=0.05)
run_accounted(MachineConfig(n_cores=2), program)
print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
"""


def test_accounted_cell_imports_no_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
