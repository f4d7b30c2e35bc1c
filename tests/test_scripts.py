"""Digest pins for the experiment scripts' CSV output.

Each script runs as a subprocess on a small grid and writes its CSV into
a temporary directory; the sha256 of the file is pinned, so a change to
the bytes the sweep writes for these grids shows up here.
"""

import hashlib
import os
import subprocess
import sys

import pytest

from conftest import SUBPROCESS_TIMEOUT

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))

# script -> (arguments before --out, CSV sha256)
SCRIPT_PINS = {
    "run_scaling_sweep.py": (
        ("--sizes", "10,15,20", "--trials", "3"),
        "e6d62a4df866a5dc9764a9e1a034b987f140cd7a6688c108a76c177dde0223ca"),
    "run_regime_cells.py": (
        ("--trials", "3"),
        "39b064d53a8fe0d85939fcd93ed8fff61c5ccd25c3b584d6f4ddad6dba819a70"),
}


@pytest.mark.parametrize("script", sorted(SCRIPT_PINS))
def test_script_csv_pinned(script, tmp_path):
    args, digest = SCRIPT_PINS[script]
    out = tmp_path / "out.csv"
    src = os.path.join(ROOT, "src")
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src + os.pathsep + inherited if inherited else src}
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script),
                           *args, "--out", str(out)],
                          capture_output=True, env=env,
                          timeout=SUBPROCESS_TIMEOUT)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
