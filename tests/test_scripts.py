"""The scripts under ``scripts/`` run from a checkout, at small sizes."""

import os
import subprocess
import sys

import pytest

import grassmann

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "scripts")


@pytest.mark.parametrize("argv", [
    ["dimension_table.py"],
    ["elim_scaling.py", "4"],
    ["codec_scaling.py", "4"],
], ids=lambda argv: argv[0])
def test_script_runs(argv):
    # the child imports grassmann from where this process found it
    src = os.path.dirname(os.path.dirname(grassmann.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, argv[0]), *argv[1:]],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    # each script marks a disagreement with "!" or "NO"
    assert "!" not in proc.stdout and "NO" not in proc.stdout
