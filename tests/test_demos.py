"""Every script in ``demos/`` runs to completion against the library."""

import os
import pathlib
import subprocess
import sys

import pytest

import vloc

DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("*.py"))
SRC = pathlib.Path(vloc.__file__).parents[1]


def test_demos_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
