"""The demos run as scripts and exit 0.

They call the models and the operator directly, so a change of a public
layout or signature that the tests miss shows here. smooth_convergence is
left out: it runs a convergence study (about 10 s), which
test_acceptance_4_convergence_orders already covers.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("decomposition_tour", "mesh_tooling", "near_vacuum_bp",
         "oscillation_control", "rotation_equivariance")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(name, tmp_path):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH")
        else [src]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
