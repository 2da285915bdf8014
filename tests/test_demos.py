import glob
import os
import subprocess
import sys

import pytest

import stokescontour as sc

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "demos", "*.py")))


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, tmp_path):
    # the demos' scratch files go to tmp_path through TMPDIR
    src = os.path.dirname(os.path.dirname(sc.__file__))
    env = dict(os.environ, PYTHONPATH=src, TMPDIR=str(tmp_path))
    subprocess.run([sys.executable, path], check=True, env=env, cwd=tmp_path)
    # a demo removes the temporary directories it makes
    assert not list(tmp_path.glob("stokescontour_demo_*"))
