import subprocess
import sys
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"


def tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)], capture_output=True,
                          text=True)


def test_compare_outputs_reads_bitwise_and_flags_a_perturbed_output(tmp_path):
    a, b, c = (tmp_path / f"{name}.npz" for name in "abc")
    for path in (a, b):
        assert tool("dump", path).returncode == 0
    same = tool("compare", a, b)
    lines = same.stdout.splitlines()
    assert same.returncode == 0
    assert len(lines) == len(np.load(a).files) > 0
    assert all(line.endswith("  bitwise") for line in lines)
    # the diagnostics columns and the last state of the three runs
    names = {line.split()[0] for line in lines}
    for run in ("f2-spectral_log", "f1-taylor_cell-printed", "curve-basic"):
        assert {f"run-{run}-{column}" for column in ("t", "E", "delta", "state")} <= names
    # the turning certificates and thresholds of both families
    for variant in ("basic", "even_symmetric"):
        assert {f"turning-{variant}-m256", f"turning-{variant}-m1024",
                f"bstar-{variant}-m512"} <= names

    # one array off by 1e-10 of its scale, past the 1e-12 bound; a run's
    # column with NaN at the same entries, off by 1e-14, within it; and a
    # column with NaN where the other dump has a number
    outputs = dict(np.load(a))
    key, column, moved = "delta-f2-full-m200", "run-curve-basic-dEdt", "run-curve-basic-E"
    assert np.isnan(outputs[column]).sum() == 1
    outputs[key] = outputs[key] * (1.0 + 1e-10)
    outputs[column] = outputs[column] * (1.0 + 1e-14)
    outputs[moved][-1] = np.nan
    np.savez(c, **outputs)
    off = tool("compare", a, c)
    lines = off.stdout.splitlines()
    assert off.returncode == 1
    assert [line.split()[0] for line in lines if "FAIL" in line] == [key, moved]
    assert f"{moved}  NaN at different entries  FAIL" in lines
    rel = next(line for line in lines if line.startswith(f"{column}  ")).split()[1]
    assert 0.0 < float(rel) <= 2e-14

    # an output only one dump holds fails too
    del outputs[key]
    np.savez(c, **outputs)
    missing = tool("compare", a, c)
    assert missing.returncode == 1
    assert f"{key}  only in the first dump" in missing.stdout
