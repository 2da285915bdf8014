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

    # one array off by 1e-10 of its scale, past the 1e-12 bound
    outputs = dict(np.load(a))
    key = "delta-f2-full-m200"
    outputs[key] = outputs[key] * (1.0 + 1e-10)
    np.savez(c, **outputs)
    off = tool("compare", a, c)
    assert off.returncode == 1
    assert [line.split()[0] for line in off.stdout.splitlines() if "FAIL" in line] == [key]

    # an output only one dump holds fails too
    del outputs[key]
    np.savez(c, **outputs)
    missing = tool("compare", a, c)
    assert missing.returncode == 1
    assert f"{key}  only in the first dump" in missing.stdout
