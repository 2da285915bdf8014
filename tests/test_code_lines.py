import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SAMPLE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment: the line holds code

# a comment line


class Box:
    """Class docstring."""

    def area(self):
        """Function docstring."""
        text = """a string that is
not a docstring"""
        return math.pi, text
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # import, class, def, the two lines of the string, return
    assert load_tool().code_lines(SAMPLE) == 6


def test_code_lines_prints_each_module_and_the_total(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(SAMPLE)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path)], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert [line.split() for line in out] == [["0", str(tmp_path / "empty.py")],
                                              ["6", str(sample)], ["6", "total"]]
