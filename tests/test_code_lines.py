"""tools/code_lines.py: which lines count as code."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# a module docstring, a comment, a blank line and one statement over three
# lines: only the statement's three lines are code
FIXTURE = '''"""Module docstring,
over two lines."""
# a comment

total = (1 +
         2 +
         3)
'''


def test_fixture_counts_three():
    assert code_lines.count_code_lines(FIXTURE) == 3


def test_class_and_function_docstrings_do_not_count():
    source = ('class A:\n    """Class docstring."""\n\n'
              '    def f(self):\n        """Function\n        docstring."""\n'
              '        return """not a\n        docstring"""\n')
    # class A, def f, and the return's string over two lines
    assert code_lines.count_code_lines(source) == 4


def test_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1  # one line\n")
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    assert out.split("\n") == ["     3  a.py", "     1  b.py", "     4  total",
                               ""]
