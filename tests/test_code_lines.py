"""tools/code_lines.py counts code lines outside docstrings and comments."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

# a comment on its own line

import os  # a trailing comment


class Shape:
    """A class docstring."""

    sides = 4


def f(a,
      b):
    """A function docstring,
    also over two lines."""
    # an inner comment
    text = """a string that is
    not a docstring"""
    return os.path.join(
        a,

        b, text,
    )
'''


def test_counts_a_fixed_source():
    # import, class, sides, def (2 lines), text (2 lines), return, a, b, )
    assert code_lines.code_lines(SOURCE) == 11


def test_total_is_the_sum_of_the_modules(capsys):
    assert code_lines.main() == 0
    lines = capsys.readouterr().out.splitlines()
    counts = [int(line.split()[-1]) for line in lines]
    assert lines[-1].split()[0] == "total"
    assert len(counts) > 2 and counts[-1] == sum(counts[:-1])
