import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring,
over two lines."""

import os  # a comment after code


def join(x):
    """A function docstring."""
    # a comment line
    return os.path.join(
        x,
        "y",
    )
'''


def test_counts_code_lines_only():
    # import, def, and the four lines of the call
    assert code_lines.code_lines(SNIPPET) == 6


def test_a_string_inside_a_statement_is_code():
    assert code_lines.code_lines('x = """a\nb"""\n"""doc"""\n') == 2
