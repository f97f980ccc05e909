"""src must not grow unnoticed: its code lines stay at or below a bound.

A code line is a line that holds a Python token other than a comment, and
that is not part of a docstring (the first statement of a module, class or
function, when it is a string). Blank lines, comment lines and docstring
lines do not count. A change that must grow src raises `MAX_CODE_LINES` in
its own diff and says why in CHANGES.md.
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "twostream"

MAX_CODE_LINES = 2837

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    """The number of code lines in Python source `text`."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def test_counter_skips_blank_comment_and_docstring_lines():
    text = '''"""Module
docstring."""

import os  # a comment


def f(x):
    """One line."""
    # a comment line
    s = """not a
docstring"""
    return x
'''
    assert code_lines(text) == 5  # import, def, the two lines of s, return


def test_src_code_lines_stay_within_the_bound():
    counts = {p.name: code_lines(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    total = sum(counts.values())
    assert total <= MAX_CODE_LINES, f"src has {total} code lines, over the bound {MAX_CODE_LINES}: {counts}"
