"""Count the code lines of src/lcdsubspace, per module and in total.

A code line holds at least one token that is neither a comment nor part of
a docstring: ast finds the docstrings (the leading string of a module,
class or function), and tokenize drops comments and blank lines.  Run from
the root of the repository:

    python .github/scripts/code-lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path("src/lcdsubspace")
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The line numbers spanned by every docstring of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of lines of source with a token outside comments and docstrings."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main():
    total = 0
    for path in sorted(ROOT.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total ({ROOT})")


if __name__ == "__main__":
    main()
