"""Line counts of the package's sources, with and without docstrings.

Run it from the repository root, or pass another source directory:

    python tests/src_lines.py [src/ifutsvm]

For each Python file it prints its lines, its docstring lines (the lines of a
module, class or function docstring) and its code lines: the lines outside
any docstring that hold a token other than a comment, NL, NEWLINE, INDENT or
DEDENT.  For each C file it prints its lines and its code lines: the lines
left non-blank once every /* */ comment is removed.  Then it prints the
totals of each language and of all files.  It uses the standard library only.
"""

import ast
import io
import re
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def python_counts(text: str) -> tuple[int, int, int]:
    """(lines, docstring lines, code lines) of one Python source."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(docstrings), len(code - docstrings)


def c_counts(text: str) -> tuple[int, int]:
    """(lines, code lines) of one C source."""
    stripped = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return len(text.splitlines()), sum(1 for line in stripped.splitlines() if line.strip())


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "ifutsvm"
    python, c = [0, 0, 0], [0, 0]
    for path in sorted(root.rglob("*.py")):
        counts = python_counts(path.read_text(encoding="utf-8"))
        python = [total + n for total, n in zip(python, counts)]
        print(f"{path.relative_to(root)}: {counts[0]:,} lines, {counts[1]:,} docstring, "
              f"{counts[2]:,} code")
    for path in sorted(root.rglob("*.c")):
        counts = c_counts(path.read_text(encoding="utf-8"))
        c = [total + n for total, n in zip(c, counts)]
        print(f"{path.relative_to(root)}: {counts[0]:,} lines, {counts[1]:,} code")
    print(f"Python: {python[0]:,} lines, {python[1]:,} docstring, {python[2]:,} code")
    print(f"C: {c[0]:,} lines, {c[1]:,} code")
    print(f"total: {python[0] + c[0]:,} lines")


if __name__ == "__main__":
    main(sys.argv[1:])
