"""Line counts of the dilatest package, per module and in total.

Usage: python tools/src_lines.py [package directory, default src/dilatest]

For each module it prints the total lines and the code lines: the lines that
hold code once docstrings, comments and blank lines are left out. A line
counts as code when a token other than a comment starts on it or a
multi-line token other than a docstring spans it.
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers of the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def counts(path):
    """(total lines, code lines) of one module."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    code = set()
    with path.open("rb") as handle:
        for tok in tokenize.tokenize(handle.readline):
            if tok.type in SKIPPED or tok.type == tokenize.ENCODING:
                continue
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docs)


def main(argv):
    default = Path(__file__).resolve().parents[1] / "src" / "dilatest"
    root = Path(argv[1]) if len(argv) > 1 else default
    rows = [(path.name, *counts(path)) for path in sorted(root.glob("*.py"))]
    width = max(len(name) for name, _, _ in rows + [("total", 0, 0)])
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>6}  {code:>6}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>6}  {sum(r[2] for r in rows):>6}")


if __name__ == "__main__":
    main(sys.argv)
