"""Print the code lines of each module of a package and their total.

A code line is a source line that holds a token other than a comment, and
that no docstring covers: blank lines, comment lines and the lines of a
module's, class's or function's docstring do not count. Tokens come from
the standard library's `tokenize`, docstrings from its `ast`.

Run from the repository root:

    python tests/code_lines.py [DIRECTORY]

DIRECTORY defaults to src/choremms. The script only prints; it sets no
threshold.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "choremms"
# tokens that make no line a code line
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the source."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    lines = {line for tok in tokens if tok.type not in NOT_CODE
             for line in range(tok.start[0], tok.end[0] + 1)}
    return len(lines - docstring_lines(ast.parse(source)))


def count(directory: pathlib.Path) -> dict[str, int]:
    """Each module of the directory, by file name, to its code lines."""
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(directory.glob("*.py"))}


def main(argv: list[str]) -> None:
    directory = pathlib.Path(argv[0]) if argv else PACKAGE
    counts = count(directory)
    for name, lines in counts.items():
        print(f"{lines:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
