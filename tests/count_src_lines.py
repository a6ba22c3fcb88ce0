"""Count the lines of ``src/tumorfem``: all of them, and the code lines.

Run it as ``python tests/count_src_lines.py`` from any directory. It
prints two counts for each of the package's ``.py`` files, one row per
module, and then their totals: every line, as ``wc -l`` counts them, and
the code lines, which leave out blank lines, comment lines and the lines
of module, class and function docstrings.
Only the standard library is used, so the count needs no install.
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tumorfem"

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The lines that hold a token of code and no part of a docstring."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> None:
    total = code = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines, module_code = source.count("\n"), code_lines(source)
        print(f"src/tumorfem/{path.name}: {lines:,} lines, {module_code:,} code lines")
        total += lines
        code += module_code
    print(f"src/tumorfem: {total:,} lines (wc -l), {code:,} code lines")


if __name__ == "__main__":
    main()
