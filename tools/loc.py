"""Code lines per package: physical lines minus blank, comment-only and
docstring lines (ROADMAP aim 2's "line count goes down" measure).

    python3 tools/loc.py [ROOT=src/repro] [FILE ...]   # FILEs listed singly

A ROOT that is one file counts that file, so
``python3 tools/loc.py src/repro/core/client.py`` gives one file's count.
"""

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path) -> int:
    """Lines of ``path`` that carry at least one token of code."""
    with tokenize.open(path) as f:
        source = f.read()
    lines = set()
    for tok in tokenize.generate_tokens(iter(source.splitlines(True)).__next__):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


if __name__ == "__main__":
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "src/repro")
    totals: dict[str, int] = {}
    for path in [root] if root.is_file() else sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        package = rel.parts[0] if len(rel.parts) > 1 else "."
        totals[package] = totals.get(package, 0) + code_lines(path)
    for package, n in totals.items():
        print(f"{n:7d}  {package}")
    print(f"{sum(totals.values()):7d}  {root}")
    for name in sys.argv[2:]:
        print(f"{code_lines(name):7d}  {name}")
