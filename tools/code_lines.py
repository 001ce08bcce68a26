"""Count the code lines of the Python files under each directory given
(default: src/nilq), and print the count per directory.

A line counts unless it is blank, holds only a comment, or lies within a
string standing alone as a statement (a docstring, or the string after a
module constant).  Run from anywhere:

    python tools/code_lines.py [DIRECTORY ...]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    text = path.read_text(encoding="utf-8")
    strings = set()
    for node in ast.walk(ast.parse(text)):
        value = node.value if isinstance(node, ast.Expr) else None
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            strings.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - strings)


if __name__ == "__main__":
    for directory in sys.argv[1:] or [str(Path(__file__).resolve().parents[1] / "src" / "nilq")]:
        print(sum(code_lines(p) for p in sorted(Path(directory).rglob("*.py"))), directory)
