"""Print the two line counts of src/mmlqg: every line (what
`cat src/mmlqg/*.py | wc -l` prints), then the code lines, the physical
lines holding a token other than a comment or whitespace token, less the
lines of module, class and function docstrings.

    python3 tools/src_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mmlqg"
BLANK = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)

total = code = 0
for path in sorted(SRC.glob("*.py")):
    text = path.read_text()
    total += text.count("\n")
    lines = {line for tok in tokenize.generate_tokens(io.StringIO(text).readline)
             if tok.type not in BLANK for line in range(tok.start[0], tok.end[0] + 1)}
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code += len(lines)
print(total)
print(code)
