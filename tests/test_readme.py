"""The README's Library example runs, and every value in its comments is right."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_values():
    # each bare expression ends in "# <repr of its value>[, note]"
    source = library_example()
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        assert comment.startswith("#"), code
        comment = comment[1:].strip()
        shown = repr(eval(code, namespace))
        assert comment == shown or comment.startswith(shown + ", "), (code, shown)
        checked += 1
    assert checked == 4
