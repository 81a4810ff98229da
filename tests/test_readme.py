"""The README's library sketch runs, and every result it states in a
trailing comment holds (``...`` ends a prefix of the value's repr)."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def sketch() -> str:
    section = README.read_text().split("## Library sketch", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_sketch_runs_and_its_commented_results_hold():
    code = sketch()
    lines = code.splitlines()
    namespace: dict = {}
    results = []
    for node in ast.parse(code).body:
        if isinstance(node, ast.Expr) and "#" in lines[node.end_lineno - 1]:
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            results.append((repr(value), lines[node.end_lineno - 1].rsplit("#", 1)[1].strip()))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert [expected for _, expected in results] == ["'11100'", "4.0", "7", "1.4512..."]
    for got, expected in results:
        if expected.endswith("..."):
            assert got.startswith(expected[:-3]), (got, expected)
        else:
            assert got == expected
