"""A ratchet on the package's settable values.

Every defaulted function parameter and every defaulted dataclass field in
``src/`` is a value a caller can set.  The count may fall but not rise, so a
new knob shows up as an edit to PINNED in review.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PINNED = 27


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute):
            name = target.attr
        else:
            name = getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def settable_values(tree: ast.AST) -> int:
    """Defaulted parameters of every function and lambda, plus defaulted
    fields of every dataclass."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(
                isinstance(st, ast.AnnAssign) and st.value is not None for st in node.body
            )
    return count


def test_settable_values_do_not_grow():
    total = sum(settable_values(ast.parse(p.read_text(encoding="utf-8")))
                for p in sorted(SRC.rglob("*.py")))
    assert total <= PINNED, f"{total} settable values in src/, pinned at {PINNED}"


def test_the_count_sees_parameters_and_fields():
    code = (
        "from dataclasses import dataclass\n"
        "def f(a, b=1, *, c=2, d): pass\n"
        "g = lambda x=0: x\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    x: int\n"
        "    y: int = 3\n"
        "class B:\n"
        "    z: int = 4\n"
    )
    assert settable_values(ast.parse(code)) == 4
