"""Every symbol is built from its separable terms by ``symbols.make_symbol``.

``make_symbol`` sets a symbol's evaluator to the sum of its terms.  So
``SymbolDescriptor(...)`` is called nowhere else in the package, and no
package module passes an ``evaluator=`` keyword; a new builtin or derived
symbol cannot bring back a hand-written evaluator.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def constructor_calls(path):
    """(inside make_symbol, ``file:line: what``) for each SymbolDescriptor call
    and each call passing ``evaluator=`` in the module at ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    inside = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "make_symbol":
            inside = {id(n) for n in ast.walk(node)}
    where = path.relative_to(ROOT)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "SymbolDescriptor":
            out.append((id(node) in inside,
                        f"{where}:{node.lineno}: SymbolDescriptor(...)"))
        if any(kw.arg == "evaluator" for kw in node.keywords):
            out.append((False, f"{where}:{node.lineno}: evaluator="))
    return out


def test_symbols_are_built_only_by_make_symbol():
    calls = [c for p in sorted((ROOT / "src" / "bipdo").glob("*.py"))
             for c in constructor_calls(p)]
    breaches = [line for ok, line in calls if not ok]
    assert not breaches, breaches
    # the scan does see the one call, the one in make_symbol
    assert sum(ok for ok, _ in calls) == 1
