"""Every name a module imports is used: the package modules and the tests.
Every private module-level name of the package is read inside the package,
and no package module reads a private name another package module defines.
No package module imports inside a function or class body.  Every label
of a ``cli._checked`` block names config keys or parser flags it declares,
and no config key is read both by the CLI and by a library module.

``bipdo/__init__.py`` is left out of the import check, since it imports
names to re-export them.
"""

import ast
import pathlib
import re

from bipdo.cli import _KNOWN_KEYS

ROOT = pathlib.Path(__file__).resolve().parents[1]


def unused_imports(path):
    """``file:line: name`` for each imported name the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported.items() if name not in used]


def test_every_imported_name_is_used():
    paths = [p for p in sorted((ROOT / "src" / "bipdo").glob("*.py"))
             if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    unused = [line for p in paths for line in unused_imports(p)]
    assert not unused, unused


def private_names(path):
    """``name: line`` of each module-level ``_name`` the module defines."""
    out = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            names = []
        out.update({n: node.lineno for n in names
                    if n.startswith("_") and not n.startswith("__")})
    return out


def read_names(path):
    """Every name the module reads, bare or as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_every_private_helper_is_read():
    paths = sorted((ROOT / "src" / "bipdo").glob("*.py"))
    read = set().union(*(read_names(p) for p in paths))
    dead = [f"{p.relative_to(ROOT)}:{line}: {name}" for p in paths
            for name, line in private_names(p).items() if name not in read]
    assert not dead, dead


def nested_imports(path):
    """``file:line`` of each import inside a function or class body."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.update(f"{path.relative_to(ROOT)}:{inner.lineno}"
                       for inner in ast.walk(node)
                       if isinstance(inner, (ast.Import, ast.ImportFrom)))
    return out


def test_no_import_inside_a_function_or_class():
    # a deferred import can hide a module cycle
    paths = sorted((ROOT / "src" / "bipdo").glob("*.py"))
    nested = sorted(set().union(*(nested_imports(p) for p in paths)))
    assert not nested, nested


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def defined_private_names(path):
    """Each ``_name`` the module defines: a function, method or class
    anywhere, a module-level variable, or an attribute it assigns."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set(private_names(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return {n for n in names if _private(n)}


def private_reads(path):
    """``(name, line)`` of each ``_name`` the module reads or imports."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            out.update((alias.name, node.lineno) for alias in node.names)
    return {(n, line) for n, line in out if _private(n)}


def test_no_module_reads_another_modules_private_names():
    paths = [p for p in sorted((ROOT / "src" / "bipdo").glob("*.py"))
             if p.name != "__init__.py"]
    defined = {p: defined_private_names(p) for p in paths}
    foreign = sorted(
        f"{p.relative_to(ROOT)}:{line}: {name} (defined in {q.name})"
        for p in paths for name, line in private_reads(p)
        if name not in defined[p]
        for q in paths if q != p and name in defined[q])
    assert not foreign, foreign


def checked_labels(tree):
    """``(line, text)`` of each ``_checked(label)`` call, with the constant
    parts of an f-string label joined."""
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_checked"):
            label = node.args[0]
            parts = label.values if isinstance(label, ast.JoinedStr) else [label]
            out.append((node.lineno, "".join(p.value for p in parts
                                             if isinstance(p, ast.Constant))))
    return out


def parser_flags(tree):
    """Every ``--flag`` an ``add_argument`` call declares."""
    return {a.value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
            for a in node.args
            if isinstance(a, ast.Constant) and str(a.value).startswith("--")}


def test_checked_labels_name_config_keys_or_flags():
    # a label names what the user wrote: each quoted name a config key, each
    # --name a flag, and at least one of them
    path = ROOT / "src" / "bipdo" / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    flags = parser_flags(tree)
    labels = checked_labels(tree)
    assert labels and flags
    bad = []
    for line, text in labels:
        keys = re.findall(r"'(\w+)'", text)
        dashed = re.findall(r"--[\w-]+", text)
        if (not keys and not dashed) or not set(keys) <= _KNOWN_KEYS \
                or not set(dashed) <= flags:
            bad.append(f"{path.relative_to(ROOT)}:{line}: {text!r}")
    assert not bad, bad


def read_names_of(path):
    """The constant first argument of each ``read_number``, ``read_numbers``
    or ``read_points`` call in the module: the names it reads values as."""
    readers = ("read_number", "read_numbers", "read_points")
    return {node.args[0].value
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call) and node.args
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in readers
            and isinstance(node.args[0], ast.Constant)}


def test_no_config_key_is_read_by_the_cli_and_the_library():
    # a key has one reader: the CLI reads only what no library module reads
    cli_path = ROOT / "src" / "bipdo" / "cli.py"
    cli_keys = read_names_of(cli_path) & _KNOWN_KEYS
    twice = sorted(f"{p.relative_to(ROOT)}: {key}"
                   for p in sorted((ROOT / "src" / "bipdo").glob("*.py")) if p != cli_path
                   for key in read_names_of(p) & cli_keys)
    assert cli_keys and not twice, twice
