"""Every top-level function and class in src/psldesigns is reachable,
through name references inside the package, from what the package
offers: the command line, psldesigns.__all__, the names that
perfbench/tracing.py wraps, and the calls of the README's Library
section. Code that only the tests reach belongs in tests/ (the scalar
oracles are in tests/scalar_oracles.py)."""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "psldesigns"

# the calls that the README's Library section documents
README_LIBRARY = (
    ("gf", "make_prime_field"),
    ("starter", "make_starter_context"),
    ("starter", "gives_design"),
    ("starter", "delta_sum"),
    ("starter", "char_sequence"),
    ("design", "build_design"),
    ("design", "verify_design"),
    ("search", "sweep"),
    ("search", "lift_check"),
)


def _bindings(tree):
    """Each top-level name of a module with the statement that binds it."""
    out = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[stmt.name] = stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for node in targets:
                names = [n.id for n in ast.walk(node) if isinstance(n, ast.Name)]
                out.update(dict.fromkeys(names, stmt))
    return out


def _imports(tree):
    """Each name a module imports from psldesigns: a module name for
    `from psldesigns import gf`, a (module, name) pair for
    `from psldesigns.gf import mul`."""
    out = {}
    for stmt in tree.body:
        module = getattr(stmt, "module", None) or ""
        if not isinstance(stmt, ast.ImportFrom) or not module.startswith("psldesigns"):
            continue
        for alias in stmt.names:
            local = alias.asname or alias.name
            if module == "psldesigns":
                out[local] = alias.name
            else:
                out[local] = (module.removeprefix("psldesigns."), alias.name)
    return out


def _unreachable(trees, roots):
    """The top-level functions and classes, as "module.name", that no chain
    of name references leads to from the roots. A module-level statement
    that binds nothing (an `if __name__ == "__main__"` block) is a root."""
    bindings = {mod: _bindings(tree) for mod, tree in trees.items()}
    imports = {mod: _imports(tree) for mod, tree in trees.items()}

    def refs(mod, node):
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                if n.id in bindings[mod]:
                    yield mod, n.id
                elif isinstance(imports[mod].get(n.id), tuple):
                    yield imports[mod][n.id]
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
                target = imports[mod].get(n.value.id)
                if isinstance(target, str):
                    yield target, n.attr

    todo = list(roots)
    for mod, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.If, ast.Expr, ast.For, ast.With, ast.Try)):
                todo += refs(mod, stmt)
    seen = set()
    while todo:
        mod, name = todo.pop()
        if (mod, name) in seen or name not in bindings.get(mod, {}):
            continue
        seen.add((mod, name))
        todo += refs(mod, bindings[mod][name])
    return [
        f"{mod}.{name}"
        for mod, names in bindings.items()
        for name, stmt in names.items()
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and (mod, name) not in seen
    ]


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _roots(trees, tracing):
    roots = [("cli", "main"), *README_LIBRARY]
    # main looks its handlers up by the names in its command table, and
    # each cmd_* handler's text_* and json_* renderers by the same suffix
    for n in ast.walk(trees["cli"]):
        if isinstance(n, ast.Constant) and str(n.value).startswith("cmd_"):
            suffix = n.value.removeprefix("cmd_")
            roots += [("cli", f"{kind}_{suffix}") for kind in ("cmd", "text", "json")]
    reexports = _imports(trees["__init__"])
    for name in importlib.import_module("psldesigns").__all__:
        roots.append(reexports.get(name, ("__init__", name)))
    for table in (tracing.SPANNED, tracing.COUNTED):
        roots += [(mod, name) for mod, names in table.items() for name in names]
    return roots


def test_every_src_function_and_class_is_reachable(tracing):
    trees = _trees()
    assert _unreachable(trees, _roots(trees, tracing)) == []


def test_an_unreferenced_function_is_reported(tracing):
    trees = _trees()
    trees["starter"].body += ast.parse("def orphan():\n    return delta_sum\n").body
    assert _unreachable(trees, _roots(trees, tracing)) == ["starter.orphan"]
