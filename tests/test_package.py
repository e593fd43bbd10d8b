"""Whole-package checks on the source tree itself."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cobra"

# public names kept without a production caller, each for its reason
NO_CALLER_ALLOWED = {
    "evaluation.mean_average_precision": (
        "the one entry point for a query set and a gallery that are not pairs; "
        "the oracle tests reach queries with no relevant item through it"
    ),
}


def _import_aliases(tree: ast.Module):
    """(local name -> package module, local name -> 'module.name') of the
    cobra imports in one file."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            source = node.module or ""
        elif node.module == "cobra" or (node.module or "").startswith("cobra."):
            source = node.module[len("cobra.") :] if "." in node.module else ""
        else:
            continue
        for alias in node.names:
            local = alias.asname or alias.name
            if source:
                names[local] = f"{source}.{alias.name}"
            else:
                modules[local] = alias.name
    return modules, names


def _references(path: Path, module: str | None = None) -> set[str]:
    """'module.name' of every package definition the file's code names; a
    module-level definition naming itself does not count."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, names = _import_aliases(tree)
    own = {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    refs = set()
    for stmt in tree.body:
        found = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    found.add(f"{modules[node.value.id]}.{node.attr}")
            elif isinstance(node, ast.Name):
                if node.id in names:
                    found.add(names[node.id])
                elif module is not None and node.id in own:
                    found.add(f"{module}.{node.id}")
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            found.discard(f"{module}.{stmt.name}")
        refs |= found
    return refs


def _public_definitions() -> set[str]:
    return {
        f"{path.stem}.{node.name}"
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def test_every_public_definition_has_a_production_caller():
    """Each public module-level function or class of the package is named by
    the package, the scripts or the console entry point, not only by tests."""
    refs = set()
    for path in PACKAGE.glob("*.py"):
        refs |= _references(path, path.stem)
    for path in (ROOT / "scripts").glob("*.py"):
        refs |= _references(path)
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    refs |= {
        f"{m}.{name}" for m, name in re.findall(r'"cobra\.(\w+):(\w+)"', pyproject)
    }

    unused = _public_definitions() - refs - set(NO_CALLER_ALLOWED)
    assert not unused, f"only tests use: {sorted(unused)}"
    assert set(NO_CALLER_ALLOWED) <= _public_definitions()


def _unread_parameters(path: Path) -> list[str]:
    """'module.function(param)' for each parameter of a module-level function
    or method in the file that its body never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        functions += [n for n in cls.body if isinstance(n, ast.FunctionDef)]
    unread = []
    for fn in functions:
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        read = {
            node.id
            for stmt in fn.body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread += [f"{path.stem}.{fn.name}({p.arg})" for p in params if p.arg not in read]
    return unread


def test_every_parameter_is_read():
    """A parameter no body reads is an option that changes nothing. Nested
    closures are exempt: they follow a callback protocol, as setform's
    block_loss(dots, anchor, cand) does without reading `anchor`."""
    unread = [u for path in sorted(PACKAGE.glob("*.py")) for u in _unread_parameters(path)]
    assert not unread, f"parameters never read: {unread}"
