"""Whole-package checks on the source tree itself."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cobra"


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

    unused = _public_definitions() - refs
    assert not unused, f"only tests use: {sorted(unused)}"


def _functions(tree: ast.Module) -> list[ast.FunctionDef]:
    """The module-level functions and the methods of module-level classes."""
    functions = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        functions += [n for n in cls.body if isinstance(n, ast.FunctionDef)]
    return functions


def _unread_parameters(path: Path) -> list[str]:
    """'module.function(param)' for each parameter of a module-level function
    or method in the file that its body never reads."""
    unread = []
    for fn in _functions(ast.parse(path.read_text(encoding="utf-8"))):
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


def _passed_parameters(paths) -> dict[str, set]:
    """Callee name -> the keywords its calls in `paths` pass, the positions
    they fill (as ints), and "*" if a call unpacks into it."""
    passed: dict[str, set] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            got = passed.setdefault(callee, set())
            got |= {k.arg or "*" for k in node.keywords}
            got |= {"*" if isinstance(a, ast.Starred) else i for i, a in enumerate(node.args)}
    return passed


def _unset_optional_parameters(package: Path, scripts: Path) -> list[str]:
    """'module.function(param)' for each defaulted parameter of a public
    function or method of `package` that no call in `package` or `scripts`
    passes by keyword, by position or through */** unpacking. Calls are
    matched to definitions by name; a method's positions skip `self`."""
    paths = sorted(package.glob("*.py")) + sorted(scripts.glob("*.py"))
    passed = _passed_parameters(paths)
    unset = []
    for path in sorted(package.glob("*.py")):
        for fn in _functions(ast.parse(path.read_text(encoding="utf-8"))):
            if fn.name.startswith("_"):
                continue
            a = fn.args
            positional = a.posonlyargs + a.args
            is_method = bool(positional) and positional[0].arg in ("self", "cls")
            got = passed.get(fn.name, set())
            defaulted = list(enumerate(positional))[len(positional) - len(a.defaults) :]
            defaulted += [(None, p) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d]
            for i, p in defaulted:
                position = None if i is None else i - is_method
                if not {"*", p.arg, position} & got:
                    unset.append(f"{path.stem}.{fn.name}({p.arg})")
    return unset


def test_every_optional_parameter_is_set_by_production():
    """A defaulted parameter that only tests set is an option no user
    reaches: each must be passed by some call in the package or the
    scripts. Tests reach other behaviour through the production path or by
    monkeypatching."""
    unset = _unset_optional_parameters(PACKAGE, ROOT / "scripts")
    assert not unset, f"optional parameters only tests set: {unset}"
