import ast
from pathlib import Path

from aecfeat.errors import AecError, StageError

SRC = Path(__file__).resolve().parents[1] / "src" / "aecfeat"


def test_aec_error_is_a_value_error():
    assert issubclass(AecError, ValueError)
    assert issubclass(StageError, AecError)


def test_every_raise_is_aec_error():
    # every failure the package detects is an AecError (or a StageError
    # wrapping one), so one except clause catches them all
    bad = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if not (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
                    and exc.func.id in ("AecError", "StageError")):
                bad.append(f"{path.name}:{node.lineno}")
    assert not bad, f"{len(bad)} raise sites: {bad}"


def test_no_unused_imports():
    # no linter runs on the package, so an import left behind when its
    # last reader goes is caught here; __init__.py imports to re-export
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.name}:{node.lineno} {a.asname or a.name}"
                           for a in node.names
                           if (a.asname or a.name).split(".")[0] not in read]
    assert not unused, f"unused imports: {unused}"


def _module_level_names(tree):
    """(line, name) of every name a module's top-level statements bind
    other than by import."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        for target in targets:
            for n in ast.walk(target):
                if isinstance(n, ast.Name):
                    yield node.lineno, n.id


def test_no_unused_module_level_names():
    # a function, class or global that its own module never reads and no
    # other module imports is dead code; `pl.stage_extract` after
    # `from . import pipeline as pl` imports `stage_extract`
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    imported = set()  # (module, name)
    for tree in trees.values():
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    imported.add((node.module or "", a.name))
                    if node.module is None:  # `from . import pipeline as pl`
                        aliases[a.asname or a.name] = a.name
        imported |= {(aliases[n.value.id], n.attr) for n in ast.walk(tree)
                     if isinstance(n, ast.Attribute)
                     and isinstance(n.value, ast.Name) and n.value.id in aliases}
    unused = []
    for module, tree in trees.items():
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += [f"{module}.py:{line} {name}"
                   for line, name in _module_level_names(tree)
                   if not (name.startswith("__") or name in read
                           or (module, name) in imported)]
    assert not unused, f"unused module-level names: {unused}"
