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
