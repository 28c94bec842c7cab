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


def _defaulted_parameters(tree):
    """(line, function name, parameter, position) of every parameter with a
    default of every function a module defines; position is the index of
    the argument that passes it positionally (None for keyword-only), not
    counting `self` or `cls`, and an `__init__` is named after its class."""
    owner = {fn: cls.name for cls in ast.walk(tree)
             if isinstance(cls, ast.ClassDef) for fn in cls.body}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        name = owner.get(fn, fn.name) if fn.name == "__init__" else fn.name
        a = fn.args
        positional = a.posonlyargs + a.args
        skip = int(bool(positional) and positional[0].arg in ("self", "cls"))
        first = len(positional) - len(a.defaults)
        for i, p in enumerate(positional[first:], start=first):
            yield fn.lineno, name, p.arg, i - skip
        for p, d in zip(a.kwonlyargs, a.kw_defaults):
            if d is not None:
                yield fn.lineno, name, p.arg, None


def test_every_defaulted_parameter_is_passed():
    # a parameter with a default that no call in the package, the demos or
    # the benchmark passes is set only by tests: a setting nothing uses.
    # Calls are matched by the called name alone, so this can miss a dead
    # parameter whose name another function shares, never flag a live one
    # passed by a direct call
    passed = set()  # (function name, parameter or position)
    everything = set()  # names called with *args or **kwargs
    repo = SRC.parents[1]
    for path in sorted([*SRC.glob("*.py"), *(repo / "demos").glob("*.py"),
                        *(repo / "perfbench").glob("*.py")]):
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            name = (f.id if isinstance(f, ast.Name)
                    else f.attr if isinstance(f, ast.Attribute) else None)
            if (any(isinstance(a, ast.Starred) for a in call.args)
                    or any(k.arg is None for k in call.keywords)):
                everything.add(name)
            passed.update((name, i) for i in range(len(call.args)))
            passed.update((name, k.arg) for k in call.keywords)
    unpassed = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        unpassed += [f"{path.name}:{line} {name}({param})"
                     for line, name, param, i in _defaulted_parameters(tree)
                     if name not in everything and (name, param) not in passed
                     and (name, i) not in passed]
    assert not unpassed, f"defaulted parameters only tests pass: {unpassed}"


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
