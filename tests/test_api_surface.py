"""Every public top-level function and class of the package, and every
private top-level function, is reached from outside its own definition:
from another top-level statement of ``src/schaeffer`` or from the
benchmark harness in ``perfbench/``.  Tests do not count, so a name that
only a test calls fails here; a test that needs an independent reference
keeps it in the test file.  Likewise every field of a record class is read
somewhere in ``src/schaeffer`` or ``perfbench/``, and every name an import
binds in a package module is used in that module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "schaeffer"


def _mentioned(node) -> set:
    """Names and attribute names used anywhere inside ``node``."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def _unreached(private: bool) -> list:
    """The public top-level functions and classes, or the private top-level
    functions, of the package that no other top-level statement mentions."""
    kinds = ast.FunctionDef if private else (ast.FunctionDef, ast.ClassDef)
    statements = []  # (path, top-level statement)
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        statements += [(path, stmt) for stmt in ast.parse(path.read_text()).body]
    mentions = [_mentioned(stmt) for _, stmt in statements]
    unreached = []
    for i, (path, stmt) in enumerate(statements):
        if (path.parent == PACKAGE
                and isinstance(stmt, kinds)
                and stmt.name.startswith("_") == private
                and not any(stmt.name in m for j, m in enumerate(mentions) if j != i)):
            unreached.append(f"{path.name}:{stmt.lineno} {stmt.name}")
    return unreached


def test_every_public_name_is_reached():
    assert _unreached(private=False) == []


def test_every_private_function_is_reached():
    assert _unreached(private=True) == []


def _is_record(cls) -> bool:
    """A ``@dataclass`` or ``NamedTuple`` class."""
    marks = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    return any(getattr(m, "id", getattr(m, "attr", None)) in ("dataclass", "NamedTuple")
               for m in marks + cls.bases)


def _fields_unread() -> list:
    """Fields of the package's record classes that no attribute read in
    ``src/schaeffer`` or ``perfbench/`` names."""
    read = set()
    records = []  # (path, class)
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        read |= {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
        if path.parent == PACKAGE:
            records += [(path, c) for c in ast.walk(tree)
                        if isinstance(c, ast.ClassDef) and _is_record(c)]
    return [f"{path.name}:{stmt.lineno} {cls.name}.{stmt.target.id}"
            for path, cls in records for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and stmt.target.id not in read]


def test_every_record_field_is_read():
    assert _fields_unread() == []


def _unused_imports() -> list:
    """Names that an ``import`` anywhere in a module of ``src/schaeffer``
    binds but the module never uses, apart from ``__future__`` features and
    the names of the module's ``__all__``."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        exported = {elt.value for stmt in tree.body if isinstance(stmt, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in stmt.targets)
                    for elt in stmt.value.elts}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and name not in exported:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


def test_every_imported_name_is_used():
    assert _unused_imports() == []


def _defaults_never_passed() -> list:
    """Default-valued parameters of the package's functions and methods that
    no call in ``src/schaeffer`` or ``perfbench/`` passes, by position or by
    keyword.  Calls are matched by the called name; a call that unpacks
    ``*args`` or ``**kwargs`` counts as passing every parameter."""
    trees = [(path, ast.parse(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))]
    calls = {}  # called name -> its calls
    for _, tree in trees:
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                calls.setdefault(name, []).append(call)
    flagged = []
    for path, tree in trees:
        if path.parent != PACKAGE:
            continue
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            positional = fn.args.posonlyargs + fn.args.args
            bound = 1 if id(fn) in methods and positional and positional[0].arg in ("self", "cls") else 0
            first = len(positional) - len(fn.args.defaults)
            defaulted = [(i - bound, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                          if d is not None]
            for index, arg in defaulted:
                if not any(any(isinstance(a, ast.Starred) for a in c.args)
                           or any(k.arg is None or k.arg == arg for k in c.keywords)
                           or (index is not None and len(c.args) > index)
                           for c in calls.get(fn.name, [])):
                    flagged.append(f"{path.name}:{fn.lineno} {fn.name}({arg})")
    return flagged


def test_every_default_is_overridden():
    # a default that every caller takes is a constant, not a parameter
    assert _defaults_never_passed() == []


def test_benchmark_tracer_installs(monkeypatch):
    # perfbench/tracer.py wraps package functions by name and perfbench/run.py
    # clears two caches by name; strings are not mentions, so a deleted name
    # passes the checks above and breaks only a traced benchmark run
    import importlib
    import sys

    from schaeffer import acceptance, asymptotics

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    harness = ("checks", "tracer")
    saved = {name: sys.modules.pop(name) for name in harness if name in sys.modules}
    try:
        tracer = importlib.import_module("tracer")
        original = asymptotics.uniform_airy_estimate
        t = tracer.Tracer()
        t.install()
        try:
            assert asymptotics.uniform_airy_estimate is not original
        finally:
            t.uninstall()
        assert asymptotics.uniform_airy_estimate is original
    finally:
        for name in harness:
            sys.modules.pop(name, None)
        sys.modules.update(saved)
    assert callable(asymptotics.clear_truth_cache)
    assert isinstance(acceptance._norm_cache, dict)
