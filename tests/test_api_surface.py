"""The package's surface is what the package, its CLI or the benchmark use (AST
scans of their sources): module-level defs and classes, the members of classes
and the defaulted parameters. What only tests use lives in tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "signorini_lab").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

# identities that acceptance criteria 9, 10 and 11 pin, with their options
PINNED = {"determinant_expansion_check", "bogovskii_correct", "verify_taylor_remainder"}
# the findings that stay, each for its reason
MEMBERS_ALLOWED = {
    # perfbench passes it to yeoh_material; ROADMAP item 1 removes both
    "material.py: MaterialModel.penalty_kappa",
}
DEFAULTS_ALLOWED = {
    # the console entry point: the `lab` script calls main() with no argument
    "cli.py: main(argv)",
    # the tests run nq = 6 to save time
    "recovery.py: build_recovery_sequence(nq)",
}


def _trees(paths):
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def _attributes(trees, ctx=ast.expr_context):
    return {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ctx)}


def _classes(trees):
    return [(module, node) for module, tree in trees.items()
            for node in tree.body if isinstance(node, ast.ClassDef)]


def _fields(cls):
    """(name, has a default, init) of the data fields of a dataclass or
    NamedTuple, in order; none for another class."""
    deco = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    if not (any(getattr(d, "id", None) == "dataclass" for d in deco)
            or any(getattr(b, "id", None) == "NamedTuple" for b in cls.bases)):
        return []
    return [(node.target.id, node.value is not None,
             not any(k.arg == "init" and getattr(k.value, "value", True) is False
                     for k in getattr(node.value, "keywords", ())))
            for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]


def _methods(cls):
    return [node for node in cls.body if isinstance(node, ast.FunctionDef)]


def class_member_findings(src, callers, readers):
    """(examined, findings): the public methods of the `src` classes that no
    attribute of `callers` names, and the public data fields of their
    dataclasses and NamedTuples that no attribute of `readers` reads."""
    named, read = _attributes(callers), _attributes(readers, ast.Load)
    members = [(module, cls.name, m.name, named) for module, cls in _classes(src)
               for m in _methods(cls)]
    members += [(module, cls.name, name, read) for module, cls in _classes(src)
                for name, _, _ in _fields(cls)]
    examined = [(f"{module}: {cls}.{name}", name in seen)
                for module, cls, name, seen in members if not name.startswith("_")]
    return [key for key, _ in examined], [key for key, ok in examined if not ok]


def _calls(trees):
    """(positional count, keywords, starred) per callee name, of every call;
    `cls(...)` in a class body is a call of that class."""
    calls = {}

    def visit(node, cls_name):
        for child in ast.iter_child_nodes(node):
            visit(child, child.name if isinstance(child, ast.ClassDef) else cls_name)
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            starred = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            calls.setdefault(cls_name if name == "cls" else name, []).append(
                (len(node.args), {k.arg for k in node.keywords}, starred))

    for tree in trees.values():
        visit(tree, None)
    return calls


def _defaulted(fn, skip_self):
    """(name, positional index or None) of the defaulted parameters of fn."""
    a = fn.args
    positional = [p.arg for p in a.posonlyargs + a.args][skip_self:]
    first = len(positional) - len(a.defaults)
    return ([(name, i) for i, name in enumerate(positional) if i >= first]
            + [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None])


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def default_parameter_findings(src, callers):
    """(examined, findings): the defaulted parameters of the `src` functions
    and methods, private ones included and dunders other than __init__ aside,
    and the defaulted public init fields of their dataclasses and
    NamedTuples, that no call of `callers` passes. A `*args` or `**kwargs`
    call passes everything, and assigning a field as an attribute sets it."""
    calls, stored = _calls(callers), _attributes(callers, ast.Store)
    targets = [(f"{module}: {fn.name}", fn.name, _defaulted(fn, False), set())
               for module, tree in src.items() for fn in tree.body
               if isinstance(fn, ast.FunctionDef) and not _dunder(fn.name)]
    for module, cls in _classes(src):
        for fn in _methods(cls):
            if fn.name == "__init__":
                targets.append((f"{module}: {cls.name}", cls.name, _defaulted(fn, True), set()))
            elif not _dunder(fn.name):
                targets.append((f"{module}: {cls.name}.{fn.name}", fn.name,
                                _defaulted(fn, True), set()))
        init = [(name, default) for name, default, init in _fields(cls) if init]
        targets.append((f"{module}: {cls.name}", cls.name,
                        [(name, i) for i, (name, default) in enumerate(init)
                         if default and not name.startswith("_")], stored))
    examined, findings = [], []
    for prefix, callee, params, assigned in targets:
        for name, index in params:
            examined.append(f"{prefix}({name})")
            if not (name in assigned or any(
                    starred or name in keywords or (index is not None and npos > index)
                    for npos, keywords, starred in calls.get(callee, ()))):
                findings.append(examined[-1])
    return examined, findings


def cache_findings(trees):
    """The modules other than geometry.py that name `_cache`, as an attribute,
    a variable or a string: only `Mesh.cached` reads or writes a mesh's cache."""
    def names(node):
        return ((isinstance(node, ast.Attribute) and node.attr == "_cache")
                or (isinstance(node, ast.Name) and node.id == "_cache")
                or (isinstance(node, ast.Constant) and node.value == "_cache"))
    return sorted(module for module, tree in trees.items()
                  if module != "geometry.py" and any(map(names, ast.walk(tree))))


def test_only_geometry_names_the_mesh_cache():
    src = _trees(SRC)
    assert "geometry.py" in src
    assert cache_findings(src) == []


def test_every_public_definition_has_a_caller():
    defined, used = {}, set()
    for path in SRC + BENCH:
        tree = ast.parse(path.read_text(), filename=str(path))
        if path in SRC and path.name != "__init__.py":
            defined.update((node.name, path.name) for node in tree.body
                           if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                           and not node.name.startswith("_"))
        used.update(node.id if isinstance(node, ast.Name) else node.attr
                    for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))
    assert SRC and defined
    unused = sorted(f"{module}: {name}" for name, module in defined.items()
                    if name not in used | PINNED)
    assert not unused, unused


def test_every_class_member_is_used():
    src, bench = _trees(SRC), _trees(BENCH)
    examined, findings = class_member_findings(src, {**src, **bench},
                                               {**src, **bench, **_trees(TESTS)})
    assert examined
    assert set(findings) == MEMBERS_ALLOWED


def test_every_default_parameter_is_passed():
    src = _trees(SRC)
    examined, findings = default_parameter_findings(src, {**src, **_trees(BENCH)})
    assert examined
    unpinned = {f for f in findings if f.split(": ")[1].split("(")[0] not in PINNED}
    assert unpinned == DEFAULTS_ALLOWED


PLANTED = """
from dataclasses import dataclass

@dataclass
class Record:
    kept: int
    unread: int
    level: int = 0

    def used(self, scale=1.0):
        return scale

    def test_only(self):
        return self.kept


def _step(x, rounds=3):
    return x


def solve(x, passed_tol=1.0, unpassed_tol=1.0):
    rec = Record(1, 2)
    return rec.kept + rec.level + rec.used(2.0) + solve(_step(x), passed_tol=0.5)
"""
PLANTED_TEST = "Record(1, 2, level=3).test_only()\n"
PLANTED_CACHE = {
    "geometry.py": "def cached(mesh, key):\n    return mesh._cache[key]\n",
    "attribute.py": "def rows(mesh):\n    mesh._cache['rows'] = 1\n",
    "string.py": "def rows(mesh):\n    return getattr(mesh, '_cache')\n",
    "variable.py": "from geometry import _cache\n\n\ndef rows():\n    return _cache\n",
    "clean.py": "def rows(mesh):\n    return mesh.cached('rows', list)\n",
}


@pytest.mark.parametrize("scan, expected", [
    ("members", ["planted.py: Record.test_only", "planted.py: Record.unread"]),
    ("defaults", ["planted.py: Record(level)", "planted.py: _step(rounds)",
                  "planted.py: solve(unpassed_tol)"]),
])
def test_scans_flag_planted_source(scan, expected):
    # an unread field, a method that only a test calls, and unpassed defaults
    # (one of them passed by a test only, one of a private function)
    src = {"planted.py": ast.parse(PLANTED)}
    if scan == "members":
        examined, findings = class_member_findings(
            src, src, {**src, "test_planted.py": ast.parse(PLANTED_TEST)})
    else:
        examined, findings = default_parameter_findings(src, src)
    assert examined
    assert sorted(findings) == expected


def test_cache_scan_flags_planted_source():
    # the three ways to name the cache outside geometry; geometry's own use
    # and a call of `cached` pass
    src = {name: ast.parse(text) for name, text in PLANTED_CACHE.items()}
    assert cache_findings(src) == ["attribute.py", "string.py", "variable.py"]
