"""Every public module-level def or class of the package is named by the package,
its CLI or the benchmark (an AST name scan): what only tests use lives in tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# identities that acceptance criteria 9, 10 and 11 pin
PINNED = {"determinant_expansion_check", "bogovskii_correct", "verify_taylor_remainder"}


def test_every_public_definition_has_a_caller():
    sources = [p for p in (ROOT / "src" / "signorini_lab").glob("*.py") if p.name != "__init__.py"]
    defined, used = {}, set()
    for path in sources + list((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path in sources:
            defined.update((node.name, path.name) for node in tree.body
                           if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                           and not node.name.startswith("_"))
        used.update(node.id if isinstance(node, ast.Name) else node.attr
                    for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))
    assert sources and defined
    unused = sorted(f"{module}: {name}" for name, module in defined.items()
                    if name not in used | PINNED)
    assert not unused, unused
