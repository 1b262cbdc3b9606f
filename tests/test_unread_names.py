"""Every module-level name that the package assigns is read somewhere.

A constant that nothing reads decides nothing, and a reader takes it for
part of the package's surface. The scan is by name: an assignment at the
top of a module in src/pptatlas counts as read when the same identifier is
loaded, or read as an attribute, anywhere in src/, tests/ or perfbench/.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXEMPT = {"__all__", "__version__"}


def _assigned(tree):
    """Names bound by the module-level assignments of one module."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name):
                    yield node.id


def _read(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def _unread():
    read = set()
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            read.update(_read(ast.parse(path.read_text())))
    for path in sorted((ROOT / "src" / "pptatlas").glob("*.py")):
        for name in _assigned(ast.parse(path.read_text())):
            if name not in EXEMPT and name not in read:
                yield path.stem, name


def test_every_module_level_name_is_read():
    assert list(_unread()) == []
