"""Every parameter of a package function is read by its body.

A parameter that the body never reads is an option that decides nothing: a
caller can pass it and nothing changes. It goes, unless a caller outside the
package still passes it; each such parameter is listed here with the reason.
"""

import ast
from pathlib import Path

import pptatlas

ALLOWED_UNREAD = {
    # HermitianOperator is immutable: __setattr__ refuses every assignment
    ("qstate", "HermitianOperator.__setattr__", "name"),
    ("qstate", "HermitianOperator.__setattr__", "value"),
    # product vectors come from one deterministic pencil solve, but the
    # benchmark (perfbench/workloads.py, perfbench/test_checks.py) still
    # passes rng=; it goes once the benchmark stops
    ("rank4", "biseparable_triple", "rng"),
}


def _functions():
    """(module, qualified name, function node, defined in a class) of every
    function in the package."""
    package = Path(pptatlas.__file__).parent
    for path in sorted(package.glob("*.py")):
        yield from _walk(path.stem, ast.parse(path.read_text()), "")


def _walk(module, node, prefix, in_class=False):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield module, prefix + child.name, child, in_class
            yield from _walk(module, child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from _walk(module, child, f"{prefix}{child.name}.", in_class=True)
        else:
            yield from _walk(module, child, prefix, in_class)


def _unread():
    for module, name, func, method in _functions():
        a = func.args
        params = [arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs]
        if method:
            params = params[1:]     # self or cls; the package has no staticmethod
        params += [arg.arg for arg in (a.vararg, a.kwarg) if arg is not None]
        read = {node.id for stmt in func.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for param in params:
            if param not in read:
                yield module, name, param


def test_every_parameter_is_read():
    unread = [entry for entry in _unread() if entry not in ALLOWED_UNREAD]
    assert unread == []


def test_allowed_unread_parameters_are_still_unread():
    # keeps ALLOWED_UNREAD from going stale once an entry is read or removed
    assert ALLOWED_UNREAD <= set(_unread())
