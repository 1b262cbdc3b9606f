"""Run tolerances travel as one Tolerances value, never as loose floats.

Every function in the package that makes a rank, PPT-sign, face-dimension or
vanishing-I2 decision takes `tolerances: Tolerances`. A parameter carrying one
of those thresholds on its own would let a call site drop it on the way down.
Every other threshold is a module constant: no keyword has a float-literal
default, except the few whose callers pass more than one value.
"""

import ast
from pathlib import Path

import pptatlas

LOOSE_TOLERANCE_NAMES = {"tol", "psd_tol", "window", "i2_zero_tol", "rank_tol"}
# the product-vector split threshold is not a run tolerance
ALLOWED = {("qstate", "rank1_split", "tol"), ("qstate", "factor_product_vector", "tol")}


def _functions():
    """(module, function name, ast.arguments) of every function in the package."""
    package = Path(pptatlas.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield path.stem, getattr(node, "name", "<lambda>"), node.args


def _parameters():
    for module, func, a in _functions():
        names = [arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs]
        names += [arg.arg for arg in (a.vararg, a.kwarg) if arg is not None]
        for name in names:
            yield module, func, name


def test_no_loose_tolerance_parameters():
    loose = [(module, func, name) for module, func, name in _parameters()
             if name in LOOSE_TOLERANCE_NAMES and (module, func, name) not in ALLOWED]
    assert loose == []


def test_allowed_split_thresholds_still_exist():
    # keeps ALLOWED from going stale if those functions are renamed
    assert ALLOWED <= set(_parameters())


# their callers pass more than one value: product vectors are split at 1e-8
# and at 1e-6 (extremal._pure_product), and tests compare fingerprints at
# two rtols
ALLOWED_FLOAT_DEFAULTS = {("qstate", "rank1_split", "tol"),
                          ("qstate", "factor_product_vector", "tol"),
                          ("invariants", "fingerprints_close", "rtol")}


def _is_float_literal(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def _float_defaults():
    for module, func, a in _functions():
        positional = a.posonlyargs + a.args
        pairs = list(zip(positional[len(positional) - len(a.defaults):], a.defaults))
        pairs += zip(a.kwonlyargs, a.kw_defaults)
        for arg, default in pairs:
            if default is not None and _is_float_literal(default):
                yield module, func, arg.arg


def test_no_float_literal_keyword_defaults():
    loose = [entry for entry in _float_defaults() if entry not in ALLOWED_FLOAT_DEFAULTS]
    assert loose == []


def test_allowed_float_defaults_still_exist():
    assert ALLOWED_FLOAT_DEFAULTS <= set(_float_defaults())
