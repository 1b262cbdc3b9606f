"""Run tolerances travel as one Tolerances value, never as loose floats.

Every function in the package that makes a rank, PPT-sign, face-dimension or
vanishing-I2 decision takes `tolerances: Tolerances`. A parameter carrying one
of those thresholds on its own would let a call site drop it on the way down.
"""

import ast
from pathlib import Path

import pptatlas

LOOSE_TOLERANCE_NAMES = {"tol", "psd_tol", "window", "i2_zero_tol", "rank_tol"}
# the product-vector split threshold is not a run tolerance
ALLOWED = {("qstate", "rank1_split", "tol"), ("qstate", "factor_product_vector", "tol")}


def _parameters():
    package = Path(pptatlas.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = [arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs]
                names += [arg.arg for arg in (a.vararg, a.kwarg) if arg is not None]
                for name in names:
                    yield path.stem, getattr(node, "name", "<lambda>"), name


def test_no_loose_tolerance_parameters():
    loose = [(module, func, name) for module, func, name in _parameters()
             if name in LOOSE_TOLERANCE_NAMES and (module, func, name) not in ALLOWED]
    assert loose == []


def test_allowed_split_thresholds_still_exist():
    # keeps ALLOWED from going stale if those functions are renamed
    assert ALLOWED <= set(_parameters())
