"""Every numpy linear-algebra call in the package, against an explicit list.

numpy hands matrix products, solves and decompositions to the BLAS or
LAPACK kernel the CPU selects, and their last bits differ from kernel to
kernel. The commands' outputs must not, so each such call in
``src/aquapos`` is listed here with the reason its bits cannot reach an
output. A new one fails this test until it is added by hand.
"""

import ast
import collections
from pathlib import Path

import aquapos

SRC = Path(aquapos.__file__).resolve().parent

# numpy functions that run on a BLAS or LAPACK kernel, outside np.linalg
_KERNEL_FUNCTIONS = {"dot", "vdot", "inner", "matmul", "einsum", "tensordot"}

# (module, enclosing function, operation): count
ALLOWED = {
    # the per-row error norm: a 3-element sum, which numpy computes without BLAS
    ("evaluation", "_errors", "np.linalg.norm"): 1,
}


def _dotted(node) -> str | None:
    """'np.linalg.norm' for the expression np.linalg.norm, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id, *reversed(parts)])
    return None


class _Finder(ast.NodeVisitor):
    def __init__(self, module: str):
        self.module = module
        self.scope = []
        self.found = collections.Counter()

    def _add(self, operation: str):
        self.found[(self.module, ".".join(self.scope) or "<module>", operation)] += 1

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_BinOp(self, node):
        if isinstance(node.op, ast.MatMult):
            self._add("@")
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        if isinstance(node.op, ast.MatMult):
            self._add("@=")
        self.generic_visit(node)

    def visit_Attribute(self, node):
        name = _dotted(node)
        if name is not None:
            head, _, rest = name.partition(".")
            if head in ("np", "numpy") and (rest.startswith("linalg.")
                                            or rest in _KERNEL_FUNCTIONS):
                self._add(f"np.{rest}")
                return
        if node.attr == "dot":  # the ndarray method
            self._add(".dot")
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module and node.module.startswith("numpy"):
            for alias in node.names:
                self._add(f"from {node.module} import {alias.name}")


def _linear_algebra_calls() -> collections.Counter:
    found = collections.Counter()
    for path in sorted(SRC.glob("*.py")):
        finder = _Finder(path.stem)
        finder.visit(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        found.update(finder.found)
    return found


def test_every_kernel_call_is_on_the_allow_list():
    assert dict(_linear_algebra_calls()) == ALLOWED


def test_the_finder_sees_each_form():
    code = ("import numpy as np\n"
            "from numpy.linalg import solve\n"
            "def f(a, b):\n"
            "    a @= b\n"
            "    return a @ b, np.dot(a, b), a.dot(b), np.linalg.lstsq(a, b), np.einsum('i', a)\n")
    finder = _Finder("m")
    finder.visit(ast.parse(code))
    assert dict(finder.found) == {
        ("m", "<module>", "from numpy.linalg import solve"): 1,
        ("m", "f", "@="): 1,
        ("m", "f", "@"): 1,
        ("m", "f", "np.dot"): 1,
        ("m", "f", ".dot"): 1,
        ("m", "f", "np.linalg.lstsq"): 1,
        ("m", "f", "np.einsum"): 1,
    }
