"""Every numpy conversion of a value to floats in the package, against an
explicit list.

A constructor takes its numbers by one rule, geometry._float, and reads an
array through its tolist(); numpy decides none of them. numpy's own
conversion would take what that rule rejects, a numeric string or a bool,
so each ``np.asarray``, ``np.asanyarray``, ``np.ascontiguousarray``,
``np.fromiter`` and ``np.array(..., dtype)`` in ``src/aquapos`` is listed
here with the reason it is there. A new one fails this test until it is
added by hand.
"""

import ast
import collections

from test_linalg_allow_list import SRC, _dotted

_CONVERSIONS = {"asarray", "asanyarray", "ascontiguousarray", "fromiter"}

# (module, enclosing function, call): count
ALLOWED = {
    # the CSV's cells, each already parsed by float() and checked finite
    ("dataset", "load_pairs_csv", "np.array(dtype)"): 1,
    # the PSO fit's batch arrays: the pairs and the parameters it is given
    ("depth_calibration", "_as_pairs", "np.asarray"): 1,
    ("depth_calibration", "calibration_cost", "np.asarray"): 1,
    # evaluation's batch functions, whole series at once: times and points
    # to align, errors to bin, and the tilt regression's three series
    ("evaluation", "align", "np.asarray"): 4,
    ("evaluation", "histogram", "np.asarray"): 1,
    ("evaluation", "tilt_error_regression", "np.asarray"): 3,
    # the aligned pairs' float tuples, which AlignedPair has checked
    ("evaluation", "_error_series", "np.fromiter"): 2,
    # the crossing point from floats the function computed and the plane's z
    ("geometry", "intersect_with_zplane", "np.array(dtype)"): 1,
    # the simulator's waypoints, which the config loader or the caller gives
    ("simulator", "MarkerTrajectory.__init__", "np.asarray"): 1,
}


class _Finder(ast.NodeVisitor):
    def __init__(self, module: str):
        self.module = module
        self.scope = []
        self.found = collections.Counter()

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_Call(self, node):
        name = _dotted(node.func)
        if name is not None:
            head, _, rest = name.partition(".")
            if head in ("np", "numpy"):
                call = None
                if rest in _CONVERSIONS:
                    call = f"np.{rest}"
                elif rest == "array" and (len(node.args) > 1
                                          or any(k.arg == "dtype" for k in node.keywords)):
                    call = "np.array(dtype)"
                if call is not None:
                    self.found[(self.module, ".".join(self.scope) or "<module>", call)] += 1
        self.generic_visit(node)


def _conversions() -> collections.Counter:
    found = collections.Counter()
    for path in sorted(SRC.glob("*.py")):
        finder = _Finder(path.stem)
        finder.visit(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        found.update(finder.found)
    return found


def test_every_conversion_is_on_the_allow_list():
    assert dict(_conversions()) == ALLOWED


def test_the_finder_sees_each_form():
    code = ("import numpy as np\n"
            "class C:\n"
            "    def f(self, a):\n"
            "        return (np.asarray(a), np.asarray(a, dtype=float), np.asanyarray(a),\n"
            "                np.ascontiguousarray(a), np.fromiter(a, float),\n"
            "                np.array(a, float), np.array(a, dtype=float), np.array(a),\n"
            "                np.zeros(3, dtype=float))\n")
    finder = _Finder("m")
    finder.visit(ast.parse(code))
    assert dict(finder.found) == {
        ("m", "C.f", "np.asarray"): 2,
        ("m", "C.f", "np.asanyarray"): 1,
        ("m", "C.f", "np.ascontiguousarray"): 1,
        ("m", "C.f", "np.fromiter"): 1,
        ("m", "C.f", "np.array(dtype)"): 2,
    }
