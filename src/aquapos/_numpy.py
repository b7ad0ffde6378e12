"""numpy, loaded on first use: set-up and the estimate path run on floats.

``np`` is numpy when it is already imported, else a module that the
importlib docs' LazyLoader recipe ("Implementing lazy imports") executes
on its first attribute read; from then on it is the plain module.
"""

import importlib.util
import sys


def _lazy(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy("numpy")
