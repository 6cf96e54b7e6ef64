"""The package's public names."""

import types

import alphasine

REMOVED = ("reconstruct", "reconstruct_smoothed", "log_gamma", "eval_linear",
           "even_extension_eval", "density_example", "kummer_m", "TriangularSystem",
           "bandlimited_eval", "hyp2f1_unit", "k_sphere", "codifference_forward")


def test_public_names():
    namespace = {}
    exec("from alphasine import *", namespace)
    exported = set(namespace) - {"__builtins__"}
    assert exported == set(alphasine.__all__)
    assert not any(isinstance(namespace[name], types.ModuleType) for name in exported)
    assert exported.isdisjoint(REMOVED)
    assert not any(hasattr(alphasine, name) for name in REMOVED)
