"""The package's public names and its runtime dependencies."""

import subprocess
import sys
import types

import alphasine

REMOVED = ("reconstruct", "reconstruct_smoothed", "log_gamma", "eval_linear",
           "even_extension_eval", "density_example", "kummer_m", "TriangularSystem",
           "bandlimited_eval", "hyp2f1_unit", "k_sphere", "codifference_forward",
           "CircleCoeffs", "circle_fourier_coeffs", "shifted_sine_density",
           "vonmises4_density", "watson_density", "choose_weight_exponent")


def test_public_names():
    namespace = {}
    exec("from alphasine import *", namespace)
    exported = set(namespace) - {"__builtins__"}
    assert exported == set(alphasine.__all__)
    assert not any(isinstance(namespace[name], types.ModuleType) for name in exported)
    assert exported.isdisjoint(REMOVED)
    assert not any(hasattr(alphasine, name) for name in REMOVED)


_IMPORT_ALL = """
import importlib, pkgutil, sys
import alphasine
for info in pkgutil.iter_modules(alphasine.__path__):
    importlib.import_module("alphasine." + info.name)
from alphasine.cli import main
assert main(["coeffs", "--alpha", "1.5", "--count", "3"]) == 0
print(" ".join(sorted({name.split(".")[0] for name in sys.modules})))
"""


def test_numpy_is_the_only_runtime_dependency():
    # a fresh interpreter: the test suite itself has loaded scipy and mpmath
    done = subprocess.run([sys.executable, "-c", _IMPORT_ALL], capture_output=True,
                          text=True, check=True)
    loaded = set(done.stdout.splitlines()[-1].split())
    assert "numpy" in loaded
    assert loaded.isdisjoint({"scipy", "mpmath", "hypothesis"})
