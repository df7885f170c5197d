"""The OpenBLAS core (kernel set) that numpy's BLAS runs on, read through
ctypes from the scipy-openblas that numpy's Linux wheels bundle.

Run as a script, it prints the core's name, or nothing when it cannot be
read, so that an output that differs in the last bits can be traced to its
BLAS kernels. A dynamic-arch OpenBLAS picks its core from the CPU, unless
``OPENBLAS_CORETYPE`` names another::

    OPENBLAS_CORETYPE=Haswell python tests/blas_core.py
"""

import ctypes
import glob
import os

import numpy as np


def _get(what):
    """scipy-openblas's ``get_<what>`` string, or None when it cannot be read."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*scipy_openblas64_*"))):
        lib = ctypes.CDLL(path)   # the copy numpy has loaded, not a second one
        fn = getattr(lib, f"scipy_openblas_get_{what}64_", None)
        if fn is not None:
            fn.restype = ctypes.c_char_p
            return fn().decode()
    return None


def core():
    """The name of the active core, such as ``SkylakeX`` or ``Haswell``, or None."""
    return _get("corename")


def dynamic_arch():
    """Whether numpy's OpenBLAS was built with every core, so that
    ``OPENBLAS_CORETYPE`` can choose among them."""
    return "DYNAMIC_ARCH" in (_get("config") or "")


def pinned(values):
    """The entry of ``values``, a dict from core name to a pinned output,
    for the active core; a core with no entry fails by name."""
    name = core()
    assert name in values, f"no pinned value for the OpenBLAS core {name}"
    return values[name]


if __name__ == "__main__":
    print(core() or "")
