"""numpy's SIMD dispatch targets that this CPU has, beyond numpy's baseline.

Run as a script, it prints them space-separated, the form that
``NPY_DISABLE_CPU_FEATURES`` takes, so that a run can be repeated under the
baseline dispatch::

    NPY_DISABLE_CPU_FEATURES="$(python tests/numpy_dispatch.py)" python -m pytest
"""

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:   # numpy < 2
    from numpy.core import _multiarray_umath as _umath


def found():
    return [f for f in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(f)]


if __name__ == "__main__":
    print(" ".join(found()))
