"""Kernel backend: the partition walk of the enumeration kernel is the
compiled mexmoments._speed.walk when that extension imports, else its
pure-Python twin mexmoments._pure.walk.  Every other kernel, the
assembly of the histograms from the walk's counts included, is pure
Python."""

from mexmoments import _pure
from mexmoments._pure import sparse_dense_product  # noqa: F401

try:
    from mexmoments._speed import walk

    BACKEND = "fast"
except ImportError:
    from mexmoments._pure import walk

    BACKEND = "pure"


def mex_value_counts(n: int, s: int, M: int) -> list[list[int]]:
    """``mexmoments._pure.mex_value_counts`` over this backend's walk."""
    return _pure.mex_value_counts(n, s, M, walk)
