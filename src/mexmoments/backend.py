"""Kernel backend: the compiled enumeration kernel when the extension
mexmoments._speed imports, else its pure-Python twin in mexmoments._pure.
Every other kernel is pure Python."""

from mexmoments._pure import sparse_dense_product  # noqa: F401

try:
    from mexmoments._speed import ENUMERATION_LIMIT, mex_value_counts

    BACKEND = "fast"
except ImportError:
    from mexmoments._pure import ENUMERATION_LIMIT, mex_value_counts

    BACKEND = "pure"
