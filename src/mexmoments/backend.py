"""The kernels the other modules call through this module, by attribute,
so that a caller can wrap or replace one in one place: the histogram
kernel and the sparse x dense product of :mod:`mexmoments._pure`."""

from mexmoments._pure import mex_value_counts, sparse_dense_product  # noqa: F401

BACKEND = "pure"
