"""Shared fixtures: counters of the calls that reach the histogram kernel,
the series route and its product, each from an empty store."""

import pytest


@pytest.fixture
def kernel_calls(monkeypatch):
    """The (n, s, M) of every histogram kernel call, from an empty
    histogram store (a fresh ``partitions.Store``); the store the other
    tests share is put back after."""
    from mexmoments import backend, partitions

    calls = []
    kernel = backend.mex_value_counts
    monkeypatch.setattr(partitions, "_tables", partitions.Store(partitions.STORE_CELL_LIMIT))
    monkeypatch.setattr(backend, "mex_value_counts",
                        lambda n, s, M: calls.append((n, s, M)) or kernel(n, s, M))
    return calls


@pytest.fixture
def gf_calls(monkeypatch):
    """The (kind, params, order) of every sequence the series store
    computes, from an empty store; the shared store is put back after."""
    from mexmoments import partitions, qseries

    calls = []
    monkeypatch.setattr(qseries, "_store", partitions.Store(qseries.STORE_BYTE_LIMIT))
    for kind in ("sigma", "varsigma"):
        gf = getattr(qseries, f"{kind}_gf_coeffs")

        def counted(p, order, kind=kind, gf=gf):
            calls.append((kind, p, order))
            return gf(p, order)
        monkeypatch.setattr(qseries, f"{kind}_gf_coeffs", counted)
    return calls


@pytest.fixture
def product_calls(monkeypatch):
    """An empty sequence store, and the arguments of every sparse x dense
    product the series route runs."""
    from mexmoments import backend, partitions, qseries

    monkeypatch.setattr(qseries, "_store", partitions.Store(qseries.STORE_BYTE_LIMIT))
    calls = []
    product = backend.sparse_dense_product
    monkeypatch.setattr(backend, "sparse_dense_product",
                        lambda *a: calls.append(a) or product(*a))
    return calls
