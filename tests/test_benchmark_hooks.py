"""The names the end-to-end benchmark hooks into.

``e2ebench/tracing.py`` wraps the package's functions by name, and every
untraced benchmark run looks each name up; a renamed function would make
every benchmark request fail.  These tests only read ``e2ebench/``.
"""

import importlib
import importlib.util
from collections import defaultdict
from pathlib import Path

from mexmoments import backend
from mexmoments.partitions import MexParams
from mexmoments.qseries import moment_sequence

TRACING = Path(__file__).resolve().parents[1] / "e2ebench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("e2ebench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    for spec, attr, _, _ in _tracing().TARGETS:
        module, _, cls = spec.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr, None)), f"{spec}.{attr}"


def test_kernel_counter_reads_the_kernel_result():
    # The counter unpacks (n, s, M) and sums the first row.
    tracing = _tracing()
    (counter,) = [c for spec, attr, _, c in tracing.TARGETS
                  if (spec, attr) == ("mexmoments.backend", "mex_value_counts")]
    counts = defaultdict(int)
    counter(counts, (6, 1, 2), backend.mex_value_counts(6, 1, 2))
    # Row 0 holds every partition of n' = 0..6 once: p(0) + ... + p(6).
    assert counts["partitions_walked"] == 1 + 1 + 2 + 3 + 5 + 7 + 11


def test_product_counter_unpacks_a_window_call(product_calls):
    # A window call is (sparse, dense, length) positionally plus start=,
    # so the counter still unpacks it; it counts the call's coeff_ops as
    # a whole product's (length - e per live term), not the window's.
    tracing = _tracing()
    (counter,) = [c for spec, attr, _, c in tracing.TARGETS
                  if (spec, attr) == ("mexmoments.backend", "sparse_dense_product")]
    p = MexParams(1, 2, 1, 1)
    moment_sequence("sigma", p, 20)
    moment_sequence("sigma", p, 40)
    (args, kw), = product_calls[1:]
    assert len(args) == 3 and kw == {"start": 21}
    counts = defaultdict(int)
    counter(counts, args, backend.sparse_dense_product(*args, **kw))
    live = [e for e, w in args[0] if w and e < 41]
    assert counts["terms"] == len(live) and counts["coeff_ops"] == sum(41 - e for e in live)
