"""Layer spans and work counters for the traced benchmark run.

``Tracer.install`` replaces public names of the package with wrappers at
the point where callers look them up (``cli.sigma_oracle`` as well as
``partitions.mex_value_histogram``), and ``Tracer.uninstall`` puts the
original objects back.  Untraced runs never install anything, so they
call the original functions.

Each wrapped call records a span (layer, start, end, parent span,
request id) in memory.  Work counters are exact: they are computed from
the call's arguments and result, never from time, so two traced runs of
one seed give identical counts.  Counting happens after the span closes,
so its small cost lands in the caller's self time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

MARK = "_e2ebench_original"


def _count_sparse_dense(c, args, result):
    sparse, _dense, length = args
    live = [e for e, w in sparse if w and e < length]
    c["terms"] += len(live)
    c["coeff_ops"] += sum(length - e for e in live)
    c["out_kbytes"] += sum((v.bit_length() + 7) // 8 for v in result) / 1000


def _count_mex_value_counts(c, args, result):
    n, _s, M = args
    c["partitions_walked"] += sum(result[0])
    c["counter_cells"] += M * (n + M + 1)


def _count_log_concavity(c, args, result):
    c["comparisons"] += result.n_hi - result.n_lo


def _count_emit(c, args, result):
    c["bytes_written"] += len(args[0].encode("utf-8"))


# (module, attribute, layer, counter).  MomentSequence wraps its
# constructor's validation.  ``_emit`` only counts, so that formatting and
# writing stay in ``cli.main``'s self time.
TARGETS = [
    ("mexmoments.cli", "main", "cli.main", None),
    ("mexmoments.cli", "_emit", "cli", _count_emit),
    ("mexmoments.cli", "sigma_oracle", "partitions.oracle", None),
    ("mexmoments.cli", "varsigma_oracle", "partitions.oracle", None),
    ("mexmoments.partitions", "mex_value_histogram", "partitions.mex_value_histogram", None),
    ("mexmoments.backend", "mex_value_counts", "backend.mex_value_counts",
     _count_mex_value_counts),
    ("mexmoments.backend", "sparse_dense_product", "backend.sparse_dense_product",
     _count_sparse_dense),
    ("mexmoments.qseries", "partition_numbers", "qseries.partition_numbers", None),
    ("mexmoments.qseries", "moment_sequence", "qseries.moment_sequence", None),
    ("mexmoments.qseries", "sigma_gf_coeffs", "qseries.gf_coeffs", None),
    ("mexmoments.qseries", "varsigma_gf_coeffs", "qseries.gf_coeffs", None),
    ("mexmoments.qseries:MomentSequence", "__init__", "qseries.MomentSequence", None),
    ("mexmoments.conjectures", "scan_bias", "conjectures.scan_bias", None),
    ("mexmoments.conjectures", "scan_log_concavity", "conjectures.scan_log_concavity",
     _count_log_concavity),
    ("mexmoments.asymptotics", "exact_over_asymptotic", "asymptotics.exact_over_asymptotic", None),
    ("mexmoments.asymptotics", "corollary_ratio", "asymptotics.corollary_ratio", None),
    ("mexmoments.asymptotics", "gf_boundary_log", "asymptotics.gf_boundary_log", None),
    ("mexmoments.asymptotics", "eta_inversion_check", "asymptotics.eta_inversion_check", None),
]

COUNT_ONLY = {"cli"}
LAYERS = sorted({layer for _, _, layer, _ in TARGETS} - COUNT_ONLY)

COUNTERS = {
    "backend.sparse_dense_product": ("terms", "coeff_ops", "out_kbytes"),
    "backend.mex_value_counts": ("partitions_walked", "counter_cells"),
    "conjectures.scan_log_concavity": ("comparisons",),
    "cli": ("bytes_written",),
}

# A call of the first layer without a child span of the second is a hit.
CACHES = {
    "qseries.moment_sequence": "qseries.gf_coeffs",
    "partitions.mex_value_histogram": "backend.mex_value_counts",
}


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    owner = sys.modules[module]
    return getattr(owner, cls) if cls else owner


def wrapped_names() -> list[str]:
    """Targets that currently hold a tracing wrapper (empty when untraced)."""
    return [
        f"{spec}.{attr}"
        for spec, attr, _, _ in TARGETS
        if hasattr(getattr(_owner(spec), attr), MARK)
    ]


class Tracer:
    """Spans and counters of one traced worker run."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent, request]
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(int))
        self.request: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, layer, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        if layer in COUNT_ONLY:
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                counter(counts[layer], args, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                span = [layer, 0.0, 0.0, stack[-1] if stack else None, self.request]
                stack.append(len(spans))
                spans.append(span)
                span[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = clock()
                    stack.pop()
                if counter is not None:
                    counter(counts[layer], args, result)
                return result

        setattr(wrapper, MARK, fn)
        return wrapper

    def install(self) -> None:
        for spec, attr, layer, counter in TARGETS:
            owner = _owner(spec)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def span_records(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "request": request}
            for name, start, end, parent, request in self.spans
        ]

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer busy time, self time, call, hit and work counts.

        Self time is a span's duration minus that of its direct children
        (calls in one thread nest, so children never overlap).
        ``unattributed_s`` is ``wall_s`` minus every layer's self time.
        """
        busy = dict.fromkeys(LAYERS, 0.0)
        own = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        child_layers: list[set] = [set() for _ in self.spans]
        for name, start, end, parent, _ in self.spans:
            busy[name] += end - start
            own[name] += end - start
            calls[name] += 1
            if parent is not None:
                own[self.spans[parent][0]] -= end - start
                child_layers[parent].add(name)
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.busy_s"] = busy[layer]
            out[f"{layer}.self_s"] = own[layer]
            out[f"{layer}.calls"] = calls[layer]
        for layer, child in CACHES.items():
            misses = sum(
                1
                for (name, *_), kids in zip(self.spans, child_layers)
                if name == layer and child in kids
            )
            out[f"{layer}.misses"] = misses
            out[f"{layer}.hit_ratio"] = (calls[layer] - misses) / calls[layer] if calls[layer] else 0.0
        for layer, keys in COUNTERS.items():
            for key in keys:
                out[f"{layer}.{key}"] = self.counts[layer][key]
        out["unattributed_s"] = wall_s - sum(own.values())
        return out
