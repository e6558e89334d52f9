"""Property-based differential tests over random (s, M, A, r, n): moduli
up to 40 against n <= 18, so M far above n occurs, and residues drawn
from both ends of 1..M as well as in between.  The sparse x dense
product is held to the reference schoolbook product on random supports, and
the CLI's table writer to ``json.dumps`` and ``csv.writer`` on random
columns and reports."""

import csv
import io
import json
import math
import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mexmoments import backend, cli
from mexmoments.conjectures import OrderingEntry, ScanReport
from mexmoments.partitions import MexParams, sigma_oracle, varsigma_oracle
from mexmoments.qseries import partition_numbers, sigma_gf_coeffs, varsigma_gf_coeffs
from reference import cauchy_product

ns = st.integers(0, 18)
thresholds = st.integers(1, 4)
moduli = st.integers(1, 40)


@st.composite
def mex_params(draw):
    M = draw(moduli)
    A = draw(st.one_of(st.just(1), st.just(M), st.integers(1, M)))
    return MexParams(draw(thresholds), M, A, draw(st.integers(0, 3)))


@settings(max_examples=150, deadline=None)
@given(mex_params(), ns)
def test_oracle_equals_generating_function(p, n):
    assert sigma_oracle(p, n) == sigma_gf_coeffs(p, n)[n]
    assert varsigma_oracle(p, n) == varsigma_gf_coeffs(p, n)[n]


@settings(max_examples=60, deadline=None)
@given(thresholds, moduli, ns)
def test_sigma_r0_residue_classes_sum_to_partition_count(s, M, n):
    total = sum(sigma_oracle(MexParams(s, M, A, 0), n) for A in range(1, M + 1))
    assert total == partition_numbers(n)[n]


@st.composite
def sparse_dense_args(draw):
    """(sparse, dense, length, start) with few distinct |weight|s of both
    signs, weights 0 and +-1, one very large weight, duplicate exponents,
    exponents at or beyond ``length``, ``dense`` longer than needed and a
    window start anywhere in 0..length."""
    length = draw(st.integers(0, 24))
    dense = draw(st.lists(st.integers(-(10**30), 10**30), min_size=length, max_size=length + 3))
    big = draw(st.integers(2**64, 2**256))
    magnitude = st.sampled_from([0, 1, 2, 3, big])
    weight = st.builds(lambda m, negative: -m if negative else m, magnitude, st.booleans())
    sparse = draw(st.lists(st.tuples(st.integers(0, length + 2), weight), max_size=10))
    return sparse, dense, length, draw(st.integers(0, length))


PN = partition_numbers(310)
# Dense values below 2^594 and weights summing below 2^3 give 600-bit
# slots and K = 3600 // 600 = 6 coefficients per block, so these lengths
# end on a full block, one slot into a block and one slot short of one;
# the support's exponents take every residue mod 6.
_WIDE = [(-1) ** n * PN[n] << 540 for n in range(302)]
_SUPPORT = [(0, 1), (1, -1), (2, 1), (9, -1), (16, 1), (29, 1)]
_SIGNED = [(-1) ** n * PN[n] for n in range(40)]


@settings(max_examples=300, deadline=None)
@given(sparse_dense_args())
@example(([(0, 3), (0, -3), (1, 3)], [5, 7], 0, 0))
@example(([(0, -3), (0, 3), (1, -3)], [5, 7], 1, 0))
# a window from a block boundary (K = 6), one past it, and an empty one
@example((_SUPPORT, _WIDE, 300, 120))
@example((_SUPPORT, _WIDE, 301, 121))
@example((_SUPPORT, _WIDE, 299, 299))
# lone terms of weight +-1 and +-2^64, the window before and past them
@example(([(7, 1)], _SIGNED, 40, 3))
@example(([(7, -1)], _SIGNED, 40, 20))
@example(([(5, 2**64)], _SIGNED, 40, 30))
@example(([(5, -(2**64))], _SIGNED, 40, 0))
@example(([(5, -(2**64))], _SIGNED, 40, 40))
# groups of |weight| 3 and 5, each of both signs
@example(([(0, 3), (2, -3), (11, 3), (1, 5), (4, -5), (30, -5)], _SIGNED, 40, 9))
def test_sparse_dense_product_equals_schoolbook(args):
    sparse, dense, length, start = args
    poly = [0] * length
    for e, w in sparse:
        if e < length:
            poly[e] += w
    whole = cauchy_product(poly, dense[:length])
    assert backend.sparse_dense_product(sparse, dense, length) == whole
    assert backend.sparse_dense_product(sparse, dense, length, start=start) == whole[start:]


@st.composite
def packed_product_args(draw):
    """(sparse, dense, length, start) at the magnitudes the packed product
    meets: dense values that grow like p(n) times a multiplier of either
    sign, weights +-1, small weights and weights of 2^64..2^256, sometimes
    one weight above 2^3600, which leaves one coefficient per block, and
    a window start anywhere in 0..length or K+1 slots or fewer from its
    end, for the product's block size K."""
    length = draw(st.integers(0, 300))
    extra = draw(st.integers(0, 3))
    multipliers = st.integers(-(2**40), 2**40)
    dense = [m * PN[n] for n, m in enumerate(
        draw(st.lists(multipliers, min_size=length + extra, max_size=length + extra)))]
    magnitude = st.one_of(st.just(1), st.integers(2, 9), st.integers(2**64, 2**256))
    weight = st.builds(lambda m, negative: -m if negative else m, magnitude, st.booleans())
    sparse = draw(st.lists(st.tuples(st.integers(0, length + 2), weight), max_size=12))
    if draw(st.booleans()):
        sparse.append((draw(st.integers(0, length)), draw(st.integers(2**3600, 2**3700))))
    # K as the product computes it (1 to about 60 here): windows of K and
    # K+1 slots fall on either side of its one-block rule.
    live = [w for e, w in sparse if w and e < length]
    top = max(map(abs, dense[:length]), default=0)
    W = 8 * ((top.bit_length() + sum(map(abs, live)).bit_length() + 8) // 8)
    K = max(1, min(backend._PACK_BITS // W, length))
    short = st.integers(0, K + 1).map(lambda width: max(0, length - width))
    return sparse, dense, length, draw(st.one_of(st.integers(0, length), short))


# Weights summing to 7 on values just under 2^597 fill a slot up to its
# sign bit.
_FULL = ([(0, 1), (1, 2), (2, 4)], [(1 << 597) - 1 - n for n in range(30)], 30, 29)
# Windows of K = 6 slots (summed directly) and of K + 1 (packed) that
# start one slot before, at and one slot after the block boundary 120.
_EDGES = [(_SUPPORT, _WIDE, start + width, start) for start in (119, 120, 121) for width in (6, 7)]


# Tiles of 1, 2 and 3 result blocks put tile edges everywhere; the last
# is the module's own size.
_TILES = [1, 2, 3, backend._TILE]
# With K = 6 and tiles of 3 blocks: a term at block 3 (a tile's first
# block) and one at block 5 (its last).
_TILE_EDGES = [(0, 1), (18, -1), (35, 2), (40, -1)]


@settings(max_examples=150, deadline=None)
@given(packed_product_args(), st.sampled_from(_TILES))
@example((_SUPPORT, _WIDE, 300, 6), backend._TILE)
@example((_SUPPORT, _WIDE, 301, 300), backend._TILE)
@example((_SUPPORT, _WIDE, 299, 1), backend._TILE)
@example(_FULL, backend._TILE)
@example(([(0, 2**3601 + 5), (3, -1), (4, 7), (4, 2**70)], PN[:40], 40, 4), backend._TILE)
@example(([(5, -1), (0, 0), (50, 1)], PN[:50], 50, 49), backend._TILE)
# tiles of 3 blocks (K = 6): a window from block 4, inside the whole
# product's second tile; terms at a tile's first and last blocks; lengths
# of one tile and of one tile plus one block
@example((_SUPPORT, _WIDE, 300, 25), 3)
@example((_TILE_EDGES, _WIDE, 60, 0), 3)
@example((_TILE_EDGES, _WIDE, 60, 19), 3)
@example((_SUPPORT, _WIDE, 18, 0), 3)
@example((_SUPPORT, _WIDE, 24, 0), 3)
def test_packed_product_equals_schoolbook(args, tile):
    sparse, dense, length, start = args
    sparse_before, dense_before = list(sparse), list(dense)
    poly = [0] * length
    for e, w in sparse:
        if e < length:
            poly[e] += w
    whole = cauchy_product(poly, dense[:length])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backend, "_TILE", tile)
        results = ((0, backend.sparse_dense_product(sparse, dense, length)),
                   (start, backend.sparse_dense_product(sparse, dense, length, start=start)))
    for begin, result in results:
        assert result == whole[begin:]
        assert type(result) is list and len(result) == length - begin
        assert result is not dense and all(type(v) is int for v in result)
    assert sparse == sparse_before and dense == dense_before


def test_product_sums_one_block_directly(monkeypatch):
    # A window of at most K slots is summed term by term, one more slot is
    # packed; either way it equals the schoolbook product.
    direct = []
    real = backend._shifted_sum
    monkeypatch.setattr(backend, "_shifted_sum", lambda *args: direct.append(args) or real(*args))
    for sparse, dense, length, start in _EDGES:
        direct.clear()
        poly = [0] * length
        for e, w in sparse:
            poly[e] += w
        got = backend.sparse_dense_product(sparse, dense, length, start=start)
        assert got == cauchy_product(poly, dense[:length])[start:]
        assert len(direct) == (length - start == 6)


def test_lone_unit_term_shares_dense_ints():
    # A stored varsigma r = 0 sequence is p(n) itself, not a copy of it.
    dense = [PN[n] << 600 for n in range(50)]
    whole = backend.sparse_dense_product([(3, 1)], dense, 50)
    window = backend.sparse_dense_product([(3, 1), (9, 0), (50, 1)], dense, 50, start=10)
    assert whole[:3] == [0, 0, 0] and all(map(operator.is_, whole[3:], dense[:47]))
    assert all(map(operator.is_, window, dense[7:47]))


def stdlib_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


values = st.one_of(st.just(0), st.integers(0, 2**512))


def row_dicts(columns: dict) -> list[dict]:
    """The rows that named columns stand for, one dict per row."""
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


@st.composite
def stats_docs(draw):
    """The ``stats --format json`` document of one method, its rows given
    as the columns ``stats`` builds: a range of n, a list of oracle
    values, a tuple of series values and a list of bools.  Exact values
    reach 2^512."""
    method = draw(st.sampled_from(["gf", "oracle", "both"]))
    ns = range(draw(st.integers(0, 3)), draw(st.integers(0, 12)))
    column = st.lists(values, min_size=len(ns), max_size=len(ns))
    columns = {"n": ns}
    if method != "gf":
        columns["oracle"] = draw(column)
    if method != "oracle":
        columns["gf"] = tuple(draw(column))
    if method == "both":
        columns["match"] = draw(st.lists(st.booleans(), min_size=len(ns), max_size=len(ns)))
    params = {"kind": draw(st.sampled_from(["sigma", "varsigma"])), "s": 1, "M": 2, "A": 1,
              "r": draw(st.integers(0, 9)), "method": method, "truncation": 40}
    return {"params": params, "rows": columns}


@settings(max_examples=200, deadline=None)
@given(stats_docs())
@example({"params": {"kind": "sigma", "method": "gf"}, "rows": {"n": range(0, 1), "gf": (0,)}})
@example({"params": {"kind": "sigma", "method": "both"},
          "rows": {"n": range(9, 11), "oracle": [2**512, 0], "gf": (2**512, 1),
                   "match": [True, False]}})
@example({"params": {"kind": "sigma", "method": "gf"}, "rows": {"n": range(3, 0), "gf": ()}})
def test_stats_json_equals_stdlib_encoder(doc):
    rows = row_dicts(doc["rows"])
    assert cli._json_text(doc, "rows") == stdlib_json({**doc, "rows": rows})


@st.composite
def csv_columns(draw):
    """Named columns of equal length: ints up to 2^512 in size, floats
    (finite, and inf of either sign) or bools."""
    size = draw(st.integers(0, 8))
    names = draw(st.lists(st.from_regex(r"[a-z_]{1,8}", fullmatch=True), min_size=1,
                          max_size=5, unique=True))
    kinds = [st.integers(-(2**512), 2**512),
             st.one_of(st.floats(allow_nan=False), st.sampled_from([math.inf, -math.inf])),
             st.booleans()]
    return {name: draw(st.lists(draw(st.sampled_from(kinds)), min_size=size, max_size=size))
            for name in names}


@settings(max_examples=200, deadline=None)
@given(csv_columns())
@example({"n": [1, 2], "ratio": [math.inf, 0.5], "match": [True, False]})
@example({"n": [], "value": []})
def test_table_csv_equals_stdlib_writer(columns):
    meta = {"kind": "sigma", "r": 1}
    lines = cli._table_text(meta, columns, "csv").splitlines(keepends=True)
    assert lines[0] == f"# params: {json.dumps(meta, sort_keys=True)}\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in zip(*columns.values()):
        writer.writerow(("true" if v else "false") if type(v) is bool else v for v in row)
    assert "".join(lines[1:]) == buf.getvalue()


@st.composite
def ordering_entries(draw, M: int, n: int):
    """A permutation of 1..M with runs of it grouped as ties: none, one
    or several groups."""
    perm = tuple(draw(st.permutations(range(1, M + 1))))
    inner = draw(st.sets(st.integers(1, M - 1))) if M > 1 else set()
    cuts = [0, *sorted(inner), M]
    ties = tuple(perm[a:b] for a, b in zip(cuts, cuts[1:]) if b - a > 1)
    return OrderingEntry(n=n, perm=perm, ties=ties)


@st.composite
def scan_reports(draw):
    """Log-concavity reports (no ordering) and bias reports, with or
    without ``stabilized_at``, violations and equalities."""
    M = draw(st.integers(1, 6))
    n_lo = draw(st.integers(1, 50))
    n_hi = n_lo + draw(st.integers(0, 12))
    bias = draw(st.booleans())
    ordering = tuple(draw(ordering_entries(M, n)) for n in range(n_lo, n_hi + 1)) if bias else ()
    violations = draw(st.lists(st.integers(n_lo, n_hi), unique=True).map(sorted))
    return ScanReport(
        params={"kind": "sigma", "s": draw(st.integers(1, 3)), "M": M, "r": 1,
                **({} if bias else {"A": draw(st.integers(1, M))})},
        n_lo=n_lo,
        n_hi=n_hi,
        violations=tuple(violations),
        equalities=tuple(v for v in violations if draw(st.booleans())),
        ordering=ordering,
        stabilized_at=draw(st.one_of(st.none(), st.integers(n_lo, n_hi))),
    )


def _report(ordering=(), M=3, **fields):
    return ScanReport(params={"kind": "varsigma", "s": 1, "M": M, "r": 0},
                      n_lo=1, n_hi=2, ordering=ordering, **fields)


@settings(max_examples=200, deadline=None)
@given(scan_reports())
@example(_report(violations=(1, 2), equalities=(2,), stabilized_at=None))
@example(_report(ordering=(OrderingEntry(1, (2, 1, 3), ()), OrderingEntry(2, (1, 2, 3), ((1, 2),))),
                 stabilized_at=2))
@example(_report(ordering=(OrderingEntry(1, (1, 2, 3, 4), ((1, 2), (3, 4))),
                           OrderingEntry(2, (4, 1, 2, 3), ((1, 2, 3),))), M=4))
@example(_report(ordering=(OrderingEntry(1, (1,), ()), OrderingEntry(2, (1,), ())), M=1,
                 stabilized_at=1))
def test_report_json_equals_stdlib_encoder(report):
    assert cli._report_text(report) == stdlib_json(report.to_json_dict())
