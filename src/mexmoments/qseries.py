"""The series route: partition numbers and the moment generating
functions, by exact coefficient extraction.

Everything here is integer-exact: coefficients are Python ints of
arbitrary size and no float ever enters a computation.

The two moment families are produced by multiplying 1/(q;q)_inf, i.e.
the partition-number series, with a sparse theta-like polynomial whose
support grows quadratically, so only O(sqrt(N)) terms contribute below
any truncation order N.

Coefficients at n <= N do not depend on the truncation order N, so two
process-wide caches only ever grow: the p(n) table, and a
``partitions.Store`` holding one moment sequence per (kind, params) at
the largest order requested so far.  A larger order extends the stored
sequence by the window of coefficients past it, computed by the product
from that start on; a smaller order is a prefix of it, built on request
and not kept, so only the stored order returns the same object each
time.  The store is bounded by ``STORE_BYTE_LIMIT`` bytes, and a single
sequence that could need more is refused up front; every series entry
point refuses orders above ``SERIES_ORDER_LIMIT`` with
``ResourceCapError``.
"""

from __future__ import annotations

import math
import sys
import threading
from operator import index, itemgetter

from mexmoments import backend
from mexmoments.errors import ResourceCapError, ValidationError
from mexmoments.partitions import (
    MexParams,
    Store,
    _check_int,
    _check_kind,
    _check_params,
    _Frozen,
    _show,
)

#: Largest truncation order the series route accepts.  The p(n) table
#: alone takes about 30 s to reach it on a 2-core machine, which still
#: admits scans to n = 10^5; larger orders raise ResourceCapError before
#: any work.
SERIES_ORDER_LIMIT = 2**18

#: Bytes of stored sequences (see ``moment_sequence``) the store keeps
#: before it evicts whole entries, least recently used first.
STORE_BYTE_LIMIT = 256 * 2**20

#: Bytes a store entry holds besides its ints and a tuple slot for each,
#: on CPython 3.11: 288 of ``sys.getsizeof`` (the tuple's header, the
#: MomentSequence and its MexParams, which hold their fields in slots, the
#: key and the (n, cost, value) tuple), and the OrderedDict node and
#: slots and the cost int.  tracemalloc read 270-340 bytes per entry, all
#: of it, in stores of 1,000 to 20,000 order-1 sequences.
_ENTRY_BYTES = 528


def _check_order(order: int) -> int:
    """``order`` as a plain int, refused below 0 and above ``SERIES_ORDER_LIMIT``."""
    order = _check_int("order", order, 0)
    if order > SERIES_ORDER_LIMIT:
        raise ResourceCapError(
            f"series order {_show(order)} is above the limit {SERIES_ORDER_LIMIT}"
        )
    return order


# Growing table of partition numbers.  Entries never change once appended,
# so concurrent reads are safe; extension is serialized by the lock.
_pn_table: list[int] = [1]
_pn_lock = threading.Lock()


def _gather(offsets: list[int]):
    """Callable mapping the table p to the tuple of p[-g] for g in offsets."""
    if len(offsets) > 1:
        return itemgetter(*(-g for g in offsets))
    # itemgetter returns a bare item for one index and rejects none.
    indices = [-g for g in offsets]
    return lambda p: tuple(p[i] for i in indices)


def _extend_partition_numbers(order: int) -> None:
    # Pentagonal-number recurrence:
    #   p(n) = sum_{k>=1} (-1)^(k-1) [p(n - k(3k-1)/2) + p(n - k(3k+1)/2)].
    # The tests check it against inverting the Euler product, another route.
    # When p(n) is appended, p(n - g) is p[-g]: between two consecutive
    # generalized pentagonal numbers every term sits at a fixed negative
    # index, so one itemgetter per sign gathers a whole stretch.
    p = _pn_table
    append = p.append
    plus: list[int] = []
    minus: list[int] = []
    j = 0  # index of the next generalized pentagonal number 1, 2, 5, 7, 12, ...
    n = len(p)
    while n <= order:
        while True:
            k = j // 2 + 1
            g = k * (3 * k + (1 if j % 2 else -1)) // 2
            if g > n:
                break
            (plus if k % 2 else minus).append(g)
            j += 1
        gather_plus, gather_minus = _gather(plus), _gather(minus)
        stop = min(order + 1, g)
        for _ in range(stop - n):
            append(sum(gather_plus(p)) - sum(gather_minus(p)))
        n = stop


def partition_numbers(order: int) -> list[int]:
    """p(0..N) via the pentagonal recurrence."""
    order = _check_order(order)
    if len(_pn_table) <= order:
        with _pn_lock:
            _extend_partition_numbers(order)
    return _pn_table[: order + 1]


def _check_values(kind: str, params: MexParams, values, start: int = 0) -> tuple[int, ...]:
    """``values``, the moments at n = start, start+1, ..., as a tuple of
    ints, refused unless each is >= 0 and, for varsigma r = 0, p(n)."""
    # The checks run in C; the offending n is looked up only on failure.
    # A bool is refused, as by ``partitions._check_int``.
    try:
        values = tuple(values)
        if bool in set(map(type, values)):
            raise TypeError
        values = tuple(map(index, values))
    except TypeError:
        raise ValidationError("moment values must be a sequence of integers") from None
    if not values:
        raise ValidationError("moment values must include n=0, got none")
    if min(values) < 0:
        n = next(n for n, v in enumerate(values) if v < 0)
        raise ValidationError(
            f"moment values must be >= 0, got {_show(values[n])} at n={start + n}")
    if kind == "varsigma" and params.r == 0:
        # The 0th varsigma moment counts every partition once, so the
        # sequence must literally be p(n).  Enforcing it here turns any
        # assembly bug into a loud failure.
        expected = partition_numbers(start + len(values) - 1)[start:]
        if list(values) != expected:
            n, got, want = next(
                (n, got, want)
                for n, (got, want) in enumerate(zip(values, expected), start)
                if got != want
            )
            raise ValidationError(
                f"varsigma r=0 must equal the partition numbers; "
                f"mismatch at n={n}: {_show(got)} != {_show(want)}"
            )
    return values


class MomentSequence(_Frozen):
    """Exact values of one moment family for n = 0..N."""

    _fields = ("kind", "params", "values")
    __slots__ = (*_fields, "__weakref__")

    def __init__(self, kind: str, params: MexParams, values):
        _check_kind(kind)
        _check_params(params)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "values", _check_values(kind, params, values))

    @property
    def order(self) -> int:
        return len(self.values) - 1

    def _holding(self, values: tuple[int, ...]) -> MomentSequence:
        """A sequence of this kind and params over ``values``, unchecked."""
        seq = object.__new__(MomentSequence)
        object.__setattr__(seq, "kind", self.kind)
        object.__setattr__(seq, "params", self.params)
        object.__setattr__(seq, "values", values)
        return seq

    def prefix(self, order: int) -> MomentSequence:
        """The sequence for n = 0..order <= N, on a copy of those values.
        Every check of ``__init__`` holds for a prefix of values that
        passed it, so none is run again."""
        return self._holding(self.values[: order + 1])

    def _extended(self, window) -> MomentSequence:
        """The sequence for n = 0..N + len(window): these values, then
        ``window`` for n = N+1, ....  Only the window is checked: the
        values held passed ``__init__``'s checks, which are per n."""
        return self._holding(self.values + _check_values(self.kind, self.params, window,
                                                           self.order + 1))

    def __getitem__(self, n: int) -> int:
        return self.values[n]

    def __repr__(self):
        return f"MomentSequence(kind={self.kind!r}, params={self.params}, order={self.order})"


def _support(kind: str, p: MexParams, order: int) -> list[tuple[int, int]]:
    """Sparse exponent/weight pairs of the theta factor of ``kind``.

    One pair of terms per element k of the chain (``MexParams._chain``),
    W the sum of the chain below k: weight +w at exponent s*W and -w at
    s*(W+k), w = k^r on the class A mod M and 0 elsewhere, kept while the
    exponent stays within the truncation order and collected.  For
    varsigma the -w of k meets the +w of k+M, which telescopes the factor.
    """
    s, M, A, r = p.s, p.M, p.A, p.r
    k, step = p._chain(kind)
    weights: dict[int, int] = {}
    e = 0  # s*W
    while e <= order:
        w = k**r if (k - A) % M == 0 else 0
        weights[e] = weights.get(e, 0) + w
        e += s * k
        weights[e] = weights.get(e, 0) - w
        k += step
    return sorted((e, w) for e, w in weights.items() if w != 0 and e <= order)


def largest_mex(kind: str, p: MexParams, n: int) -> int:
    """Largest k = A + mM whose mex parts fit in n >= 0; 0 if none does.

    A partition whose mex (sigma) or congruence mex (varsigma) is k holds
    each chain element below k at least s times, of weight s W
    (``_support``).  So no partition of n has a larger mex in the class,
    and the moment at n is at most p(n) k^r.  The last chain element that
    fits is a root of the quadratic W, taken with ``math.isqrt`` so that
    any n is cheap, then rounded down into the class."""
    _check_kind(kind)
    _check_params(p)
    q = _check_int("n", n, 0) // p.s  # the parts fit in n when their weight over s is <= q
    first, step = p._chain(kind)
    b = 2 * first - step  # W = first j + step j(j-1)/2 <= q  <=>  step j^2 + b j <= 2q
    k = first + step * ((math.isqrt(b * b + 8 * step * q) - b) // (2 * step))
    return 0 if k < p.A else k - (k - p.A) % p.M


def value_bits(kind: str, p: MexParams, n: int) -> float:
    """An upper bound on the bit length of every moment value at n' <= n
    <= ``SERIES_ORDER_LIMIT``: p(n) < exp(pi sqrt(2n/3)) (Apostol,
    Introduction to Analytic Number Theory, Thm 14.5) partitions, each of
    weight at most k^r for k the largest mex at n (``largest_mex``; 1 when
    k < 2), and + 1 for a bit length over log2 and for float rounding.
    An r past 2^1000 counts as 2^1000: a float, and past every budget."""
    n = _check_order(n)
    k = largest_mex(kind, p, n)
    r_bits = min(p.r, 2**1000) * math.log2(k) if k >= 2 else 0
    return math.pi * math.sqrt(2 * n / 3) / math.log(2) + 1 + r_bits


def sequence_bytes(kind: str, p: MexParams, order: int) -> int:
    """What the store charges for the sequence to ``order``, an upper
    bound on what it holds: per value at n a tuple slot and the
    ``sys.getsizeof`` of an int of ``value_bits`` at n, plus
    ``_ENTRY_BYTES``.  ``value_bits`` at n is at most that at ``order``
    less c (sqrt(order) - sqrt(n)), c = pi sqrt(2/3) / ln 2, and sqrt(n)
    sums to at most (2/3) (order + 1)^1.5, so the digits sum in closed form."""
    per_digit = sys.int_info.bits_per_digit
    top = math.ceil(value_bits(kind, p, order) / per_digit)  # checks the arguments
    values = index(order) + 1
    c = math.pi * math.sqrt(2 / 3) / math.log(2)
    saved = c * (values * math.sqrt(values - 1) - values**1.5 * 2 / 3)
    # Each value rounds its digits up once: at most one digit more than its share.
    digits = values * (top + 1) - math.ceil(saved / per_digit)
    return values * (8 + int.__basicsize__) + int.__itemsize__ * digits + _ENTRY_BYTES


def _check_coefficient_bytes(kind: str, order: int, nbytes: int, count: int = 1) -> None:
    """Refuse ``count`` sequences of ``kind`` to ``order`` when
    ``nbytes``, their bound with whatever their caller holds beside them,
    is past ``STORE_BYTE_LIMIT``: the package's one byte refusal, which
    every caller makes before any k^r or p(n) is computed."""
    if nbytes > STORE_BYTE_LIMIT:
        raise ResourceCapError(
            f"{_show(count)} {kind} sequence(s) to order {order} could need "
            f"10^{math.log10(nbytes):.2f} coefficient bytes, above the limit {STORE_BYTE_LIMIT}"
        )


def _gf_coeffs(kind: str, p: MexParams, order: int, held: MomentSequence | None = None,
               nbytes: int | None = None) -> MomentSequence:
    """Moments of ``kind`` for n = 0..N: the partition-number series times
    the sparse theta factor ``_support(kind, p, N)``, by coefficient
    extraction, after ``_check_coefficient_bytes`` of ``nbytes``, the
    ``sequence_bytes`` at N (computed here unless the caller passes it).
    Given ``held``, the stored sequence to an order below N, only the
    window of coefficients past it is computed and checked, and appended
    to it."""
    order = _check_order(order)
    if nbytes is None:
        nbytes = sequence_bytes(kind, p, order)
    _check_coefficient_bytes(kind, order, nbytes)
    args = (_support(kind, p, order), partition_numbers(order), order + 1)
    product = backend.sparse_dense_product
    if held is None:
        return MomentSequence(kind, p, product(*args))
    return held._extended(product(*args, start=held.order + 1))


def sigma_gf_coeffs(p: MexParams, order: int) -> MomentSequence:
    """Sigma moments for n = 0..N by coefficient extraction; must agree
    with sigma_oracle wherever both exist."""
    return _gf_coeffs("sigma", p, order)


def varsigma_gf_coeffs(p: MexParams, order: int) -> MomentSequence:
    """Varsigma moments for n = 0..N by coefficient extraction; must agree
    with varsigma_oracle wherever both exist."""
    return _gf_coeffs("varsigma", p, order)


_store = Store(STORE_BYTE_LIMIT)


def moment_sequence(kind: str, p: MexParams, order: int) -> MomentSequence:
    """Stored accessor used by the asymptotics checks, the scanners and
    the CLI.

    Each (kind, params) is held at the largest order requested so far,
    and repeating a request at that order returns the same object.  A
    larger order extends the held sequence: only the coefficients past
    its order are computed (a window of the product) and checked, and the
    longer sequence replaces it.  A smaller order is the stored
    sequence's ``prefix`` (coefficients at n <= N do not depend on the
    truncation order): a copy of its values, built per call, not stored
    and not checked again.  The store charges an entry its
    ``sequence_bytes``, the bound that the series functions check against
    ``STORE_BYTE_LIMIT`` at the new order before any work.
    """
    _check_kind(kind)
    _check_params(p)
    order = _check_order(order)
    key = (kind, p)
    seq = _store.get(key, 0)  # the entry at whatever order it holds
    if seq is None or seq.order < order:
        nbytes = sequence_bytes(kind, p, order)
        if seq is None:
            # A miss calls the public function, where the benchmark's tracer
            # counts it, and that function bounds the bytes once more.
            gf_coeffs = sigma_gf_coeffs if kind == "sigma" else varsigma_gf_coeffs
            grown = gf_coeffs(p, order)
        else:
            grown = _gf_coeffs(kind, p, order, seq, nbytes)
        seq = _store.put(key, order, nbytes, grown)
    return seq if seq.order == order else seq.prefix(order)


def moment_value(kind: str, p: MexParams, n: int) -> int:
    """``moment_sequence(kind, p, n)[n]``, read from the stored sequence
    when it already reaches n, without building a prefix.  A larger n
    extends the stored sequence by the coefficients past it, so a caller
    asking for several n in any order computes each coefficient once."""
    _check_kind(kind)
    _check_params(p)
    n = _check_order(n)
    seq = _store.get((kind, p), n)
    return (moment_sequence(kind, p, n) if seq is None else seq)[n]
