"""The generalized minimal-excludant statistics and the enumeration oracle.

This module is the ground truth: every statistic is obtained by
enumeration, and the other modules are cross-checked against it.  The
histogram kernel of :mod:`mexmoments.backend` walks the parts above
``_pure.SMALL_PARTS`` one partition at a time and counts the small parts
as explicit multiplicity vectors per remainder; no identity from the
generating functions enters.  It holds the parameter tuple ``MexParams``,
the oracle and ``Store``, the one cache policy of the package: one
instance keeps the histogram tables here, in cells, and one keeps the
moment sequences of :mod:`mexmoments.qseries`, in bytes.

One table of (s, M) holds the histograms of every n' <= N, so the oracle
reads a column: ``oracle_values`` gives the moment at every n = 0..N
from one table, with s and M capped once at N+1 and one list of weights
per call.  ``sigma_oracle`` and ``varsigma_oracle`` are its entry at n.

Terminology used throughout the package, for a partition pi:

* the mex of pi with frequency s: the smallest positive integer whose
  frequency as a part of pi is less than s (the ordinary mex is s=1);
* the congruence mex for (s, M, A): the smallest positive integer
  congruent to A mod M whose frequency is less than s;
* sigma moment: sum of mex^r over the partitions of n whose mex lies in
  the residue class A mod M;
* varsigma moment: sum of (congruence mex)^r over all partitions of n.
"""

from __future__ import annotations

import operator
import threading
from collections import OrderedDict
from collections.abc import Hashable
from dataclasses import dataclass
from itertools import accumulate, pairwise
from operator import mul

from mexmoments import backend
from mexmoments._pure import ORACLE_CAP
from mexmoments.errors import ResourceCapError, ValidationError

#: The two moment families.
VALID_KINDS = ("sigma", "varsigma")


def _check_kind(kind: str) -> None:
    """Refuse a kind outside ``VALID_KINDS``."""
    if kind not in VALID_KINDS:
        raise ValidationError(f"kind must be one of {VALID_KINDS}, got {_show(kind)}")


def _show(value) -> str:
    """``repr(value)`` for a message, or the size of an int past int-to-str's limit."""
    try:
        return repr(value)
    except ValueError:
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"


def _check_int(name: str, value, low: int) -> int:
    """``value`` as a plain int: ``ValidationError`` unless ``operator.index``
    takes it and it is at least ``low``.  A bool is refused too: it would
    hash equal to 0 or 1 and share their store entries."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if value < low:
        raise ValidationError(f"{name} must be >= {_show(low)}, got {_show(value)}")
    return value


def _check_params(p) -> None:
    """Refuse a ``p`` that is not a ``MexParams``, before any attribute
    read or store lookup of it."""
    if not isinstance(p, MexParams):
        raise ValidationError(f"params must be a MexParams, got {type(p).__name__}")


@dataclass(frozen=True)
class MexParams:
    """Parameter tuple (s, M, A, r) labelling a moment sequence.

    s >= 1 is the frequency threshold, M >= 1 the modulus, A the residue
    representative with 0 < A <= M, and r >= 0 the moment order, each a
    plain int.
    """

    s: int
    M: int
    A: int
    r: int

    def __post_init__(self) -> None:
        for name, low in (("s", 1), ("M", 1), ("A", 1), ("r", 0)):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), low))
        if self.A > self.M:
            raise ValidationError(
                f"residue must satisfy 0 < A <= M, got A={_show(self.A)}, M={_show(self.M)}"
            )


class Store:
    """Growing results per key: each entry ``(n, cost, value)`` holds the
    value at the largest n computed so far, which serves every smaller n.

    Entries are dropped whole, least recently used first, while ``total``
    (the running sum of the entries' costs) exceeds ``limit``; the entry
    just used is never dropped.  ``lock`` guards every change.
    """

    def __init__(self, limit: int):
        self.entries: OrderedDict[Hashable, tuple[int, int, object]] = OrderedDict()
        self.total = 0
        self.limit = limit
        self.lock = threading.Lock()

    def get(self, key: Hashable, n: int):
        """The value of ``key`` if its entry reaches ``n`` >= 0, else None."""
        with self.lock:
            entry = self.entries.get(key)
            if entry is None or not 0 <= n <= entry[0]:
                return None
            self.entries.move_to_end(key)
            return entry[2]

    def put(self, key: Hashable, n: int, cost: int, value):
        """Store ``value`` unless an entry reaching ``n`` is already held
        (so a value already handed out stays the one served), evict, and
        return the stored value."""
        with self.lock:
            held = self.entries.pop(key, None)
            if held is not None and held[0] >= n:
                self.entries[key] = held
            else:
                self.total += cost - (0 if held is None else held[1])
                self.entries[key] = (n, cost, value)
            # A running total: summing the values would hash every key.
            while len(self.entries) > 1 and self.total > self.limit:
                self.total -= self.entries.popitem(last=False)[1][1]
            return self.entries[key][2]


def _check_cap(n: int) -> int:
    """``n`` as a plain int, refused below 0 and above ``ORACLE_CAP``."""
    n = _check_int("n", n, 0)
    if n > ORACLE_CAP:
        raise ResourceCapError(
            f"oracle request n={_show(n)} exceeds cap {ORACLE_CAP}; "
            "use the generating-function route"
        )
    return n


#: Cells the histogram store keeps before it drops whole tables, least
#: recently used first.  The largest table the oracle builds by default,
#: (s, M) = (1, 61) at n = 60, has 7,442.
STORE_CELL_LIMIT = 1 << 19

# One histogram table per (s, M): the histograms of every n' <= N, at the
# largest N walked so far, so one walk serves every smaller n and a
# repeated request returns the same object.  The cost is the table's cells.
_tables = Store(STORE_CELL_LIMIT)


def mex_value_histogram(N: int, s: int, M: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The histograms of every n = 0..N: entry n holds M rows, and row
    A-1 counts, per m, the partitions of n whose congruence mex for
    (s, M, A) is A + m*M.  Rows of n have n//M + 2 entries.

    A prefix of the stored table of (s, M); a table shorter than N is
    walked again to N.  The kernel's one gate, before any walk: N is
    checked against ``ORACLE_CAP``, s and M as ints >= 1, and a table
    not stored against ``STORE_CELL_LIMIT`` cells."""
    N = _check_cap(N)
    s, M = _check_int("s", s, 1), _check_int("M", M, 1)
    table = _tables.get((s, M), N)
    if table is None:
        starts = list(accumulate((j // M + 2 for j in range(N + 1)), initial=0))
        if M * starts[-1] > STORE_CELL_LIMIT:
            raise ResourceCapError(f"histogram table of M={_show(M)} to n={N} holds "
                                   f"{_show(M * starts[-1])} cells, above {STORE_CELL_LIMIT}")
        rows = [tuple(row) for row in backend.mex_value_counts(N, s, M)]
        table = tuple(tuple(row[a:b] for row in rows) for a, b in pairwise(starts))
        table = _tables.put((s, M), N, M * starts[-1], table)
    return table[: N + 1]


def oracle_values(kind: str, p: MexParams, N: int) -> list[int]:
    """Exact sigma or varsigma moments at every n = 0..N by enumeration,
    read as one column of one histogram table.

    sigma: the sum of mex^r over the partitions of n whose mex with
    frequency s lies in the class A mod M (r = 0 counts them).  varsigma:
    the sum of (congruence mex)^r over all partitions of n (r = 0 gives
    p(n)).

    The table's parameters are capped once, at N+1.  No part of a
    partition of n <= N occurs N+1 times, so every s > N gives the
    histograms of s = N+1.  For varsigma with M > N each class holds one
    candidate part A <= N (so m is 0 or 1, and 1 exactly when A occurs at
    least s times), and every A > N holds all p(n) partitions at m = 0,
    so modulus N+1 gives the same row for min(A, N+1).  The weights still
    use the real M: v^r on v = A mod M for sigma (cell m holds v = m+1),
    (A + m*M)^r for varsigma.  Values past the series route's byte budget
    (``qseries.sequence_bytes``) raise ``ResourceCapError`` before any
    weight is computed.
    """
    from mexmoments.qseries import _check_coefficient_bytes  # qseries imports this module

    _check_kind(kind)
    N = _check_cap(N)
    _check_coefficient_bytes(kind, p, N)
    s = min(p.s, N + 1)
    if kind == "sigma":
        row, table = 0, mex_value_histogram(N, s, 1)
    else:
        row, table = min(p.A, N + 1) - 1, mex_value_histogram(N, s, min(p.M, N + 1))
    # No partition of n <= N has a larger value than the largest at N,
    # which some partition of N has (qseries.largest_mex), so the weights
    # stop at the last nonzero cell of N's block.
    size = max(m + 1 for m, c in enumerate(table[N][row]) if c)
    if kind == "sigma":
        weights = [v**p.r if v % p.M == p.A % p.M else 0 for v in range(1, size + 1)]
    else:
        weights = [(p.A + m * p.M) ** p.r for m in range(size)]
    return [sum(map(mul, hist[row], weights)) for hist in table]


def sigma_oracle(p: MexParams, n: int) -> int:
    """Exact sigma moment at n by enumeration: ``oracle_values("sigma", p, n)[n]``."""
    return oracle_values("sigma", p, n)[n]


def varsigma_oracle(p: MexParams, n: int) -> int:
    """Exact varsigma moment at n by enumeration: ``oracle_values("varsigma", p, n)[n]``."""
    return oracle_values("varsigma", p, n)[n]
