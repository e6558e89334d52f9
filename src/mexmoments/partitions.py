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
from one table, with one weight per cell.  ``sigma_oracle`` and
``varsigma_oracle`` are its entry at n.

Terminology used throughout the package, for a partition pi:

* the mex of pi with frequency s: the smallest positive integer whose
  frequency as a part of pi is less than s (the ordinary mex is s=1);
* the congruence mex for (s, M, A): the smallest positive integer
  congruent to A mod M whose frequency is less than s;
* the chain of a kind: 1, 2, 3, ... for sigma and A, A+M, ... for
  varsigma (``MexParams._chain``), so that either mex is the first chain
  element whose frequency is below s;
* sigma moment: sum of mex^r over the partitions of n whose mex lies in
  the residue class A mod M;
* varsigma moment: sum of (congruence mex)^r over all partitions of n.
"""

from __future__ import annotations

import operator
import threading
from collections import OrderedDict
from collections.abc import Hashable
from itertools import repeat
from operator import add, attrgetter, mul

from mexmoments import backend
from mexmoments.errors import ResourceCapError, ValidationError

#: The two moment families.
VALID_KINDS = ("sigma", "varsigma")


def _check_kind(kind: str) -> None:
    """Refuse a kind outside ``VALID_KINDS``."""
    if kind not in VALID_KINDS:
        raise ValidationError(f"kind must be one of {VALID_KINDS}, got {_show(kind)}")


def _show(value) -> str:
    """``repr(value)`` for a message; never raises.  An int past
    int-to-str's limit is named by its size, any other value whose repr
    fails (a list holding such an int, say) by its type."""
    try:
        return repr(value)
    except Exception:
        if type(value) is int:
            return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
        return f"a {type(value).__name__}"


def _check_int(name: str, value, low: int) -> int:
    """``value`` as a plain int: ``ValidationError`` unless ``operator.index``
    takes it and it is at least ``low``.  A bool is refused too: it would
    hash equal to 0 or 1 and share their store entries."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValidationError(f"{name} must be an integer, got {_show(value)}")
    value = operator.index(value)
    if value < low:
        raise ValidationError(f"{name} must be >= {_show(low)}, got {_show(value)}")
    return value


def _check_params(p) -> None:
    """Refuse a ``p`` that is not a ``MexParams``, before any attribute
    read or store lookup of it."""
    if not isinstance(p, MexParams):
        raise ValidationError(f"params must be a MexParams, got {type(p).__name__}")


class _Frozen:
    """Base of the package's immutable value classes, in place of
    ``dataclass(frozen=True)``, whose module is most of the CLI's import
    time.  A subclass names its fields in ``_fields`` and holds them in
    ``__slots__``; its ``__init__`` sets each once, through
    ``object.__setattr__``.  Instances compare equal when of one class
    with equal fields (never to a plain tuple), hash as the tuple of
    their fields, refuse assignment and deletion, and pickle and copy by
    calling the class on their fields, so every check runs again."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # The fields as a tuple, read in C: this is every hash of a store key.
        cls._astuple = property(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple == other._astuple
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._astuple


class MexParams(_Frozen):
    """Parameter tuple (s, M, A, r) labelling a moment sequence.

    s >= 1 is the frequency threshold, M >= 1 the modulus, A the residue
    representative with 0 < A <= M, and r >= 0 the moment order, each a
    plain int.  A variant is built by calling the constructor, as in
    ``MexParams(p.s, p.M, a, p.r)``.
    """

    __slots__ = _fields = ("s", "M", "A", "r")

    def __init__(self, s: int, M: int, A: int, r: int) -> None:
        for name, value, low in (("s", s, 1), ("M", M, 1), ("A", A, 1), ("r", r, 0)):
            object.__setattr__(self, name, _check_int(name, value, low))
        if self.A > self.M:
            raise ValidationError(
                f"residue must satisfy 0 < A <= M, got A={_show(self.A)}, M={_show(self.M)}"
            )

    def _chain(self, kind: str) -> tuple[int, int]:
        """(first, step) of the chain of ``kind``: the one place a kind
        picks its chain (module docstring)."""
        return (1, 1) if kind == "sigma" else (self.A, self.M)


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


#: Largest n the oracle enumerates (``mex_value_histogram`` checks it).
#: The walk to n visits the partitions of every t <= n into parts above
#: ``_pure.SMALL_PARTS``, 3,614 at n = 60 (p(60) is about 9.7e5), and
#: its time grows about 3x per 10: the kernel took 0.001 s at n = 60 and
#: 0.02 s at n = 90 on a 2-core machine.  A larger n is the series route's job.
ORACLE_CAP = 60


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
#: recently used first.  The largest table ``mex_value_histogram``
#: builds, (s, M) = (s, 60) at n = 60, has 10,980.
STORE_CELL_LIMIT = 1 << 19

# One histogram table per (s, M): the histograms of every n' <= N, at the
# largest N walked so far, so one walk serves every smaller n and a
# repeated request returns the same object.  The cost is the table's cells.
_tables = Store(STORE_CELL_LIMIT)


def mex_value_histogram(N: int, s: int, M: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The histograms of every n = 0..N in ``_pure.walk``'s cell-major
    layout: ``table[A-1][m][n]`` counts the partitions of n whose
    congruence mex for (s, M, A) is A + m*M.

    The kernel's one gate, before any walk: N is checked against
    ``ORACLE_CAP``, and s and M as ints >= 1, each then capped at N+1.
    No part of a partition of n <= N occurs N+1 times, so s > N gives the
    histograms of s = N+1.  With M > N each class holds one candidate
    part A <= N (m is 0 or 1), and each A > N holds all p(n) partitions
    at m = 0, so modulus N+1 gives the same rows; row N+1 stands for
    every A > N+1.  So no table passes 10,980 cells.  The stored table of
    the capped (s, M) is served whole (past N its columns are those of
    the capped pair); a table shorter than N is walked again to N."""
    N = _check_cap(N)
    s, M = min(_check_int("s", s, 1), N + 1), min(_check_int("M", M, 1), N + 1)
    table = _tables.get((s, M), N)
    if table is None:
        # Each flat row cut into its cells, N + 1 counts each.
        rows = backend.mex_value_counts(N, s, M)
        table = tuple(tuple(zip(*[iter(row)] * (N + 1))) for row in rows)
        table = _tables.put((s, M), N, M * (N // M + 2) * (N + 1), table)
    return table


def oracle_values(kind: str, p: MexParams, N: int) -> list[int]:
    """Exact sigma or varsigma moments at every n = 0..N by enumeration,
    read as one column of one histogram table.

    sigma: the sum of mex^r over the partitions of n whose mex with
    frequency s lies in the class A mod M (r = 0 counts them).  varsigma:
    the sum of (congruence mex)^r over all partitions of n (r = 0 gives
    p(n)).

    ``mex_value_histogram`` caps s and M at N+1, so varsigma reads row
    min(A, N+1).  Values past the series route's byte budget
    (``qseries.sequence_bytes``) raise ``ResourceCapError`` before any
    weight is computed.
    """
    # qseries imports this module.
    from mexmoments.qseries import _check_coefficient_bytes, sequence_bytes

    _check_kind(kind)
    N = _check_cap(N)
    _check_coefficient_bytes(kind, N, sequence_bytes(kind, p, N))
    # The table of (s, step) counts mexes along the kind's chain
    # (MexParams._chain): its row min(first, N+1) holds the chain's cells,
    # and the j-th cell read from (A - first)/step on holds A + j*M.
    first, step = p._chain(kind)
    row = mex_value_histogram(N, p.s, step)[min(first, N + 1) - 1]
    # No partition of n <= N has a larger value than the largest at N,
    # which some partition of N has (qseries.largest_mex), so the cells
    # read stop at the last nonzero cell of n = N in the whole row.
    size = max(m + 1 for m, column in enumerate(row) if column[N])
    values = [0] * (N + 1)
    for j, column in enumerate(row[(p.A - first) // step : size : p.M // step]):
        values = list(map(add, values, map(mul, column, repeat((p.A + j * p.M) ** p.r))))
    return values


def sigma_oracle(p: MexParams, n: int) -> int:
    """Exact sigma moment at n by enumeration: ``oracle_values("sigma", p, n)[n]``."""
    return oracle_values("sigma", p, n)[n]


def varsigma_oracle(p: MexParams, n: int) -> int:
    """Exact varsigma moment at n by enumeration: ``oracle_values("varsigma", p, n)[n]``."""
    return oracle_values("varsigma", p, n)[n]
