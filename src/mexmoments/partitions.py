"""Partition enumeration and the generalized minimal-excludant statistics.

This module is the ground-truth oracle: every statistic is obtained by
walking actual partitions, with no generating-function shortcuts.  The
other modules are cross-checked against it.

Terminology used throughout the package:

* mex_s(pi, s): the smallest positive integer whose frequency as a part
  of pi is less than s (the ordinary mex is s=1).
* mex_s_mod(pi, s, M, A): the smallest positive integer congruent to
  A mod M whose frequency is less than s.
* sigma moment: sum of mex_s(pi)^r over partitions of n whose mex_s lies
  in the residue class A mod M.
* varsigma moment: sum of mex_s_mod(pi)^r over all partitions of n.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from mexmoments import backend
from mexmoments.errors import ResourceCapError, ValidationError

#: Hard default for the oracle range; p(60) ~ 9.7e5 partitions keeps a full
#: parameter sweep at seconds scale.  Override per call or via the
#: MEXMOMENTS_ORACLE_CAP environment variable.
DEFAULT_ORACLE_CAP = 60


def oracle_cap() -> int:
    """Active oracle cap (environment override or the built-in default)."""
    raw = os.environ.get("MEXMOMENTS_ORACLE_CAP")
    if raw is None:
        return DEFAULT_ORACLE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValidationError(f"MEXMOMENTS_ORACLE_CAP must be an integer, not {raw!r}") from exc
    return cap


@dataclass(frozen=True)
class MexParams:
    """Parameter tuple (s, M, A, r) labelling a moment sequence.

    s >= 1 is the frequency threshold, M >= 1 the modulus, A the residue
    representative with 0 < A <= M, and r >= 0 the moment order.
    """

    s: int
    M: int
    A: int
    r: int

    def __post_init__(self) -> None:
        if self.s < 1:
            raise ValidationError(f"s must be a positive integer, got {self.s}")
        if self.M < 1:
            raise ValidationError(f"M must be a positive integer, got {self.M}")
        if not 0 < self.A <= self.M:
            raise ValidationError(f"residue must satisfy 0 < A <= M, got A={self.A}, M={self.M}")
        if self.r < 0:
            raise ValidationError(f"moment order r must be >= 0, got {self.r}")


class Partition:
    """A partition: weakly decreasing positive parts, with a frequency map.

    The parts view and the frequency view are kept together so that mex
    queries cost one dictionary probe per candidate value.
    """

    __slots__ = ("parts", "freq")

    def __init__(self, parts=()):
        parts = tuple(parts)
        for prev, cur in zip(parts, parts[1:]):
            if cur > prev:
                raise ValidationError(f"parts must be weakly decreasing, got {parts}")
        if parts and parts[-1] < 1:
            raise ValidationError(f"parts must be positive, got {parts}")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "freq", dict(Counter(parts)))

    @classmethod
    def from_frequencies(cls, freq: dict) -> "Partition":
        """Build from a part -> frequency map (all frequencies >= 1)."""
        parts = []
        for part in sorted(freq, reverse=True):
            mult = freq[part]
            if mult < 1:
                raise ValidationError(f"frequency of part {part} must be >= 1, got {mult}")
            parts.extend([part] * mult)
        return cls(parts)

    @property
    def weight(self) -> int:
        """|pi| = sum of the parts."""
        return sum(self.parts)

    def frequency(self, part: int) -> int:
        return self.freq.get(part, 0)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)})"


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Yield every partition of n exactly once, in descending-lexicographic
    order on part sequences; n=0 yields just the empty partition."""
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}")
    if n == 0:
        yield Partition()
        return
    # parts[] is the current stack of chosen parts, weakly decreasing.
    parts: list[int] = []

    def extend(remaining: int, max_part: int) -> Iterator[Partition]:
        for part in range(min(remaining, max_part), 0, -1):
            parts.append(part)
            if remaining == part:
                yield Partition(parts)
            else:
                yield from extend(remaining - part, part)
            parts.pop()

    yield from extend(n, n)


def mex_s(pi: Partition, s: int) -> int:
    """Smallest positive integer whose frequency in pi is < s."""
    if s < 1:
        raise ValidationError(f"s must be >= 1, got {s}")
    freq = pi.freq
    k = 1
    while freq.get(k, 0) >= s:
        k += 1
    return k


def mex_s_mod(pi: Partition, s: int, M: int, A: int) -> int:
    """Smallest positive integer congruent to A mod M with frequency < s.

    Reduces to mex_s when (M, A) = (1, 1).
    """
    if s < 1:
        raise ValidationError(f"s must be >= 1, got {s}")
    if M < 1 or not 0 < A <= M:
        raise ValidationError(f"need 0 < A <= M, got A={A}, M={M}")
    freq = pi.freq
    k = A
    while freq.get(k, 0) >= s:
        k += M
    return k


# Histogram cache: the kernel enumerates once per (n, s, M) and every moment
# order r is then a cheap weighted sum.  lru_cache gives the concurrency
# contract for free (atomic dict ops; at worst a duplicated computation).
@lru_cache(maxsize=4096)
def mex_value_histogram(n: int, s: int, M: int) -> tuple[tuple[int, ...], ...]:
    """Row A-1 counts, per m, the partitions of n with
    mex_s_mod(pi, s, M, A) = A + m*M.  Rows have n//M + 2 entries."""
    return tuple(tuple(row) for row in backend.mex_value_counts(n, s, M))


def _check_cap(n: int, cap: int | None) -> None:
    active = oracle_cap() if cap is None else cap
    if active < 0:
        raise ValidationError(f"oracle cap must be >= 0, got {active}")
    if n > active:
        raise ResourceCapError(
            f"oracle request n={n} exceeds cap {active}; raise the cap explicitly "
            "or use the generating-function route"
        )


def sigma_oracle(p: MexParams, n: int, cap: int | None = None) -> int:
    """Exact sigma moment by brute-force enumeration.

    Sum of mex_s(pi)^r over partitions pi of n with mex_s(pi) in the class
    A mod M.  The r=0 moment is a pure count (v^0 = 1 for every value v).
    """
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}")
    _check_cap(n, cap)
    hist = mex_value_histogram(n, p.s, 1)[0]
    residue = p.A % p.M
    return sum(c * v**p.r for v, c in enumerate(hist, 1) if c and v % p.M == residue)


def varsigma_oracle(p: MexParams, n: int, cap: int | None = None) -> int:
    """Exact varsigma moment by brute-force enumeration.

    Sum of mex_s_mod(pi, s, M, A)^r over all partitions pi of n; equals the
    partition count p(n) when r = 0.
    """
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}")
    _check_cap(n, cap)
    hist = mex_value_histogram(n, p.s, p.M)[p.A - 1]
    return sum(c * (p.A + m * p.M) ** p.r for m, c in enumerate(hist) if c)
