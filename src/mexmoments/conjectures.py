"""Empirical scanners for the two open questions about the moment
sequences: eventual log-concavity, and a stable ordering of the residue
classes ("bias").

The scanners only ever compare exact integers; no value is converted to
floating point.  They report evidence over a finite range and never claim
anything beyond it: ``stabilized_at`` is range-relative and explicitly
not a proof of eventual behaviour.
"""

from __future__ import annotations

from typing import NamedTuple

from mexmoments import qseries
from mexmoments.partitions import MexParams, _check_int, _check_kind, _Frozen


class OrderingEntry(NamedTuple):
    """Residues 1..M sorted by moment value at one n.

    ``perm`` lists the residues in ascending order of their exact values,
    ties broken by ascending residue; ``ties`` lists every group of two or
    more residues whose values are exactly equal.
    """

    n: int
    perm: tuple[int, ...]
    ties: tuple[tuple[int, ...], ...]

    def to_json_dict(self) -> dict:
        return {"n": self.n, "perm": list(self.perm), "ties": [list(t) for t in self.ties]}


class ScanReport(_Frozen):
    """Outcome of one scan over [n_lo, n_hi].

    violations: n where the scanned predicate fails (log-concavity scan).
    equalities: the subset of violations that fail with exact equality
        rather than a strict reversal.
    ordering:   per-n residue orderings (bias scan only).
    stabilized_at: smallest n in range beyond which no violation occurs /
        the ordering stays constant, through the end of the range; None
        when the behaviour is still changing at the end of the range.
        Range-relative evidence only.
    """

    __slots__ = _fields = ("params", "n_lo", "n_hi", "violations", "equalities", "ordering",
                           "stabilized_at")

    def __init__(self, params: dict, n_lo: int, n_hi: int, violations: tuple[int, ...] = (),
                 equalities: tuple[int, ...] = (), ordering: tuple[OrderingEntry, ...] = (),
                 stabilized_at: int | None = None) -> None:
        for name, value in zip(self._fields, (params, n_lo, n_hi, violations, equalities,
                                              ordering, stabilized_at)):
            object.__setattr__(self, name, value)

    def to_json_dict(self) -> dict:
        out = {
            "params": dict(self.params),
            "range": [self.n_lo, self.n_hi],
            "violations": list(self.violations),
            "equalities": list(self.equalities),
            "ordering": [entry.to_json_dict() for entry in self.ordering],
        }
        if self.stabilized_at is not None:
            out["stabilized_at"] = self.stabilized_at
        return out


def _check_range(n_lo: int, n_hi: int) -> tuple[int, int]:
    """The range as plain ints, refused unless 1 <= n_lo <= n_hi."""
    n_lo = _check_int("n_lo", n_lo, 1)
    return n_lo, _check_int("n_hi", n_hi, n_lo)


def scan_log_concavity(kind: str, p: MexParams, n_lo: int, n_hi: int) -> ScanReport:
    """Check value(n)^2 > value(n-1) value(n+1) for n in [n_lo, n_hi - 1].

    Every n where the strict inequality fails is recorded as a violation;
    exact-equality failures (including runs of zeros at the head of a
    sequence) are additionally listed under ``equalities`` rather than
    suppressed.  Comparisons are exact integer arithmetic.
    """
    n_lo, n_hi = _check_range(n_lo, n_hi)
    values = qseries.moment_sequence(kind, p, n_hi).values
    violations = []
    equalities = []
    for n in range(n_lo, n_hi):
        lhs = values[n] * values[n]
        rhs = values[n - 1] * values[n + 1]
        if lhs <= rhs:
            violations.append(n)
            if lhs == rhs:
                equalities.append(n)
    if not violations:
        stabilized = n_lo
    elif violations[-1] == n_hi - 1:
        stabilized = None
    else:
        stabilized = violations[-1] + 1
    return ScanReport(
        params={"kind": kind, "s": p.s, "M": p.M, "A": p.A, "r": p.r},
        n_lo=n_lo,
        n_hi=n_hi,
        violations=tuple(violations),
        equalities=tuple(equalities),
        stabilized_at=stabilized,
    )


def _report_bytes(M: int, n_lo: int, n_hi: int) -> int:
    """An upper bound on the bytes of a bias scan's ordering for
    n_lo..n_hi and of its JSON text (``cli._report_text_bytes``), on
    CPython 3.11, whose objects take multiples of 16 bytes.  Per n the
    ordering holds the entry and n (96), their slots (40), the perm tuple
    (48 + 8M) and its residue ints past 256 (32 each), and the ties, at
    most M//2 groups of M residues in all (48 + 56 per group + 8 per
    residue)."""
    from mexmoments.cli import _report_text_bytes  # cli imports this module

    count = n_hi - n_lo + 1
    ordering = 136 + 48 + 8 * M + 32 * max(M - 256, 0) + 48 + 56 * (M // 2) + 8 * M
    return count * ordering + _report_text_bytes(M, count)


def scan_bias(kind: str, s: int, M: int, r: int, n_lo: int, n_hi: int) -> ScanReport:
    """Sort the residues 1..M by exact moment value at every n in
    [n_lo, n_hi] and report the orderings.

    Ties are broken by ascending residue and flagged explicitly, since an
    ordering by "<=" makes equal values legitimate.  For the sigma family
    with r = 0 the residue classes partition all partitions of n, so the
    per-n values are additionally checked to sum to p(n).  A scan whose M
    sequences (``qseries.sequence_bytes``), ordering and report text
    (``_report_bytes``) could hold more than ``qseries.STORE_BYTE_LIMIT``
    bytes raises ``ResourceCapError`` before any sequence is computed.
    """
    _check_kind(kind)
    p = MexParams(s, M, 1, r)  # rejects s, M and r outside their domains
    s, M, r = p.s, p.M, p.r
    n_lo, n_hi = _check_range(n_lo, n_hi)
    # The M sequences stay alive together and with the report, so store
    # eviction cannot bound them: their bytes are checked together, up
    # front.  No sequence bound is below that of r = 0, which A leaves
    # unchanged, so more residues than fit at r = 0 are refused at once.
    residues = range(1, M + 1)
    least = qseries.sequence_bytes(kind, MexParams(s, M, 1, 0), n_hi)  # checks n_hi's order limit
    report = _report_bytes(M, n_lo, n_hi)
    nbytes = report + M * least
    if nbytes <= qseries.STORE_BYTE_LIMIT:
        nbytes = report + sum(qseries.sequence_bytes(kind, MexParams(s, M, a, r), n_hi)
                              for a in residues)
    qseries._check_coefficient_bytes(kind, n_hi, nbytes, M)
    columns = [qseries.moment_sequence(kind, MexParams(s, M, a, r), n_hi).values
               for a in residues]
    pn = qseries.partition_numbers(n_hi) if (kind == "sigma" and r == 0) else None
    entries = []
    for n in range(n_lo, n_hi + 1):
        values = [column[n] for column in columns]
        if pn is not None and sum(values) != pn[n]:
            raise RuntimeError(
                f"residue classes fail to partition p({n}): {sum(values)} != {pn[n]}"
            )
        row = sorted(zip(values, residues))
        perm = tuple(a for _, a in row)
        ties = []
        i = 0
        while i < M:
            j = i
            while j + 1 < M and row[j + 1][0] == row[i][0]:
                j += 1
            if j > i:
                ties.append(tuple(a for _, a in row[i : j + 1]))
            i = j + 1
        entries.append(OrderingEntry(n, perm, tuple(ties)))

    # Longest suffix over which the ordering is constant.
    m = n_hi
    last = entries[-1].perm
    for entry in reversed(entries[:-1]):
        if entry.perm != last:
            break
        m = entry.n
    if m == n_hi and n_hi > n_lo:
        stabilized = None
    else:
        stabilized = m
    return ScanReport(
        params={"kind": kind, "s": s, "M": M, "r": r},
        n_lo=n_lo,
        n_hi=n_hi,
        ordering=tuple(entries),
        stabilized_at=stabilized,
    )
