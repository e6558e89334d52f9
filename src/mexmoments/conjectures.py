"""Empirical scanners for the two open questions about the moment
sequences: eventual log-concavity, and a stable ordering of the residue
classes ("bias").

The scanners only ever compare exact integers; no value is converted to
floating point.  They report evidence over a finite range and never claim
anything beyond it: ``stabilized_at`` is range-relative and explicitly
not a proof of eventual behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

from mexmoments import qseries
from mexmoments.partitions import MexParams, _check_int, _check_kind


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


@dataclass(frozen=True)
class ScanReport:
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

    params: dict
    n_lo: int
    n_hi: int
    violations: tuple[int, ...] = ()
    equalities: tuple[int, ...] = ()
    ordering: tuple[OrderingEntry, ...] = ()
    stabilized_at: int | None = None

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


def scan_bias(kind: str, s: int, M: int, r: int, n_lo: int, n_hi: int) -> ScanReport:
    """Sort the residues 1..M by exact moment value at every n in
    [n_lo, n_hi] and report the orderings.

    Ties are broken by ascending residue and flagged explicitly, since an
    ordering by "<=" makes equal values legitimate.  For the sigma family
    with r = 0 the residue classes partition all partitions of n, so the
    per-n values are additionally checked to sum to p(n).  A scan whose M
    sequences could hold more than ``qseries.STORE_BYTE_LIMIT`` bytes
    (``qseries.sequence_bytes``) raises ``ResourceCapError`` before any
    sequence is computed.
    """
    _check_kind(kind)
    p = MexParams(s, M, 1, r)  # rejects s, M and r outside their domains
    s, M, r = p.s, p.M, p.r
    n_lo, n_hi = _check_range(n_lo, n_hi)
    # The M sequences stay alive together, so store eviction cannot bound
    # them: their bytes are checked together, up front.
    qseries._check_coefficient_bytes(kind, p, n_hi, every_residue=True)
    residues = range(1, M + 1)
    columns = [qseries.moment_sequence(kind, replace(p, A=a), n_hi).values for a in residues]
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
