"""Pure-Python kernels: the partition-enumeration histogram, twin of the
compiled ``mexmoments._speed`` (the active one is chosen in
:mod:`mexmoments.backend`; keep the two in sync), and the sparse x dense
product behind every moment sequence, which has no compiled twin.

Both work on plain ``list`` objects holding exact Python integers, so
results never lose precision regardless of magnitude.
"""

from __future__ import annotations

from operator import add, sub

# Enumerating partitions of n visits p(n) leaves; beyond this the walk is
# hopeless anyway and the compiled kernel's int64 counters could not hold
# the counts.
ENUMERATION_LIMIT = 300


def _check_histogram_args(n: int, s: int, M: int) -> None:
    if n < 0:
        raise ValueError("n must be >= 0")
    if s < 1:
        raise ValueError("s must be >= 1")
    if M < 1:
        raise ValueError("M must be >= 1")
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"refusing to enumerate partitions of n={n} (limit {ENUMERATION_LIMIT})")


def mex_value_counts(n: int, s: int, M: int) -> list[list[int]]:
    """Histogram the frequency-s mex statistics over all partitions of n.

    Returns M rows.  Row A-1 (for each residue A in 1..M) maps m to the
    number of partitions of n whose smallest positive integer congruent to
    A mod M with part-frequency < s equals A + m*M.  Rows have n//M + 2
    entries, which bounds every m.  Residues A > n never occur as parts,
    so their rows hold all p(n) partitions at m = 0.  With M=1 the single
    row is the histogram of the plain frequency-s mex, shifted by one.

    Each partition is visited once: the walk recurses over its parts >= 2
    only, and whatever remains is ones, placed in one step.
    """
    _check_histogram_args(n, s, M)
    counts = [[0] * (n // M + 2) for _ in range(M)]
    live = counts[: min(M, n)]
    rows = list(enumerate(live, 1))
    freq = [0] * (n + 2)

    def walk(remaining: int, max_part: int) -> None:
        part = remaining if remaining < max_part else max_part
        while part >= 2:
            freq[part] += 1
            walk(remaining - part, part)
            freq[part] -= 1
            part -= 1
        freq[1] += remaining
        for k, row in rows:
            m = 0
            while k <= n and freq[k] >= s:
                k += M
                m += 1
            row[m] += 1
        freq[1] -= remaining

    walk(n, n)
    total = sum(live[0]) if live else 1
    for row in counts[len(live) :]:
        row[0] = total
    return counts


def _signed_sum(terms: list, dense: list, length: int) -> list:
    """sum over (e, w) in ``terms`` of sign(w / w0) * q^(e - e0) * dense,
    truncated at q^(length - e0), where (e0, w0) is the first term and
    every term has the same |w| and an exponent >= e0."""
    e0, w0 = terms[0]
    acc = dense[: length - e0]
    for e, w in terms[1:]:
        op = add if (w > 0) == (w0 > 0) else sub
        acc[e - e0 :] = map(op, acc[e - e0 :], dense)
    return acc


def sparse_dense_product(sparse: list, dense: list, length: int) -> list:
    """Multiply a sparse polynomial by a dense series, truncated.

    ``sparse`` holds (exponent, weight) pairs; ``dense`` must have at least
    ``length`` coefficients.  Exact integer arithmetic throughout.

    Terms are grouped by |weight|.  The signed shifted copies of ``dense``
    in one group are summed with plain adds and subtracts, and the sum is
    multiplied by the weight once, so the number of big-integer multiply
    passes is the number of distinct |weight|s, not of terms.
    """
    groups: dict[int, list] = {}
    for e, w in sparse:
        if w and e < length:
            groups.setdefault(abs(w), []).append((e, w))
    out = [0] * length
    for terms in groups.values():
        terms.sort()
        e0, w0 = terms[0]
        ys = dense if len(terms) == 1 else _signed_sum(terms, dense, length)
        if w0 == 1:
            out[e0:] = map(add, out[e0:], ys)
        elif w0 == -1:
            out[e0:] = map(sub, out[e0:], ys)
        else:
            out[e0:] = [x + w0 * y for x, y in zip(out[e0:], ys)]
    return out
