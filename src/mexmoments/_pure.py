"""Pure-Python kernels.

These are the reference implementations of the hot loops.  The compiled
module ``mexmoments._speed`` provides a bit-identical, faster
``mex_value_counts``; the active one is chosen in :mod:`mexmoments.backend`.
Keep the two in sync.

All series kernels operate on plain ``list`` objects holding exact Python
integers, so results never lose precision regardless of magnitude.
"""

from __future__ import annotations

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
    """
    _check_histogram_args(n, s, M)
    counts = [[0] * (n // M + 2) for _ in range(M)]
    live = counts[: min(M, n)]
    freq = [0] * (n + 2)

    def visit() -> None:
        for k, row in enumerate(live, 1):
            m = 0
            while k <= n and freq[k] >= s:
                k += M
                m += 1
            row[m] += 1

    def walk(remaining: int, max_part: int) -> None:
        if remaining == 0:
            visit()
            return
        part = min(remaining, max_part)
        while part >= 1:
            freq[part] += 1
            walk(remaining - part, part)
            freq[part] -= 1
            part -= 1

    walk(n, n)
    total = sum(live[0]) if live else 1
    for row in counts[len(live) :]:
        row[0] = total
    return counts


def cauchy_product(a: list, b: list) -> list:
    """Schoolbook product of two coefficient lists, truncated to the
    shorter length.  Exact for arbitrary Python integers."""
    n = min(len(a), len(b))
    out = [0] * n
    for i in range(n):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(n - i):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def invert_unit_series(a: list) -> list:
    """Coefficients of 1/a for a series with constant term +1 or -1.

    Standard recurrence b_m = -a_0 * sum_{k>=1} a_k b_{m-k}; zero
    coefficients of ``a`` are skipped, so sparse inputs invert fast.
    The caller must have checked a[0] in (1, -1).
    """
    n = len(a)
    c0 = a[0]
    out = [0] * n
    out[0] = c0
    support = [(k, a[k]) for k in range(1, n) if a[k]]
    for m in range(1, n):
        acc = 0
        for k, ak in support:
            if k > m:
                break
            acc += ak * out[m - k]
        out[m] = -acc if c0 == 1 else acc
    return out


def euler_product_coeffs(order: int) -> list:
    """Coefficients of prod_{k=1..order} (1 - q^k) truncated at ``order``."""
    c = [0] * (order + 1)
    c[0] = 1
    for k in range(1, order + 1):
        for j in range(order, k - 1, -1):
            c[j] -= c[j - k]
    return c


def sparse_dense_product(sparse: list, dense: list, length: int) -> list:
    """Multiply a sparse polynomial by a dense series, truncated.

    ``sparse`` holds (exponent, weight) pairs; ``dense`` must have at least
    ``length`` coefficients.  Exact integer arithmetic throughout.
    """
    out = [0] * length
    for e, w in sparse:
        if w == 0 or e >= length:
            continue
        seg = dense[: length - e]
        if w == 1:
            out[e:] = [x + y for x, y in zip(out[e:], seg)]
        elif w == -1:
            out[e:] = [x - y for x, y in zip(out[e:], seg)]
        else:
            out[e:] = [x + w * y for x, y in zip(out[e:], seg)]
    return out
