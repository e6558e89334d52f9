"""Pure-Python kernels.

These are the reference implementations of the hot loops.  The compiled
module ``mexmoments._speed`` provides a bit-identical, faster
``mex_value_counts``; the active one is chosen in :mod:`mexmoments.backend`.
Keep the two in sync.

All series kernels operate on plain ``list`` objects holding exact Python
integers, so results never lose precision regardless of magnitude.
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
