"""Pure-Python kernels: the partition-enumeration histogram, twin of the
compiled ``mexmoments._speed`` (the active one is chosen in
:mod:`mexmoments.backend`; keep the two in sync), and the sparse x dense
product behind every moment sequence, which has no compiled twin.

Both work on plain ``list`` objects holding exact Python integers, so
results never lose precision regardless of magnitude.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import add, neg, sub

# The walk over the partitions of n has p(n) - p(n-2) nodes; beyond this it
# is hopeless anyway and the compiled kernel's int64 counters could not hold
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

    The walk recurses over the parts >= 3 only, so it has p(n) - p(n-2)
    nodes.  At a node the remainder R is c2 twos and R - 2*c2 ones, for
    each c2 in 0..R//2, and a row takes all R//2 + 1 of those partitions
    at once.  Its chain A, A+M, ... meets 1 and 2 only at its first two
    positions: 1 stays in the chain while c2 <= (R - s)//2 (enough
    ones), 2 while c2 >= s (enough twos).  So the c2 that break the chain
    at 1 or at 2 are whole intervals, each added to one cell, and the rest
    share the cell that the fixed tail of parts >= 3 decides.
    """
    _check_histogram_args(n, s, M)
    counts = [[0] * (n // M + 2) for _ in range(M)]
    live = counts[: min(M, n)]
    rows = list(enumerate(live, 1))
    freq = [0] * (n + 2)

    def walk(remaining: int, max_part: int) -> None:
        part = remaining if remaining < max_part else max_part
        while part >= 3:
            freq[part] += 1
            walk(remaining - part, part)
            freq[part] -= 1
            part -= 1
        choices = remaining // 2 + 1  # c2 = 0..remaining//2
        with_ones = max((remaining - s) // 2 + 1, 0)  # c2 with at least s ones
        for k, row in rows:
            # alive: how many c2 keep the chain unbroken up to k.
            alive, m = choices, 0
            if k == 1:
                row[0] += alive - with_ones
                alive, m, k = with_ones, 1, k + M
            if k == 2:
                with_twos = alive - s if alive > s else 0
                row[m] += alive - with_twos
                alive, m, k = with_twos, m + 1, k + M
            if alive:
                while k <= n and freq[k] >= s:
                    k += M
                    m += 1
                row[m] += alive

    walk(n, n)
    total = sum(live[0]) if live else 1
    for row in counts[len(live) :]:
        row[0] = total
    return counts


# Bits in one packed block of the sparse x dense product: an int of this
# size takes at most 504 bytes, inside CPython's 512-byte small-object
# allocator.  Larger blocks lose most of the gain (README, Caching).
_PACK_BITS = 3600


def sparse_dense_product(sparse: list, dense: list, length: int) -> list:
    """Multiply a sparse polynomial by a dense series, truncated.

    ``sparse`` holds (exponent, weight) pairs; ``dense`` must have at least
    ``length`` coefficients.  Exact integer arithmetic throughout.

    Terms are grouped by |weight|.  The signed shifted copies of ``dense``
    in one group are summed with plain adds and subtracts, and the sum is
    multiplied by the weight once, so the number of big-integer multiply
    passes is the number of distinct |weight|s, not of terms.

    The sums run on blocks that pack K consecutive coefficients into one
    int, in W-bit slots wide enough for any coefficient of the result and
    its sign, so one add does the work of K.  ``dense`` enters biased by
    2^(W-1) per slot, so every slot is a W-bit unsigned field and the
    packed copies are cut from one byte string; each block of the result
    is decoded by adding the bias back and slicing its bytes.  The term at
    exponent e = qK + r adds copy r of the packed series (``dense``
    shifted by r slots) from block q on.  A lone term is served as a plain
    shifted copy of ``dense``, without packing.
    """
    live = [(e, w) for e, w in sparse if w and e < length]
    if len(live) < 2:
        out = [0] * length
        for e, w in live:
            ys = dense[: length - e]
            if w == -1:
                ys = list(map(neg, ys))
            elif w != 1:
                ys = [w * y for y in ys]
            out[e:] = ys
        return out
    groups: dict[int, list] = {}
    for e, w in live:
        groups.setdefault(abs(w), []).append((e, w))

    # |result| <= max|dense| * sum|w| < 2^(W-1), with W a whole number of bytes.
    top = max(map(abs, dense[:length]))
    S = (top.bit_length() + sum(k * len(t) for k, t in groups.items()).bit_length() + 8) // 8
    W = 8 * S
    K = max(1, min(_PACK_BITS // W, length))
    nb = -(-length // K)
    bias = 1 << (W - 1)
    from_bytes = int.from_bytes
    # K slots of bias on either side read as zeros once the bias is taken
    # off, so every block is cut whole, the first and last included.
    pad = bias.to_bytes(S, "little") * K
    full = from_bytes(pad, "little")
    stream = b"".join(chain([pad], map(int.to_bytes, map(add, dense[:length], repeat(bias)),
                                        repeat(S), repeat("little")), [pad]))
    view = memoryview(stream)
    # Copy r packs q^r * dense: its block i holds dense[iK - r : iK - r + K].
    # Only the residues that occur get a copy; the string goes before the sums.
    copies = {
        r: [from_bytes(view[a * S : (a + K) * S], "little") - full
            for a in range(K - r, (nb + 1) * K - r, K)]
        for r in {e % K for e, _ in live}
    }
    del view, stream
    out = [0] * nb
    for terms in groups.values():
        terms.sort()
        q0, r = divmod(terms[0][0], K)
        w0 = terms[0][1]
        acc = copies[r][: nb - q0]
        for e, w in terms[1:]:
            q, r = divmod(e, K)
            op = add if (w > 0) == (w0 > 0) else sub
            acc[q - q0 :] = map(op, acc[q - q0 :], copies[r])
        if w0 == 1:
            out[q0:] = map(add, out[q0:], acc)
        elif w0 == -1:
            out[q0:] = map(sub, out[q0:], acc)
        else:
            out[q0:] = [x + w0 * y for x, y in zip(out[q0:], acc)]
    del acc, copies

    blocks = map(int.to_bytes, map(add, out, repeat(full)), repeat(K * S), repeat("little"))
    slots = range(0, K * S, S)
    result = [from_bytes(data[j : j + S], "little") - bias for data in blocks for j in slots]
    del result[length:]
    return result
