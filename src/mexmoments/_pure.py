"""Pure-Python kernels: the partition-enumeration histograms of every
n' <= n from one walk, twin of the compiled ``mexmoments._speed`` (the
active one is chosen in :mod:`mexmoments.backend`; keep the two in
sync), and the sparse x dense product behind every moment sequence,
which has no compiled twin.

Both work on plain ``list`` objects holding exact Python integers, so
results never lose precision regardless of magnitude.
"""

from __future__ import annotations

from itertools import accumulate, chain, repeat
from operator import add, mul, neg, sub

# Guards direct kernel calls (the oracles stop at partitions.ORACLE_CAP
# first): the walk for the partitions of n' <= n has p(n) - p(n-2) nodes,
# beyond this it is hopeless anyway, and the compiled kernel's int64
# counters could not hold the counts.
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
    """Histogram the frequency-s mex statistics over the partitions of
    every n' = 0..n, from one walk.

    Returns M rows.  Row A-1 (for each residue A in 1..M) is one flat
    list: the block of n' = 0, then that of n' = 1, ..., then that of n.
    The block of n' has n'//M + 2 cells, and its cell m counts the
    partitions of n' whose smallest positive integer congruent to A mod M
    with part-frequency < s equals A + m*M (n'//M + 2 cells bound every
    m).  Residues A > n' never occur as parts of n', so their block holds
    all p(n') partitions at m = 0.  With M=1 the single row holds the
    histograms of the plain frequency-s mex, shifted by one.

    A partition is a tail of parts >= 3, of sum t, plus c2 twos and
    R - 2*c2 ones, R = n' - t.  The walk visits each tail with t <= n
    once, p(n) - p(n-2) nodes.  Only the first two places of a row's
    chain A, A+M, ... can be 1 or 2, and the twos and ones break it there
    for whole intervals of c2: 1 stays in the chain while c2 <= (R - s)//2
    (enough ones), 2 while c2 >= s (enough twos).  Those counts depend on
    R alone.  The c2 that keep the chain alive leave it to the tail,
    which breaks it at a cell of its own, wherever R is.  So the walk
    counts the tails per (t, cell) of each row, and each block of n'
    comes from short convolutions over t of those counts with the counts
    of c2 per R.

    A row's first place >= 3 holds its cell unless that part is
    saturated (frequency >= s).  Each part k in 3..M+2 is the first place
    >= 3 of exactly one chain, so a node follows only the chains that its
    saturated parts k <= M+2 start, and every other row keeps its first
    cell: the cost of a node does not grow with M.
    """
    _check_histogram_args(n, s, M)
    stride = n + 1
    nodes = [0] * stride  # tails of parts >= 3 per sum t
    # first[a0]: the index m of row a0's first place >= 3.  breaks[a0]
    # holds, at c * stride + t, the tails of sum t that break the chain
    # of row a0 at cell c > first[a0]; the rest break it at first[a0].
    first = [(3 - A + M - 1) // M if A < 3 else 0 for A in range(1, min(M, n) + 1)]
    breaks = [[0] * ((n // M + 2) * stride) for _ in first]
    # A saturated part k <= M+2 follows its chain from the next place on.
    starts = {k: (k, breaks[(k - 1) % M], (first[(k - 1) % M] + 1) * stride)
              for k in range(3, min(M + 2, n) + 1)}
    freq = [0] * (n + 1)
    followed: list = []

    def walk(t: int, max_part: int) -> None:
        nodes[t] += 1
        for k, row, i in followed:
            i += t
            k += M
            while k <= n and freq[k] >= s:
                k += M
                i += stride
            row[i] += 1
        part = n - t if n - t < max_part else max_part
        while part >= 3:
            freq[part] += 1
            if freq[part] == s and part in starts:
                followed.append(starts[part])
                walk(t + part, part)
                followed.pop()
            else:
                walk(t + part, part)
            freq[part] -= 1
            part -= 1

    walk(0, n)

    offsets = list(accumulate((j // M + 2 for j in range(stride)), initial=0))
    size = offsets[-1]

    def add(row: list, cell: int, xs: list, ys: list, sign: int = 1) -> None:
        """Add sign * sum_t xs[t] * ys[n' - t] to ``cell`` of each block n'."""
        lo = next((t for t, x in enumerate(xs) if x), stride)
        xs, rev = xs[lo:], ys[::-1]
        # The block of n' has n'//M + 2 cells; a cell past it counts nothing.
        for j in range(max(lo, (cell - 1) * M), stride):
            row[offsets[j] + cell] += sign * sum(map(mul, xs, rev[n - j + lo :]))

    def base_row(fixed: list) -> list:
        row = [0] * size
        for cell, ys in fixed:
            add(row, cell, nodes, ys)
        return row

    # The c2 = 0..R//2 per remainder R: all, those with at least s ones,
    # and how many of the first x of them have at least s twos.
    choices = [R // 2 + 1 for R in range(stride)]
    with_ones = [max((R - s) // 2 + 1, 0) for R in range(stride)]

    def with_twos(xs: list) -> list:
        return [x - s if x > s else 0 for x in xs]

    def row_class(A: int) -> tuple[list, list]:
        """The cells that the ones and twos decide, as (cell, c2 per R),
        and the c2 per R that they leave to the tail."""
        if A == 1:
            fixed = [(0, list(map(sub, choices, with_ones)))]
            if M > 1:
                return fixed, with_ones
            alive = with_twos(with_ones)
            return fixed + [(1, list(map(sub, with_ones, alive)))], alive
        if A == 2:
            alive = with_twos(choices)
            return [(0, list(map(sub, choices, alive)))], alive
        return [], choices

    # Rows A >= 3 start from all p(n') partitions at m = 0; rows A > n
    # stay there.
    plain = base_row([(0, choices)])
    counts = []
    for a0 in range(M):
        if a0 >= len(first):
            counts.append(plain[:])
            continue
        m0 = first[a0]
        fixed, alive = row_class(a0 + 1)
        row = base_row(fixed + [(m0, alive)]) if fixed else plain[:]
        tails = breaks[a0]
        for cell in range(m0 + 1, n // M + 2):
            xs = tails[cell * stride : (cell + 1) * stride]
            if any(xs):
                add(row, cell, xs, alive)
                add(row, m0, xs, alive, -1)
        counts.append(row)
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
