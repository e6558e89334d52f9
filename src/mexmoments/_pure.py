"""The package's two kernels: the partition-enumeration histograms of
every n' <= n, assembled from one walk over the partitions into parts
above ``SMALL_PARTS``, and the sparse x dense product behind every moment
sequence.

Both work on plain ``list`` objects holding exact Python integers, so
results never lose precision regardless of magnitude.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import add, mul, neg, sub

#: L: the parts 1..L of a partition are counted per remainder, not
#: walked; the walk visits only the tails of parts above L.
SMALL_PARTS = 4


def walk(n: int, s: int, M: int, L: int) -> tuple[list, list]:
    """Walk the tails: the partitions of every t <= n into parts > L.

    Returns ``(nodes, breaks)``.  ``nodes[t]`` counts the tails of sum t.
    ``breaks`` has one row A-1 per A <= min(M, n), and its cell c counts
    the tails of sum t whose first chain place A + c*M above L with
    frequency < s lies past the row's first place above L, cell
    (L - A + M) // M; every other tail breaks the chain there.

    Every histogram row of the package is laid out this way, cell-major:
    n//M + 2 cells, each a column over t (or n') = 0..n, with cell c of t
    at c * (n + 1) + t (at ``row[c][t]`` in a stored table).

    Each part k in L+1..M+L is the first place above L of exactly one
    row's chain, and a row keeps its first cell unless k occurs at least
    s times.  So a node follows only the chains that its saturated parts
    k <= M+L start, and its cost does not grow with M.
    """
    stride = n + 1
    nodes = [0] * stride
    cells = n // M + 2
    breaks = [[0] * (cells * stride) for _ in range(min(M, n))]
    # A saturated part k follows its chain from the next place on.
    starts = {k: (k, breaks[(k - 1) % M], ((L - (k - 1) % M - 1 + M) // M + 1) * stride)
              for k in range(L + 1, min(M + L, n) + 1)}
    freq = [0] * (n + 1)
    followed: list = []

    def visit(t: int, max_part: int) -> None:
        nodes[t] += 1
        for k, row, i in followed:
            i += t
            k += M
            while k <= n and freq[k] >= s:
                k += M
                i += stride
            row[i] += 1
        part = n - t if n - t < max_part else max_part
        while part > L:
            freq[part] += 1
            if freq[part] == s and part in starts:
                followed.append(starts[part])
                visit(t + part, part)
                followed.pop()
            else:
                visit(t + part, part)
            freq[part] -= 1
            part -= 1

    visit(0, n)
    return nodes, breaks


def mex_value_counts(n: int, s: int, M: int) -> list[list[int]]:
    """Histogram the frequency-s mex statistics over the partitions of
    every n' = 0..n, from one ``walk``.  It checks no argument: its one
    caller, ``partitions.mex_value_histogram``, checks n against
    ``partitions.ORACLE_CAP`` and caps s and M at n+1.

    Returns M flat rows in ``walk``'s cell-major layout.  In row A-1 (for
    each residue A in 1..M), cell m of n' counts the partitions of n'
    whose smallest positive integer congruent to A mod M with
    part-frequency < s equals A + m*M.  Cells past n'//M + 1 of n' are 0:
    such a value needs saturated places that sum past n'.  Residues
    A > n' never occur as parts of n', so all p(n') partitions sit at
    m = 0.  With M=1 the single row holds the histograms of the plain
    frequency-s mex, shifted by one.

    A partition is a tail of parts > L = SMALL_PARTS, of sum t, plus the
    multiplicities (c_1, ..., c_L) of the small parts, of weight
    R = n' - t.  The walk visits each tail with t <= n once: the
    partitions into parts > L of every t <= n, 19,279 at n = 55.  The
    chain places of row A that are <= L, A, A+M, ..., are cells
    0..first-1, and the small parts alone decide whether one of them
    holds the value: the first unsaturated place (c_i < s) holds it.  The
    vectors that saturate places i in a set P are, with s copies of each
    taken off, all the vectors of weight R - s*sum(P), so the partitions
    of n' that saturate P number those of n' - s*sum(P).  The vectors
    that saturate every place <= L leave the chain to the tail, which
    breaks it at cell first or past it, wherever R is; the tails that
    break it past first give their cells by short convolutions over t
    of the walk's counts with those vectors per R.
    """
    L = SMALL_PARTS
    nodes, breaks = walk(n, s, M, L)
    stride = n + 1
    cells = n // M + 2
    zero = [0] * stride

    def conv(xs: list, ys: list) -> list:
        """sum_t xs[t] * ys[n' - t] for each n'."""
        lo = next((t for t, x in enumerate(xs) if x), stride)
        xs, rev = xs[lo:], ys[::-1]
        return [0] * lo + [sum(map(mul, xs, rev[n - j + lo :])) for j in range(lo, stride)]

    def shifted(xs: list, d: int) -> list:
        return [0] * min(d, stride) + xs[: max(stride - d, 0)]

    # The vectors (c_1, ..., c_L) of each weight R, one part at a time.
    vectors = [1] + [0] * n
    for i in range(1, L + 1):
        for R in range(i, stride):
            vectors[R] += vectors[R - i]
    # total[n']: every partition of n'.  Those whose small parts hold
    # places of weight w at least s times each number total[n' - s*w].
    total = conv(nodes, vectors)
    plain = total + [0] * (stride * (cells - 1))
    counts = []
    for a0 in range(M):
        if a0 >= len(breaks):  # A > n: all p(n') partitions at m = 0
            counts.append(plain[:])
            continue
        A = a0 + 1
        first = (L - A + M) // M
        # weights[j]: s times the sum of the places before cell j.
        weights = [s * (A * j + M * j * (j - 1) // 2) for j in range(first + 1)]
        columns = [zero] * max(cells, first + 1)
        for j in range(first):
            columns[j] = list(map(sub, shifted(total, weights[j]), shifted(total, weights[j + 1])))
        # The small parts saturate every place <= L: the tail decides.
        alive = shifted(vectors, weights[first])
        kept = shifted(total, weights[first])
        tails = breaks[a0]
        for cell in range(first + 1, cells):
            xs = tails[cell * stride : (cell + 1) * stride]
            if any(xs):
                columns[cell] = conv(xs, alive)
                kept = list(map(sub, kept, columns[cell]))
        columns[first] = kept
        counts.append(list(chain.from_iterable(columns[:cells])))
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
        out[q0:] = [x + w0 * y for x, y in zip(out[q0:], acc)]
    del acc, copies

    blocks = map(int.to_bytes, map(add, out, repeat(full)), repeat(K * S), repeat("little"))
    slots = range(0, K * S, S)
    result = [from_bytes(data[j : j + S], "little") - bias for data in blocks for j in slots]
    del result[length:]
    return result
