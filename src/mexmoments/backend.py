"""The package's two kernels: the partition-enumeration histograms of
every n' <= n, assembled from one walk over the partitions into parts
above ``SMALL_PARTS``, and the sparse x dense product behind every moment
sequence.

Both work on plain ``list`` objects holding exact Python integers, so
results never lose precision regardless of magnitude.  The other modules
call the two kernels through this module, by attribute
(``backend.mex_value_counts``, ``backend.sparse_dense_product``), so that
a caller can wrap or replace one in one place.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import add, mul, neg, sub

#: The kernels' implementation, which the sidecar names.
BACKEND = "pure"

#: L: the parts 1..L of a partition are counted per remainder, not
#: walked; the walk visits only the tails of parts above L.
SMALL_PARTS = 8


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
    partitions into parts > L of every t <= n, 2,017 at n = 55.  The
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

# Result blocks the packed product sums at a time.  Tiles of 64 to 4096
# blocks take the same time up to N = 32768; 256 keeps the product's
# memory near the least of them and is within 7% of the fastest at 2^17
# (BENCH_tiled_product.json).
_TILE = 256


def _shifted_sum(live: list, dense: list, length: int, start: int) -> list:
    """The window ``start..length-1`` of sum_(e, w) w * q^e * dense, one
    weighted, shifted slice of ``dense`` per term.  The first term is
    assigned, not added, so a lone term of weight 1 returns ``dense``'s
    own ints."""
    out = [0] * (length - start)
    for i, (e, w) in enumerate(live):
        lo = max(e, start)
        ys = dense[lo - e : length - e]
        if w == -1:
            ys = map(neg, ys)
        elif w != 1:
            ys = map(mul, ys, repeat(w))
        j = lo - start
        out[j:] = map(add, out[j:], ys) if i else ys
    return out


def _tile_sums(groups, a: int, b: int) -> list:
    """The packed result blocks a..b-1.  ``groups`` holds the terms of
    each |weight| group by ascending exponent e = qK + r, as (q, copy r,
    w); a term adds its copy's block i - q to block i >= q.  A group's
    blocks are added (or, at weight -w0, subtracted) into one tile-sized
    sum, multiplied by the group's first weight w0 once."""
    tile = [0] * (b - a)
    for terms in groups.values():
        q0, copy, w0 = terms[0]
        if q0 >= b:
            continue
        lo0 = max(q0, a)
        acc = copy[lo0 - q0 : b - q0]
        for q, copy, w in terms[1:]:
            if q >= b:
                break
            lo = max(q, a)
            acc[lo - lo0 :] = map(add if w == w0 else sub, acc[lo - lo0 :], copy[lo - q : b - q])
        tile[lo0 - a :] = [x + w0 * y for x, y in zip(tile[lo0 - a :], acc)]
    return tile


def sparse_dense_product(sparse: list, dense: list, length: int, *, start: int = 0) -> list:
    """Multiply a sparse polynomial by a dense series, truncated: the
    coefficients ``start..length-1`` of the product, 0 <= start <= length.

    ``sparse`` holds (exponent, weight) pairs; ``dense`` must have at least
    ``length`` coefficients.  Exact integer arithmetic throughout.

    Two paths, picked by the block size K below.  A product with one term,
    or whose window has at most one block (``length - start <= K``), sums
    each term's weighted, shifted slice of ``dense`` directly into the
    window: packing would cost more than it saves there.  Measured on
    theta supports times p(n), direct over packed time is 0.3-0.7 at
    31-61 coefficients, 0.6-1.0 at 128 and 0.8-1.8 at 256-512, where K
    is 40-90; for windows of 1-4 slots at N = 8192 it is 0.01-0.03.  K is
    at least 1, so a window of one slot takes this path before ``dense``
    is scanned for K.

    Otherwise terms are grouped by |weight|.  The signed shifted copies
    of ``dense`` in one group are summed with plain adds and subtracts,
    and the sum is multiplied by the weight once, so the number of
    big-integer multiply passes is the number of distinct |weight|s, not
    of terms.

    The sums run on blocks that pack K consecutive coefficients into one
    int, in W-bit slots wide enough for any coefficient of the result and
    its sign, so one add does the work of K.  ``dense`` enters biased by
    2^(W-1) per slot, so every slot is a W-bit unsigned field and the
    packed copies are cut from one buffer, written a tile of K * ``_TILE``
    coefficients at a time; each block of the result is decoded by adding
    the bias back and slicing its bytes.  The term at exponent e = qK + r
    adds copy r of the packed series (``dense`` shifted by r slots) from
    block max(q, start // K) on: only the blocks that hold the window are
    summed and decoded.

    The result blocks from start // K on are summed one tile of ``_TILE``
    blocks at a time.  In tile [a, b), each group sums its terms' copy
    blocks max(q, a) - q .. b - q - 1 and multiplies that tile-sized sum
    by its weight once.  So besides the packed copies and the result
    blocks, the sums hold only tile-sized lists.
    """
    live = [(e, w) for e, w in sparse if w and e < length]
    if len(live) < 2 or length - start <= 1:
        return _shifted_sum(live, dense, length, start)
    # |result| <= max|dense| * sum|w| < 2^(W-1), with W a whole number of bytes.
    top = max(map(abs, dense[:length]))
    S = (top.bit_length() + sum(abs(w) for _, w in live).bit_length() + 8) // 8
    W = 8 * S
    K = max(1, min(_PACK_BITS // W, length))
    if length - start <= K:
        return _shifted_sum(live, dense, length, start)
    nb = -(-length // K)
    b0 = start // K  # the first block of the window
    bias = 1 << (W - 1)
    from_bytes = int.from_bytes
    # A slot of bias reads as zero once the bias is taken off.  The buffer
    # starts as bias throughout, and K such slots on either side of dense
    # let every block be cut whole, the first and last included.  It is
    # filled a tile at a time, so only one tile's byte strings are alive
    # beside it.
    pad = bias.to_bytes(S, "little") * K
    full = from_bytes(pad, "little")
    stream = bytearray(pad) * (nb + 2)
    chunk = K * _TILE
    for c in range(0, length, chunk):
        xs = dense[c : min(c + chunk, length)]
        stream[(K + c) * S : (K + c + len(xs)) * S] = b"".join(
            map(int.to_bytes, map(add, xs, repeat(bias)), repeat(S), repeat("little")))
    view = memoryview(stream)
    # Copy r packs q^r * dense: its block i holds dense[iK - r : iK - r + K].
    # Only the residues that occur get a copy; the buffer goes before the sums.
    copies = {
        r: [from_bytes(view[a * S : (a + K) * S], "little") - full
            for a in range(K - r, (nb + 1) * K - r, K)]
        for r in {e % K for e, _ in live}
    }
    del view, stream
    # Each |weight| group's terms, as ``_tile_sums`` reads them.
    groups: dict[int, list] = {}
    for e, w in sorted(live):
        groups.setdefault(abs(w), []).append((e // K, copies[e % K], w))
    del copies
    # out[i] is block b0 + i.  One tile at a time, in a helper whose lists
    # die with each call, so no list but the copies and out outgrows a tile.
    out: list = []
    for a in range(b0, nb, _TILE):
        out += _tile_sums(groups, a, min(a + _TILE, nb))
    del groups

    blocks = map(int.to_bytes, map(add, out, repeat(full)), repeat(K * S), repeat("little"))
    slots = range(0, K * S, S)
    result = [from_bytes(data[j : j + S], "little") - bias for data in blocks for j in slots]
    del result[length - b0 * K :]
    del result[: start - b0 * K]
    return result
