"""Reference math the tests hold the package to.

Plain functions on lists and tuples, written straight from the
definitions, with no input validation.  This module imports nothing from
``mexmoments``: the package never runs this code, so checking the p(n)
table, the sparse x dense product and the histogram kernels against it
is an independent route.
"""

import math
from fractions import Fraction
from operator import add, mul


def cauchy_product(a: list, b: list) -> list:
    """Schoolbook product of two coefficient lists, truncated to the
    shorter length."""
    n = min(len(a), len(b))
    out = [0] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += a[i] * b[j]
    return out


def invert_unit_series(a: list) -> list:
    """Coefficients of 1/a for a series with constant term +1 or -1, by
    the recurrence b_m = -a_0 * sum_{k>=1} a_k b_{m-k}.  Zero coefficients
    of ``a`` are skipped, so the sparse Euler product inverts fast."""
    c0 = a[0]
    support = [(k, ak) for k, ak in enumerate(a) if k and ak]
    out = [c0]
    for m in range(1, len(a)):
        out.append(-c0 * sum(ak * out[m - k] for k, ak in support if k <= m))
    return out


def euler_product_coeffs(order: int) -> list:
    """Coefficients of prod_{k=1..order} (1 - q^k) truncated at ``order``;
    factors beyond ``order`` cannot touch them, so the finite product is
    exact."""
    c = [1] + [0] * order
    for k in range(1, order + 1):
        for j in range(order, k - 1, -1):
            c[j] -= c[j - k]
    return c


def d2_coeffs(order: int) -> list:
    """Coefficients D_2(0..order) of (-q;q)_inf^2: the product
    prod_{k=1..order} (1 + q^k), counting partitions into distinct parts,
    then squared term by term.  Andrews and Newman show that D_2(n) is the
    sum of mex(pi) over the partitions pi of n."""
    d = [1] + [0] * order
    for k in range(1, order + 1):
        d[k:] = list(map(add, d[k:], d[: order + 1 - k]))
    return [sum(map(mul, d[: j + 1], reversed(d[: j + 1]))) for j in range(order + 1)]


def varsigma_support_direct(s: int, M: int, A: int, r: int, order: int) -> list:
    """Sparse (exponent, weight) terms of the varsigma theta factor in its
    raw two-term form: +(Mm+A)^r at s*(M*m*(m-1)/2 + A*m) and -(Mm+A)^r one
    quadratic step up, collected and sorted, zero weights dropped."""
    weights: dict[int, int] = {}
    for m in range(order + 1):
        e1 = s * (M * m * (m - 1) // 2 + A * m)
        e2 = e1 + s * (M * m + A)
        weights[e1] = weights.get(e1, 0) + (M * m + A) ** r
        weights[e2] = weights.get(e2, 0) - (M * m + A) ** r
    return sorted((e, w) for e, w in weights.items() if w != 0 and e <= order)


def gamma_half_integer(m: int) -> tuple:
    """Exact Gamma(m/2) for integer m >= 1 as (rational, times_sqrt_pi).

    Even m: (m/2 - 1)!.  Odd m: (m-2)!! / 2^((m-1)/2) times sqrt(pi).
    """
    if m % 2 == 0:
        return Fraction(math.factorial(m // 2 - 1)), False
    return Fraction(math.prod(range(m - 2, 0, -2)), 2 ** ((m - 1) // 2)), True


def partitions(n: int):
    """Every partition of n exactly once, as a weakly decreasing tuple of
    parts, in descending lexicographic order; n = 0 gives only ()."""

    def extend(remaining: int, max_part: int):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, max_part), 0, -1):
            for rest in extend(remaining - part, part):
                yield (part, *rest)

    return extend(n, n)


def mex_s(parts: tuple, s: int) -> int:
    """Smallest positive integer occurring fewer than s times in ``parts``."""
    k = 1
    while parts.count(k) >= s:
        k += 1
    return k


def mex_s_mod(parts: tuple, s: int, M: int, A: int) -> int:
    """Smallest positive integer congruent to A mod M occurring fewer than
    s times in ``parts``."""
    k = A
    while parts.count(k) >= s:
        k += M
    return k


def partitions_above(L: int, n: int) -> int:
    """The partitions of every t = 0..n into parts > L, counted together
    (the empty partition of 0 included), one part size at a time."""
    counts = [1] + [0] * n
    for k in range(L + 1, n + 1):
        for t in range(k, n + 1):
            counts[t] += counts[t - k]
    return sum(counts)
