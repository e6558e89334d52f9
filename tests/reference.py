"""Reference math the tests hold the package to.

Plain functions on lists and tuples, written straight from the
definitions, with no input validation.  This module imports nothing from
``mexmoments``: the package never runs this code, so checking the p(n)
table, the sparse x dense product and the histogram kernels against it
is an independent route.

The last section re-derives the growth laws of the asymptotic route
numerically: exact Bernoulli polynomials, weighted partial theta sums and
their small-t expansion in mpmath, and the Tauberian transfer that turns
t -> 0+ data into coefficient growth.
"""

import math
from fractions import Fraction
from functools import lru_cache
from operator import add, mul

from mpmath import mp, mpf


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


def mex_weight(kind: str, s: int, M: int, A: int, k: int) -> int:
    """Weight of the parts a mex of k = A + mM needs: s copies of each of
    1..k-1 (sigma) or of A, A+M, ..., k-M (varsigma), summed as
    arithmetic series."""
    if kind == "sigma":
        return s * k * (k - 1) // 2
    m = (k - A) // M
    return s * (m * A + M * m * (m - 1) // 2)


def largest_mex_scan(kind: str, s: int, M: int, A: int, n: int) -> int:
    """Largest k = A + mM whose ``mex_weight`` fits in n, by walking up
    the class from A; 0 if the weight of A does not fit."""
    k = A
    while mex_weight(kind, s, M, A, k) <= n:
        k += M
    return k - M if k > A else 0


def partitions_above(L: int, n: int) -> int:
    """The partitions of every t = 0..n into parts > L, counted together
    (the empty partition of 0 included), one part size at a time."""
    counts = [1] + [0] * n
    for k in range(L + 1, n + 1):
        for t in range(k, n + 1):
            counts[t] += counts[t - k]
    return sum(counts)


# ---------------------------------------------------------------------------
# the derivation of the growth laws


@lru_cache(maxsize=None)
def bernoulli_number(m: int) -> Fraction:
    """B_m in the generating-function convention (B_1 = -1/2), exact."""
    if m == 0:
        return Fraction(1)
    acc = Fraction(0)
    for k in range(m):
        acc += math.comb(m + 1, k) * bernoulli_number(k)
    return -acc / (m + 1)


@lru_cache(maxsize=None)
def bernoulli_poly_coeffs(m: int) -> tuple:
    """Coefficients c_0..c_m of B_m(x) = sum_j c_j x^j, exact."""
    return tuple(math.comb(m, j) * bernoulli_number(m - j) for j in range(m + 1))


def bernoulli_poly(m: int, x: Fraction) -> Fraction:
    """B_m(x) at a rational x, exactly, by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(bernoulli_poly_coeffs(m)):
        acc = acc * x + c
    return acc


def partial_theta_sum(u: float, r: int, t: float, dps: int):
    """sum_{n>=0} (n+u)^r exp(-(n+u)^2 t^2) by direct summation, as an
    mpf at ``dps`` decimal digits.

    Terms are accumulated until, past the peak, they fall below
    10^-(dps+10) of the running total, plus a fixed safety margin of
    eight further terms.
    """
    with mp.workdps(dps):
        uu = mpf(u)
        tt = mpf(t)
        cutoff = mpf(10) ** (-(dps + 10))
        total = mpf(0)
        prev = None
        tail = 0
        n = 0
        while tail < 8:
            base = uu + n
            term = base**r * mp.exp(-((base * tt) ** 2))
            total += term
            past_peak = prev is None or term <= prev
            prev = term
            n += 1
            if past_peak and term <= total * cutoff:
                tail += 1
        return total


def partial_theta_expansion(u: float, r: int, t: float, N: int, dps: int):
    """Small-t expansion of the weighted partial theta sum, as an mpf at
    ``dps`` decimal digits:

        Gamma((r+1)/2) / (2 t^(r+1))
          - sum_{n=0}^{N-1} (-1)^n B_{2n+r+1}(u) t^(2n) / ((2n+r+1) n!)

    with remainder O(t^(2N)).
    """
    with mp.workdps(dps):
        tt = mpf(t)
        lead = mp.gamma(mpf(r + 1) / 2) / (2 * tt ** (r + 1))
        corr = mpf(0)
        for n in range(N):
            b = bernoulli_poly(2 * n + r + 1, Fraction(u))
            corr += (
                (-1) ** n
                * (mpf(b.numerator) / b.denominator)
                * tt ** (2 * n)
                / ((2 * n + r + 1) * math.factorial(n))
            )
        return lead - corr


def theta_remainder_coefficient(u: float, r: int, N: int) -> Fraction:
    """Exact leading coefficient of the expansion remainder, i.e. the
    n = N correction term's B_{2N+r+1}(u) / ((2N+r+1) N!).

    When this vanishes (Bernoulli polynomials of odd index are zero at
    x = 1/2 and x = 1) the remainder drops below every power of t and a
    t^(2N) order check is meaningless.
    """
    b = bernoulli_poly(2 * N + r + 1, Fraction(u))
    return b / ((2 * N + r + 1) * math.factorial(N))


def ingham_transfer(lam: float, alpha: float, A: float, n: int) -> float:
    """Natural log of the coefficient growth that Ingham's Tauberian
    theorem gives for F(e^-t) ~ lam t^alpha exp(A/t) as t -> 0+:

        f(n) ~ lam / (2 sqrt(pi)) * A^(alpha/2 + 1/4)
               / n^(alpha/2 + 3/4) * exp(2 sqrt(A n)).
    """
    return (
        math.log(lam)
        - math.log(2.0 * math.sqrt(math.pi))
        + (alpha / 2 + 0.25) * math.log(A)
        - (alpha / 2 + 0.75) * math.log(n)
        + 2.0 * math.sqrt(A * n)
    )
