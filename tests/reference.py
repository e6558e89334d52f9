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
from itertools import repeat
from operator import add, mul, sub

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


def support_direct(kind: str, s: int, M: int, A: int, r: int, order: int) -> list:
    """Sparse (exponent, weight) terms of the theta factor of ``kind`` in
    its raw two-term form: for each k = A, A+M, ... a term +k^r at
    ``mex_weight`` s W(k) and a term -k^r one step up, at s (W(k) + k);
    collected and sorted, zero weights and exponents past ``order``
    dropped."""
    weights: dict[int, int] = {}
    k = A
    while (e := mex_weight(kind, s, M, A, k)) <= order:
        weights[e] = weights.get(e, 0) + k**r
        weights[e + s * k] = weights.get(e + s * k, 0) - k**r
        k += M
    return sorted((e, w) for e, w in weights.items() if w != 0 and e <= order)


#: The Mersenne prime 2^61 - 1: certificates compare residues mod P.
P = 2**61 - 1


def window_at(window: list, start: int, x: int) -> int:
    """sum_i window[i] * x^(start + i) mod P: the coefficients
    start, start+1, ... of a series evaluated at x, by Horner's rule."""
    acc = 0
    for v in reversed(window):
        acc = (acc * x + v) % P
    return acc * pow(x, start, P) % P


def certify_product(sparse: list, dense: list, length: int, start: int, x: int) -> int:
    """The residue mod P that ``window_at`` must give at x for the
    coefficients start..length-1 of sparse x dense, from the factors
    alone, in O(length) operations mod P:

        sum_(e, w) w x^e (Pre[length-1-e] - Pre[start-e-1]),

    Pre[j] = sum_(m <= j) d_m x^m, and 0 for j < 0.  A window that differs
    from the product's at some coefficient gives the same residue at no
    more than length - 1 of the P values of x (Schwartz-Zippel), so a
    random x certifies it with an error below length / P."""
    pre = [0]  # pre[j + 1] = Pre[j]
    acc, power = 0, 1
    for d in dense[:length]:
        acc = (acc + d % P * power) % P
        pre.append(acc)
        power = power * x % P
    total = 0
    for e, w in sparse:
        if e < length:
            total += w % P * pow(x, e, P) * (pre[length - e] - pre[max(start - e, 0)])
    return total % P


def pentagonal_support(order: int) -> list:
    """Euler's prod_(k >= 1) (1 - q^k) up to q^order, as (exponent,
    weight) terms: (-1)^j at the generalized pentagonal numbers
    j(3j -+ 1)/2."""
    terms = [(0, 1)]
    j = 1
    while j * (3 * j - 1) // 2 <= order:
        pair = (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2)
        terms += [(g, (-1) ** j) for g in pair if g <= order]
        j += 1
    return terms


def certify_partition_numbers(table: list, x: int) -> bool:
    """Whether ``table`` passes for p(0..N) at x: Euler's product times
    the partition series is 1, so its coefficients 0..N certify to 1."""
    return certify_product(pentagonal_support(len(table) - 1), table, len(table), 0, x) == 1


def _over_one_minus(a: list, k: int) -> None:
    """a / (1 - q^k) in place, truncated to len(a): each block of k
    coefficients adds the block before it, already divided."""
    for b in range(k, len(a), k):
        a[b : b + k] = map(add, a[b : b + k], a[b - k : b])


def moment_dp(kind: str, s: int, M: int, A: int, r: int, N: int) -> list:
    """The moments of ``kind`` at n = 0..N by a dynamic program over the
    parts k = 1..N in increasing size, from the definitions alone.

    The chain is 1, 2, 3, ... for sigma and A, A+M, ... for varsigma; the
    mex is its first element of frequency below s, of weight w(k) = k^r
    on the class A mod M and 0 elsewhere.  After the parts 1..k,
    ``alive[t]`` counts the partial partitions of t holding every chain
    element up to k at least s times, and ``dead[t]`` sums w(mex) over
    those whose mex is decided.  Each part k divides both by 1 - q^k; a
    chain element then moves the partitions with fewer than s copies of
    it to ``dead`` at weight w(k).  What stays alive at the end
    has the first chain element above N as its mex."""
    chain, step = (1, 1) if kind == "sigma" else (A, M)

    def weight(k: int) -> int:
        return k**r if (k - A) % M == 0 else 0

    alive = [1] + [0] * N
    dead = [0] * (N + 1)
    for k in range(1, N + 1):
        _over_one_minus(dead, k)
        # Once s copies of the chain so far pass N, nothing stays alive.
        if any(alive):
            _over_one_minus(alive, k)
            if k == chain:
                shift = min(s * k, N + 1)
                full, alive = alive, [0] * shift + alive[: N + 1 - shift]
                dead = list(map(add, dead, map(mul, map(sub, full, alive), repeat(weight(k)))))
                chain += step
    return list(map(add, dead, map(mul, alive, repeat(weight(chain)))))


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
# p(n) by the Hardy-Ramanujan-Rademacher series


def lehmer_tail(n: int, K: int) -> float:
    """Lehmer's bound on the terms k > K of the Rademacher series for p(n)
    (Lehmer, "On the series for the partition function", Trans. AMS,
    1938), n >= 2."""
    c = math.pi * math.sqrt(2 * n / 3)
    return (44 * math.pi**2 / (225 * math.sqrt(3)) / math.sqrt(K)
            + math.pi * math.sqrt(2) / 75 * math.sqrt(K / (n - 1)) * math.sinh(c / K))


def hrr_partition(n: int) -> int:
    """p(n) for n >= 2 from the Hardy-Ramanujan-Rademacher series

        p(n) = 2 pi (24n-1)^(-3/4) sum_{k<=K} A_k(n)/k I_{3/2}(pi sqrt(24n-1) / (6k)),

    with I_{3/2}(x) = sqrt(2/(pi x)) (cosh x - sinh x / x) and Selberg's
    A_k(n) = sqrt(k/3) sum (-1)^l cos(pi (6l+1) / (6k)) over l mod 2k with
    (3l^2 + l)/2 = -n mod k (Whiteman, Pacific J. Math., 1956).  K starts
    at floor(sqrt(n)) + 10 and grows until ``lehmer_tail`` is below 1/4.
    The sum runs at the bits of p(n)'s bound exp(pi sqrt(2n/3)) plus 64,
    taken from n and never from a table; it must lie within 1/4 of an
    integer, which is returned."""
    K = math.isqrt(n) + 10
    while lehmer_tail(n, K) >= 0.25:
        K += 1
    with mp.workprec(int(math.pi * math.sqrt(2 * n / 3) / math.log(2)) + 64):
        x = mp.pi * mp.sqrt(24 * n - 1) / 6
        total = mpf(0)
        for k in range(1, K + 1):
            a = sum((-1) ** l * mp.cospi(mpf(6 * l + 1) / (6 * k))
                    for l in range(2 * k) if ((3 * l * l + l) // 2 + n) % k == 0)
            if a:
                y = x / k
                bessel = mp.sqrt(2 / (mp.pi * y)) * (mp.cosh(y) - mp.sinh(y) / y)
                total += mp.sqrt(mpf(k) / 3) * a / k * bessel
        total *= 2 * mp.pi / mpf(24 * n - 1) ** mpf(0.75)
        nearest = mp.nint(total)
        assert abs(total - nearest) < 0.25, (n, total)
        return int(nearest)


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
