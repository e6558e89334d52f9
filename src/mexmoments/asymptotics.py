"""Asymptotic layer: log-space closed forms for the moment sequences.

Exact moment values grow like exp(pi * sqrt(2n/3)), so every growth law
returns the natural log of its value as a float, and big integers only
ever enter through ``math.log``, which is accurate for ints far beyond
float range.

The module holds:

* the t -> 0+ data of each moment generating function at q = e^-t, and
  its evaluation from exact coefficients,
* the modular inversion estimate for the Euler product at q = e^-t,
* the closed-form growth laws for both moment families, and ratio
  helpers for comparing exact sequences against them.

The derivation behind the laws (partial theta sums, their expansion with
exact Bernoulli coefficients, and the Tauberian transfer) is re-run
numerically by the tests, from ``tests/reference.py``.
"""

from __future__ import annotations

import math
from numbers import Real

from mexmoments import qseries
from mexmoments.errors import ResourceCapError, ValidationError
from mexmoments.partitions import MexParams, _Frozen, _check_int, _check_kind, _check_params, _show

LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# generating-function data at q = e^-t


def _check_t(t: float) -> float:
    """``t`` as a float, refused unless a real number (not a bool) with
    0 < t <= 1 that stays above 0 as a float."""
    if isinstance(t, bool) or not isinstance(t, Real) or not 0 < t <= 1 or not float(t):
        raise ValidationError(f"t must be a real number with 0 < t <= 1, got {_show(t)}")
    return float(t)


class InghamParams(_Frozen):
    """Growth data of a generating function at q = e^-t:
    F(e^-t) ~ lam * t^alpha * exp(growth_A / t) as t -> 0+."""

    __slots__ = _fields = ("lam", "alpha", "growth_A")

    def __init__(self, lam: float, alpha: float, growth_A: float) -> None:
        if not lam > 0:
            raise ValidationError(f"lam must be > 0, got {lam}")
        if not growth_A > 0:
            raise ValidationError(f"growth_A must be > 0, got {growth_A}")
        for name, value in zip(self._fields, (lam, alpha, growth_A)):
            object.__setattr__(self, name, value)


def qexpansion_ingham_params(kind: str, s: int, M: int, r: int) -> InghamParams:
    """Ingham input data read off the t -> 0+ estimate of each moment
    generating function at q = e^-t:

        sigma, r = 0:   lam = 1/(sqrt(2 pi) M),                alpha = 1/2
        sigma, r >= 1:  lam = 2^((r-3)/2) pi^(-1/2) M^(-1)
                              s^(-r/2) r Gamma(r/2),           alpha = (1-r)/2
        varsigma, r >= 1: same with M^(r/2) in place of M^(-1)
        varsigma, r = 0:  lam = 1/sqrt(2 pi)                   (plain p(n))

    growth_A is pi^2/6 throughout.  Parameters whose data leave float
    range raise ``ValidationError``, as in ``sigma_asymp``.
    """
    _check_kind(kind)
    MexParams(s, M, 1, r)  # refuses s, M and r outside their domains
    growth = math.pi**2 / 6.0
    try:
        if r == 0:
            lam = 1.0 / math.sqrt(2.0 * math.pi) / (M if kind == "sigma" else 1)
            return InghamParams(lam, 0.5, growth)
        lam = 2.0 ** ((r - 3) / 2) / math.sqrt(math.pi) * s ** (-r / 2) * r * math.gamma(r / 2)
        lam *= M ** (r / 2) if kind == "varsigma" else 1.0 / M
        return InghamParams(lam, (1 - r) / 2, growth)
    except OverflowError:
        raise ValidationError("these s, M and r take the growth data past float range") from None


def gf_boundary_log(kind: str, p: MexParams, t: float) -> float:
    """log of the moment generating function evaluated at q = e^-t from
    exact coefficients: log sum_{n<=N} value(n) e^(-nt).

    The summand peaks near n* = (pi^2/6)/t^2 and dies off past 4 n*, so
    the truncation order N = max(256, 6 n*) makes the dropped tail
    negligible at double precision.  Together with
    qexpansion_ingham_params this cross-checks the intermediate t -> 0+
    estimates directly against the exact sequences, independently of the
    Tauberian transfer.  A sum with no term above float underflow (every
    value to N is 0, say) raises ``ValidationError``.
    """
    t = _check_t(t)
    growth = math.pi**2 / 6.0
    try:
        order = max(256, math.ceil(6.0 * growth / (t * t)))
    except (ZeroDivisionError, OverflowError):  # t * t underflows: an order past float range
        raise ResourceCapError(f"t={_show(t)} needs a series order past float range") from None
    seq = qseries.moment_sequence(kind, p, order)
    # Factor out the peak magnitude so the float sum cannot overflow.
    peak = growth / t
    total = math.fsum(
        math.exp(math.log(v) - n * t - peak)
        for n, v in enumerate(seq.values)
        if v
    )
    if not total:
        raise ValidationError(f"every {kind} term to order {order} underflows at t={_show(t)}")
    return math.log(total) + peak


# ---------------------------------------------------------------------------
# eta-style product inversion


#: Most product factors ``eta_inversion_check`` sums; t below about 4.6e-5
#: needs more and raises ResourceCapError.
ETA_MAX_TERMS = 1_000_000


def eta_inversion_check(t: float) -> tuple[float, float]:
    """Compare log prod_{k<=K} (1 - e^-kt) against the modular-inversion
    estimate 0.5 log(2 pi) - 0.5 log t - pi^2/(6t).

    K is chosen so the dropped factors satisfy e^-Kt < 1e-20.  Returns
    (lhs, rhs); their difference decays like t/24 as t -> 0+.
    """
    t = _check_t(t)
    K = math.ceil(min(20.0 * math.log(10.0) / t, ETA_MAX_TERMS + 1))  # the quotient may be inf
    if K > ETA_MAX_TERMS:
        raise ResourceCapError(f"t={_show(t)} needs more product terms than the cap "
                               f"{ETA_MAX_TERMS}")
    lhs = math.fsum(math.log1p(-math.exp(-k * t)) for k in range(1, K + 1))
    rhs = 0.5 * LOG_2PI - 0.5 * math.log(t) - math.pi**2 / (6.0 * t)
    return lhs, rhs


# ---------------------------------------------------------------------------
# closed-form growth laws


def _root_two_thirds(n: int) -> float:
    """sqrt(2n/3) for any int n >= 1: from 2n/3 rounded once while that
    fits a float (as ``2.0 * n / 3.0`` for n < 2^53), else from log n."""
    try:
        return math.sqrt(2 * n / 3)
    except OverflowError:
        return _exp_ratio(0.5 * (math.log(n) - math.log(1.5)))


def hardy_ramanujan_asymp(n: int) -> float:
    """Natural log of the leading-order partition count growth
    p(n) ~ exp(pi sqrt(2n/3)) / (4 sqrt(3) n)."""
    n = _check_int("n", n, 1)
    return -math.log(4.0 * math.sqrt(3.0)) - math.log(n) + math.pi * _root_two_thirds(n)


def sigma_asymp(p: MexParams, n: int) -> float:
    """Natural log of the growth law of the sigma moments.

    r = 0:   2^-2 3^-1/2 M^-1 n^-1 exp(pi sqrt(2n/3))
    r >= 1:  2^((3r-12)/4) 3^((r-2)/4) pi^(-r/2) M^-1 s^(-r/2)
             r Gamma(r/2) n^((r-4)/4) exp(pi sqrt(2n/3))

    Independent of the residue A in both branches.  An r whose terms
    leave float range raises ``ValidationError``.
    """
    _check_params(p)
    n = _check_int("n", n, 1)
    if p.r == 0:
        return hardy_ramanujan_asymp(n) - math.log(p.M)
    try:
        return (
            (3 * p.r - 12) / 4 * math.log(2.0)
            + (p.r - 2) / 4 * math.log(3.0)
            - p.r / 2 * math.log(math.pi)
            - math.log(p.M)
            - p.r / 2 * math.log(p.s)
            + math.log(p.r)
            + math.lgamma(p.r / 2)
            + (p.r - 4) / 4 * math.log(n)
            + math.pi * _root_two_thirds(n)
        )
    except OverflowError:
        raise ValidationError(f"r={_show(p.r)} takes the growth law past float range") from None


def varsigma_asymp(p: MexParams, n: int) -> float:
    """Natural log of the growth law of the varsigma moments: identical
    to the sigma law for r >= 1 except that M^(r/2) replaces M^-1; for
    r = 0 the sequence is the partition numbers, so the Hardy-Ramanujan
    law applies as is."""
    _check_params(p)
    if p.r == 0:
        return hardy_ramanujan_asymp(n)
    return sigma_asymp(p, n) + math.log(p.M) + p.r / 2 * math.log(p.M)


# ---------------------------------------------------------------------------
# exact-versus-asymptotic ratios


def _exp_ratio(log_ratio: float) -> float:
    """exp(log_ratio), or ``inf`` past float range."""
    try:
        return math.exp(log_ratio)
    except OverflowError:
        return math.inf


def exact_over_asymptotic(kind: str, p: MexParams, n: int) -> float:
    """Ratio exact_value(n) / growth_law(n), evaluated in log space.

    The value comes from ``qseries.moment_value``: read from the stored
    sequence when it reaches n, and otherwise a dot product over the
    support, in any order of n, with no product run and nothing stored.
    """
    n = _check_int("n", n, 1)
    exact = qseries.moment_value(kind, p, n)
    if exact == 0:
        return 0.0
    asymp = sigma_asymp(p, n) if kind == "sigma" else varsigma_asymp(p, n)
    return _exp_ratio(math.log(exact) - asymp)


def corollary_ratio(kind: str, p: MexParams, a_prime: int, n: int) -> float:
    """Exact-value ratio between the moment sequences of two residues
    A and A' (same s, M, r), computed in log space from exact integers.

    A ratio past float range is ``inf``, as in ``exact_over_asymptotic``.
    A' = A gives 1.0 at every n, n = 0 included, where both values are 0.
    Otherwise a denominator value that is still zero, which happens at
    small n for residues whose statistic needs a minimum weight to occur,
    raises ZeroDivisionError.  The values come from
    ``qseries.moment_value``, as in ``exact_over_asymptotic``: each is
    read from the stored sequence or is a dot product over the support.
    """
    _check_params(p)
    p_prime = MexParams(p.s, p.M, a_prime, p.r)  # refuses A' outside 1..M
    n = _check_int("n", n, 0)
    if p_prime == p:
        return 1.0
    num = qseries.moment_value(kind, p, n)
    den = qseries.moment_value(kind, p_prime, n)
    if den == 0:
        raise ZeroDivisionError(
            f"denominator moment is zero at n={n} for A'={_show(a_prime)} (kind={kind})"
        )
    if num == den:
        return 1.0
    if num == 0:
        return 0.0
    if abs(num.bit_length() - den.bit_length()) <= 1:
        # Near-equal values: subtracting two huge logs would drown the
        # signal in rounding noise, so take log(num/den) = log1p of the
        # relative difference instead, which int division rounds correctly.
        log_ratio = math.log1p((num - den) / den)
    else:
        log_ratio = math.log(num) - math.log(den)
    return _exp_ratio(log_ratio)
