"""Asymptotic layer: the t -> 0+ data of the generating functions, the
eta-style product estimate, the closed-form growth laws and the
exact-ratio helpers; and the derivation behind the laws (Bernoulli
machinery, partial theta sums and their expansion, the Tauberian
transfer), which lives in ``reference.py``."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mexmoments import MexParams, ValidationError, partition_numbers, qseries
from mexmoments.asymptotics import (
    InghamParams,
    corollary_ratio,
    eta_inversion_check,
    exact_over_asymptotic,
    gf_boundary_log,
    hardy_ramanujan_asymp,
    qexpansion_ingham_params,
    sigma_asymp,
    varsigma_asymp,
)
from mexmoments.errors import ResourceCapError
from reference import (
    bernoulli_number,
    bernoulli_poly,
    gamma_half_integer,
    ingham_transfer,
    partial_theta_expansion,
    partial_theta_sum,
    theta_remainder_coefficient,
)


# ---------------------------------------------------------------------------
# Bernoulli polynomials


def test_bernoulli_numbers_table():
    table = {0: Fraction(1), 1: Fraction(-1, 2), 2: Fraction(1, 6),
             4: Fraction(-1, 30), 6: Fraction(1, 42), 8: Fraction(-1, 30)}
    for m, want in table.items():
        assert bernoulli_number(m) == want
    for m in (3, 5, 7, 9, 11):
        assert bernoulli_number(m) == 0


def test_bernoulli_poly_low_degrees():
    assert bernoulli_poly(0, Fraction(123.4)) == 1
    assert bernoulli_poly(1, Fraction(0.75)) == Fraction(1, 4)
    assert bernoulli_poly(2, Fraction(0)) == Fraction(1, 6)
    # B_2(x) = x^2 - x + 1/6
    assert bernoulli_poly(2, Fraction(1, 2)) == Fraction(-1, 12)


def test_bernoulli_poly_translation_identity():
    # B_m(x+1) - B_m(x) = m x^(m-1), exactly.
    for m in range(1, 9):
        for x in (Fraction(0), Fraction(1, 3), Fraction(-5, 7), Fraction(2)):
            lhs = bernoulli_poly(m, x + 1) - bernoulli_poly(m, x)
            assert lhs == m * x ** (m - 1)


def test_bernoulli_poly_reflection_identity():
    # B_m(1-x) = (-1)^m B_m(x), exactly.
    for m in range(0, 9):
        for x in (Fraction(1, 4), Fraction(2, 5)):
            assert bernoulli_poly(m, 1 - x) == (-1) ** m * bernoulli_poly(m, x)


# ---------------------------------------------------------------------------
# partial theta sums and their expansion

# Double precision plus guard digits: the checks below read each value as
# a float.
DPS = 20


def theta_sum(u, r, t):
    return float(partial_theta_sum(u, r, t, DPS))


def theta_expansion(u, r, t, N):
    return float(partial_theta_expansion(u, r, t, N, DPS))


def test_partial_theta_sum_large_t_single_term():
    # At t=10 only the first term survives at float scale.
    got = theta_sum(1.0, 0, 10.0)
    assert got == pytest.approx(math.exp(-100.0), rel=1e-12)


def test_partial_theta_expansion_leading_term():
    # r=0, u=1, N=1: Gamma(1/2)/(2t) - B_1(1) = sqrt(pi)/(2t) - 1/2.
    t = 0.3
    got = theta_expansion(1.0, 0, t, 1)
    assert got == pytest.approx(math.sqrt(math.pi) / (2 * t) - 0.5, rel=1e-14)


def test_partial_theta_sum_matches_expansion_float():
    # Well-conditioned points: error must sit at the remainder scale.
    for (u, r, N) in [(0.25, 0, 1), (0.25, 1, 2), (0.75, 2, 1), (0.5, 1, 2)]:
        for t in (0.1, 0.05):
            direct = theta_sum(u, r, t)
            expansion = theta_expansion(u, r, t, N)
            lead = abs(float(theta_remainder_coefficient(u, r, N))) * t ** (2 * N)
            assert abs(direct - expansion) <= 2.0 * lead + 1e-12


def test_partial_theta_remainder_order_float():
    # u=0.25, r=0, N=1: errors ~1e-4 are comfortably measurable in doubles.
    u, r, N = 0.25, 0, 1
    errs = {
        t: abs(theta_sum(u, r, t) - theta_expansion(u, r, t, N))
        for t in (0.1, 0.05)
    }
    ratio = errs[0.1] / errs[0.05]
    assert 2.0 <= ratio <= 8.0


def test_partial_theta_uncorrected_sign_breaks_remainder_order():
    u, r, N = 0.25, 0, 1

    def flipped_sign(t):
        # The correction sum added instead of subtracted: 2 * lead - expansion.
        lead = math.gamma((r + 1) / 2) / (2.0 * t ** (r + 1))
        return 2.0 * lead - theta_expansion(u, r, t, N)

    errs = {t: abs(theta_sum(u, r, t) - flipped_sign(t)) for t in (0.1, 0.05)}
    ratio = errs[0.1] / errs[0.05]
    assert not 2.0 <= ratio <= 8.0
    # the flipped sign leaves an O(1) discrepancy, so the ratio sits near 1
    assert ratio == pytest.approx(1.0, abs=0.1)


def test_partial_theta_degenerate_points_have_tiny_error():
    # Odd-index Bernoulli polynomials vanish at 1/2 and 1, so for even r
    # every correction term is zero and the true error is exponentially
    # small; in doubles that means at rounding scale.
    for u in (0.5, 1.0):
        for r in (0, 2):
            assert theta_remainder_coefficient(u, r, 2) == 0
            direct = theta_sum(u, r, 0.1)
            expansion = theta_expansion(u, r, 0.1, 2)
            assert abs(direct - expansion) <= 1e-10 * abs(expansion)


# ---------------------------------------------------------------------------
# the Tauberian transfer


def test_ingham_transfer_direct_substitution():
    # lam = 2 sqrt(pi), alpha = -1/2, A = 1, n = 1 collapses the prefactor
    # to 1 and leaves e^2.
    assert ingham_transfer(2 * math.sqrt(math.pi), -0.5, 1.0, 1) == pytest.approx(2.0, abs=1e-13)


def test_ingham_params_validation():
    with pytest.raises(ValidationError):
        InghamParams(0.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        InghamParams(1.0, 1.0, 0.0)


def test_qexpansion_params_reproduce_growth_laws():
    # The Tauberian transfer applied to the t->0+ data must reproduce the
    # closed forms; this re-runs the final step of the derivation.
    def transfer(kind, s, M, r, n):
        ip = qexpansion_ingham_params(kind, s, M, r)
        return ingham_transfer(ip.lam, ip.alpha, ip.growth_A, n)

    for M in (1, 2, 3):
        for s in (1, 2):
            for n in (10, 1000):
                got = transfer("sigma", s, M, 0, n)
                want = sigma_asymp(MexParams(s, M, 1, 0), n)
                assert got == pytest.approx(want, rel=1e-13)
                for r in (1, 2, 3):
                    got = transfer("sigma", s, M, r, n)
                    want = sigma_asymp(MexParams(s, M, 1, r), n)
                    assert got == pytest.approx(want, rel=1e-13)
                    got = transfer("varsigma", s, M, r, n)
                    want = varsigma_asymp(MexParams(s, M, 1, r), n)
                    assert got == pytest.approx(want, rel=1e-13)


def test_qexpansion_params_validation():
    with pytest.raises(ValidationError):
        qexpansion_ingham_params("bogus", 1, 1, 0)
    with pytest.raises(ValidationError):
        qexpansion_ingham_params("sigma", 0, 1, 0)


def test_gf_boundary_matches_qexpansion_estimate():
    # Evaluate the generating functions at q = e^-t from exact
    # coefficients and compare with lam * t^alpha * e^(A/t): the log gap
    # must shrink as t decreases.  This checks the intermediate t->0+
    # estimates against exact data without going through the transfer.
    for (kind, s, M, A, r) in [
        ("sigma", 1, 2, 1, 0),
        ("sigma", 1, 2, 1, 1),
        ("varsigma", 2, 3, 2, 1),
    ]:
        p = MexParams(s, M, A, r)
        ip = qexpansion_ingham_params(kind, s, M, r)
        devs = []
        for t in (0.2, 0.1, 0.05):
            got = gf_boundary_log(kind, p, t)
            want = math.log(ip.lam) + ip.alpha * math.log(t) + ip.growth_A / t
            devs.append(abs(got - want))
        assert devs[2] < devs[1] < devs[0]
        assert devs[2] < 0.05


def test_gf_boundary_validation():
    with pytest.raises(ValidationError):
        gf_boundary_log("sigma", MexParams(1, 2, 1, 0), 0.0)
    with pytest.raises(ValidationError):
        gf_boundary_log("sigma", MexParams(1, 2, 1, 0), 2.0)


def test_gf_boundary_small_t_hits_the_series_order_limit():
    # t = 1e-3 needs order ~9.9e6, far above the series-order limit.
    with pytest.raises(ResourceCapError):
        gf_boundary_log("sigma", MexParams(1, 2, 1, 1), 1e-3)


# ---------------------------------------------------------------------------
# eta-style product inversion


def test_eta_inversion_values_and_monotonicity():
    diffs = []
    for t in (0.2, 0.1, 0.05, 0.02, 0.01):
        lhs, rhs = eta_inversion_check(t)
        diffs.append(abs(lhs - rhs))
    # difference behaves like t/24
    assert diffs[0] == pytest.approx(0.2 / 24, rel=1e-6)
    assert diffs[-1] == pytest.approx(0.01 / 24, rel=1e-6)
    assert all(b < a for a, b in zip(diffs, diffs[1:]))
    # halving t halves the discrepancy
    assert diffs[1] / diffs[2] == pytest.approx(2.0, abs=0.01)


def test_eta_inversion_cap_and_validation():
    with pytest.raises(ResourceCapError):
        eta_inversion_check(1e-5)  # needs 4,605,171 terms
    with pytest.raises(ValidationError):
        eta_inversion_check(0.0)
    with pytest.raises(ValidationError):
        eta_inversion_check(1.5)


# ---------------------------------------------------------------------------
# growth laws


def test_hardy_ramanujan_point_value():
    got = hardy_ramanujan_asymp(1)
    want = math.log(1 / (4 * math.sqrt(3))) + math.pi * math.sqrt(2 / 3)
    assert got == pytest.approx(want, rel=1e-15)
    with pytest.raises(ValidationError):
        hardy_ramanujan_asymp(0)


def test_growth_laws_take_any_int_n():
    # Below 2^53 the law is the float that 2.0 * n / 3.0 gives, bit for bit.
    p = MexParams(1, 2, 1, 1)
    for n in (1, 4095, 2**53 - 1):
        assert hardy_ramanujan_asymp(n) == (
            -math.log(4.0 * math.sqrt(3.0)) - math.log(n) + math.pi * math.sqrt(2.0 * n / 3.0))
    # Past float range the logs still give a float; past that, inf.
    for law in (sigma_asymp, varsigma_asymp):
        assert law(p, 10**400) == pytest.approx(math.pi * math.sqrt(2 / 3) * 10**200, rel=1e-12)
    assert hardy_ramanujan_asymp(10**700) == math.inf


def test_hardy_ramanujan_increasing_and_converging():
    logs = [hardy_ramanujan_asymp(n) for n in (1, 10, 100, 1000)]
    assert all(b > a for a, b in zip(logs, logs[1:]))
    pn = partition_numbers(1000)
    dev = {
        n: abs(math.exp(math.log(pn[n]) - hardy_ramanujan_asymp(n)) - 1.0)
        for n in (100, 1000)
    }
    assert dev[1000] < dev[100]


def test_sigma_asymp_r0_is_hr_over_m():
    for M in (1, 2, 5):
        for A in (1, M):
            got = sigma_asymp(MexParams(2, M, A, 0), 50)
            assert got == pytest.approx(
                hardy_ramanujan_asymp(50) - math.log(M), rel=1e-15
            )


def test_sigma_asymp_s_scaling():
    # value(s=4) / value(s=1) = 2^-r for fixed M, r, n.
    for r in (1, 2, 3):
        a = sigma_asymp(MexParams(4, 2, 1, r), 30)
        b = sigma_asymp(MexParams(1, 2, 1, r), 30)
        assert a - b == pytest.approx(-r * math.log(2), rel=1e-12)


def test_asymp_laws_independent_of_residue():
    for r in (0, 1, 2):
        vals_s = {A: sigma_asymp(MexParams(1, 4, A, r), 64) for A in range(1, 5)}
        vals_v = {A: varsigma_asymp(MexParams(1, 4, A, r), 64) for A in range(1, 5)}
        assert len(set(vals_s.values())) == 1
        assert len(set(vals_v.values())) == 1


def test_varsigma_asymp_vs_sigma_ratio():
    # varsigma / sigma = M^(r/2 + 1) for r >= 1.
    for M in (2, 3):
        for r in (1, 2, 3):
            a = varsigma_asymp(MexParams(1, M, 1, r), 77)
            b = sigma_asymp(MexParams(1, M, 1, r), 77)
            assert a - b == pytest.approx(
                (r / 2 + 1) * math.log(M), rel=1e-12
            )


def test_varsigma_asymp_r0_is_hr():
    got = varsigma_asymp(MexParams(3, 5, 2, 0), 123)
    assert got == hardy_ramanujan_asymp(123)


def test_sigma_asymp_r1_against_exact_gamma_table():
    # Rebuild the r>=1 prefactor with the exact half-integer Gamma values
    # as an independent check on the lgamma route.
    for r in (1, 2, 3, 4):
        for (s, M, n) in [(1, 2, 100), (3, 1, 50)]:
            frac, with_sqrt_pi = gamma_half_integer(r)
            gamma_r_half = float(frac) * (math.sqrt(math.pi) if with_sqrt_pi else 1.0)
            want = (
                2.0 ** ((3 * r - 12) / 4)
                * 3.0 ** ((r - 2) / 4)
                * math.pi ** (-r / 2)
                / M
                * s ** (-r / 2)
                * r
                * gamma_r_half
                * n ** ((r - 4) / 4)
            )
            got = sigma_asymp(MexParams(s, M, 1, r), n)
            want_log = math.log(want) + math.pi * math.sqrt(2 * n / 3)
            assert got == pytest.approx(want_log, rel=1e-13)


def test_gamma_half_integer_table():
    table = {
        1: (Fraction(1), True),
        2: (Fraction(1), False),
        3: (Fraction(1, 2), True),
        4: (Fraction(1), False),
        5: (Fraction(3, 4), True),
        6: (Fraction(2), False),
        7: (Fraction(15, 8), True),
    }
    for m, want in table.items():
        assert gamma_half_integer(m) == want
        frac, with_pi = gamma_half_integer(m)
        value = float(frac) * (math.sqrt(math.pi) if with_pi else 1.0)
        assert value == pytest.approx(math.gamma(m / 2), rel=1e-15)


# ---------------------------------------------------------------------------
# exact-ratio helpers


def test_corollary_ratio_same_residue_is_one():
    p = MexParams(1, 3, 2, 1)
    for n in (0, 5, 40):
        assert corollary_ratio("sigma", p, 2, n) == 1.0


def test_corollary_ratio_varsigma_r0_always_one():
    p = MexParams(2, 3, 1, 0)
    for n in range(59, -1, -1):
        assert corollary_ratio("varsigma", p, 3, n) == 1.0


def test_corollary_ratio_zero_denominator():
    # sigma with A'=3 mod 3 is zero until the partition (2,1) appears.
    with pytest.raises(ZeroDivisionError):
        corollary_ratio("sigma", MexParams(1, 3, 1, 0), 3, 0)


def test_corollary_ratio_past_float_range_is_inf():
    # At n = 6 the sigma value of A = 2 mod 2 is about 2^3000 times that
    # of A' = 1; the reciprocal underflows to 0.
    assert corollary_ratio("sigma", MexParams(1, 2, 2, 3000), 1, 6) == math.inf
    assert corollary_ratio("sigma", MexParams(1, 2, 1, 3000), 2, 6) == 0.0


def test_corollary_ratio_validation():
    p = MexParams(1, 3, 1, 0)
    with pytest.raises(ValidationError):
        corollary_ratio("sigma", p, 4, 5)


def test_corollary_ratio_converges_spot():
    p = MexParams(1, 3, 1, 1)
    d_large = abs(corollary_ratio("sigma", p, 2, 512) - 1.0)
    d_small = abs(corollary_ratio("sigma", p, 2, 64) - 1.0)
    assert d_large < d_small


@st.composite
def near_equal_values(draw):
    """Positive (num, den) whose bit lengths differ by at most one, up to
    4,000 bits, often only a few units apart."""
    bits = draw(st.integers(1, 4000))
    den = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    lo, hi = 1 << max(0, bits - 2), (1 << (bits + 1)) - 1
    num = draw(st.one_of(
        st.integers(lo, hi),
        st.integers(-(2**64), 2**64).map(lambda d: min(max(lo, den + d), hi)),
    ))
    return num, den


@settings(max_examples=300, deadline=None)
@given(near_equal_values())
def test_corollary_ratio_of_near_equal_values_is_correctly_rounded(values):
    # The near-equal branch takes log1p of (num - den) / den: int division
    # rounds correctly, so it must equal the float of the exact fraction.
    num, den = values
    want = 1.0 if num == den else math.exp(math.log1p(float(Fraction(num - den, den))))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qseries, "moment_value", lambda kind, p, n: num if p.A == 1 else den)
        assert corollary_ratio("sigma", MexParams(1, 2, 1, 1), 2, 10) == want


def test_exact_over_asymptotic_spot():
    assert abs(exact_over_asymptotic("sigma", MexParams(1, 2, 1, 1), 500) - 1.0) < 0.05


def test_exact_over_asymptotic_saturates():
    # An exact zero gives 0.0, and a ratio past float range gives inf
    # (M = 10^400 puts the growth law near e^-921 while the value is >= 1).
    assert qseries.moment_value("sigma", MexParams(1, 3, 3, 0), 1) == 0
    assert exact_over_asymptotic("sigma", MexParams(1, 3, 3, 0), 1) == 0.0
    assert exact_over_asymptotic("sigma", MexParams(1, 10**400, 1, 0), 10) == math.inf


def test_exact_over_asymptotic_r0_transcription():
    # For r=0 the ratio is literally exact * 4 sqrt(3) * n * M / e^(pi sqrt(2n/3)).
    import math

    from mexmoments import moment_sequence

    p = MexParams(1, 2, 1, 0)
    n = 100
    exact = moment_sequence("sigma", p, n)[n]
    want = exact * 4 * math.sqrt(3) * n * p.M / math.exp(math.pi * math.sqrt(2 * n / 3))
    got = exact_over_asymptotic("sigma", p, n)
    assert got == pytest.approx(want, rel=1e-12)
