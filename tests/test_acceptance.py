"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
asserts the criterion at its stated tolerance.  Exact-equality criteria
carry zero tolerance; the analytic criteria pin the windows used below.

Criterion 4 needs arithmetic beyond double precision: several grid points
have remainder scales near 1e-19 relative, and at the points u in {1/2, 1}
with even r the leading remainder coefficient vanishes identically (odd
Bernoulli polynomials are zero there), making the window test vacuous.
Those points are detected exactly and replaced by a strictly stronger
smallness assertion; everything else runs the stated window at 60 digits.
"""

import functools
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from mexmoments import MexParams, partition_numbers, sigma_oracle, varsigma_oracle
from mexmoments import backend, qseries
from mexmoments import asymptotics as asy
from mexmoments.conjectures import scan_bias, scan_log_concavity
from reference import (
    P,
    certify_partition_numbers,
    certify_product,
    euler_product_coeffs,
    hrr_partition,
    ingham_transfer,
    invert_unit_series,
    moment_dp,
    partial_theta_expansion,
    partial_theta_sum,
    support_direct,
    theta_remainder_coefficient,
    window_at,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

CRITERION_GRID = [
    (s, M, A, r)
    for M in range(1, 5)
    for A in range(1, M + 1)
    for s in (1, 2, 3)
    for r in (0, 1, 2)
]


def _report(num: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num}: {text}")


def test_criterion_1_oracle_equivalence():
    mismatches = []
    for (s, M, A, r) in CRITERION_GRID:
        params = MexParams(s, M, A, r)
        sigma_seq = qseries.moment_sequence("sigma", params, 30)
        varsigma_seq = qseries.moment_sequence("varsigma", params, 30)
        for n in range(31):
            if sigma_seq[n] != sigma_oracle(params, n):
                mismatches.append(("sigma", s, M, A, r, n))
            if varsigma_seq[n] != varsigma_oracle(params, n):
                mismatches.append(("varsigma", s, M, A, r, n))
    ok = not mismatches
    _report(1, ok, "series coefficients equal the enumeration oracle "
                   f"(M<=4, s<=3, r<=2, n<=30; {len(CRITERION_GRID) * 2} sequences)")
    assert ok, f"first mismatches: {mismatches[:5]}"


def test_criterion_2_varsigma_r0_is_partition_function():
    pn = partition_numbers(2000)
    bad = []
    for (s, M, A) in [(1, 1, 1), (2, 3, 2), (3, 4, 1)]:
        seq = qseries.moment_sequence("varsigma", MexParams(s, M, A, 0), 2000)
        if list(seq.values) != pn:
            bad.append((s, M, A))
    ok = not bad
    _report(2, ok, "varsigma r=0 equals the partition numbers up to n=2000 "
                   "for three parameter triples, exactly")
    assert ok, f"failing triples: {bad}"


def test_criterion_3_pentagonal_cross_check():
    ok = invert_unit_series(euler_product_coeffs(2000)) == partition_numbers(2000)
    _report(3, ok, "inverting the Euler product reproduces the pentagonal "
                   "recurrence values up to n=2000, exactly")
    assert ok


THETA_GRID = list(itertools.product((0.25, 0.5, 0.75, 1.0), (0, 1, 2, 3), (1, 2, 3)))
THETA_DPS = 60


def _expansion(u, r, t, N):
    return partial_theta_expansion(u, r, t, N, THETA_DPS)


def _flipped_sign_expansion(u, r, t, N):
    """Negative control: the expansion with the sign in front of its
    correction sum flipped, i.e. 2 * leading term - expansion."""
    with mp.workdps(THETA_DPS):
        lead = mp.gamma(mpf(r + 1) / 2) / (2 * mpf(t) ** (r + 1))
        return 2 * lead - _expansion(u, r, t, N)


def _theta_errors(u, r, N, expansion=_expansion):
    out = {}
    for t in (0.1, 0.05):
        direct = partial_theta_sum(u, r, t, THETA_DPS)
        out[t] = abs(direct - expansion(u, r, t, N))
    return out


def test_criterion_4_remainder_order_window():
    failures = []
    degenerate = 0
    uncorrected_outside = 0
    for (u, r, N) in THETA_GRID:
        lo, hi = 2.0 ** (2 * N - 1), 2.0 ** (2 * N + 1)
        lead = theta_remainder_coefficient(u, r, N)
        errs = _theta_errors(u, r, N)
        if lead == 0:
            # Remainder falls below every power of t; require it to be
            # far under the t^(2N) scale instead of inside the window.
            degenerate += 1
            scale = abs(partial_theta_expansion(u, r, 0.1, N, THETA_DPS))
            if not errs[0.1] <= 1e-40 * max(1.0, float(scale)):
                failures.append((u, r, N, "degenerate error not tiny"))
            continue
        ratio = float(errs[0.1] / errs[0.05])
        if not lo <= ratio <= hi:
            failures.append((u, r, N, ratio))
        errs_bad = _theta_errors(u, r, N, _flipped_sign_expansion)
        if errs_bad[0.05] > 0 and not lo <= float(errs_bad[0.1] / errs_bad[0.05]) <= hi:
            uncorrected_outside += 1
    ok = not failures and uncorrected_outside >= 1
    _report(4, ok, "expansion error scales as t^(2N) on the (u, r, N) grid "
                   f"({len(THETA_GRID) - degenerate} windowed points, {degenerate} "
                   f"degenerate points tiny); flipped sign breaks the window at "
                   f"{uncorrected_outside} points")
    assert not failures, f"failures: {failures}"
    assert uncorrected_outside >= 1


def test_criterion_5_tauberian_identity():
    # The Tauberian transfer applied to the t->0+ data must reproduce the
    # closed forms; this re-runs the final step of the derivation.
    worst = 0.0
    for M in (1, 2, 3):
        for s in (1, 2):
            for n in (10, 100, 1000, 10**4):
                pairs = [("sigma", 0, asy.sigma_asymp)]
                for r in (1, 2, 3):
                    pairs += [("sigma", r, asy.sigma_asymp), ("varsigma", r, asy.varsigma_asymp)]
                for kind, r, closed_form in pairs:
                    ip = asy.qexpansion_ingham_params(kind, s, M, r)
                    got = ingham_transfer(ip.lam, ip.alpha, ip.growth_A, n)
                    want = closed_form(MexParams(s, M, 1, r), n)
                    worst = max(worst, abs(got - want) / abs(want))
    ok = worst <= 1e-13
    _report(5, ok, "Tauberian transfer of the t->0+ data matches the closed "
                   f"forms to 1e-13 relative in log space (worst {worst:.2e})")
    assert ok


CONVERGENCE_SETS = [(1, 2, 1, 1), (2, 3, 2, 1), (1, 2, 1, 2)]
CONVERGENCE_NS = (512, 1024, 2048, 4096)


def test_criterion_6_growth_law_convergence():
    failures = []
    for (s, M, A, r) in CONVERGENCE_SETS:
        params = MexParams(s, M, A, r)
        for kind in ("sigma", "varsigma"):
            # The largest n first: its sequence then serves every smaller n.
            devs = [
                abs(asy.exact_over_asymptotic(kind, params, n) - 1.0)
                for n in reversed(CONVERGENCE_NS)
            ][::-1]
            if not all(b < a for a, b in zip(devs, devs[1:])):
                failures.append((kind, s, M, A, r, "not strictly decreasing", devs))
            if not devs[-1] < 0.25:
                failures.append((kind, s, M, A, r, "final deviation too large", devs))
    ok = not failures
    _report(6, ok, "|exact/asymptotic - 1| strictly decreases along "
                   "n in {512,1024,2048,4096} and ends below 0.25")
    assert ok, f"failures: {failures}"


def test_criterion_7_residue_ratio_convergence():
    failures = []
    for r in (0, 1):
        for A, A_prime in itertools.permutations((1, 2, 3), 2):
            params = MexParams(1, 3, A, r)
            d_large = abs(asy.corollary_ratio("sigma", params, A_prime, 4096) - 1.0)
            d_small = abs(asy.corollary_ratio("sigma", params, A_prime, 512) - 1.0)
            if not d_large < d_small:
                failures.append((r, A, A_prime, d_small, d_large))
    varsigma_ok = all(
        asy.corollary_ratio("varsigma", MexParams(1, 3, A, 0), A_prime, n) == 1.0
        for A, A_prime in itertools.permutations((1, 2, 3), 2)
        for n in range(4096, -1, -1)
    )
    ok = not failures and varsigma_ok
    _report(7, ok, "residue-pair ratios tighten from n=512 to n=4096 for "
                   "sigma (M=3, r in {0,1}); varsigma r=0 ratios exactly 1")
    assert ok, f"failures: {failures}, varsigma_ok={varsigma_ok}"


def test_criterion_8_monotonicity():
    golden = json.loads((GOLDEN_DIR / "sigma_monotonicity_n0.json").read_text())
    order = golden["order"]
    varsigma_bad = []
    n0_found = {}
    for (s, M, A, r) in CRITERION_GRID:
        params = MexParams(s, M, A, r)
        values = qseries.moment_sequence("varsigma", params, order).values
        if any(values[n + 1] < values[n] for n in range(order)):
            varsigma_bad.append((s, M, A, r))
        sigma_values = qseries.moment_sequence("sigma", params, order).values
        n0 = 0
        for n in range(order - 1, -1, -1):
            if sigma_values[n + 1] < sigma_values[n]:
                n0 = n + 1
                break
        n0_found[f"s={s},M={M},A={A},r={r}"] = n0
    golden_match = n0_found == golden["n0"]
    ok = not varsigma_bad and golden_match
    _report(8, ok, f"varsigma sequences nondecreasing to n={order} on the full "
                   "grid; sigma monotonicity onsets match the golden file")
    assert not varsigma_bad, f"varsigma not monotone: {varsigma_bad}"
    assert golden_match, {
        k: (n0_found[k], golden["n0"][k])
        for k in golden["n0"]
        if n0_found.get(k) != golden["n0"][k]
    }


def test_criterion_9_eta_inversion():
    diffs = {}
    for t in (0.2, 0.1, 0.05, 0.02, 0.01):
        lhs, rhs = asy.eta_inversion_check(t)
        diffs[t] = abs(lhs - rhs)
    ordered = [diffs[t] for t in (0.2, 0.1, 0.05, 0.02, 0.01)]
    ok = diffs[0.01] < 5e-4 and all(b < a for a, b in zip(ordered, ordered[1:]))
    _report(9, ok, f"product-vs-inversion log gap shrinks monotonically and is "
                   f"{diffs[0.01]:.2e} < 5e-4 at t=0.01")
    assert ok, diffs


def test_criterion_10_scanner_golden_reports():
    logconcave = scan_log_concavity("varsigma", MexParams(1, 2, 1, 0), 26, 1000)
    golden_lc = json.loads((GOLDEN_DIR / "logconcave_varsigma_r0.json").read_text())
    lc_ok = logconcave.to_json_dict() == golden_lc and logconcave.violations == ()

    bias = scan_bias("varsigma", 1, 3, 0, 1, 120)
    golden_bias = json.loads((GOLDEN_DIR / "bias_varsigma_r0.json").read_text())
    all_ties = all(entry.ties == ((1, 2, 3),) for entry in bias.ordering)
    bias_ok = bias.to_json_dict() == golden_bias and all_ties

    ok = lc_ok and bias_ok
    _report(10, ok, "log-concavity scan of the partition numbers over [26,1000] "
                    "is violation-free and the r=0 bias scan is all ties; both "
                    "match their golden reports")
    assert lc_ok, "log-concavity report diverged from golden"
    assert bias_ok, "bias report diverged from golden"


RICHARDSON_SETS = [
    ("sigma", (1, 2, 1, 1)),
    ("sigma", (1, 2, 1, 2)),
    ("varsigma", (2, 3, 2, 1)),
    ("varsigma", (1, 1, 1, 0)),
]


def test_criterion_11_richardson_growth_law_limit():
    # R(n) = exact/asymptotic has relative error O(n^(-1/2)); quadrupling
    # n halves it, so 2 R(4n) - R(n) cancels the leading term.
    failures = []
    for kind, (s, M, A, r) in RICHARDSON_SETS:
        params = MexParams(s, M, A, r)
        r_large = asy.exact_over_asymptotic(kind, params, 32768)
        r_small = asy.exact_over_asymptotic(kind, params, 8192)  # read from the 32768 sequence
        limit = 2.0 * r_large - r_small
        if not (abs(limit - 1.0) < 2e-4 and abs(limit - 1.0) < abs(r_large - 1.0)):
            failures.append((kind, s, M, A, r, limit, r_large))
    ok = not failures
    _report(11, ok, "Richardson limit 2 R(32768) - R(8192) of exact/asymptotic "
                    "is within 2e-4 of 1 and closer to 1 than R(32768)")
    assert ok, f"failures: {failures}"


def _identity_failures(N):
    """The (s, M, r) whose residue sums or M = 1 varsigma differ from
    sigma (s, 1, 1, r) at some n <= N."""
    failures = []
    for s, r in itertools.product((1, 2, 3), range(4)):
        whole = qseries.moment_sequence("sigma", MexParams(s, 1, 1, r), N).values
        if qseries.moment_sequence("varsigma", MexParams(s, 1, 1, r), N).values != whole:
            failures.append((s, 1, r))
        for M in (2, 3, 5):
            classes = [qseries.moment_sequence("sigma", MexParams(s, M, A, r), N).values
                       for A in range(1, M + 1)]
            if list(map(sum, zip(*classes))) != list(whole):
                failures.append((s, M, r))
    return failures


def test_criterion_12_exact_identities_beyond_the_oracle(gf_calls):
    # The residue classes split the partitions, and the congruence mex
    # mod 1 is the mex, so both identities hold exactly at every n.  The
    # smaller N is served from the stored sequences with no new product.
    failures = _identity_failures(4096)
    products = len(gf_calls)
    failures += _identity_failures(2048)
    ok = not failures and len(gf_calls) == products == 144
    _report(12, ok, "sum over A of sigma (s,M,A,r) = sigma (s,1,1,r) and varsigma "
                    "(s,1,1,r) = sigma (s,1,1,r) for every n <= 4096, s in {1,2,3}, "
                    "M in {2,3,5}, r in {0..3}; N = 2048 computes nothing new")
    assert not failures, f"failures: {failures}"
    assert len(gf_calls) == products == 144, gf_calls


#: (s, M, A, r) for both kinds: M = 1, A = M and A = 1, and (1, 5, 1, 2),
#: whose sigma weight reaches k = 41 > 40 below n = 1024.
DP_GRID = [(1, 1, 1, 1), (1, 2, 2, 3), (1, 5, 1, 2), (1, 5, 5, 3), (2, 3, 2, 2),
           (2, 4, 1, 1), (2, 7, 7, 0), (3, 6, 3, 3), (3, 7, 4, 3), (1, 7, 6, 1)]


#: The DP of each sequence, computed once for both criterion 13 tests.
_dp = functools.cache(moment_dp)


def test_criterion_13_series_equals_the_definition_dp():
    # The DP places the parts one size at a time and uses no p(n) table,
    # no theta support and no product, so it checks the series route for
    # general parameters far past the oracle's n <= 60.
    N = 1024
    failures = []
    for kind, (s, M, A, r) in itertools.product(("sigma", "varsigma"), DP_GRID):
        series = qseries.moment_sequence(kind, MexParams(s, M, A, r), N).values
        if list(series) != _dp(kind, s, M, A, r, N):
            failures.append((kind, s, M, A, r))
    ok = not failures
    _report(13, ok, f"series moments equal the definition-level DP at every n <= {N} "
                    f"for {2 * len(DP_GRID)} sequences of both kinds (s<=3, M<=7, r<=3)")
    assert ok, f"failures: {failures}"


def test_criterion_13_extended_sequences_equal_the_definition_dp(product_calls):
    # From an empty store, each sequence is computed to 512 and then
    # extended by the window 513..1024 of a second product.
    N = 1024
    failures = []
    for kind, (s, M, A, r) in itertools.product(("sigma", "varsigma"), DP_GRID):
        p = MexParams(s, M, A, r)
        qseries.moment_sequence(kind, p, N // 2)
        if list(qseries.moment_sequence(kind, p, N).values) != _dp(kind, s, M, A, r, N):
            failures.append((kind, s, M, A, r))
    steps = [(N // 2 + 1, {}), (N + 1, {"start": N // 2 + 1})]
    ok = not failures and [(args[2], kw) for args, kw in product_calls] == steps * 2 * len(DP_GRID)
    _report(13, ok, f"series moments extended from {N // 2} to {N} through the store equal "
                    f"the definition-level DP at every n <= {N} for the same "
                    f"{2 * len(DP_GRID)} sequences")
    assert ok, f"failures: {failures}"


#: Ramanujan's congruences p(m n + a) = 0 mod m, as (m, a).
CONGRUENCES = [(5, 4), (7, 5), (11, 6), (25, 24), (49, 47), (121, 116)]


@settings(max_examples=4, deadline=None)
@given(n=st.integers(4096, 2**15))
@example(n=2**15)
def test_criterion_14_partition_table_equals_hrr(n):
    # The Rademacher series shares nothing with the pentagonal recurrence;
    # the congruences look at every value of the table.
    table = partition_numbers(2**15)
    broken = [(m, a) for m, a in CONGRUENCES if any(v % m for v in table[a::m])]
    ok = table[n] == hrr_partition(n) and not broken
    _report(14, ok, f"p({n}) equals the Hardy-Ramanujan-Rademacher series, and Ramanujan's "
                    "six congruences hold over the table to 2^15")
    assert ok, f"p({n}) or the congruences {broken}"


#: Tile sizes the certified products run at: tiles of 1, 2 and 3 result
#: blocks put tile edges everywhere, and the module's own size is the one
#: every caller meets.
TILES = [1, 2, 3, backend._TILE]
points = st.integers(2, P - 2)


def _certify(sparse, factor, dense, length, start, x, tile):
    """Whether the window of ``sparse`` x ``dense`` that the product
    returns with tiles of ``tile`` blocks certifies as ``factor`` x
    ``dense`` at x."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backend, "_TILE", tile)
        window = backend.sparse_dense_product(sparse, dense, length, start=start)
    return window_at(window, start, x) == certify_product(factor, dense, length, start, x)


@st.composite
def theta_products(draw):
    """(kind, (s, M, A, r), N, start): a theta factor of either kind to
    N <= 4096 and a window start anywhere in 0..N+1."""
    M = draw(st.integers(1, 8))
    p = (draw(st.integers(1, 3)), M, draw(st.integers(1, M)), draw(st.integers(0, 3)))
    N = draw(st.integers(0, 4096))
    return draw(st.sampled_from(["sigma", "varsigma"])), p, N, draw(st.integers(0, N + 1))


@settings(max_examples=15, deadline=None)
@given(theta_products(), points, st.sampled_from(TILES))
# (1, 5, 1, 2): the sigma weight reaches k = 41 > 40 below n = 1024
@example(("sigma", (1, 5, 1, 2), 4096, 0), 3, 2)
@example(("varsigma", (1, 3, 2, 1), 4096, 2049), 3, 1)
def test_criterion_15_theta_products_certify_mod_a_prime(args, x, tile):
    # The package's support and product against the reference's two-term
    # theta factor, one residue mod P per window.
    kind, (s, M, A, r), N, start = args
    support = qseries._support(kind, MexParams(s, M, A, r), N)
    ok = _certify(support, support_direct(kind, s, M, A, r, N), partition_numbers(N), N + 1,
                  start, x, tile)
    _report(15, ok, f"the {kind} {(s, M, A, r)} product to {N}, window from {start}, "
                    f"tile {tile}, certifies mod 2^61 - 1")
    assert ok


@st.composite
def raw_products(draw):
    """(sparse, N, start): up to 40 terms with weights of +-1..+-2^256 at
    exponents 0..N+2, N <= 4096, and a window start anywhere in 0..N+1."""
    N = draw(st.integers(0, 4096))
    magnitude = st.one_of(st.just(1), st.integers(2, 9), st.integers(2**64, 2**256))
    weight = st.builds(lambda m, negative: -m if negative else m, magnitude, st.booleans())
    sparse = draw(st.lists(st.tuples(st.integers(0, N + 2), weight), max_size=40))
    return sparse, N, draw(st.integers(0, N + 1))


@settings(max_examples=25, deadline=None)
@given(raw_products(), points, st.sampled_from(TILES))
def test_criterion_15_raw_products_certify_mod_a_prime(args, x, tile):
    sparse, N, start = args
    ok = _certify(sparse, sparse, partition_numbers(N), N + 1, start, x, tile)
    _report(15, ok, f"a product of {len(sparse)} raw terms to {N}, window from {start}, "
                    f"tile {tile}, certifies mod 2^61 - 1")
    assert ok


def test_criterion_15_stats_products_and_table_certify():
    # The two cold products of the benchmark's stats session, whole, and
    # the p(n) table to 2^15 against Euler's product.
    N = 2**15
    x = 1_000_003
    table = partition_numbers(N)
    failures = [] if certify_partition_numbers(table, x) else ["p(n)"]
    for kind, (s, M, A, r) in (("varsigma", (1, 3, 2, 1)), ("sigma", (1, 2, 1, 1))):
        values = list(qseries.moment_sequence(kind, MexParams(s, M, A, r), N).values)
        if window_at(values, 0, x) != certify_product(support_direct(kind, s, M, A, r, N),
                                                      table, N + 1, 0, x):
            failures.append(kind)
    ok = not failures
    _report(15, ok, f"varsigma (1,3,2,1) and sigma (1,2,1,1) to {N} and the p(n) table "
                    "to 2^15 certify mod 2^61 - 1")
    assert ok, f"failures: {failures}"
