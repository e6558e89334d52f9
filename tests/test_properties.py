"""Property-based differential tests over random (s, M, A, r, n): moduli
up to 40 against n <= 18, so M far above n occurs, and residues drawn
from both ends of 1..M as well as in between."""

from hypothesis import given, settings
from hypothesis import strategies as st

from mexmoments import _pure
from mexmoments.partitions import MexParams, sigma_oracle, varsigma_oracle
from mexmoments.qseries import partition_numbers, sigma_gf_coeffs, varsigma_gf_coeffs

ns = st.integers(0, 18)
thresholds = st.integers(1, 4)
moduli = st.integers(1, 40)


@st.composite
def mex_params(draw):
    M = draw(moduli)
    A = draw(st.one_of(st.just(1), st.just(M), st.integers(1, M)))
    return MexParams(draw(thresholds), M, A, draw(st.integers(0, 3)))


@settings(max_examples=150, deadline=None)
@given(mex_params(), ns)
def test_oracle_equals_generating_function(p, n):
    assert sigma_oracle(p, n) == sigma_gf_coeffs(p, n)[n]
    assert varsigma_oracle(p, n) == varsigma_gf_coeffs(p, n)[n]


@settings(max_examples=60, deadline=None)
@given(thresholds, moduli, ns)
def test_sigma_r0_residue_classes_sum_to_partition_count(s, M, n):
    total = sum(sigma_oracle(MexParams(s, M, A, 0), n) for A in range(1, M + 1))
    assert total == partition_numbers(n)[n]


@settings(max_examples=100, deadline=None)
@given(thresholds, moduli, ns)
def test_compiled_histogram_equals_pure(speed, s, M, n):
    assert speed.mex_value_counts(n, s, M) == _pure.mex_value_counts(n, s, M)
