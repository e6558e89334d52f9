"""Property-based differential tests over random (s, M, A, r, n): moduli
up to 40 against n <= 18, so M far above n occurs, and residues drawn
from both ends of 1..M as well as in between.  The sparse x dense
product is held to the schoolbook Cauchy product on random supports."""

from hypothesis import example, given, settings
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


@st.composite
def sparse_dense_args(draw):
    """(sparse, dense, length) with few distinct |weight|s of both signs,
    weights 0 and +-1, one very large weight, duplicate exponents,
    exponents at or beyond ``length`` and ``dense`` longer than needed."""
    length = draw(st.integers(0, 24))
    dense = draw(st.lists(st.integers(-(10**30), 10**30), min_size=length, max_size=length + 3))
    big = draw(st.integers(2**64, 2**256))
    magnitude = st.sampled_from([0, 1, 2, 3, big])
    weight = st.builds(lambda m, negative: -m if negative else m, magnitude, st.booleans())
    sparse = draw(st.lists(st.tuples(st.integers(0, length + 2), weight), max_size=10))
    return sparse, dense, length


@settings(max_examples=300, deadline=None)
@given(sparse_dense_args())
@example(([(0, 3), (0, -3), (1, 3)], [5, 7], 0))
@example(([(0, -3), (0, 3), (1, -3)], [5, 7], 1))
def test_sparse_dense_product_equals_schoolbook(args):
    sparse, dense, length = args
    poly = [0] * length
    for e, w in sparse:
        if e < length:
            poly[e] += w
    assert _pure.sparse_dense_product(sparse, dense, length) == _pure.cauchy_product(
        poly, dense[:length]
    )
