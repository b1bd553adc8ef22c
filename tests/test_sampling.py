import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmeas.operators import ValidationError
from qmeas.sampling import _BLOCK as BLOCK
from qmeas.sampling import _jump_table
from qmeas.sampling import LCG_INCREMENT, LCG_MULTIPLIER, Lcg64, sample_counts


def test_lcg_constants_and_recurrence():
    # first state from seed 0 is the increment itself
    assert Lcg64(0).next_uint64() == LCG_INCREMENT
    rng = Lcg64(12345)
    first = rng.next_uint64()
    assert first == (LCG_MULTIPLIER * 12345 + LCG_INCREMENT) % 2**64
    # frozen reference sequence, must never change
    assert [first] + [rng.next_uint64() for _ in range(3)] == [
        2021368500568277588,
        4895494634720187923,
        16336879138292273062,
        15416634109187857277,
    ]


def test_lcg_floats_in_unit_interval():
    rng = Lcg64(987654321)
    values = [rng.next_float() for _ in range(10_000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert 0.45 < float(np.mean(values)) < 0.55


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_lcg_same_seed_same_stream(seed):
    a, b = Lcg64(seed), Lcg64(seed)
    assert [a.next_uint64() for _ in range(5)] == [b.next_uint64() for _ in range(5)]


def test_sample_counts_total_and_shape():
    probs = np.array([[0.1, 0.2], [0.3, 0.4]])
    counts = sample_counts(probs, 5000, seed=7)
    assert counts.shape == (2, 2)
    assert counts.sum() == 5000


def test_sample_counts_deterministic():
    probs = np.full(16, 1 / 16).reshape(2, 2, 2, 2)
    a = sample_counts(probs, 20_000, seed=99)
    b = sample_counts(probs, 20_000, seed=99)
    assert np.array_equal(a, b)
    c = sample_counts(probs, 20_000, seed=100)
    assert not np.array_equal(a, c)


def test_sample_counts_match_distribution():
    probs = np.array([0.5, 0.25, 0.125, 0.125])
    counts = sample_counts(probs, 100_000, seed=3)
    freqs = counts / 100_000
    assert np.abs(freqs - probs).max() < 0.01


def test_sample_counts_degenerate_distribution():
    counts = sample_counts(np.array([0.0, 1.0, 0.0]), 1000, seed=5)
    assert counts.tolist() == [0, 1000, 0]


def test_sample_counts_requires_positive_n():
    with pytest.raises(ValidationError, match=r"^n_samples must be >= 1, got 0$"):
        sample_counts(np.array([1.0]), 0, seed=1)


@pytest.mark.parametrize(
    "n_samples, seed, name",
    [(10.0, 1, "n_samples"), (True, 1, "n_samples"), (4, 1.5, "seed"), (4, "7", "seed"),
     (4, True, "seed")],
)
def test_sample_counts_requires_integer_counts_and_seeds(n_samples, seed, name):
    # floats and bools raised numpy's TypeError or ran with seed 1; "7" ran with seed 7
    with pytest.raises(ValidationError, match=f"^{name} must be an integer, got "):
        sample_counts(np.array([0.5, 0.5]), n_samples, seed)


def test_sample_counts_takes_numpy_integers():
    probs = np.array([0.25, 0.75])
    expected = sample_counts(probs, 500, 2**64 - 1).tolist()
    assert sample_counts(probs, np.int32(500), np.uint64(2**64 - 1)).tolist() == expected


@pytest.mark.parametrize("seed", [1.5, True, "7", None])
def test_lcg_requires_an_integer_seed(seed):
    # 1.5 and True ran as seed 1
    with pytest.raises(ValidationError, match="^seed must be an integer, got "):
        Lcg64(seed)


# 16-outcome grids with exact zeros and negative round-off entries.
GRIDS = [
    np.array([0.1, 0.0, 0.05, -1e-17, 0.2, 0.15, 0.0, 0.1,
              0.05, 0.05, -2e-18, 0.1, 0.05, 0.05, 0.05, 0.05]),
    np.array([0.0, 0.0, 0.5, -3e-17, 0.0, 0.25, 0.0, 0.0,
              0.125, 0.0, 0.0, 0.0, -1e-16, 0.0, 0.0, 0.125]).reshape(2, 2, 2, 2),
]


def reference_counts(probs, draws):
    """Inverse CDF over `draws`: the first outcome whose cumulative exceeds
    the draw, or the last outcome when round-off leaves none."""
    cumulative = np.cumsum(np.clip(probs.reshape(-1), 0.0, None))
    top = cumulative.size - 1
    indices = np.minimum(np.searchsorted(cumulative, draws, side="right"), top)
    return np.bincount(indices, minlength=cumulative.size).reshape(probs.shape)


@pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1, -1, 2**64 + 5])
def test_sample_counts_equal_the_per_draw_stream(seed):
    rng = Lcg64(seed)
    draws = np.array([rng.next_float() for _ in range(3 * BLOCK + 7)])
    for probs in GRIDS:
        for n in (1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7):
            counts = sample_counts(probs, n, seed)
            expected = reference_counts(probs, draws[:n])
            assert counts.dtype == expected.dtype
            assert np.array_equal(counts, expected), (n, probs.shape)


@pytest.mark.parametrize("seed", [0, 1, 2])  # first draws 0.078, 0.42 and 0.77
def test_sample_counts_split_where_the_float_cdf_splits(seed):
    # a cumulative one ulp below, at and one ulp above the draw; below 0.5 the
    # ulp is finer than the 2^-53 grid of the draws
    u = Lcg64(seed).next_float()
    for c in (np.nextafter(u, 0.0), u, np.nextafter(u, 1.0)):
        probs = np.array([c, 1.0 - c])
        assert np.array_equal(sample_counts(probs, 1, seed), reference_counts(probs, [u])), c


@pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
def test_jump_table_entry_k_is_k_generator_steps(seed):
    rng = Lcg64(seed)
    states = [rng.next_uint64() for _ in range(BLOCK)]
    for k in (1, 2, 3, BLOCK - 1, BLOCK):
        mult, incr = _jump_table(k)
        assert mult.dtype == incr.dtype == np.uint64 and len(mult) == len(incr) == k
        assert (int(mult[-1]) * seed + int(incr[-1])) % 2**64 == states[k - 1], k


def test_sample_counts_frozen_reference():
    # recorded with the per-draw sampler, before the block jump-ahead
    counts = sample_counts(GRIDS[0], 200_000, seed=424242)
    assert counts.tolist() == [
        19937, 0, 10071, 0, 39907, 30014, 0, 20094,
        10132, 10077, 0, 19878, 9916, 9890, 9952, 10132,
    ]


def test_sample_counts_memory_is_bounded_by_the_block():
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            counts = sample_counts(GRIDS[0], 2_000_000, seed=2**64 - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() == 2_000_000
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("probs", [[np.nan, 0.5, 0.5], [np.inf, 1.0], [0.2, 0.2], [1.2, -0.2]])
def test_sample_counts_rejects_what_is_not_a_distribution(probs):
    # each used to sample: NaN and Inf entries took every draw, a 0.4 total
    # sent the draws above it to the last outcome
    with pytest.raises(ValidationError):
        sample_counts(probs, 1000, seed=1)


def test_sample_counts_still_samples_round_off_negatives():
    counts = sample_counts([-1e-10, 0.5, 0.5 + 1e-10], 1000, seed=1)
    assert counts[0] == 0 and counts.sum() == 1000
