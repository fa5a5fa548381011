"""The plain-Python sampler draws numpy's ``Generator(PCG64(seed))`` permutations."""

import random

import numpy as np
import pytest

from paraeval.sampling import PCG64

EDGE_NS = (0, 1, 2, 3, 10, 500, 5000, 8626)
EDGE_SEEDS = (0, 1, 7, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**100 + 3)


def numpy_generator(seed):
    return np.random.Generator(np.random.PCG64(seed))


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("n", EDGE_NS)
def test_edge_cases_match_numpy(n, seed):
    assert PCG64(seed).permutation(n) == numpy_generator(seed).permutation(n).tolist()


def test_random_cases_match_numpy():
    rng = random.Random(20231019)
    for _ in range(200):
        n = rng.randrange(3000)
        seed = rng.getrandbits(rng.choice((8, 32, 64, 128, 256)))
        assert PCG64(seed).permutation(n) == numpy_generator(seed).permutation(n).tolist(), \
            (n, seed)


def test_sequences_from_one_generator_match_numpy():
    # An odd number of 32-bit draws leaves half a 64-bit draw for the next
    # permutation, as between the strata of sample_stratified.
    rng = random.Random(7)
    for _ in range(100):
        seed = rng.getrandbits(64)
        ns = [rng.randrange(60) for _ in range(rng.randint(1, 5))]
        ours, theirs = PCG64(seed), numpy_generator(seed)
        assert [ours.permutation(n) for n in ns] == \
            [theirs.permutation(n).tolist() for n in ns], (seed, ns)


def test_bounds_beyond_32_bits_take_64_bit_draws():
    # numpy's permutation reaches such bounds only beyond 2**32 items; the
    # legacy RandomState draws the same masked 64-bit rejection for them.
    rng = random.Random(3)
    for _ in range(50):
        seed, bound = rng.getrandbits(64), rng.randrange(2**32, 2**64)
        ours, theirs = PCG64(seed), np.random.RandomState(np.random.PCG64(seed))
        assert [ours._interval(bound) for _ in range(4)] == \
            [int(theirs.randint(0, bound + 1, dtype=np.uint64)) for _ in range(4)]


@pytest.mark.parametrize("seed", [np.int64(3), np.uint64(2**64 - 1), np.int8(0)])
def test_a_numpy_integer_seed_draws_as_the_equal_int(seed):
    assert PCG64(seed).permutation(50) == PCG64(int(seed)).permutation(50) == \
        numpy_generator(seed).permutation(50).tolist()


@pytest.mark.parametrize("seed, error, message", [
    (-1, ValueError, "seed must be >= 0, got -1"),
    (None, TypeError, "seed must be an int, got NoneType"),
    (1.0, TypeError, "seed must be an int, got float"),
    ("1", TypeError, "seed must be an int, got str"),
    (True, TypeError, "seed must be an int, got bool"),
    (np.float64(1.0), TypeError, "seed must be an int, got float64"),
])
def test_a_seed_that_is_not_a_non_negative_int_is_refused(seed, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        PCG64(seed)
