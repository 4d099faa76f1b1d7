import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from kernelspectra import rng
from kernelspectra.errors import ConfigError

WORDS = st.integers(min_value=0, max_value=2**64 - 1)


def _state(seed, path):
    return tuple(rng.derive_rng(seed, *path).bit_generator.seed_seq.generate_state(4))


@given(WORDS, st.lists(WORDS, max_size=5), WORDS, st.lists(WORDS, max_size=5))
# a seed of 2^32 against seed 0 with path (1,): the same 32-bit words when
# SeedSequence splits the seed itself
@example(2**32, [], 0, [1])
# a path against its zero-extension: SeedSequence pads short entropy with zeros
@example(0, [rng.STREAM_DATA], 0, [rng.STREAM_DATA, 0])
@example(0, [], 0, [0])
def test_distinct_paths_give_distinct_seed_sequence_states(seed_a, path_a, seed_b, path_b):
    assume((seed_a, path_a) != (seed_b, path_b))
    assert _state(seed_a, path_a) != _state(seed_b, path_b)


def test_tuple_entries_of_a_path_are_spliced_in():
    spliced = rng.derive_rng(5, rng.STREAM_DATA, (2, 1)).standard_normal(4)
    assert np.array_equal(spliced, rng.derive_rng(5, rng.STREAM_DATA, 2, 1).standard_normal(4))


@pytest.mark.parametrize("seed, path", [(-1, ()), (2**64, ()), (0, (-1,)), (0, (3, 2**64))])
def test_seed_and_path_words_must_fit_in_64_bits(seed, path):
    with pytest.raises(ConfigError, match="64 bits"):
        rng.derive_rng(seed, *path)
