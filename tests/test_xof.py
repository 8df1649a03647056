import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pufstack.errors import ValidationError
from pufstack.puf import challenge_matrix
from pufstack.xof import (XofStream, bytes_to_bits, derive_rng,
                          expand, expand_bits, seed_bytes, seeded_permutation)

SEED = b"\x01" * 32


def test_expand_deterministic():
    assert expand(SEED, "label", 64) == expand(SEED, "label", 64)


def test_expand_prefix_consistent():
    assert expand(SEED, "label", 100)[:40] == expand(SEED, "label", 40)


def test_expand_known_answer():
    digest = hashlib.sha256(expand(SEED, "kat", 100)).hexdigest()
    assert digest == "1127c645418fcff335b338c5fa673b7564c27c155e6cb840b8fd9a47857afced"


def test_stream_matches_expand_across_uneven_takes():
    stream = XofStream(SEED, "kat")
    taken = stream.take(4) + stream.take(33) + stream.take(63)
    assert taken == expand(SEED, "kat", 100)


def test_labels_separate_streams():
    assert expand(SEED, "a", 32) != expand(SEED, "b", 32)
    assert expand(SEED, "a", 32) != expand(b"\x02" * 32, "a", 32)


def test_label_rejects_nul():
    with pytest.raises(ValidationError):
        expand(SEED, "bad\x00label", 8)


@pytest.mark.parametrize("size", [-1, -9, 1.0, True])
def test_sizes_must_be_non_negative_integers(size):
    # expand(-1) once returned b"" and expand_bits(-9) an empty array, and
    # bytes_to_bits(b"\xff\x00", -3) returned 13 bits
    for call in (expand, expand_bits):
        with pytest.raises(ValidationError):
            call(SEED, "neg", size)
    with pytest.raises(ValidationError):
        bytes_to_bits(b"\xff\x00", size)
    assert expand(SEED, "neg", 0) == b""
    assert expand_bits(SEED, "neg", 0).shape == (0,)
    assert bytes_to_bits(b"\xff", 0).shape == (0,)


def test_challenge_matrix_rejects_negative_count():
    # this once returned a (0, 64) matrix
    with pytest.raises(ValidationError):
        challenge_matrix(SEED, "neg", -2, 64)


@pytest.mark.parametrize("size", [-1, 2.0])
def test_stream_take_rejects_bad_size_and_keeps_buffer(size):
    # take(-1) once returned all but the last buffered byte and kept one
    stream = XofStream(SEED, "kat")
    head = stream.take(5)
    with pytest.raises(ValidationError):
        stream.take(size)
    assert head + stream.take(95) == expand(SEED, "kat", 100)


def test_expand_bits_roundtrip():
    bits = expand_bits(SEED, "bits", 128)
    assert bits.shape == (128,)
    assert set(np.unique(bits)) <= {0, 1}
    assert np.array_equal(bytes_to_bits(np.packbits(bits).tobytes(), 128), bits)


@pytest.mark.parametrize("run_seed, tail", [
    (0, "0000000000000000"), (3, "0000000000000003"),
    (-1, "ffffffffffffffff"), (-2 ** 63, "8000000000000000")])
def test_seed_bytes_encoding(run_seed, tail):
    # big-endian signed 64-bit, left-padded with zeros to 32 bytes
    assert seed_bytes(run_seed).hex() == "00" * 24 + tail


@pytest.mark.parametrize("run_seed", [2 ** 63, -2 ** 63 - 1])
def test_seed_bytes_rejects_out_of_range(run_seed):
    with pytest.raises(ValidationError):
        seed_bytes(run_seed)


@pytest.mark.parametrize("run_seed", [True, 1.5, 1.0])
def test_seed_bytes_rejects_non_integers(run_seed):
    with pytest.raises(ValidationError):
        seed_bytes(run_seed)


def test_seed_bytes_takes_numpy_integers():
    assert seed_bytes(np.int64(-1)) == seed_bytes(-1)


def test_derive_rng_reproducible():
    a = derive_rng(SEED, "rng").standard_normal(8)
    b = derive_rng(SEED, "rng").standard_normal(8)
    assert np.array_equal(a, b)


def test_stream_randbelow_in_range():
    stream = XofStream(SEED, "stream")
    draws = [stream.randbelow(10) for _ in range(500)]
    assert min(draws) >= 0 and max(draws) < 10
    assert len(set(draws)) == 10


def test_stream_randbelow_bound_checked():
    # above 2^32 no 4-byte value is accepted, so the draw never returned;
    # a bool passed as the bound 1
    stream = XofStream(SEED, "stream")
    for bad in (0, -3, 2 ** 32 + 1, 2 ** 40):
        with pytest.raises(ValidationError, match="bound"):
            stream.randbelow(bad)
    for bad in (True, False, 3.0, "7"):
        with pytest.raises(ValidationError, match="integer"):
            stream.randbelow(bad)
    assert 0 <= stream.randbelow(2 ** 32) < 2 ** 32
    assert stream.randbelow(np.int64(1)) == 0


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=200), st.binary(min_size=4, max_size=16))
def test_permutation_covers_all_indices(n, salt):
    perm = seeded_permutation(SEED + salt, "perm", n)
    assert sorted(perm.tolist()) == list(range(n))


def test_permutation_deterministic():
    a = seeded_permutation(SEED, "perm", 100)
    b = seeded_permutation(SEED, "perm", 100)
    assert np.array_equal(a, b)


def test_permutation_rejects_empty():
    with pytest.raises(ValidationError):
        seeded_permutation(SEED, "perm", 0)


@pytest.mark.parametrize("n", [3.0, True])
def test_permutation_rejects_non_integer_lengths(n):
    # 3.0 used to raise a bare TypeError, and True gave the permutation [0]
    with pytest.raises(ValidationError):
        seeded_permutation(SEED, "perm", n)
