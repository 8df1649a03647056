import itertools
import pickle

import numpy as np
import pytest

from pufstack.errors import ValidationError
from pufstack.keys.fuzzy import (CODE_BITS, MESSAGE_BITS, HelperData, SecretKey,
                                 decode, encode, fe_generate, fe_reproduce)
from pufstack.xof import expand_bits

RESPONSE = expand_bits(b"\x07" * 32, "fe-test-response", 640)
RANDOMNESS = b"\x11" * 32


def test_generate_deterministic():
    k1, h1 = fe_generate(RESPONSE, RANDOMNESS)
    k2, h2 = fe_generate(RESPONSE, RANDOMNESS)
    assert k1 == k2
    assert np.array_equal(h1.code_offset, h2.code_offset)
    assert h1.key_check == h2.key_check


def test_reproduce_exact_read():
    key, helper = fe_generate(RESPONSE, RANDOMNESS)
    assert fe_reproduce(RESPONSE, helper) == key


def test_helper_offset_is_codeword_of_message():
    # helper XOR response must decode back to the enrolled message,
    # i.e. every 5-bit block of it is constant
    _, helper = fe_generate(RESPONSE, RANDOMNESS)
    word = np.bitwise_xor(RESPONSE, helper.code_offset).reshape(128, 5)
    assert np.all(word == word[:, :1])


def test_code_dimensions():
    assert CODE_BITS == 640
    assert MESSAGE_BITS == 128
    msg = expand_bits(b"\x08" * 32, "msg", 128)
    assert decode(encode(msg)).tolist() == msg.tolist()
    with pytest.raises(ValidationError):
        encode(np.zeros(127, dtype=np.uint8))
    with pytest.raises(ValidationError):
        decode(np.zeros(639, dtype=np.uint8))


def test_exhaustive_correction_within_radius():
    # every <=2-flip pattern inside one 5-bit block must reproduce the key
    key, helper = fe_generate(RESPONSE, RANDOMNESS)
    block = 17  # representative block; flips confined to positions 85..89
    base = block * 5
    patterns = [()] + list(itertools.combinations(range(5), 1)) \
        + list(itertools.combinations(range(5), 2))
    for pat in patterns:
        noisy = RESPONSE.copy()
        for off in pat:
            noisy[base + off] ^= 1
        assert fe_reproduce(noisy, helper) == key


def test_exhaustive_detection_beyond_radius():
    # every 3-flip pattern in one block miscorrects it, and the key check
    # must catch that: reported failure, never a silently wrong key
    key, helper = fe_generate(RESPONSE, RANDOMNESS)
    base = 17 * 5
    for pat in itertools.combinations(range(5), 3):
        noisy = RESPONSE.copy()
        for off in pat:
            noisy[base + off] ^= 1
        assert fe_reproduce(noisy, helper) is None


def test_two_flips_per_block_everywhere_still_succeeds():
    key, helper = fe_generate(RESPONSE, RANDOMNESS)
    noisy = RESPONSE.copy()
    for block in range(128):
        noisy[block * 5] ^= 1
        noisy[block * 5 + 3] ^= 1
    assert fe_reproduce(noisy, helper) == key


def test_wrong_length_rejected():
    with pytest.raises(ValidationError):
        fe_generate(RESPONSE[:639], RANDOMNESS)
    _, helper = fe_generate(RESPONSE, RANDOMNESS)
    with pytest.raises(ValidationError):
        fe_reproduce(RESPONSE[:639], helper)


def _with_entry(value, dtype):
    bits = RESPONSE.astype(dtype)
    bits[3] = value
    return bits


# a 2 would enroll a helper offset holding 3, and 0.9 or 256 would be
# truncated or wrapped to a bit by a uint8 cast
NON_BITS = [(2, np.uint8), (256, np.int64), (-1, np.int64), (0.9, np.float64)]


@pytest.mark.parametrize("value, dtype", NON_BITS)
def test_generate_rejects_non_bits(value, dtype):
    with pytest.raises(ValidationError):
        fe_generate(_with_entry(value, dtype), RANDOMNESS)


@pytest.mark.parametrize("value, dtype", NON_BITS)
def test_reproduce_rejects_non_bits(value, dtype):
    _, helper = fe_generate(RESPONSE, RANDOMNESS)
    with pytest.raises(ValidationError):
        fe_reproduce(_with_entry(value, dtype), helper)


@pytest.mark.parametrize("offset", [
    lambda o: o[:639],                        # once a numpy broadcast error
    lambda o: np.where(np.arange(o.size) == 3, np.uint8(255), o),  # once XORed in
    lambda o: o.reshape(128, 5),
], ids=["639-bits", "entry-255", "2-D"])
def test_reproduce_rejects_malformed_helper(offset):
    # helper data is public and arrives from storage, so it is checked too
    _, helper = fe_generate(RESPONSE, RANDOMNESS)
    with pytest.raises(ValidationError, match="helper"):
        fe_reproduce(RESPONSE, HelperData(offset(helper.code_offset), helper.key_check))


def test_bit_valued_inputs_of_any_dtype_agree():
    key, helper = fe_generate(RESPONSE, RANDOMNESS)
    for dtype in (np.int64, np.float64, bool):
        bits = RESPONSE.astype(dtype)
        other_key, other_helper = fe_generate(bits, RANDOMNESS)
        assert other_key == key
        assert np.array_equal(other_helper.code_offset, helper.code_offset)
        assert fe_reproduce(bits, helper) == key


def test_different_randomness_different_key():
    k1, _ = fe_generate(RESPONSE, RANDOMNESS)
    k2, _ = fe_generate(RESPONSE, b"\x12" * 32)
    assert k1 != k2


class TestSecretKeyHygiene:
    def test_repr_hides_material(self):
        key, _ = fe_generate(RESPONSE, RANDOMNESS)
        assert "hidden" in repr(key)
        assert key._reveal().hex() not in repr(key)

    def test_no_serializable_leak(self):
        # nothing a caller would normally persist may contain the key bytes
        key, helper = fe_generate(RESPONSE, RANDOMNESS)
        material = key._reveal()
        assert material not in helper.code_offset.tobytes()
        assert material not in helper.key_check
        assert material not in pickle.dumps(helper)
        assert material not in repr(helper).encode()

    def test_zeroize(self):
        key, _ = fe_generate(RESPONSE, RANDOMNESS)
        key.zeroize()
        assert key._reveal() == b"\x00" * 16

    def test_equality_is_by_material(self):
        key, _ = fe_generate(RESPONSE, RANDOMNESS)
        clone = SecretKey(key._reveal())
        assert key == clone
        assert key != object()

    @pytest.mark.parametrize("material", [
        "0123456789abcdef", list(range(16)), 16, bytes(15), bytes(17)])
    def test_rejects_anything_but_16_bytes(self, material):
        with pytest.raises(ValidationError):
            SecretKey(material)

    def test_material_is_copied(self):
        from pufstack.keys.aead import AeadBox
        material = bytearray(range(16))
        key = SecretKey(material)
        blob = AeadBox(key).seal(b"weights")
        material[0] ^= 0x01
        assert AeadBox(key).open(blob) == b"weights"

    def test_helper_does_not_determine_key(self):
        # XOR-ing the helper with a guessed all-zero response decodes to a
        # different message than the enrolled one with overwhelming odds
        key, helper = fe_generate(RESPONSE, RANDOMNESS)
        guess = fe_reproduce(np.zeros(640, dtype=np.uint8), helper)
        assert guess is None or guess != key
