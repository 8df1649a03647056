"""Code-offset fuzzy extractor over a repetition code.

The code is repetition(5) concatenated over 128 message bits (n = 640),
which corrects up to 2 flips per 5-bit block and is small enough to test
exhaustively. Helper data is response XOR a random codeword; the key is a
KDF of the decoded message and is checked against a short digest so a
failed reproduction is reported, never silently wrong.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ValidationError
from ..puf.base import _bit_array
from ..xof import expand_bits

KEY_BYTES = 16
CHECK_BYTES = 8
REPEATS = 5                          # odd, so majority decoding corrects 2 flips
MESSAGE_BITS = 128
CODE_BITS = REPEATS * MESSAGE_BITS   # response bits per enrolled key


class SecretKey:
    """128-bit symmetric key material. Deliberately opaque: no public
    operation serializes it, and reprs never show the bytes."""

    __slots__ = ("_material",)

    def __init__(self, material: bytes):
        # a copy: a caller's bytearray must not be able to change the key
        try:
            material = bytes(memoryview(material))
        except TypeError:
            raise ValidationError("secret key must be a bytes-like object") from None
        if len(material) != KEY_BYTES:
            raise ValidationError("secret key must be 16 bytes")
        self._material = material

    def __repr__(self):
        return "SecretKey(<hidden>)"

    def __eq__(self, other):
        return isinstance(other, SecretKey) and self._material == other._material

    def __hash__(self):
        return hash(self._material)

    def _reveal(self) -> bytes:
        # internal use by the AEAD layer only
        return self._material

    def zeroize(self):
        self._material = b"\x00" * KEY_BYTES


@dataclass(frozen=True)
class HelperData:
    code_offset: np.ndarray  # response-length bit array
    key_check: bytes         # short digest binding the derived key


def encode(message: np.ndarray) -> np.ndarray:
    """Repeat each message bit REPEATS times."""
    msg = np.asarray(message, dtype=np.uint8)
    if msg.shape != (MESSAGE_BITS,):
        raise ValidationError("message length mismatch")
    return np.repeat(msg, REPEATS)


def decode(word: np.ndarray) -> np.ndarray:
    """Majority vote per REPEATS-bit block."""
    w = np.asarray(word, dtype=np.uint8)
    if w.shape != (CODE_BITS,):
        raise ValidationError("codeword length mismatch")
    blocks = w.reshape(MESSAGE_BITS, REPEATS)
    return (blocks.sum(axis=1) * 2 > REPEATS).astype(np.uint8)


def _kdf(message: np.ndarray) -> bytes:
    packed = np.packbits(message).tobytes()
    return hashlib.sha256(b"fe-kdf\x00" + packed).digest()[:KEY_BYTES]


def _key_check(key: bytes) -> bytes:
    return hashlib.sha256(b"fe-check\x00" + key).digest()[:CHECK_BYTES]


def fe_generate(response_bits: np.ndarray, randomness: bytes) -> tuple[SecretKey, HelperData]:
    """Enroll a response: helper = response XOR codeword(random message)."""
    resp = _bit_array(response_bits, 1, "response bits")
    if resp.shape != (CODE_BITS,):
        raise ValidationError(f"response length {resp.shape} != code length {CODE_BITS}")
    message = expand_bits(randomness, "fe-message", MESSAGE_BITS)
    offset = np.bitwise_xor(resp, encode(message))
    key = _kdf(message)
    return SecretKey(key), HelperData(offset, _key_check(key))


def fe_reproduce(noisy_bits: np.ndarray, helper: HelperData) -> Optional[SecretKey]:
    """Recover the enrolled key from a noisy re-read, or None on failure.

    Succeeds iff every block carries at most t errors; a miscorrected block
    yields a key that fails the helper's check digest.
    """
    noisy = _bit_array(noisy_bits, 1, "response bits")
    if noisy.shape != (CODE_BITS,):
        raise ValidationError(f"response length {noisy.shape} != code length {CODE_BITS}")
    offset = _bit_array(helper.code_offset, 1, "helper code offset")
    if offset.shape != (CODE_BITS,):
        raise ValidationError(f"helper offset length {offset.shape} != code length {CODE_BITS}")
    word = np.bitwise_xor(noisy, offset)
    message = decode(word)
    key = _kdf(message)
    if _key_check(key) != helper.key_check:
        return None
    return SecretKey(key)
