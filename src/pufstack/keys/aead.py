"""AEAD blobs with a fixed wire layout: nonce || len_be4 || ciphertext || tag.

AES-128-GCM (96-bit nonce, 128-bit tag) via the `cryptography` package,
keyed with the 128-bit ``SecretKey`` as it is. Every nonce is drawn fresh
from the OS CSPRNG: random 96-bit IVs are NIST SP 800-38D's RBG
construction, which allows up to 2^32 seals under one key. Under GCM a
repeated nonce leaks the GHASH key and so allows forgeries. A counter per
handle cannot rule that out: each op reproduces a new ``SecretKey`` of the
same value, and each handle built on it would count from 0 again. Random
nonces stay unique across handles, ops and processes. So sealed blobs are
the one output that is not a function of the seeds.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from ..errors import FormatError, ProtocolStateError, TamperError
from .fuzzy import KEY_BYTES, SecretKey

NONCE_BYTES = 12
TAG_BYTES = 16


def wipe(buf) -> None:
    """Overwrite the writable bytes-like ``buf`` with zeros in place."""
    np.frombuffer(buf, dtype=np.uint8).fill(0)


def empty_buffer(n: int) -> memoryview:
    """A writable ``n``-byte buffer whose contents are unspecified, for a
    writer that sets every byte; its byte 4 sits on an 8-byte boundary.

    The plaintext schemas of ``netservice`` put their float64 data at
    offsets that are 4 (mod 8), so in such a buffer every weight block is
    an aligned array: an unaligned (256, 256) layer makes ``w @ x`` leave
    the BLAS path and run about 2x slower.
    """
    words = np.empty((n + 11) // 8, dtype=np.float64)   # 8-byte aligned
    return words.data.cast("B")[4:4 + n]


@dataclass(frozen=True)
class CipheredBlob:
    """A nonce and the AEAD output under it, ciphertext || tag, held as the
    one read-only buffer the cipher wrote so that opening it copies
    nothing."""

    nonce: bytes
    sealed: bytes | memoryview

    def __post_init__(self):
        for name, value in (("nonce", self.nonce), ("sealed payload", self.sealed)):
            if not isinstance(value, (bytes, bytearray, memoryview)):
                raise FormatError(f"{name} must be bytes-like, not {type(value).__name__}")
        if len(self.nonce) != NONCE_BYTES:
            raise FormatError(f"nonce must be {NONCE_BYTES} bytes")
        if len(self.sealed) < TAG_BYTES:
            raise FormatError("sealed payload shorter than its tag")

    def to_bytes(self) -> bytes:
        return b"".join((self.nonce, struct.pack(">I", len(self.sealed) - TAG_BYTES),
                         self.sealed))

    @classmethod
    def from_bytes(cls, raw: bytes) -> "CipheredBlob":
        if len(raw) < NONCE_BYTES + 4 + TAG_BYTES:
            raise FormatError("blob too short")
        (ct_len,) = struct.unpack_from(">I", raw, NONCE_BYTES)
        if len(raw) - NONCE_BYTES - 4 != ct_len + TAG_BYTES:
            raise FormatError("blob length field inconsistent")
        return cls(raw[:NONCE_BYTES], raw[NONCE_BYTES + 4:])


class AeadBox:
    """Sealing/opening under one SecretKey with random nonces.

    The cipher is set up once, here; ``close()`` drops it and zeroizes the
    key. Once the key is zeroized, by this box or by another on the same
    key, ``seal`` and ``open`` raise ``ProtocolStateError``.
    """

    def __init__(self, key: SecretKey):
        self._key = key
        if self._key_zeroized():
            raise ProtocolStateError("secret key is zeroized")
        self._cipher: AESGCM | None = AESGCM(key._reveal())

    def _key_zeroized(self) -> bool:
        return self._key._reveal() == bytes(KEY_BYTES)

    def _live_cipher(self) -> AESGCM:
        # The cipher must not outlive its key, which another handle on the
        # same key may have zeroized.
        if self._cipher is None or self._key_zeroized():
            self._cipher = None
            raise ProtocolStateError("AEAD box is closed or its key is zeroized")
        return self._cipher

    def _next_nonce(self) -> bytes:
        return os.urandom(NONCE_BYTES)

    def seal(self, plaintext, aad: bytes = b"") -> CipheredBlob:
        """Encrypt ``plaintext`` straight into the blob's buffer, which
        nothing zero-fills first.

        ``plaintext`` is one bytes, bytearray or byte memoryview, or a list
        of C-contiguous buffers (numpy arrays too); a list is sealed as the
        concatenation of its parts' bytes, through one streamed
        AES-GCM context that writes each part into the blob in turn. So a
        plaintext held in pieces, such as a network's header and its
        callers' own weight arrays, is sealed without being joined into a
        buffer that would then have to be copied and wiped. The blob is the
        one that sealing the joined bytes would give. A single buffer keeps
        the one-shot ``encrypt_into``: setting up a streamed context costs
        about 10 µs more, which a short vector does not win back.
        """
        cipher = self._live_cipher()
        nonce = self._next_nonce()
        if isinstance(plaintext, list):
            parts = [memoryview(part).cast("B") for part in plaintext]
            sealed = empty_buffer(sum(map(len, parts)) + TAG_BYTES)
            stream = Cipher(algorithms.AES(self._key._reveal()), modes.GCM(nonce)).encryptor()
            stream.authenticate_additional_data(aad)
            offset = 0
            for part in parts:
                # update_into needs len(part) + 15 bytes of room: the tag's
                # 16 bytes at the end of the blob hold the slack
                offset += stream.update_into(part, sealed[offset:])
            stream.finalize()
            sealed[offset:] = stream.tag
        else:
            sealed = empty_buffer(len(plaintext) + TAG_BYTES)
            cipher.encrypt_into(nonce, plaintext, aad, sealed)
        return CipheredBlob(nonce, sealed.toreadonly())

    def open(self, blob: CipheredBlob, aad: bytes = b"") -> memoryview:
        """The plaintext, in a new writable buffer that the caller owns and
        must ``wipe`` once it is done with it.

        The buffer comes from ``empty_buffer``: the cipher writes every byte,
        so nothing is zero-filled first, and plaintext byte 4 sits on an
        8-byte boundary, so a decoded network's weight blocks are aligned
        views of it. A blob that fails authentication raises
        ``TamperError``, and the buffer is wiped first.
        """
        cipher = self._live_cipher()
        plain = empty_buffer(len(blob.sealed) - TAG_BYTES)
        try:
            cipher.decrypt_into(blob.nonce, blob.sealed, aad, plain)
        except InvalidTag as exc:
            wipe(plain)
            raise TamperError("AEAD authentication failed") from exc
        return plain

    def close(self):
        self._cipher = None
        self._key.zeroize()
