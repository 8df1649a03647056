"""Deterministic byte/bit expansion used everywhere randomness must be replayable.

The construction is counter-mode SHA-256: block i of the output stream is
``SHA256(seed || 0x00 || label || 0x00 || i_be32)``. Labels are ASCII and never
contain NUL, so the framing is injective. Every derived quantity in the
package (device parameters, noise streams, protocol challenges, shuffles)
flows from this expander so that a run is reproducible from its seeds alone.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ValidationError, require_int

_BLOCK = 32


def _check_label(label: str) -> bytes:
    raw = label.encode("ascii")
    if b"\x00" in raw:
        raise ValidationError("expander label must not contain NUL")
    return raw


def _block(seed: bytes, raw_label: bytes, counter: int) -> bytes:
    return hashlib.sha256(seed + b"\x00" + raw_label + b"\x00"
                          + counter.to_bytes(4, "big")).digest()


def expand(seed: bytes, label: str, n_bytes: int) -> bytes:
    """Derive ``n_bytes`` pseudo-random bytes from (seed, label)."""
    n_bytes = require_int(n_bytes, "byte count", 0)
    raw = _check_label(label)
    out = bytearray()
    counter = 0
    while len(out) < n_bytes:
        out += _block(seed, raw, counter)
        counter += 1
    return bytes(out[:n_bytes])


def expand_bits(seed: bytes, label: str, n_bits: int) -> np.ndarray:
    """Derive ``n_bits`` bits as a uint8 array, most-significant bit first."""
    n_bits = require_int(n_bits, "bit count", 0)
    return bytes_to_bits(expand(seed, label, (n_bits + 7) // 8), n_bits)


def seed_bytes(run_seed: int) -> bytes:
    """The expander seed of an integer run seed: its big-endian signed
    64-bit encoding, left-padded with zeros to 32 bytes."""
    run_seed = require_int(run_seed, "run seed")
    if not -2 ** 63 <= run_seed < 2 ** 63:
        raise ValidationError(f"run seed {run_seed} does not fit a signed 64-bit integer")
    return run_seed.to_bytes(8, "big", signed=True).rjust(32, b"\x00")


def derive_rng(seed: bytes, label: str) -> np.random.Generator:
    """A numpy Generator whose state is fully determined by (seed, label).
    PCG64 is named, so a change of numpy's default bit generator cannot move
    a stream; draws still depend on numpy's ``integers`` and ``normal``."""
    material = expand(seed, label, 16)
    return np.random.Generator(np.random.PCG64(int.from_bytes(material, "big")))


class XofStream:
    """Incremental byte stream over the counter-mode expander.

    Supports rejection-sampled bounded integers, which is what the
    documented Fisher-Yates shuffle below consumes.
    """

    def __init__(self, seed: bytes, label: str):
        self._seed = seed
        self._label = _check_label(label)
        self._counter = 0
        self._buf = b""

    def take(self, n: int) -> bytes:
        n = require_int(n, "byte count", 0)
        while len(self._buf) < n:
            self._buf += _block(self._seed, self._label, self._counter)
            self._counter += 1
        out, self._buf = self._buf[:n], self._buf[n:]
        return out

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound) via 4-byte rejection sampling, for
        an integer bound in [1, 2^32]: a larger one would leave no 4-byte
        value to accept."""
        bound = require_int(bound, "randbelow bound")
        span = 1 << 32
        if not 0 < bound <= span:
            raise ValidationError(f"randbelow bound must lie in [1, 2**32], got {bound}")
        limit = span - span % bound
        while True:
            v = int.from_bytes(self.take(4), "big")
            if v < limit:
                return v % bound


def seeded_permutation(seed: bytes, label: str, n: int) -> np.ndarray:
    """Fisher-Yates permutation of range(n) driven by the expander stream.

    Implemented by hand (not via numpy) so the output is pinned to this
    construction rather than to a library's internal shuffle.
    """
    n = require_int(n, "permutation length", 1)
    stream = XofStream(seed, label)
    perm = np.arange(n, dtype=np.int64)
    for i in range(n - 1, 0, -1):
        j = stream.randbelow(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def bytes_to_bits(raw: bytes, n_bits: int) -> np.ndarray:
    """The first ``n_bits`` bits of ``raw`` as a uint8 array, most-significant
    bit first."""
    n_bits = require_int(n_bits, "bit count", 0)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
    if len(bits) < n_bits:
        raise ValidationError("not enough bytes for requested bit count")
    return bits[:n_bits]
