"""Computations the benchmark checks the program against, made apart from it.

Each one follows a documented construction or a plain definition and shares
no code with the path it checks, except the public ``expand`` and
``evaluate`` that the attestation construction is defined over.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from pufstack.puf import Challenge
from pufstack.xof import expand


def _counter_stream(seed: bytes, label: bytes):
    """Bytes of SHA256(seed || 0 || label || 0 || i_be32) for i = 0, 1, ..."""
    counter = 0
    while True:
        yield from hashlib.sha256(seed + b"\x00" + label + b"\x00"
                                  + counter.to_bytes(4, "big")).digest()
        counter += 1


def walk(seed: bytes, label: str, n: int) -> list[int]:
    """Fisher-Yates over range(n), bounded draws by 4-byte rejection sampling."""
    stream = _counter_stream(seed, label.encode("ascii"))
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        bound = i + 1
        limit = (1 << 32) - (1 << 32) % bound
        while True:
            v = int.from_bytes(bytes(next(stream) for _ in range(4)), "big")
            if v < limit:
                break
        j = v % bound
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def attestation_hash(memory: bytes, chunk_size: int, timestamp: int,
                     challenge: Challenge, device) -> bytes:
    """h_n of the memory-walk attestation, from the ``protocols.attest``
    docstring: walk seeded by r_1 || t_be8, r_{i+1} the response to the
    expander-adapted r_i, h_i = SHA256(chunk || r_i || h_{i-1})."""
    length = len(challenge)
    chunks = [memory[k:k + chunk_size].ljust(chunk_size, b"\x00")
              for k in range(0, len(memory), chunk_size)]
    r = np.packbits(device.evaluate(challenge).bits).tobytes()
    order = walk(r + struct.pack(">Q", timestamp), "attestation-walk", len(chunks))
    h = b""
    for step, index in enumerate(order):
        if step:
            raw = expand(r, "attest-chain-challenge", (length + 7) // 8)
            bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:length]
            r = np.packbits(device.evaluate(Challenge(bits)).bits).tobytes()
        h = hashlib.sha256(chunks[index] + r + h).digest()
    return h


def uniqueness(golden: np.ndarray) -> float:
    """Mean pairwise fractional Hamming distance, one pair at a time."""
    d, m = golden.shape
    total, pairs = 0, 0
    for a in range(d):
        for b in range(a + 1, d):
            total += int(np.count_nonzero(golden[a] != golden[b]))
            pairs += 1
    return total / pairs / m


def forward(layers, x: np.ndarray) -> np.ndarray:
    """max(W @ x, 0) layer by layer."""
    for w in layers:
        x = np.maximum(w @ x, 0.0)
    return x
