"""Remote software attestation via a PUF-seeded memory walk and hash chain.

The verifier sends (timestamp, challenge). The device derives a walk over
all memory chunks from KDF(r_1 || t), then folds every chunk into a hash
chain where each link also binds a fresh chained PUF response: r_{i+1} is
the response to the previous response (width-adapted), so the final hash
depends on every chunk and every response. It depends on the timestamp only
through the walk order: an image of k chunks has at most k! final hashes
over all timestamps, and an image of identical chunks has one. The
verifier, holding the golden memory and a noiseless model of the device,
recomputes h_n and enforces a time budget that a memory-relocating
adversary cannot meet. The report does not echo the timestamp: the
verifier recomputes h_n from the request it holds.

Report wire format: type(1) || h_n(32) || elapsed_be8.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import FormatError, ValidationError, require_int
from ..puf import PufInstance
from ..xof import bytes_to_bits, expand, seeded_permutation

MSG_ATTESTATION_REPORT = 0x04

# simulated latency model, integer time units (ns-scale)
PUF_BITRATE_BITS_PER_UNIT = 5   # "at least 5 Gb/s" -> 5 bits per ns
HASH_UNITS_PER_CHUNK = 64
DEFAULT_CHUNK_BYTES = 4096


@dataclass(frozen=True)
class AttestationRequest:
    timestamp: int
    challenge: np.ndarray   # one challenge, an (L,) bit row or a Challenge

    def __post_init__(self):
        if not 0 <= require_int(self.timestamp, "timestamp") < 2 ** 64:
            raise ValidationError("timestamp must fit 64 bits")


@dataclass(frozen=True)
class AttestationReport:
    final_hash: bytes
    elapsed: int

    def to_bytes(self) -> bytes:
        return bytes([MSG_ATTESTATION_REPORT]) + self.final_hash \
            + struct.pack(">Q", self.elapsed)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "AttestationReport":
        if len(raw) != 1 + 32 + 8 or raw[0] != MSG_ATTESTATION_REPORT:
            raise FormatError("malformed attestation report")
        return cls(raw[1:33], struct.unpack(">Q", raw[33:])[0])


def memory_chunks(memory: bytes, chunk_size: int = DEFAULT_CHUNK_BYTES) -> list[bytes]:
    """Partition the bytes-like image into fixed chunks, zero-padding the
    last one."""
    if not isinstance(memory, bytes):
        try:
            memory = bytes(memoryview(memory))
        except TypeError:
            raise ValidationError("memory image must be bytes-like, not "
                                  + type(memory).__name__) from None
    if len(memory) == 0:
        raise ValidationError("memory image must be non-empty")
    chunk_size = require_int(chunk_size, "chunk size", 1)
    n = -(-len(memory) // chunk_size)
    chunks = []
    for i in range(n):
        c = memory[i * chunk_size:(i + 1) * chunk_size]
        chunks.append(c.ljust(chunk_size, b"\x00"))
    return chunks


def derive_walk(first_response: bytes, timestamp: int, n_chunks: int) -> np.ndarray:
    """Deterministic permutation of chunk indices from (r_1, t).

    The seed concatenates the response bytes and the big-endian timestamp
    (collision-free framing), then drives the documented Fisher-Yates
    shuffle.
    """
    if n_chunks < 1:
        raise ValidationError("walk needs at least one chunk")
    seed = first_response + struct.pack(">Q", timestamp)
    return seeded_permutation(seed, "attestation-walk", n_chunks)


def _response_to_challenge(response: bytes, length: int) -> np.ndarray:
    """Width adaptation: the (L,) row truncating the expanded response."""
    return bytes_to_bits(
        expand(response, "attest-chain-challenge", (length + 7) // 8), length)


def _final_hash(request: AttestationRequest, chunks: list[bytes],
                puf: PufInstance) -> bytes:
    """h_n over the memory ``chunks``: the walk from r_1 and the timestamp,
    each link SHA-256(chunk || r_i || h_{i-1}) with r_{i+1} the response to
    r_i. The device and the verifier both compute exactly this."""
    if len(request.challenge) != puf.challenge_len:
        raise ValidationError("request challenge length does not match the PUF")
    r = puf.evaluate(request.challenge).to_bytes()
    h = b""
    for step, idx in enumerate(derive_walk(r, request.timestamp, len(chunks))):
        if step > 0:
            r = puf.evaluate(_response_to_challenge(r, puf.challenge_len)).to_bytes()
        h = hashlib.sha256(chunks[int(idx)] + r + h).digest()
    return h


def honest_elapsed(n_chunks: int, challenge_len: int) -> int:
    """Modelled time of an honest walk over ``n_chunks`` chunks (both
    counts >= 1)."""
    length = require_int(challenge_len, "challenge length", 1)
    puf_units = -(-length // PUF_BITRATE_BITS_PER_UNIT)
    return require_int(n_chunks, "chunk count", 1) * (HASH_UNITS_PER_CHUNK + puf_units)


def device_attest(request: AttestationRequest, memory: bytes, puf: PufInstance,
                  chunk_size: int = DEFAULT_CHUNK_BYTES) -> AttestationReport:
    """Run the attestation walk on an honest device, which reports the
    modelled time ``honest_elapsed`` of its walk."""
    chunks = memory_chunks(memory, chunk_size)
    return AttestationReport(_final_hash(request, chunks, puf),
                             honest_elapsed(len(chunks), puf.challenge_len))


@dataclass(frozen=True)
class AttestationVerdict:
    accepted: bool
    reason: Optional[str] = None  # "HashMismatch" or "Timeout" when rejected


def verifier_attest_check(request: AttestationRequest, report: AttestationReport,
                          golden_memory: bytes, puf_model: PufInstance,
                          time_budget: int,
                          chunk_size: int = DEFAULT_CHUNK_BYTES) -> AttestationVerdict:
    """Recompute h_n from the golden image and the PUF model; accept iff the
    hash matches and the reported time is within budget."""
    chunks = memory_chunks(golden_memory, chunk_size)
    if report.final_hash != _final_hash(request, chunks, puf_model):
        return AttestationVerdict(False, "HashMismatch")
    if report.elapsed > time_budget:
        return AttestationVerdict(False, "Timeout")
    return AttestationVerdict(True)
