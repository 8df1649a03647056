"""Mutual authentication with a single rolling CRP as the shared secret.

Session i: the device derives the next challenge from the current secret
r_i with the deterministic expander, reads the fresh response r_{i+1} from
its PUF, and sends it masked (XOR r_i) together with a memory hash and a
fresh nonce, all MAC'd under r_i. The verifier authenticates, checks the
memory hash against that of the expected image, unmasks r_{i+1}, and
proves knowledge of it by MACing the derived challenge back. Both parties
then roll over to r_{i+1}; the verifier keeps the previous secret for one
epoch so a lost confirmation cannot strand the device.

The memory hash rejects a device whose memory changed under firmware that
hashes it honestly, such as after a fault or an unapproved update. It does
not reject lying firmware: the hash is the same in every session, so a
device that replays the golden hash passes with any memory. Attestation is
the check against a device that may lie.

Wire format: the request is type(1); both replies are type(1) ||
length-prefixed fields in declaration order (2-byte lengths) ||
HMAC-SHA256(32). No message carries a session number: each MAC key belongs
to one epoch, so each party's ``counter`` stays local.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import (AuthenticationError, FormatError, ProtocolStateError,
                      ReplayError)
from ..puf import PufInstance, stabilized_response
from ..xof import bytes_to_bits, expand

MSG_AUTH_REQUEST = 0x01
MSG_DEVICE_RESPONSE = 0x02
MSG_VERIFIER_CONFIRM = 0x03

MAC_BYTES = 32
NONCE_BYTES = 16
CHALLENGE_LABEL = "auth-next-challenge"
ENROLL_LABEL = "provisioning"


def derive_next_challenge(secret: bytes, length: int) -> bytes:
    """The RNG known to both parties: expander keyed by the current secret.
    Its first ``length`` bits, MSB first, are the next challenge."""
    return expand(secret, CHALLENGE_LABEL, (length + 7) // 8)


def _mac(key: bytes, payload: bytes) -> bytes:
    return hmac.new(key, payload, hashlib.sha256).digest()


def _frame_fields(msg_type: int, fields: list[bytes]) -> bytes:
    return bytes([msg_type]) + b"".join(struct.pack(">H", len(f)) + f
                                        for f in fields)


def _parse_fields(raw: bytes, expected_type: int, n_fields: int):
    if len(raw) < 1 + MAC_BYTES:
        raise FormatError("message too short")
    if raw[0] != expected_type:
        raise FormatError(f"unexpected message type {raw[0]:#x}")
    body, mac = raw[1:-MAC_BYTES], raw[-MAC_BYTES:]
    fields = []
    offset = 0
    for _ in range(n_fields):
        if offset + 2 > len(body):
            raise FormatError("truncated field block")
        (n,) = struct.unpack_from(">H", body, offset)
        offset += 2
        fields.append(body[offset:offset + n])
        if len(fields[-1]) != n:
            raise FormatError("truncated field")
        offset += n
    if offset != len(body):
        raise FormatError("trailing bytes in field block")
    return fields, mac


@dataclass(frozen=True)
class AuthRequest:
    def to_bytes(self) -> bytes:
        return bytes([MSG_AUTH_REQUEST])

    @classmethod
    def from_bytes(cls, raw: bytes) -> "AuthRequest":
        if raw != bytes([MSG_AUTH_REQUEST]):
            raise FormatError("malformed auth request")
        return cls()


@dataclass(frozen=True)
class AuthMessage1:
    masked: bytes       # r_{i+1} XOR r_i
    mem_hash: bytes     # H: SHA-256 of the device memory image
    nonce: bytes        # N: freshness
    mac: bytes

    def signed_payload(self) -> bytes:
        return _frame_fields(MSG_DEVICE_RESPONSE,
                             [self.masked, self.mem_hash, self.nonce])

    def to_bytes(self) -> bytes:
        return self.signed_payload() + self.mac

    @classmethod
    def from_bytes(cls, raw: bytes) -> "AuthMessage1":
        fields, mac = _parse_fields(raw, MSG_DEVICE_RESPONSE, 3)
        if len(fields[1]) != 32:
            raise FormatError("auth message mem_hash must be 32 bytes")
        return cls(*fields, mac)


@dataclass(frozen=True)
class AuthMessage2:
    mac: bytes  # MAC(c_{i+1}, r_{i+1})

    def to_bytes(self) -> bytes:
        return _frame_fields(MSG_VERIFIER_CONFIRM, []) + self.mac

    @classmethod
    def from_bytes(cls, raw: bytes) -> "AuthMessage2":
        _, mac = _parse_fields(raw, MSG_VERIFIER_CONFIRM, 0)
        return cls(mac)


def _confirm_payload(challenge: bytes) -> bytes:
    return _frame_fields(MSG_VERIFIER_CONFIRM, [challenge])


class DeviceSession:
    """Device-side state machine. Single-owner, strictly sequential.

    Between ``respond`` and ``confirm`` the session holds one pending epoch,
    (r_{i+1}, c_{i+1}); ``status`` says whether it does.
    """

    def __init__(self, puf: PufInstance, initial_secret: bytes,
                 memory_image: bytes = b"", *,
                 nonce_rng: np.random.Generator,
                 noise_rng: Optional[np.random.Generator] = None,
                 stabilize_votes: int = 9):
        self.puf = puf
        self.secret = initial_secret
        self.memory_image = memory_image
        self.counter = 0
        self._nonce_rng = nonce_rng
        self._noise_rng = noise_rng
        self._votes = stabilize_votes
        self._pending: Optional[tuple[bytes, bytes]] = None

    @property
    def status(self) -> str:
        return "stable" if self._pending is None else "pending_verifier"

    def respond(self, request: AuthRequest) -> AuthMessage1:
        if self._pending is not None:
            raise ProtocolStateError("respond() requires a stable session")
        length = self.puf.challenge_len
        challenge = derive_next_challenge(self.secret, length)
        fresh = stabilized_response(self.puf, bytes_to_bits(challenge, length),
                                    self._noise_rng, self._votes).to_bytes()
        fields = [bytes(a ^ b for a, b in zip(fresh, self.secret)),
                  hashlib.sha256(self.memory_image).digest(),
                  self._nonce_rng.bytes(NONCE_BYTES)]
        mac = _mac(self.secret, _frame_fields(MSG_DEVICE_RESPONSE, fields))
        self._pending = (fresh, challenge)
        return AuthMessage1(*fields, mac)

    def confirm(self, msg2: AuthMessage2) -> None:
        if self._pending is None:
            raise ProtocolStateError("confirm() requires a pending session")
        fresh, challenge = self._pending
        self._pending = None    # a failed check leaves the old secret, as abort() does
        if not hmac.compare_digest(_mac(fresh, _confirm_payload(challenge)), msg2.mac):
            raise AuthenticationError("verifier confirmation MAC mismatch")
        self.secret = fresh
        self.counter += 1

    def abort(self) -> None:
        """Drop any pending state, e.g. after a lost confirmation."""
        self._pending = None


class VerifierSession:
    """Verifier-side state machine with one-epoch desync recovery.

    Storage is constant in the number of sessions: the current secret, at
    most one previous secret, and the nonce windows for those two epochs.
    A device message is accepted only if its memory hash equals
    ``golden_memory_hash``, the SHA-256 of the expected memory image.
    """

    def __init__(self, initial_secret: bytes, challenge_len: int = 64, *,
                 golden_memory_hash: bytes):
        self.secret = initial_secret
        self.previous: Optional[bytes] = None
        self.challenge_len = challenge_len
        self.golden_memory_hash = golden_memory_hash
        self.counter = 0
        self._seen_nonces: dict[bytes, set[bytes]] = {initial_secret: set()}

    def request(self) -> AuthRequest:
        return AuthRequest()

    def _match_epoch(self, msg1: AuthMessage1) -> Optional[bytes]:
        payload = msg1.signed_payload()
        for key in (self.secret, self.previous):
            if key is not None and hmac.compare_digest(_mac(key, payload), msg1.mac):
                return key
        return None

    def check_device(self, msg1: AuthMessage1) -> AuthMessage2:
        key = self._match_epoch(msg1)
        if key is None:
            raise AuthenticationError("device MAC mismatch")
        window = self._seen_nonces.setdefault(key, set())
        if msg1.nonce in window:
            raise ReplayError("nonce already seen in this epoch")
        if msg1.mem_hash != self.golden_memory_hash:
            raise AuthenticationError("memory hash does not match golden image")
        window.add(msg1.nonce)

        fresh = bytes(a ^ b for a, b in zip(msg1.masked, key))
        challenge = derive_next_challenge(key, self.challenge_len)
        mac2 = _mac(fresh, _confirm_payload(challenge))

        # commit: matched epoch becomes "previous", fresh secret current
        self.previous = key
        self.secret = fresh
        self.counter += 1
        self._seen_nonces = {k: v for k, v in self._seen_nonces.items()
                             if k in (self.secret, self.previous)}
        self._seen_nonces.setdefault(self.secret, set())
        return AuthMessage2(mac2)


def enroll_secret(puf: PufInstance,
                  noise_rng: Optional[np.random.Generator] = None,
                  votes: int = 9) -> bytes:
    """Manufacturing-time shared secret: response to a fixed enrollment
    challenge derived from the device seed."""
    challenge = puf.random_challenges(ENROLL_LABEL, 1)[0]
    return stabilized_response(puf, challenge, noise_rng, votes).to_bytes()
