import hashlib
import itertools
import struct

import numpy as np
import pytest

from pufstack.errors import (AuthenticationError, FormatError,
                             ProtocolStateError, ReplayError)
from pufstack.protocols.auth import (MSG_DEVICE_RESPONSE, AuthMessage1,
                                     AuthMessage2, AuthRequest, DeviceSession,
                                     VerifierSession, _frame_fields, _mac,
                                     derive_next_challenge, enroll_secret)
from pufstack.puf import create_puf
from pufstack.xof import derive_rng

MEMORY = b"firmware-image"


def make_pair(noise_sigma=0.0, nonce_seed=b"\x02" * 32):
    puf = create_puf("photonic", 1, {"noise_sigma": noise_sigma})
    noise = derive_rng(puf.device_seed, "env-noise") if noise_sigma > 0 else None
    secret = enroll_secret(puf, noise_rng=noise)
    device = DeviceSession(puf, secret, memory_image=MEMORY,
                           nonce_rng=derive_rng(nonce_seed, "test-nonce"),
                           noise_rng=noise)
    verifier = VerifierSession(secret, 64,
                               golden_memory_hash=hashlib.sha256(MEMORY).digest())
    return device, verifier


def run_session(device, verifier):
    msg1 = device.respond(verifier.request())
    msg2 = verifier.check_device(AuthMessage1.from_bytes(msg1.to_bytes()))
    device.confirm(AuthMessage2.from_bytes(msg2.to_bytes()))
    return msg1


class TestGoldenVectors:
    # frozen outputs for the fixed device seed 1, enrollment noiseless,
    # nonce stream derive_rng(b'\x02'*32, "test-nonce"); the device bits
    # behind them are checked against the integer oracle in test_puf_models

    def test_challenge_derivation(self):
        # counter-mode SHA-256 oracle: SHA256(secret||00||label||00||ctr_be4)
        c = derive_next_challenge(bytes(range(16)), 64)
        assert c.hex() == "c8ce2f6452462624"

    def test_enrolled_secret(self):
        _, verifier = make_pair()
        assert verifier.secret.hex() == "6b7edb9e76a1bf4b8ff62ad57ff82dbf"

    def test_first_message_frozen(self):
        device, verifier = make_pair()
        msg1 = device.respond(verifier.request())
        wire = msg1.to_bytes()
        assert len(wire) == 103
        assert hashlib.sha256(wire).hexdigest() == (
            "d1cef5c87a0e4fc135ff092f494ac7d80a6dd4ef79852a4b5f7b0bdfeaab3805")
        assert msg1.masked.hex() == "c83c0f8c413d7d78421f0a49f2957eb1"

    def test_old_layout_with_clock_count_rejected(self):
        # the four-field layout (masked, mem_hash, clock count, nonce) that
        # earlier versions sent, correctly MAC'd, no longer parses
        device, verifier = make_pair()
        msg1 = device.respond(verifier.request())
        payload = _frame_fields(MSG_DEVICE_RESPONSE,
                                [msg1.masked, msg1.mem_hash,
                                 struct.pack(">Q", 1000), msg1.nonce])
        with pytest.raises(FormatError):
            AuthMessage1.from_bytes(payload + _mac(verifier.secret, payload))

    def test_rollover_secret_frozen(self):
        device, verifier = make_pair()
        run_session(device, verifier)
        assert device.secret == verifier.secret
        assert device.secret.hex() == "a342d412379cc233cde9209c8d6d530e"


class TestHonestSessions:
    def test_many_sessions_roll_forward(self):
        device, verifier = make_pair()
        seen = set()
        for i in range(25):
            run_session(device, verifier)
            assert device.counter == verifier.counter == i + 1
            assert device.secret == verifier.secret
            assert device.secret not in seen  # secrets never repeat
            seen.add(device.secret)

    def test_noisy_device_still_authenticates(self):
        device, verifier = make_pair(noise_sigma=0.02)
        for _ in range(10):
            run_session(device, verifier)
            assert device.secret == verifier.secret

    def test_nonces_are_fresh(self):
        device, verifier = make_pair()
        nonces = set()
        for _ in range(20):
            msg1 = run_session(device, verifier)
            assert msg1.nonce not in nonces
            nonces.add(msg1.nonce)

    def test_masking_is_involutive(self):
        device, verifier = make_pair()
        secret_before = device.secret
        msg1 = device.respond(verifier.request())
        unmasked = bytes(a ^ b for a, b in zip(msg1.masked, secret_before))
        device.confirm(verifier.check_device(msg1))
        assert device.secret == unmasked != secret_before


class TestPendingEpoch:
    def test_status_follows_the_pending_epoch(self):
        device, verifier = make_pair()
        assert device.status == "stable"
        msg2 = verifier.check_device(device.respond(verifier.request()))
        assert device.status == "pending_verifier"
        with pytest.raises(ProtocolStateError):
            device.respond(verifier.request())
        device.confirm(msg2)
        assert device.status == "stable"
        with pytest.raises(ProtocolStateError):
            device.confirm(msg2)

    def test_failed_confirm_keeps_the_old_secret(self):
        device, verifier = make_pair()
        secret_before = device.secret
        device.respond(verifier.request())
        with pytest.raises(AuthenticationError):
            device.confirm(AuthMessage2(b"\x00" * 32))
        assert device.status == "stable"
        assert device.secret == secret_before and device.counter == 0


class TestWireFormat:
    def test_message1_roundtrip(self):
        device, verifier = make_pair()
        msg1 = device.respond(verifier.request())
        assert AuthMessage1.from_bytes(msg1.to_bytes()) == msg1

    def test_message2_roundtrip(self):
        device, verifier = make_pair()
        msg1 = device.respond(verifier.request())
        msg2 = verifier.check_device(msg1)
        assert AuthMessage2.from_bytes(msg2.to_bytes()) == msg2

    def test_request_roundtrip(self):
        req = AuthRequest()
        assert req.to_bytes() == b"\x01"
        assert AuthRequest.from_bytes(req.to_bytes()) == req
        # a wrong type, and the old layout with a 4-byte session number
        for raw in (b"\x09", b"\x01\x00\x00\x00\x07"):
            with pytest.raises(FormatError):
                AuthRequest.from_bytes(raw)

    def test_truncation_rejected(self):
        device, verifier = make_pair()
        raw = device.respond(verifier.request()).to_bytes()
        for cut in (0, 4, 40, len(raw) - 1):
            with pytest.raises(FormatError):
                AuthMessage1.from_bytes(raw[:cut])
        with pytest.raises(FormatError):
            AuthMessage1.from_bytes(raw + b"\x00")


class TestAdversary:
    def test_any_bit_flip_rejected_and_state_unchanged(self):
        device, verifier = make_pair()
        msg1 = device.respond(verifier.request())
        raw = msg1.to_bytes()
        before = (verifier.secret, verifier.previous, verifier.counter)
        rng = np.random.default_rng(0)
        for _ in range(60):
            pos = int(rng.integers(0, len(raw) * 8))
            flipped = bytearray(raw)
            flipped[pos // 8] ^= 1 << (7 - pos % 8)
            with pytest.raises((AuthenticationError, FormatError)):
                verifier.check_device(AuthMessage1.from_bytes(bytes(flipped)))
            assert (verifier.secret, verifier.previous, verifier.counter) == before
        # the untouched original must still go through
        device.confirm(verifier.check_device(msg1))

    def test_replayed_message_rejected(self):
        device, verifier = make_pair()
        msg1 = device.respond(verifier.request())
        device.confirm(verifier.check_device(msg1))
        # same epoch key still held as "previous", but nonce was consumed
        with pytest.raises(ReplayError):
            verifier.check_device(msg1)

    def test_old_epoch_replay_rejected(self):
        device, verifier = make_pair()
        first = run_session(device, verifier)
        run_session(device, verifier)
        # two rollovers later the epoch key is gone entirely
        with pytest.raises(AuthenticationError):
            verifier.check_device(first)

    def test_wrong_memory_image_rejected(self):
        puf = create_puf("photonic", 1, {"noise_sigma": 0.0})
        secret = enroll_secret(puf)
        device = DeviceSession(puf, secret, memory_image=b"evil-firmware",
                               nonce_rng=derive_rng(b"\x03" * 32, "n"))
        verifier = VerifierSession(secret, 64,
                                   golden_memory_hash=hashlib.sha256(MEMORY).digest())
        msg1 = device.respond(verifier.request())
        with pytest.raises(AuthenticationError):
            verifier.check_device(msg1)

    def test_forged_confirmation_rejected(self):
        device, verifier = make_pair()
        device.respond(verifier.request())
        with pytest.raises(AuthenticationError):
            device.confirm(AuthMessage2(b"\x00" * 32))
        assert device.status == "stable"  # pending state dropped


class TestDesyncRecovery:
    def test_lost_confirmation_recovers(self):
        device, verifier = make_pair()
        # confirmation lost: verifier rolled, device did not
        msg1 = device.respond(verifier.request())
        verifier.check_device(msg1)
        device.abort()
        assert device.secret != verifier.secret
        # next session authenticates against the verifier's previous key
        run_session(device, verifier)
        assert device.secret == verifier.secret

    def test_repeated_losses_recover(self):
        device, verifier = make_pair()
        for _ in range(10):
            msg1 = device.respond(verifier.request())
            verifier.check_device(msg1)
            device.abort()
            run_session(device, verifier)
            assert device.secret == verifier.secret


class TestInterleavings:
    def test_exhaustive_out_of_order_schedules(self):
        # drive the pair with every action sequence of depth 4 built from
        # {respond, check latest msg1, check stale msg1, confirm latest msg2,
        # confirm stale msg2}; the only legal exceptions are the declared
        # ones, and afterwards an honest session must always succeed
        actions = ("respond", "check", "check_stale", "confirm", "confirm_stale")
        allowed = (AuthenticationError, ReplayError, ProtocolStateError)
        puf = create_puf("photonic", 1, {"noise_sigma": 0.0})
        secret = enroll_secret(puf)
        for schedule in itertools.product(actions, repeat=4):
            device = DeviceSession(puf, secret, memory_image=MEMORY,
                                   nonce_rng=derive_rng(b"\x04" * 32, "sched"))
            verifier = VerifierSession(
                secret, 64, golden_memory_hash=hashlib.sha256(MEMORY).digest())
            stale1 = run_session(device, verifier)
            stale2 = verifier.check_device(device.respond(verifier.request()))
            device.abort()
            latest1, latest2 = None, None
            for act in schedule:
                try:
                    if act == "respond":
                        latest1 = device.respond(verifier.request())
                    elif act == "check" and latest1 is not None:
                        latest2 = verifier.check_device(latest1)
                    elif act == "check_stale":
                        verifier.check_device(stale1)
                    elif act == "confirm" and latest2 is not None:
                        device.confirm(latest2)
                    elif act == "confirm_stale":
                        device.confirm(stale2)
                except allowed:
                    pass
            device.abort()
            run_session(device, verifier)
            assert device.secret == verifier.secret


def test_device_requires_nonce_rng():
    # a missing rng once failed only at the first respond()
    puf = create_puf("photonic", 1, {"noise_sigma": 0.0})
    with pytest.raises(TypeError, match="nonce_rng"):
        DeviceSession(puf, enroll_secret(puf))


def test_verifier_requires_golden_memory_hash():
    # without one the verifier once skipped the memory check
    with pytest.raises(TypeError, match="golden_memory_hash"):
        VerifierSession(b"\x00" * 16, 64)
