import hashlib
from dataclasses import replace

import numpy as np
import pytest

from pufstack.errors import FormatError, ValidationError
from pufstack.protocols.attest import (AttestationReport, AttestationRequest,
                                       derive_walk, device_attest,
                                       honest_elapsed, memory_chunks,
                                       verifier_attest_check)
from pufstack.puf import Challenge, create_puf

MEMORY = bytes(range(256)) * 8  # 2 KiB image
CHALLENGE = Challenge(np.array([i % 2 for i in range(64)], dtype=np.uint8))


def make_puf(seed=1):
    return create_puf("photonic", seed, {"noise_sigma": 0.0})


def make_request(timestamp=42):
    return AttestationRequest(timestamp=timestamp, challenge=CHALLENGE)


class TestWalk:
    def test_single_chunk(self):
        assert derive_walk(b"\x01" * 16, 0, 1).tolist() == [0]

    def test_deterministic(self):
        a = derive_walk(b"\x05" * 16, 9, 16)
        b = derive_walk(b"\x05" * 16, 9, 16)
        assert np.array_equal(a, b)

    def test_frozen_permutation(self):
        # frozen from the Fisher-Yates stream over seed r1 || t_be8
        assert derive_walk(b"\xaa" * 16, 7, 8).tolist() == [7, 0, 2, 1, 5, 3, 6, 4]

    def test_depends_on_both_inputs(self):
        base = derive_walk(b"\x05" * 16, 9, 64).tolist()
        assert derive_walk(b"\x06" * 16, 9, 64).tolist() != base
        assert derive_walk(b"\x05" * 16, 10, 64).tolist() != base

    def test_walk_property_random_inputs(self):
        # every (seed, n) must yield a permutation covering all chunks
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 64))
            seed = rng.bytes(16)
            t = int(rng.integers(0, 2 ** 32))
            walk = derive_walk(seed, t, n)
            assert sorted(walk.tolist()) == list(range(n))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            derive_walk(b"\x00" * 16, 0, 0)


class TestChunking:
    def test_exact_division(self):
        chunks = memory_chunks(b"ab" * 8, 4)
        assert len(chunks) == 4
        assert all(len(c) == 4 for c in chunks)
        assert b"".join(chunks) == b"ab" * 8

    def test_zero_padding(self):
        chunks = memory_chunks(b"abcde", 4)
        assert chunks == [b"abcd", b"e\x00\x00\x00"]

    def test_validation(self):
        with pytest.raises(ValidationError):
            memory_chunks(b"", 4)
        with pytest.raises(ValidationError):
            memory_chunks(b"ab", 0)


class TestDeviceVerifier:
    def test_honest_report_frozen(self):
        report = device_attest(make_request(), MEMORY, make_puf(), chunk_size=512)
        assert report.final_hash.hex() == (
            "ab56a820efd33fa31659d23cf49c7e5084b75e582ce807909772c3594bea4cac")
        assert report.elapsed == 308

    def test_honest_accepted(self):
        puf = make_puf()
        req = make_request()
        report = device_attest(req, MEMORY, puf, chunk_size=512)
        budget = int(1.2 * honest_elapsed(4, 64))
        verdict = verifier_attest_check(req, report, MEMORY, puf, budget,
                                        chunk_size=512)
        assert verdict.accepted
        assert verdict.reason is None

    def test_agreement_exhaustive_small_images(self):
        # device and verifier recompute the same chain for every chunk count
        puf = make_puf(3)
        for n in range(1, 9):
            mem = bytes(range(n * 32))
            req = make_request(timestamp=n)
            report = device_attest(req, mem, puf, chunk_size=32)
            budget = int(1.2 * honest_elapsed(n, 64))
            assert verifier_attest_check(req, report, mem, puf, budget,
                                         chunk_size=32).accepted

    def test_every_byte_tamper_detected(self):
        puf = make_puf()
        req = make_request()
        budget = int(1.2 * honest_elapsed(4, 64))
        rng = np.random.default_rng(1)
        for _ in range(100):
            pos = int(rng.integers(0, len(MEMORY)))
            tampered = bytearray(MEMORY)
            tampered[pos] ^= 0xFF
            report = device_attest(req, bytes(tampered), puf, chunk_size=512)
            verdict = verifier_attest_check(req, report, MEMORY, puf, budget,
                                            chunk_size=512)
            assert not verdict.accepted
            assert verdict.reason == "HashMismatch"

    def test_chain_sensitive_to_every_link(self):
        # flipping chunk k changes the final hash regardless of where the
        # walk visits it, because each link feeds the next
        puf = make_puf()
        req = make_request()
        base = device_attest(req, MEMORY, puf, chunk_size=512).final_hash
        for k in range(4):
            tampered = bytearray(MEMORY)
            tampered[k * 512] ^= 0x01
            assert device_attest(req, bytes(tampered), puf,
                                 chunk_size=512).final_hash != base

    def test_slow_response_times_out(self):
        puf = make_puf()
        req = make_request()
        budget = int(1.2 * honest_elapsed(4, 64))
        report = device_attest(req, MEMORY, puf, chunk_size=512)
        report = replace(report, elapsed=round(1.5 * report.elapsed))
        verdict = verifier_attest_check(req, report, MEMORY, puf, budget,
                                        chunk_size=512)
        assert not verdict.accepted
        assert verdict.reason == "Timeout"

    def test_freshness_no_hash_collisions(self):
        # the timestamp reshuffles the walk, so with enough chunks (16! orders)
        # distinct timestamps must not repeat a final hash
        puf = make_puf()
        mem = bytes(range(256)) * 2
        hashes = set()
        for t in range(100):
            report = device_attest(AttestationRequest(t, CHALLENGE), mem, puf,
                                   chunk_size=32)
            assert report.final_hash not in hashes
            hashes.add(report.final_hash)

    def test_challenge_length_checked(self):
        short = Challenge(np.zeros(32, dtype=np.uint8))
        with pytest.raises(ValidationError):
            device_attest(AttestationRequest(1, short), MEMORY, make_puf())


class TestReportWire:
    def test_roundtrip(self):
        report = AttestationReport(hashlib.sha256(b"x").digest(), 308)
        raw = report.to_bytes()
        assert len(raw) == 41
        assert AttestationReport.from_bytes(raw) == report

    def test_malformed_rejected(self):
        report = AttestationReport(hashlib.sha256(b"x").digest(), 10)
        raw = report.to_bytes()
        # the old 49-byte layout echoed an 8-byte timestamp after the type
        old = raw[:1] + (42).to_bytes(8, "big") + raw[1:]
        for bad in (raw[:-1], b"\x09" + raw[1:], old):
            with pytest.raises(FormatError):
                AttestationReport.from_bytes(bad)

    def test_timestamp_range(self):
        with pytest.raises(ValidationError):
            AttestationRequest(-1, CHALLENGE)
        with pytest.raises(ValidationError):
            AttestationRequest(2 ** 64, CHALLENGE)


@pytest.mark.parametrize("timestamp", [1.5, 1.0, True, "1"])
def test_timestamp_must_be_an_integer(timestamp):
    # 1.5 used to fail later inside struct.pack, and True passed as 1
    with pytest.raises(ValidationError):
        AttestationRequest(timestamp, CHALLENGE)


def test_numpy_timestamp_matches_int():
    puf = make_puf()
    assert (device_attest(make_request(np.uint32(42)), MEMORY, puf)
            == device_attest(make_request(42), MEMORY, puf))


@pytest.mark.parametrize("chunk_size", [512.0, True, "512", 0])
def test_chunk_size_must_be_a_positive_integer(chunk_size):
    # 512.0 used to fail inside the slicing, and True read as 1-byte chunks
    puf, request = make_puf(), make_request()
    report = device_attest(request, MEMORY, puf, chunk_size=512)
    with pytest.raises(ValidationError, match="chunk size"):
        memory_chunks(MEMORY, chunk_size)
    with pytest.raises(ValidationError, match="chunk size"):
        device_attest(request, MEMORY, puf, chunk_size=chunk_size)
    with pytest.raises(ValidationError, match="chunk size"):
        verifier_attest_check(request, report, MEMORY, puf, 10 ** 6,
                              chunk_size=chunk_size)


@pytest.mark.parametrize("image", [MEMORY.decode("latin-1"), list(MEMORY), 7],
                         ids=["str", "list", "int"])
def test_memory_image_must_be_bytes_like(image):
    # a str image used to fail inside the zero padding
    puf, request = make_puf(), make_request()
    report = device_attest(request, MEMORY, puf, chunk_size=512)
    with pytest.raises(ValidationError, match="bytes-like"):
        memory_chunks(image, 512)
    with pytest.raises(ValidationError, match="bytes-like"):
        device_attest(request, image, puf, chunk_size=512)
    with pytest.raises(ValidationError, match="bytes-like"):
        verifier_attest_check(request, report, image, puf, 10 ** 6, chunk_size=512)


def test_bytes_like_images_attest_alike():
    puf, request = make_puf(), make_request()
    report = device_attest(request, MEMORY, puf, chunk_size=512)
    for image in (bytearray(MEMORY), memoryview(MEMORY),
                  np.frombuffer(MEMORY, dtype=np.uint8)):
        assert device_attest(request, image, puf, chunk_size=512) == report
        assert verifier_attest_check(request, report, image, puf, 10 ** 6,
                                     chunk_size=512).accepted


@pytest.mark.parametrize("args", [(-1, 64), (0, 64), (4, 0), (4.0, 64), (True, 64),
                                  (4, 64.0)])
def test_honest_elapsed_needs_positive_integer_counts(args):
    # honest_elapsed(-1, 64) used to return -77
    with pytest.raises(ValidationError):
        honest_elapsed(*args)


def test_honest_elapsed_model():
    # 64-bit challenge at 5 bits/unit -> 13 units; plus 64 hash units/chunk
    assert honest_elapsed(1, 64) == 77
    assert honest_elapsed(4, 64) == 308
    assert honest_elapsed(3, 32) == 3 * (64 + 7)
