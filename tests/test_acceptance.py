"""Acceptance gate: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary
lines; each test enforces its own runtime budget where one applies.
"""

import hashlib
import itertools
import time
from dataclasses import replace

import numpy as np

from pufstack.harness import harvest_crps, modeling_attack
from pufstack.keys.fuzzy import fe_generate, fe_reproduce
from pufstack.keys.netservice import SecureAccelerator, reference_forward
from pufstack.keys.fuzzy import SecretKey
from pufstack.metrics import (FilterBand, band_sweep, compute_metrics,
                              population_responses)
from pufstack.errors import AuthenticationError, FormatError, ReplayError
from pufstack.protocols.attest import (AttestationRequest, derive_walk,
                                       device_attest, honest_elapsed,
                                       verifier_attest_check)
from pufstack.protocols.auth import (AuthMessage1, DeviceSession,
                                     VerifierSession, enroll_secret)
from pufstack.puf import Challenge, create_puf
from pufstack.xof import derive_rng, expand, expand_bits

SEED = b"\x0a" * 32


def _shared_challenges(label, count, length=64):
    bits = expand_bits(SEED, label, count * length).reshape(count, length)
    return [Challenge(row) for row in bits]


def test_criterion_1_uniqueness():
    # 50 devices, 64 challenges x 128-bit responses, mean inter-device
    # fractional HD in [0.47, 0.53], under 60 s
    t0 = time.monotonic()
    pufs = [create_puf("photonic", expand(SEED, f"c1-dev-{i}", 32))
            for i in range(50)]
    chals = _shared_challenges("c1-challenges", 64)
    golden, _, _ = population_responses(pufs, chals)
    report = compute_metrics(golden)
    elapsed = time.monotonic() - t0
    assert 0.47 <= report.uniqueness <= 0.53
    assert elapsed < 60.0
    print(f"\ncriterion 1 uniqueness: PASS "
          f"(mean inter-device HD {report.uniqueness:.4f}, {elapsed:.1f}s)")


def test_criterion_2_reliability_and_filtering():
    # raw BER in [0.02, 0.08]; some band in the default sweep reaches
    # reliability >= 0.99 with retention >= 0.30 and entropy >= 0.9; < 2 min
    t0 = time.monotonic()
    pufs = [create_puf("photonic", expand(SEED, f"c2-dev-{i}", 32))
            for i in range(20)]
    chals = _shared_challenges("c2-challenges", 32)
    noise_rng = derive_rng(SEED, "c2-noise")
    golden, margins, reevals = population_responses(pufs, chals, 3, noise_rng)
    raw_ber = float(np.mean(reevals != golden[None]))
    assert 0.02 <= raw_ber <= 0.08

    grid = [FilterBand(d, float("inf")) for d in
            (0.0, 0.01, 0.02, 0.03, 0.04, 0.05)] \
        + [FilterBand(0.05, hi) for hi in (0.6, 0.4, 0.3)]
    rows = band_sweep(golden, margins, reevals, grid)
    winners = [r for r in rows
               if r.reliability is not None and r.reliability >= 0.99
               and r.retention >= 0.30
               and r.mean_alias_entropy is not None
               and r.mean_alias_entropy >= 0.9]
    elapsed = time.monotonic() - t0
    assert winners
    assert elapsed < 120.0
    best = max(winners, key=lambda r: r.retention)
    print(f"\ncriterion 2 reliability/filtering: PASS "
          f"(raw BER {raw_ber:.3f}; band [{best.band.delta_min}, "
          f"{best.band.delta_max}] reliability {best.reliability:.4f}, "
          f"retention {best.retention:.2f}, entropy "
          f"{best.mean_alias_entropy:.3f}; {elapsed:.1f}s)")


def test_criterion_3_fuzzy_extractor_exactness():
    # exhaustive <=2-flip patterns on a sampled block all succeed; all 3-flip
    # single-block patterns return detected failure; < 10 s
    t0 = time.monotonic()
    response = expand_bits(SEED, "c3-response", 640)
    key, helper = fe_generate(response, expand(SEED, "c3-randomness", 32))
    block = 31
    base = block * 5
    ok = 0
    patterns = [()] + list(itertools.combinations(range(5), 1)) \
        + list(itertools.combinations(range(5), 2))
    for pat in patterns:
        noisy = response.copy()
        for off in pat:
            noisy[base + off] ^= 1
        if fe_reproduce(noisy, helper) == key:
            ok += 1
    assert ok == len(patterns)
    detected = 0
    triples = list(itertools.combinations(range(5), 3))
    for pat in triples:
        noisy = response.copy()
        for off in pat:
            noisy[base + off] ^= 1
        if fe_reproduce(noisy, helper) is None:
            detected += 1
    elapsed = time.monotonic() - t0
    assert detected == len(triples)
    assert elapsed < 10.0
    print(f"\ncriterion 3 fuzzy extractor: PASS "
          f"({ok}/{len(patterns)} corrected, {detected}/{len(triples)} "
          f"detected failures; {elapsed:.1f}s)")


def _auth_pair(noise=0.02, tag="c4"):
    puf = create_puf("photonic", expand(SEED, tag + "-dev", 32),
                     {"noise_sigma": noise})
    noise_rng = derive_rng(SEED, tag + "-noise")
    secret = enroll_secret(puf, noise_rng=noise_rng)
    device = DeviceSession(puf, secret,
                           nonce_rng=derive_rng(SEED, tag + "-nonce"),
                           noise_rng=noise_rng)
    return device, VerifierSession(secret, 64,
                                   golden_memory_hash=hashlib.sha256(b"").digest())


def test_criterion_4_mutual_authentication():
    # 1000 honest sessions with rollover; 1e5 replay/splice trials with zero
    # successes; 100/100 scripted desync recoveries
    device, verifier = _auth_pair()
    harvested = []
    for i in range(1000):
        msg1 = device.respond(verifier.request())
        harvested.append(msg1.to_bytes())
        device.confirm(verifier.check_device(msg1))
        assert device.secret == verifier.secret
        assert device.counter == verifier.counter == i + 1

    adv_rng = derive_rng(SEED, "c4-adversary")
    successes = 0
    for trial in range(100_000):
        a = harvested[int(adv_rng.integers(0, len(harvested)))]
        if trial % 2 == 0:
            forged = a  # straight replay
        else:
            b = harvested[int(adv_rng.integers(0, len(harvested)))]
            cut = int(adv_rng.integers(1, len(a) - 32))
            forged = a[:cut] + b[cut:]  # splice of two sessions
        try:
            verifier.check_device(AuthMessage1.from_bytes(forged))
        except (AuthenticationError, ReplayError, FormatError):
            pass
        else:
            successes += 1
    assert successes == 0

    resyncs = 0
    for _ in range(100):
        # msg2 lost: verifier rolls over, device does not, then one retry
        verifier.check_device(device.respond(verifier.request()))
        device.abort()
        msg1 = device.respond(verifier.request())
        device.confirm(verifier.check_device(msg1))
        if device.secret == verifier.secret:
            resyncs += 1
    assert resyncs == 100
    print("\ncriterion 4 mutual authentication: PASS "
          f"(1000/1000 honest, {successes}/100000 adversary successes, "
          f"{resyncs}/100 desync recoveries)")


def test_criterion_5_attestation():
    # 100/100 tamper -> HashMismatch, 100/100 honest accepts at 1.2x budget,
    # 100/100 relocation (1.5x) -> Timeout, walk property on 1e3 random cases
    puf = create_puf("photonic", expand(SEED, "c5-dev", 32),
                     {"noise_sigma": 0.0})
    memory = expand(SEED, "c5-memory", 8192)
    chunk = 1024
    n_chunks = 8
    budget = int(1.2 * honest_elapsed(n_chunks, 64))
    rng = derive_rng(SEED, "c5-adversary")

    tamper_hits = honest_hits = timeout_hits = 0
    for t in range(100):
        req = AttestationRequest(t + 1, Challenge(rng.integers(0, 2, 64, dtype=np.uint8)))

        pos = int(rng.integers(0, len(memory)))
        tampered = bytearray(memory)
        tampered[pos] ^= 0xFF
        verdict = verifier_attest_check(
            req, device_attest(req, bytes(tampered), puf, chunk),
            memory, puf, budget, chunk)
        tamper_hits += (not verdict.accepted and verdict.reason == "HashMismatch")

        honest = device_attest(req, memory, puf, chunk)
        verdict = verifier_attest_check(req, honest, memory, puf, budget, chunk)
        honest_hits += verdict.accepted

        verdict = verifier_attest_check(
            req, replace(honest, elapsed=round(1.5 * honest.elapsed)),
            memory, puf, budget, chunk)
        timeout_hits += (not verdict.accepted and verdict.reason == "Timeout")

    assert tamper_hits == 100
    assert honest_hits == 100
    assert timeout_hits == 100

    walk_ok = 0
    for _ in range(1000):
        n = int(rng.integers(1, 128))
        walk = derive_walk(rng.bytes(16), int(rng.integers(0, 2 ** 48)), n)
        walk_ok += (sorted(walk.tolist()) == list(range(n)))
    assert walk_ok == 1000
    print("\ncriterion 5 attestation: PASS "
          f"({tamper_hits}/100 HashMismatch, {honest_hits}/100 honest, "
          f"{timeout_hits}/100 Timeout, {walk_ok}/1000 walk permutations)")


def test_criterion_6_modeling_attack_ordering():
    # linear-threshold attack: arbiter accuracy - photonic accuracy >= 0.25
    # and photonic accuracy <= 0.60, with 5000 train / 1000 test; < 5 min
    t0 = time.monotonic()
    acc = {}
    for kind in ("arbiter", "photonic"):
        puf = create_puf(kind, expand(SEED, f"c6-{kind}", 32))
        crps = harvest_crps(puf, 6000,
                            challenge_rng=derive_rng(SEED, f"c6-crps-{kind}"))
        acc[kind] = modeling_attack(crps[:5000], crps[5000:]).test_accuracy
    elapsed = time.monotonic() - t0
    assert acc["arbiter"] - acc["photonic"] >= 0.25
    assert acc["photonic"] <= 0.60
    assert elapsed < 300.0
    print("\ncriterion 6 modeling attack: PASS "
          f"(arbiter {acc['arbiter']:.3f}, photonic {acc['photonic']:.3f}, "
          f"gap {acc['arbiter'] - acc['photonic']:.3f}; {elapsed:.1f}s)")


def test_criterion_7_oracle_equivalence():
    # metric computations match a brute-force loop oracle on every matrix up
    # to 6x16; encrypted network execution matches the plaintext evaluator
    # bit-exactly on 100 random networks/inputs
    rng = np.random.default_rng(777)
    cases = [np.array([[0, 1], [1, 0]], dtype=np.uint8),
             np.array([[1, 1], [1, 1], [0, 0]], dtype=np.uint8)]
    for d in range(2, 7):
        for m in (2, 5, 9, 16):
            cases.append(rng.integers(0, 2, size=(d, m), dtype=np.uint8))
    checked = 0
    for mat in cases:
        rep = compute_metrics(mat)
        d, m = mat.shape
        uniformity = sum(int(b) for row in mat for b in row) / (d * m)
        hds = [sum(int(a != b) for a, b in zip(mat[i], mat[j])) / m
               for i, j in itertools.combinations(range(d), 2)]
        ents = []
        for col in range(m):
            p = sum(int(mat[i][col]) for i in range(d)) / d
            ents.append(0.0 if p in (0.0, 1.0)
                        else -p * np.log2(p) - (1 - p) * np.log2(1 - p))
        assert abs(rep.uniformity - uniformity) < 1e-12
        assert abs(rep.uniqueness - float(np.mean(hds))) < 1e-12
        assert np.allclose(rep.bit_alias_entropy, ents, atol=1e-12)
        checked += 1

    matched = 0
    for i in range(100):
        accel = SecureAccelerator(SecretKey(rng.bytes(16)))
        depth = int(rng.integers(1, 4))
        dims = [int(rng.integers(1, 9)) for _ in range(depth + 1)]
        layers = [rng.normal(size=(dims[k + 1], dims[k])) for k in range(depth)]
        accel.load_network(accel.seal_network(layers))
        x = rng.normal(size=dims[0])
        out = accel.open_output(accel.execute_network(accel.seal_input(x)))
        matched += np.array_equal(out, reference_forward(layers, x))
        accel.close()
    assert matched == 100
    print("\ncriterion 7 oracle equivalence: PASS "
          f"({checked} metric matrices exact, {matched}/100 encrypted "
          f"executions bit-exact)")
