"""The four benchmark workloads.

Each workload builds all of its state from the seed in ``setup``, stages the
inputs of operation i in ``prepare`` (untimed), runs the operation in ``op``
(timed) and checks its outputs in ``check`` (untimed). ``check`` returns
None when the outputs are right and a reason otherwise. Operations come in
rounds of ``round`` ops; the periodic adversarial or failing case is the
last op of a round, so every round does the same work.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from pufstack import cli, harness, keys, metrics, puf
from pufstack.errors import AuthenticationError, PufStackError, TamperError
from pufstack.protocols import attest, auth

import reference

CHALLENGE_LEN = 64      # device default L
POOL = 64               # staged inputs, reused cyclically


def _rng(seed: int, name: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big")
    return np.random.default_rng([seed, tag])


def _child(rng: np.random.Generator) -> np.random.Generator:
    return np.random.default_rng(int(rng.integers(1 << 63)))


class AuthRolling:
    """One rolling mutual-authentication session through a harness Channel
    on a noisy device; the last session of each round is followed by a
    replay of a harvested message 1."""

    name = "auth-rolling"
    round = 8
    root = "protocols.auth.session"
    reference = "compute"
    NOISE_SIGMA = 0.02
    VOTES = 9
    MEMORY_BYTES = 1024

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        rng = _rng(self.seed, self.name)
        self.puf = puf.create_puf("photonic", rng.bytes(32),
                                  {"noise_sigma": self.NOISE_SIGMA})
        noise = _child(rng)
        secret = auth.enroll_secret(self.puf, noise_rng=noise, votes=self.VOTES)
        memory = rng.bytes(self.MEMORY_BYTES)
        self.device = auth.DeviceSession(self.puf, secret, memory_image=memory,
                                         nonce_rng=_child(rng), noise_rng=noise,
                                         stabilize_votes=self.VOTES)
        self.verifier = auth.VerifierSession(
            secret, self.puf.challenge_len,
            golden_memory_hash=hashlib.sha256(memory).digest())
        self.channel = harness.Channel(harness.AdversaryPolicy(mode="replay"))
        self.pick = _child(rng)

    def prepare(self, i: int):
        if i % self.round != self.round - 1:
            return None
        harvested = [p for p in self.channel.harvested
                     if p[0] == auth.MSG_DEVICE_RESPONSE]
        return harvested[int(self.pick.integers(len(harvested)))]

    def op(self, i: int, replay):
        channel, device, verifier = self.channel, self.device, self.verifier
        try:
            deliv = channel.transmit(verifier.request().to_bytes(), "verifier")
            msg1 = device.respond(auth.AuthRequest.from_bytes(deliv[0].payload))
            deliv = channel.transmit(msg1.to_bytes(), "device")
            msg2 = verifier.check_device(auth.AuthMessage1.from_bytes(deliv[0].payload))
            deliv = channel.transmit(msg2.to_bytes(), "verifier")
            device.confirm(auth.AuthMessage2.from_bytes(deliv[0].payload))
        except PufStackError as exc:
            device.abort()
            return f"honest session rejected: {exc!r}", None
        if replay is None:
            return None, None
        injected = channel.inject(replay)
        try:
            verifier.check_device(auth.AuthMessage1.from_bytes(injected.payload))
        except AuthenticationError:       # ReplayError is a subclass
            return None, "rejected"
        return None, "accepted"

    def check(self, i: int, replay, result):
        error, replay_outcome = result
        if error:
            return error
        if replay is not None and replay_outcome != "rejected":
            return "replayed message 1 was accepted"
        if self.device.secret != self.verifier.secret:
            return "device and verifier secrets differ after the session"
        if self.device.counter != self.verifier.counter:
            return "device and verifier session counters differ"
        return None


class AttestWalk:
    """device_attest plus verifier_attest_check on a noiseless device over a
    memory image of many chunks; the last op of each round attests a
    tampered image."""

    name = "attest-walk"
    round = 8
    root = "bench.op"
    reference = "compute"
    CHUNKS = 32
    CHUNK_BYTES = 512
    BUDGET_FACTOR = 1.2

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        rng = _rng(self.seed, self.name)
        self.puf = puf.create_puf("photonic", rng.bytes(32), {"noise_sigma": 0.0})
        self.memory = rng.bytes(self.CHUNKS * self.CHUNK_BYTES)
        self.challenges = [puf.Challenge(row) for row in
                           rng.integers(0, 2, size=(POOL, CHALLENGE_LEN), dtype=np.uint8)]
        self.tamper_at = rng.integers(0, len(self.memory), size=POOL)
        self.budget = int(self.BUDGET_FACTOR
                          * attest.honest_elapsed(self.CHUNKS, CHALLENGE_LEN))

    def prepare(self, i: int):
        request = attest.AttestationRequest(timestamp=i + 1,
                                            challenge=self.challenges[i % POOL])
        tampered = i % self.round == self.round - 1
        memory = self.memory
        if tampered:
            image = bytearray(memory)
            image[int(self.tamper_at[i % POOL])] ^= 0xFF
            memory = bytes(image)
        return request, memory, tampered

    def op(self, i: int, staged):
        request, memory, _ = staged
        report = attest.device_attest(request, memory, self.puf,
                                      chunk_size=self.CHUNK_BYTES)
        verdict = attest.verifier_attest_check(request, report, self.memory,
                                               self.puf, self.budget,
                                               chunk_size=self.CHUNK_BYTES)
        return report, verdict

    def check(self, i: int, staged, result):
        request, memory, tampered = staged
        report, verdict = result
        if tampered:
            if verdict.accepted or verdict.reason != "HashMismatch":
                return f"tampered image gave {verdict}"
            return None
        if not verdict.accepted:
            return f"honest report rejected: {verdict.reason}"
        if i % self.round == 0:
            r1 = self.puf.evaluate(request.challenge).to_bytes()
            order = attest.derive_walk(r1, request.timestamp, self.CHUNKS)
            if sorted(order.tolist()) != list(range(self.CHUNKS)):
                return "derive_walk is not a permutation of range(n)"
            expected = reference.attestation_hash(
                memory, self.CHUNK_BYTES, request.timestamp, request.challenge,
                self.puf)
            if expected != report.final_hash:
                return "h_n differs from the reference construction"
        return None


def _parse_grid(spec: str) -> list:
    return [metrics.FilterBand(float(lo), float(hi))
            for lo, hi in (part.split(":") for part in spec.split(","))]


class PopulationBatch:
    """One population round: fresh devices, shared-challenge responses with
    noisy re-reads, population metrics and the band sweep, and a modeling
    attack on one device of the round."""

    name = "population-batch"
    round = 1
    root = "bench.op"
    reference = "compute"
    DEVICES = 4
    CHALLENGES = 256
    REEVALS = 2
    TRAIN = 5000                 # criterion 6 sizes
    TEST = 1000
    # Four response bits: on one bit, fresh devices read 0.52 +- 0.025, too
    # near 0.60 for a check that must hold on every seed; the mean of four
    # bits reads 0.52 +- 0.012.
    ATTACK_BITS = (0, 1, 2, 3)
    SAMPLED_ROWS = 4
    BER_RANGE = (0.02, 0.08)     # criterion 2
    MAX_ATTACK_ACCURACY = 0.60   # criterion 6

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        rng = _rng(self.seed, self.name)
        self.challenges = [puf.Challenge(row) for row in rng.integers(
            0, 2, size=(self.CHALLENGES, CHALLENGE_LEN), dtype=np.uint8)]
        self.bands = _parse_grid(cli.DEFAULT_GRID)
        self.round_seed = int(rng.integers(1 << 63))

    def prepare(self, i: int):
        rng = np.random.default_rng([self.round_seed, i])
        seeds = [rng.bytes(32) for _ in range(self.DEVICES)]
        sampled = list(zip(rng.integers(0, self.DEVICES, self.SAMPLED_ROWS),
                           rng.integers(0, self.CHALLENGES, self.SAMPLED_ROWS)))
        return seeds, _child(rng), _child(rng), sampled

    def op(self, i: int, staged):
        seeds, noise, crp_rng, _ = staged
        devices = [puf.create_puf("photonic", s) for s in seeds]
        golden, margins, reevals = metrics.population_responses(
            devices, self.challenges, self.REEVALS, noise)
        report = metrics.compute_metrics(golden, reevals)
        sweep = metrics.band_sweep(golden, margins, reevals, self.bands)
        crps = harness.harvest_crps(devices[0], self.TRAIN + self.TEST,
                                    challenge_rng=crp_rng)
        attack = harness.modeling_attack(crps[:self.TRAIN], crps[self.TRAIN:],
                                         harness.AttackConfig(target_bits=self.ATTACK_BITS))
        return devices, golden, reevals, report, sweep, attack

    def check(self, i: int, staged, result):
        devices, golden, reevals, report, sweep, attack = result
        if not math.isclose(report.uniqueness, reference.uniqueness(golden),
                            rel_tol=1e-12):
            return "uniqueness differs from the pairwise Hamming loop"
        width = devices[0].response_len
        for d, c in staged[3]:
            single = devices[d].evaluate(self.challenges[c]).bits
            if not np.array_equal(single, golden[d, c * width:(c + 1) * width]):
                return f"single evaluation of device {d} challenge {c} differs from the batch"
        ber = float(np.mean(reevals != golden[None]))
        if not self.BER_RANGE[0] <= ber <= self.BER_RANGE[1]:
            return f"raw BER {ber:.4f} outside {self.BER_RANGE}"
        by_max = {}
        for row in sweep:
            by_max.setdefault(row.band.delta_max, []).append(row)
        for rows in by_max.values():
            rows.sort(key=lambda r: r.band.delta_min)
            if any(b.retention > a.retention for a, b in zip(rows, rows[1:])):
                return "retention rises with delta_min"
        if attack.test_accuracy > self.MAX_ATTACK_ACCURACY:
            return f"modeling attack accuracy {attack.test_accuracy:.3f} > 0.60"
        return None


class KeyService:
    """Fuzzy-extractor key reproduction from a noisy read, then an encrypted
    network load and execution between a provisioning-side and a
    device-side SecureAccelerator."""

    name = "key-service"
    round = 8
    root = "bench.op"
    reference = "memory"
    BLOCKS = 128                 # repetition(5) code over 128 message bits
    REPEATS = 5
    WIDTH = 256                  # three 256 x 256 layers, about 1.5 MB sealed
    LAYERS = 3
    INPUTS = 4
    FLIP_WEIGHTS = (0.75, 0.2, 0.05)   # 0, 1 or 2 flips in a block
    TAMPER_OP = 3

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        rng = _rng(self.seed, self.name)
        self.puf = puf.create_puf("photonic", rng.bytes(32), {"noise_sigma": 0.0})
        reads = self.BLOCKS * self.REPEATS // self.puf.response_len
        self.response = np.concatenate([
            self.puf.evaluate(puf.Challenge(row)).bits for row in
            rng.integers(0, 2, size=(reads, CHALLENGE_LEN), dtype=np.uint8)])
        self.key, self.helper = keys.fe_generate(self.response, rng.bytes(32))
        # Weights and inputs are multiples of 1/16, so every sum in the
        # forward pass is exact in float64 and the outputs have one right
        # value whatever the summation order.
        self.layers = [rng.integers(-8, 9, size=(self.WIDTH, self.WIDTH)) / 16.0
                       for _ in range(self.LAYERS)]
        self.inputs = rng.integers(-16, 17, size=(POOL, self.INPUTS, self.WIDTH)) / 16.0
        # Flip positions: within each block, the positions ranked lowest by
        # a random key; one block of each 3-flip read gets exactly three.
        rank = rng.random((POOL, self.BLOCKS, self.REPEATS)).argsort(-1).argsort(-1)
        counts = rng.choice(3, size=(POOL, self.BLOCKS, 1), p=self.FLIP_WEIGHTS)
        counts3 = counts.copy()
        counts3[np.arange(POOL), rng.integers(self.BLOCKS, size=POOL)] = 3
        flat = (POOL, self.BLOCKS * self.REPEATS)
        self.noisy = self.response ^ (rank < counts).astype(np.uint8).reshape(flat)
        self.noisy3 = self.response ^ (rank < counts3).astype(np.uint8).reshape(flat)
        self.tamper_bits = rng.integers(0, 8 * 4 * self.WIDTH, size=POOL)

    def prepare(self, i: int):
        k = i % POOL
        bad = self.noisy3[k] if i % self.round == self.round - 1 else None
        return self.noisy[k], bad, self.inputs[k]

    def op(self, i: int, staged):
        noisy, bad, inputs = staged
        key = keys.fe_reproduce(noisy, self.helper)
        bad_key = keys.fe_reproduce(bad, self.helper) if bad is not None else None
        if key is None:
            return None, bad_key, None, None, None
        # The provisioning handle is not closed: close() would zeroize the
        # enrolled key it shares with every later op.
        provisioning = keys.SecureAccelerator(self.key)
        sealed_net = provisioning.seal_network(self.layers)
        sealed_in = [provisioning.seal_input(x) for x in inputs]
        device = keys.SecureAccelerator(key)
        device.load_network(sealed_net)
        outputs = [provisioning.open_output(device.execute_network(b))
                   for b in sealed_in]
        return key, bad_key, device, sealed_in, outputs

    def check(self, i: int, staged, result):
        _, bad, inputs = staged
        key, bad_key, device, sealed_in, outputs = result
        try:
            if key is None or key != self.key:
                return "reproduced key differs from the enrolled key"
            if bad is not None and bad_key is not None:
                return "a read with a 3-flip block reproduced a key"
            for x, y in zip(inputs, outputs):
                if not np.array_equal(y, reference.forward(self.layers, x)):
                    return "accelerator output differs from the forward pass"
            if i % self.round == self.TAMPER_OP:
                raw = bytearray(sealed_in[0].to_bytes())
                bit = int(self.tamper_bits[i % POOL]) % (8 * (len(raw) - 16))
                raw[16 + bit // 8] ^= 1 << (bit % 8)    # past nonce and length
                try:
                    device.execute_network(keys.CipheredBlob.from_bytes(bytes(raw)))
                except TamperError:
                    pass
                else:
                    return "a bit-flipped input blob was accepted"
            return None
        finally:
            if device is not None:
                device.close()


WORKLOADS = {w.name: w for w in (AuthRolling, AttestWalk, PopulationBatch, KeyService)}
