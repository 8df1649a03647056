"""End-to-end attack scenarios over the simulated channel."""

from __future__ import annotations

import hashlib
import math
import numbers
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from ..errors import (AuthenticationError, FormatError, ProtocolStateError,
                      ReplayError, ValidationError, require_int)
from ..protocols.attest import (AttestationRequest, device_attest,
                                honest_elapsed, verifier_attest_check)
from ..protocols.auth import (AuthMessage1, AuthMessage2, AuthRequest,
                              DeviceSession, VerifierSession,
                              MSG_DEVICE_RESPONSE, enroll_secret)
from ..puf import create_puf
from ..xof import derive_rng, expand, seed_bytes
from .channel import MODES, AdversaryPolicy, Channel

ATTEST_ADVERSARIES = ("none", "tamper", "relocate")
# Per-chunk time of the simulated relocate adversary relative to the honest
# device: its cost, not a verifier setting (that is budget_factor).
RELOCATE_OVERHEAD = 1.5
# Reject reason of each error that ends an auth session, looked up in order,
# so a subclass (ReplayError) must precede its base (AuthenticationError).
_REJECT_REASONS = {ReplayError: "Replay", AuthenticationError: "AuthFailure",
                       FormatError: "Malformed", ProtocolStateError: "ProtocolState"}


@dataclass
class ScenarioConfig:
    protocol: str = "auth"          # "auth" | "attest"
    adversary: str = "passive"
    adversary_p: float = 1.0
    trials: int = 100
    run_seed: int = 0
    noise_sigma: float = 0.02
    memory_bytes: int = 16384
    chunk_bytes: int = 1024
    budget_factor: float = 1.2

    def validate(self):
        if self.protocol not in ("auth", "attest"):
            raise ValidationError("protocol must be 'auth' or 'attest'")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                # every int field but run_seed is a count
                if require_int(value, f.name) < 1 and f.name != "run_seed":
                    raise ValidationError(f"{f.name} must be >= 1")
            elif f.type == "float" and (isinstance(value, bool)
                                        or not isinstance(value, numbers.Real)
                                        or not math.isfinite(value)):
                raise ValidationError(f"{f.name} must be a finite number, not {value!r}")
        if self.noise_sigma < 0:
            raise ValidationError("noise_sigma must be >= 0")
        if not 0 <= self.adversary_p <= 1:
            raise ValidationError("adversary_p must lie in [0, 1]")
        if self.budget_factor <= 0:
            raise ValidationError("budget_factor must be > 0")
        modes = MODES if self.protocol == "auth" else ATTEST_ADVERSARIES
        if self.adversary not in modes:
            raise ValidationError(f"{self.protocol} adversary must be one of {modes}, "
                                  f"not {self.adversary!r}")

    def to_kv(self) -> dict[str, str]:
        return {f.name: str(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_kv(cls, kv: dict[str, str]) -> "ScenarioConfig":
        casts = {f.name: {"int": int, "float": float}.get(f.type, str)
                 for f in fields(cls)}
        unknown = set(kv) - set(casts)
        if unknown:
            raise ValidationError(f"unknown scenario keys: {sorted(unknown)}")
        kwargs: dict = {}
        for key, value in kv.items():
            try:
                kwargs[key] = casts[key](value)
            except ValueError:
                raise ValidationError(f"scenario value {key} = {value!r} is not "
                                      f"a valid {casts[key].__name__}") from None
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg


@dataclass
class ScenarioReport:
    protocol: str
    trials: int
    accepts: int = 0
    rejects: Counter[str] = field(default_factory=Counter)
    adversary_attempts: int = 0
    adversary_successes: int = 0
    adversary_actions: int = 0
    secrets_in_sync: Optional[bool] = None
    trial_rows: list[tuple] = field(default_factory=list, repr=False)

    def record(self, trial: int, accepted: bool, reason: Optional[str],
               adversarial: bool):
        """Count one trial's verdict and add its row."""
        if accepted:
            self.accepts += 1
            self.adversary_successes += adversarial
        else:
            self.rejects[reason] += 1
        self.trial_rows.append((trial, "accept" if accepted else "reject",
                                reason or "", adversarial))

    def to_kv(self) -> dict[str, str]:
        kv = {
            "protocol": self.protocol,
            "trials": str(self.trials),
            "accepts": str(self.accepts),
            "adversary_attempts": str(self.adversary_attempts),
            "adversary_successes": str(self.adversary_successes),
            "adversary_actions": str(self.adversary_actions),
        }
        for reason, count in sorted(self.rejects.items()):
            kv[f"reject_{reason}"] = str(count)
        if self.secrets_in_sync is not None:
            kv["secrets_in_sync"] = str(self.secrets_in_sync)
        return kv


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    config.validate()
    if config.protocol == "auth":
        return _run_auth(config)
    return _run_attest(config)


def _run_auth(config: ScenarioConfig) -> ScenarioReport:
    seed = seed_bytes(config.run_seed)
    puf = create_puf("photonic", expand(seed, "scenario-device-seed", 32),
                     {"noise_sigma": config.noise_sigma})
    noise_rng = derive_rng(seed, "scenario-noise")
    secret = enroll_secret(puf, noise_rng=noise_rng)
    memory = expand(seed, "scenario-memory", 1024)
    device = DeviceSession(puf, secret, memory_image=memory,
                           nonce_rng=derive_rng(seed, "scenario-nonce"),
                           noise_rng=noise_rng)
    verifier = VerifierSession(secret, puf.challenge_len,
                               golden_memory_hash=hashlib.sha256(memory).digest())
    policy = AdversaryPolicy(mode=config.adversary, p=config.adversary_p)
    channel = Channel(policy, rng=derive_rng(seed, "scenario-adversary"))
    pick_rng = derive_rng(seed, "scenario-replay-pick")

    report = ScenarioReport("auth", config.trials)
    for trial in range(config.trials):
        report.record(trial, *_auth_trial(device, verifier, channel))
        if config.adversary == "replay":
            msg1s = [p for p in channel.harvested
                     if p and p[0] == MSG_DEVICE_RESPONSE]
            if msg1s:
                report.adversary_attempts += 1
                payload = msg1s[int(pick_rng.integers(0, len(msg1s)))]
                injected = channel.inject(payload)
                try:
                    verifier.check_device(AuthMessage1.from_bytes(injected.payload))
                except (AuthenticationError, FormatError):
                    report.rejects["ReplayRejected"] += 1
                else:
                    report.adversary_successes += 1

    report.adversary_actions = len(channel.log)
    report.secrets_in_sync = (device.secret == verifier.secret
                              or device.secret == verifier.previous)
    return report


def _auth_trial(device: DeviceSession, verifier: VerifierSession,
                channel: Channel) -> tuple[bool, Optional[str], bool]:
    """One session through the channel: (accepted, reject reason, adversarial).
    Each leg produces a message from the one last received, sends it and
    parses what arrives; a drop on any leg ends the session."""
    legs = ((lambda _: verifier.request(), "verifier", AuthRequest.from_bytes),
            (device.respond, "device", AuthMessage1.from_bytes),
            (verifier.check_device, "verifier", AuthMessage2.from_bytes))
    adversarial = False
    received = None
    try:
        for produce, sender, parse in legs:
            delivered = channel.transmit(produce(received).to_bytes(), sender)
            if not delivered:
                device.abort()
                return False, "Drop", False
            adversarial |= delivered[0].adversarial
            received = parse(delivered[0].payload)
        device.confirm(received)
        return True, None, adversarial
    except tuple(_REJECT_REASONS) as exc:
        device.abort()
        reason = next(name for cls, name in _REJECT_REASONS.items()
                      if isinstance(exc, cls))
        return False, reason, adversarial


def _run_attest(config: ScenarioConfig) -> ScenarioReport:
    seed = seed_bytes(config.run_seed)
    # noiseless device: the verifier's model must agree bit-exactly
    puf = create_puf("photonic", expand(seed, "scenario-device-seed", 32),
                     {"noise_sigma": 0.0})
    memory = expand(seed, "scenario-attest-memory", config.memory_bytes)
    chal_rng = derive_rng(seed, "scenario-attest-challenges")
    tamper_rng = derive_rng(seed, "scenario-attest-tamper")
    n_chunks = -(-config.memory_bytes // config.chunk_bytes)
    budget = int(config.budget_factor
                 * honest_elapsed(n_chunks, puf.challenge_len))

    report = ScenarioReport("attest", config.trials)
    for trial in range(config.trials):
        request = AttestationRequest(
            timestamp=trial + 1,
            challenge=chal_rng.integers(0, 2, puf.challenge_len, dtype=np.uint8))
        device_memory = memory
        if config.adversary == "tamper":
            pos = int(tamper_rng.integers(0, len(memory)))
            tampered = bytearray(memory)
            tampered[pos] ^= 0xFF
            device_memory = bytes(tampered)
            report.adversary_attempts += 1
        attested = device_attest(request, device_memory, puf,
                                 chunk_size=config.chunk_bytes)
        if config.adversary == "relocate":
            attested = replace(attested, elapsed=round(RELOCATE_OVERHEAD * attested.elapsed))
            report.adversary_attempts += 1
        verdict = verifier_attest_check(request, attested, memory, puf, budget,
                                        chunk_size=config.chunk_bytes)
        report.record(trial, verdict.accepted, verdict.reason, config.adversary != "none")

    report.adversary_actions = report.adversary_attempts
    return report
