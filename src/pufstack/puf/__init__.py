"""Simulated PUF devices and device-level operations."""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..errors import ValidationError
from .arbiter import ArbiterParams, ArbiterPuf, parity_features
from .base import (Challenge, CrpBatch, EnvironmentState, PufInstance,
                   Response, SUPPORTED_CHALLENGE_LENGTHS, challenge_matrix)
from .photonic import PhotonicParams, PhotonicPuf
from .sram import SramPuf

KINDS = ("photonic", "arbiter", "sram")


def coerce_seed(seed: Union[bytes, int, str]) -> bytes:
    """Accept raw bytes, an int, or a hex string as the 256-bit device seed."""
    if isinstance(seed, bytes):
        raw = seed
    elif isinstance(seed, int):
        raw = seed.to_bytes(32, "big")
    elif isinstance(seed, str):
        raw = bytes.fromhex(seed)
    else:
        raise ValidationError("device_seed must be bytes, int, or hex string")
    if len(raw) != 32:
        raise ValidationError("device_seed must encode exactly 32 bytes")
    return raw


def create_puf(kind: str, device_seed: Union[bytes, int, str],
               config: Optional[dict] = None) -> PufInstance:
    """Build a device from a kind name, a 256-bit seed, and optional config.

    Recognized config keys (all optional): L, M, P, a, kappa, kerr,
    target_mean, noise_sigma, temperature_delta, replica_sigma.
    """
    cfg = dict(config or {})
    seed = coerce_seed(device_seed)
    env = EnvironmentState(
        temperature_delta=float(cfg.pop("temperature_delta", 0.0)),
        noise_sigma=float(cfg.pop("noise_sigma", 0.02)),
    )
    length = int(cfg.pop("L", 64))
    m = int(cfg.pop("M", 128))

    if kind == "photonic":
        params = PhotonicParams(
            n_paths=int(cfg.pop("P", 32)),
            detect_count=m,
            mem_decay=float(cfg.pop("a", 0.6)),
            kerr_coeff=float(cfg.pop("kerr", 40.0)),
            phase_temp_coeff=float(cfg.pop("kappa", 0.01)),
            target_mean=float(cfg.pop("target_mean", 0.2)),
        )
        puf: PufInstance = PhotonicPuf(seed, length, params, env)
    elif kind == "arbiter":
        params_a = ArbiterParams(replica_sigma=float(cfg.pop("replica_sigma", 0.05)))
        puf = ArbiterPuf(seed, length, m, params_a, env)
    elif kind == "sram":
        puf = SramPuf(seed, m, length, env)
    else:
        raise ValidationError(f"unknown PUF kind {kind!r}; expected one of {KINDS}")

    if cfg:
        raise ValidationError(f"unrecognized config keys: {sorted(cfg)}")
    return puf


def composite_evaluate(photonic_puf: PufInstance, sram_puf: SramPuf,
                       challenge: Challenge,
                       noise_draw: Optional[np.random.Generator] = None) -> Response:
    """Strong+weak composition: the weak-PUF signature whitens the challenge
    (XOR, repeated or truncated to L) before the strong PUF sees it, so the
    externally visible challenge never reaches the photonic core directly."""
    mask_bits = sram_puf.evaluate(Challenge(np.zeros(sram_puf.challenge_len, dtype=np.uint8))).bits
    length = photonic_puf.challenge_len
    reps = -(-length // len(mask_bits))
    mask = np.tile(mask_bits, reps)[:length]
    inner = Challenge(np.bitwise_xor(challenge.bits, mask))
    return photonic_puf.evaluate(inner, noise_draw)


def stabilized_response(puf: PufInstance, challenge: Challenge,
                        noise_draw: Optional[np.random.Generator] = None,
                        votes: int = 9) -> Response:
    """Noise-robust response: bitwise majority over an odd number of reads.

    Detector model: each read is the device's noiseless analog field plus
    fresh Gaussian detector noise (sigma ``env.noise_sigma``), quantized
    against the thresholds. The challenge is therefore propagated once, and
    the ``votes`` reads draw their noise on that one field in a single
    (votes, M) draw, which numpy's Generator fills in the same order as
    ``votes`` separate (1, M) draws. This is exact, not an approximation:
    a ``PufInstance`` holds no per-evaluation state and ``evaluate_analog``
    is a pure function of the challenge matrix, so every read would have
    propagated to the same field. Bits, the mean analog vector and the
    generator's final state equal those of ``votes`` calls to ``evaluate``.

    With ``noise_draw=None`` this is just the noiseless evaluation; protocol
    layers use it wherever both parties must agree on exact bits.
    """
    if votes < 1 or votes % 2 == 0:
        raise ValidationError("votes must be odd and >= 1")
    field = puf.evaluate_many(challenge.bits[None, :])
    if noise_draw is None:
        return Response(field.bits[0], field.analog[0])
    reads = puf.read_out(np.repeat(field.challenges, votes, axis=0),
                         np.repeat(field.analog, votes, axis=0), noise_draw)
    bits = (reads.bits.sum(axis=0) * 2 > votes).astype(np.uint8)
    return Response(bits, reads.analog.mean(axis=0))


__all__ = [
    "ArbiterParams", "ArbiterPuf", "Challenge", "CrpBatch",
    "EnvironmentState", "PhotonicParams", "PhotonicPuf", "PufInstance",
    "Response", "SramPuf", "SUPPORTED_CHALLENGE_LENGTHS", "KINDS",
    "challenge_matrix", "coerce_seed", "composite_evaluate",
    "create_puf", "parity_features", "stabilized_response",
]
