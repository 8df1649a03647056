"""Simulated PUF devices and device-level operations."""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from ..errors import ValidationError, require_int
from .arbiter import ArbiterPuf, parity_features
from .base import (Challenge, CrpBatch, PufInstance, SUPPORTED_CHALLENGE_LENGTHS,
                   challenge_matrix)
from .photonic import PhotonicParams, PhotonicPuf

KINDS = ("photonic", "arbiter")


def coerce_seed(seed: Union[bytes, int, str]) -> bytes:
    """Accept raw bytes, an int, or a hex string as the 256-bit device seed."""
    if isinstance(seed, bytes):
        raw = seed
    elif isinstance(seed, str):
        try:
            raw = bytes.fromhex(seed)
        except ValueError:
            raise ValidationError(f"device_seed {seed!r} is not a hex string") from None
    else:
        seed = require_int(seed, "a device_seed that is not bytes or hex")
        if not 0 <= seed < 1 << 256:
            raise ValidationError("an int device_seed must lie in [0, 2^256)")
        raw = seed.to_bytes(32, "big")
    if len(raw) != 32:
        raise ValidationError("device_seed must encode exactly 32 bytes")
    return raw


def create_puf(kind: str, device_seed: Union[bytes, int, str],
               config: Optional[dict] = None) -> PufInstance:
    """Build a device from a kind name, a 256-bit seed, and optional config.

    Recognized config keys (all optional): L, M and noise_sigma for every
    kind; P, a and kerr for photonic; replica_sigma for arbiter. Values may
    be numbers or their text form, as read from a device file. A bool, a
    fraction for the integer keys L, M and P, or any other key raises
    ValidationError.
    """
    cfg = dict(config or {})
    seed = coerce_seed(device_seed)

    def take(key, default, cast=float):
        value = cfg.pop(key, default)
        try:
            number = cast(value)
            exact = cast is float or isinstance(value, str) or number == value
            if exact and math.isfinite(number) and not isinstance(value, (bool, np.bool_)):
                return number
        except (TypeError, ValueError, OverflowError):
            pass
        raise ValidationError(f"config value {key} = {value!r} is not a finite {cast.__name__}")

    noise_sigma = take("noise_sigma", 0.02)
    length = take("L", 64, int)
    m = take("M", 128, int)

    if kind == "photonic":
        params = PhotonicParams(
            n_paths=take("P", 32, int),
            detect_count=m,
            mem_decay=take("a", 0.6),
            kerr_coeff=take("kerr", 40.0),
        )
        puf: PufInstance = PhotonicPuf(seed, length, params, noise_sigma)
    elif kind == "arbiter":
        puf = ArbiterPuf(seed, length, m, take("replica_sigma", 0.05), noise_sigma)
    else:
        raise ValidationError(f"unknown PUF kind {kind!r}; expected one of {KINDS}")

    if cfg:
        raise ValidationError(f"unrecognized config keys: {sorted(cfg)}")
    return puf


def stabilized_response(puf: PufInstance, challenge,
                        noise_draw: Optional[np.random.Generator] = None,
                        votes: int = 9) -> CrpBatch:
    """Noise-robust read of one (L,) challenge row: the bitwise majority
    over an odd number of reads (see ``PufInstance.evaluate_many``). With
    ``noise_draw=None`` this is the noiseless read; protocol layers use it
    wherever both parties must agree on exact bits."""
    return puf.evaluate_many(np.asarray(challenge)[None], noise_draw, votes)[0]


__all__ = [
    "ArbiterPuf", "Challenge", "CrpBatch",
    "PhotonicParams", "PhotonicPuf", "PufInstance",
    "SUPPORTED_CHALLENGE_LENGTHS", "KINDS",
    "challenge_matrix", "coerce_seed", "create_puf", "parity_features",
    "stabilized_response",
]
