"""Shared PUF types: challenges, responses, CRP batches."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ChallengeShapeError, ValidationError
from ..xof import bits_to_bytes, bytes_to_bits, expand_bits

SUPPORTED_CHALLENGE_LENGTHS = (32, 64, 128)


def _bit_array(bits, ndim: int, name: str) -> np.ndarray:
    """``bits`` as a uint8 array of rank ``ndim`` whose entries are all 0/1;
    ``name`` says in an error what the array holds."""
    try:
        arr = np.asarray(bits)
    except ValueError as exc:   # ragged rows, e.g. challenges of unequal length
        raise ChallengeShapeError(f"{name}: rows do not stack into one array: {exc}") from exc
    if arr.ndim != ndim:
        raise ValidationError(f"{name} must be a {ndim}-D array")
    if arr.dtype == np.uint8:
        valid = arr.max(initial=0) <= 1
    else:   # check before the cast, which would wrap 256 and truncate 0.7 to a bit
        flags = arr.astype(bool)
        valid = (flags == arr).all()
        arr = flags.view(np.uint8)
    if not valid:
        raise ValidationError(f"{name} must be 0/1")
    return arr


def challenge_matrix(seed: bytes, label: str, count: int, length: int) -> np.ndarray:
    """Deterministic uniform challenges, (count, length), expanded from a seed."""
    return expand_bits(seed, label, count * length).reshape(count, length)


@dataclass(frozen=True)
class Challenge:
    """A fixed-length challenge bit-string (MSB-first when serialized)."""

    bits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bits", _bit_array(self.bits, 1, "challenge bits"))

    def __len__(self) -> int:
        return len(self.bits)

    def __array__(self, dtype=None, copy=None):
        # lets np.asarray stack a list of challenges into a bit matrix
        return np.array(self.bits, dtype=dtype, copy=copy)

    def to_bytes(self) -> bytes:
        return bits_to_bytes(self.bits)

    @classmethod
    def from_bytes(cls, raw: bytes, length: int) -> "Challenge":
        return cls(bytes_to_bits(raw, length))

    @classmethod
    def random(cls, rng: np.random.Generator, length: int) -> "Challenge":
        return cls(rng.integers(0, 2, size=length, dtype=np.uint8))


@dataclass(frozen=True)
class Response:
    """Quantized response bits plus the analog photocurrent vector behind them."""

    bits: np.ndarray
    analog: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8)
        analog = np.asarray(self.analog, dtype=np.float64)
        if bits.shape != analog.shape:
            raise ValidationError("response bits and analog vector must align")
        if not np.isfinite(analog).all():
            raise ValidationError("analog response values must be finite")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "analog", analog)

    def __len__(self) -> int:
        return len(self.bits)

    def to_bytes(self) -> bytes:
        return bits_to_bytes(self.bits)


@dataclass(frozen=True)
class CrpBatch:
    """N challenge-response pairs as aligned rows.

    ``challenges`` is (N, L); ``bits``, ``analog`` and ``margins`` are (N, M),
    where ``margins`` is |analog - thresholds|, the distance of each read
    from its quantization threshold.
    """

    challenges: np.ndarray
    bits: np.ndarray
    analog: np.ndarray
    margins: np.ndarray

    def __len__(self) -> int:
        return len(self.challenges)

    def __getitem__(self, rows: slice) -> "CrpBatch":
        return CrpBatch(self.challenges[rows], self.bits[rows],
                        self.analog[rows], self.margins[rows])


class PufInstance:
    """Base class for simulated devices.

    Instances are immutable after calibration and hold no per-evaluation
    state, so they are safe to share read-only across concurrent
    evaluators; noise enters only through the caller-supplied generator.
    """

    kind = "abstract"

    def __init__(self, device_seed: bytes, challenge_len: int, response_len: int,
                 noise_sigma: float = 0.02):
        if len(device_seed) != 32:
            raise ValidationError("device_seed must be 32 bytes (256 bits)")
        if challenge_len not in SUPPORTED_CHALLENGE_LENGTHS:
            raise ValidationError(
                f"challenge length L={challenge_len} unsupported; choose one of "
                f"{SUPPORTED_CHALLENGE_LENGTHS}"
            )
        if response_len < 1:
            raise ValidationError("response length M must be >= 1")
        if not noise_sigma >= 0:
            raise ValidationError("noise_sigma must be >= 0")
        self.device_seed = device_seed
        self.challenge_len = challenge_len
        self.response_len = response_len
        self.noise_sigma = noise_sigma  # detector noise, in normalized analog units

    def _challenge_rows(self, challenges) -> np.ndarray:
        """The validated (N, L) uint8 matrix of ``challenges``: anything
        np.asarray stacks into one, such as a list of challenges."""
        mat = _bit_array(challenges, 2, "challenge bits")
        if mat.shape[1] != self.challenge_len:
            raise ChallengeShapeError(
                f"challenge length {mat.shape[1]} != device L={self.challenge_len}"
            )
        return mat

    def evaluate_analog(self, bits_matrix: np.ndarray) -> np.ndarray:
        """Noiseless analog outputs for a (B, L) matrix of challenges."""
        raise NotImplementedError

    @property
    def thresholds(self) -> np.ndarray:
        raise NotImplementedError

    def evaluate(self, challenge: Challenge,
                 noise_draw: Optional[np.random.Generator] = None) -> Response:
        """Evaluate one challenge. ``noise_draw=None`` means noiseless."""
        batch = self.evaluate_many(challenge.bits[None, :], noise_draw)
        return Response(batch.bits[0], batch.analog[0])

    def evaluate_many(self, challenges,
                      noise_draw: Optional[np.random.Generator] = None) -> CrpBatch:
        """Evaluate an (N, L) challenge bit matrix, or anything np.asarray
        turns into one, such as a list of challenges."""
        mat = self._challenge_rows(challenges)
        return self.read_out(mat, self.evaluate_analog(mat), noise_draw)

    def read_out(self, challenges: np.ndarray, analog: np.ndarray,
                 noise_draw: Optional[np.random.Generator] = None) -> CrpBatch:
        """Detect noiseless analog rows of ``challenges``: add detector noise
        (when ``noise_draw`` is given) and quantize against ``thresholds``."""
        if noise_draw is not None and self.noise_sigma > 0:
            analog = analog + noise_draw.normal(0.0, self.noise_sigma, size=analog.shape)
        if not np.isfinite(analog).all():
            raise ValidationError("analog response values must be finite")
        bits = (analog >= self.thresholds).astype(np.uint8)
        margins = analog - self.thresholds
        return CrpBatch(challenges, bits, analog, np.abs(margins, out=margins))

    def random_challenges(self, label: str, count: int) -> np.ndarray:
        """Deterministic uniform (count, L) challenges derived from the device seed."""
        return challenge_matrix(self.device_seed, label, count, self.challenge_len)
