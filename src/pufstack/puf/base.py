"""Shared PUF types: challenges, CRP batches and the device base class."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..errors import ChallengeShapeError, ValidationError, require_int
from ..xof import expand_bits

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
    """One checked challenge bit row. A read takes any (L,) 0/1 row; this
    wrapper only checks the row where it is built."""

    bits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bits", _bit_array(self.bits, 1, "challenge bits"))

    def __len__(self) -> int:
        return len(self.bits)

    def __array__(self, dtype=None, copy=None):
        # lets np.asarray read a challenge as its row, or stack a list of them
        return np.array(self.bits, dtype=dtype, copy=copy)


@dataclass(frozen=True)
class CrpBatch:
    """N challenge-response pairs as aligned rows.

    ``challenges`` is (N, L); ``bits`` and ``analog`` are (N, M), and
    ``thresholds`` is the device's read-only (M,) array they were quantized
    against. ``margins``, |analog - thresholds|, the distance of each read
    from its threshold, is derived when asked for, not stored. An integer
    index gives one pair, whose fields are the 1-D rows.
    """

    challenges: np.ndarray
    bits: np.ndarray
    analog: np.ndarray
    thresholds: np.ndarray

    @property
    def margins(self) -> np.ndarray:
        return np.abs(self.analog - self.thresholds)

    def __len__(self) -> int:
        return len(self.challenges)

    def __getitem__(self, rows: Union[int, slice]) -> "CrpBatch":
        return CrpBatch(self.challenges[rows], self.bits[rows],
                        self.analog[rows], self.thresholds)

    def to_bytes(self) -> bytes:
        """The response bits packed MSB first, row after row."""
        return np.packbits(self.bits, axis=-1).tobytes()


class PufInstance:
    """Base class for simulated devices.

    A subclass sets ``thresholds``, the (M,) per-tap quantization
    thresholds, as a read-only array. Instances are immutable after
    calibration, and read-only arrays enforce it for the thresholds and the
    photonic prefix table. They hold no per-evaluation state, so they are
    safe to share across concurrent evaluators; noise enters only through
    the caller-supplied generator.
    """

    kind = "abstract"
    thresholds: np.ndarray

    def __init__(self, device_seed: bytes, challenge_len: int, response_len: int,
                 noise_sigma: float = 0.02):
        if not isinstance(device_seed, bytes) or len(device_seed) != 32:
            raise ValidationError("device_seed must be 32 bytes (256 bits)")
        if require_int(challenge_len, "challenge length L") not in SUPPORTED_CHALLENGE_LENGTHS:
            raise ValidationError(
                f"challenge length L={challenge_len} unsupported; choose one of "
                f"{SUPPORTED_CHALLENGE_LENGTHS}"
            )
        if response_len < 1:
            raise ValidationError("response length M must be >= 1")
        if isinstance(noise_sigma, (bool, np.bool_)) or not 0 <= noise_sigma < math.inf:
            raise ValidationError("noise_sigma must be finite and >= 0")
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

    def evaluate(self, challenge,
                 noise_draw: Optional[np.random.Generator] = None) -> CrpBatch:
        """Read one (L,) challenge row. ``noise_draw=None`` means noiseless."""
        return self.evaluate_many(np.asarray(challenge)[None], noise_draw)[0]

    def evaluate_many(self, challenges,
                      noise_draw: Optional[np.random.Generator] = None,
                      votes: int = 1) -> CrpBatch:
        """Read an (N, L) challenge bit matrix, or anything np.asarray turns
        into one, such as a list of challenges. ``noise_draw=None`` means
        noiseless.

        With a ``noise_draw``, each row is read ``votes`` times (odd, >= 1):
        ``bits`` is the bitwise majority of its reads and ``analog`` their
        mean. Detector model: a read is the row's noiseless analog field
        plus fresh Gaussian detector noise (sigma ``noise_sigma``),
        quantized against the thresholds. So each row is propagated once,
        and the reads draw their noise in one (N * votes, M) draw, row after
        row, which numpy's Generator fills in the same order as separate
        (1, M) draws. This is exact, not an approximation: a ``PufInstance``
        holds no per-evaluation state and ``evaluate_analog`` is a pure
        function of the challenge matrix. Given the same noiseless field,
        bits, analog and the generator's final state equal those of
        one-vote reads of each row in turn. The photonic field is the same
        at every batch size; the arbiter's float matmul may round by batch
        shape.
        """
        votes = require_int(votes, "votes")
        if votes < 1 or votes % 2 == 0:
            raise ValidationError("votes must be odd and >= 1")
        mat = self._challenge_rows(challenges)
        field = self.evaluate_analog(mat)
        if noise_draw is None or votes == 1:
            return self.read_out(mat, field, noise_draw)
        reads = self.read_out(np.repeat(mat, votes, axis=0),
                              np.repeat(field, votes, axis=0), noise_draw)
        per_row = (len(mat), votes, -1)
        bits = reads.bits.reshape(per_row).sum(axis=1) * 2 > votes
        analog = reads.analog.reshape(per_row).mean(axis=1)
        return CrpBatch(mat, bits.view(np.uint8), analog, self.thresholds)

    def read_out(self, challenges: np.ndarray, analog: np.ndarray,
                 noise_draw: Optional[np.random.Generator] = None) -> CrpBatch:
        """Detect noiseless analog rows of ``challenges``: add detector noise
        (when ``noise_draw`` is given) and quantize against ``thresholds``."""
        if noise_draw is not None and self.noise_sigma > 0:
            analog = analog + noise_draw.normal(0.0, self.noise_sigma, size=analog.shape)
        if not np.isfinite(analog).all():
            raise ValidationError("analog response values must be finite")
        bits = (analog >= self.thresholds).view(np.uint8)
        return CrpBatch(challenges, bits, analog, self.thresholds)

    def random_challenges(self, label: str, count: int) -> np.ndarray:
        """Deterministic uniform (count, L) challenges derived from the device seed."""
        return challenge_matrix(self.device_seed, label, count, self.challenge_len)
