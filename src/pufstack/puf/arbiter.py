"""Arbiter-style linear strong PUF, the classical modeling-attack baseline.

Each response bit is a linear threshold over the standard parity feature
map of the challenge; the M bits come from per-replica perturbations of one
device-unique weight vector, mimicking M parallel delay chains on one die.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from ..xof import derive_rng
from .base import PufInstance


def parity_features(bits_matrix: np.ndarray) -> np.ndarray:
    """Map (B, L) challenge bits to (B, L+1) parity features in {-1, +1}.

    Feature i is the product of (1 - 2*b_j) for j >= i; the last feature is
    the constant 1 (bias term).
    """
    signs = 1 - 2 * np.asarray(bits_matrix, dtype=np.int8)
    feats = np.ones((signs.shape[0], signs.shape[1] + 1), dtype=np.float64)
    feats[:, :-1] = np.cumprod(signs[:, ::-1], axis=1, dtype=np.int8)[:, ::-1]
    return feats


class ArbiterPuf(PufInstance):
    kind = "arbiter"

    def __init__(self, device_seed: bytes, challenge_len: int = 64,
                 response_len: int = 128, replica_sigma: float = 0.05,
                 noise_sigma: float = 0.02):
        if not replica_sigma >= 0:
            raise ValidationError("replica_sigma must be >= 0")
        super().__init__(device_seed, challenge_len, response_len, noise_sigma)
        self.replica_sigma = replica_sigma  # weight spread of the M parallel chains
        rng = derive_rng(device_seed, "arbiter-fabrication")
        self.base_weights = rng.standard_normal(challenge_len + 1)
        perturb = rng.standard_normal((response_len, challenge_len + 1))
        self.weights = self.base_weights[None, :] + replica_sigma * perturb
        # Noise acts on the delay margin; scale it to the margin's natural
        # std (sqrt(L+1)) so noise_sigma keeps its normalized meaning.
        self._noise_gain = float(np.sqrt(challenge_len + 1))

    def evaluate_analog(self, bits_matrix: np.ndarray) -> np.ndarray:
        return (parity_features(bits_matrix) @ self.weights.T) / self._noise_gain

    @property
    def thresholds(self) -> np.ndarray:
        return np.zeros(self.response_len)
