"""SRAM-like weak PUF: challenge-independent power-up signature bits.

Each cell has a device-constant bias; the noiseless bit is the bias sign
and noisy reads flip low-|bias| cells with the usual Gaussian model.
"""

from __future__ import annotations

import numpy as np

from ..xof import derive_rng
from .base import PufInstance


class SramPuf(PufInstance):
    kind = "sram"

    def __init__(self, device_seed: bytes, response_len: int = 128,
                 challenge_len: int = 64, noise_sigma: float = 0.02):
        super().__init__(device_seed, challenge_len, response_len, noise_sigma)
        rng = derive_rng(device_seed, "sram-fabrication")
        self.bias = rng.standard_normal(response_len)

    def evaluate_analog(self, bits_matrix: np.ndarray) -> np.ndarray:
        b = np.asarray(bits_matrix).shape[0]
        return np.broadcast_to(self.bias, (b, self.response_len)).copy()

    @property
    def thresholds(self) -> np.ndarray:
        return np.zeros(self.response_len)
