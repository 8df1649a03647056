"""In-order simulated channel with a pluggable adversary.

The channel is discrete-event: every message advances its clock by one
unit. Protocol logic, not network realism, is what the harness exercises.
Every adversarial action is logged so scenario reports can trace each
success to a concrete action.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ValidationError

MODES = ("passive", "replay", "bitflip", "drop")


@dataclass
class AdversaryPolicy:
    mode: str = "passive"
    p: float = 0.0                      # action probability for bitflip/drop

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"adversary mode must be one of {MODES}")
        if (isinstance(self.p, bool) or not isinstance(self.p, numbers.Real)
                or not 0.0 <= self.p <= 1.0):
            raise ValidationError(f"adversary probability must be a number in [0, 1], "
                                  f"not {self.p!r}")


@dataclass
class ChannelMessage:
    payload: bytes
    sender: str
    time: int
    adversarial: bool = False


class Channel:
    """One-direction-agnostic in-order pipe between two endpoints. A replay
    adversary keeps a copy of every payload in ``harvested``; a drop or
    bitflip adversary draws its actions from ``rng``."""

    def __init__(self, policy: AdversaryPolicy,
                 rng: Optional[np.random.Generator] = None):
        if policy.mode in ("drop", "bitflip") and rng is None:
            raise ValidationError(f"a {policy.mode} adversary needs an rng")
        self.policy = policy
        self.rng = rng
        self.clock = 0
        self.log: list[dict] = []
        self.harvested: list[bytes] = []

    def _log(self, action: str, sender: str):
        self.log.append({"time": self.clock, "action": action, "sender": sender})

    def transmit(self, payload: bytes, sender: str) -> list[ChannelMessage]:
        """Push one message through the adversary; returns delivered copies
        (possibly none, possibly altered)."""
        self.clock += 1
        mode = self.policy.mode
        if mode == "replay":
            self.harvested.append(payload)
        if mode in ("drop", "bitflip") and self.rng.random() < self.policy.p:
            if mode == "drop":
                self._log("drop", sender)
                return []
            if payload:
                pos = int(self.rng.integers(0, len(payload) * 8))
                flipped = bytearray(payload)
                flipped[pos // 8] ^= 1 << (7 - pos % 8)
                self._log(f"bitflip@{pos}", sender)
                return [ChannelMessage(bytes(flipped), sender, self.clock,
                                       adversarial=True)]
        return [ChannelMessage(payload, sender, self.clock)]

    def inject(self, payload: bytes) -> ChannelMessage:
        """Adversary-originated traffic (replay or forgery)."""
        self.clock += 1
        self._log("inject", "adversary")
        return ChannelMessage(payload, "adversary", self.clock, adversarial=True)
