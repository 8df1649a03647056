"""CRP harvesting and the linear-threshold modeling attack.

The attack is the classical one against arbiter-style PUFs: logistic
regression over the parity feature map, trained by full-batch gradient
descent. It serves as the yardstick separating the linearly separable
arbiter baseline from the photonic model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import ValidationError
from ..puf import CrpBatch, PufInstance, parity_features


def harvest_crps(puf: PufInstance, n: int,
                 challenge_rng: Optional[np.random.Generator] = None,
                 noise_rng: Optional[np.random.Generator] = None) -> CrpBatch:
    """Record n challenge-response pairs under uniform random challenges."""
    if n < 1:
        raise ValidationError("harvest needs n >= 1")
    if challenge_rng is None:
        challenges = puf.random_challenges("harvest", n)
    else:
        challenges = challenge_rng.integers(0, 2, size=(n, puf.challenge_len),
                                            dtype=np.uint8)
    return puf.evaluate_many(challenges, noise_rng)


@dataclass
class AttackConfig:
    learning_rate: float = 0.5
    iterations: int = 500
    target_bits: Sequence[int] = (0,)


@dataclass
class ModelingAttackResult:
    train_size: int
    test_size: int
    model_kind: str
    train_accuracy: float
    test_accuracy: float
    per_bit_test_accuracy: dict[int, float]
    iterations: int
    status: str = "ok"  # "degenerate" when a target bit is single-class

    def to_kv(self) -> dict[str, str]:
        kv = {
            "train_size": str(self.train_size),
            "test_size": str(self.test_size),
            "model_kind": self.model_kind,
            "train_accuracy": repr(self.train_accuracy),
            "test_accuracy": repr(self.test_accuracy),
            "iterations": str(self.iterations),
            "status": self.status,
        }
        for b, acc in self.per_bit_test_accuracy.items():
            kv[f"bit_{b}_test_accuracy"] = repr(acc)
        return kv


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def fit_logistic(features: np.ndarray, labels: np.ndarray,
                 learning_rate: float, iterations: int) -> np.ndarray:
    """Full-batch gradient descent on logistic loss; returns the weights."""
    n = features.shape[0]
    w = np.zeros(features.shape[1])
    for _ in range(iterations):
        p = _sigmoid(features @ w)
        w -= learning_rate * (features.T @ (p - labels)) / n
    return w


def _packed_rows(challenges: np.ndarray) -> list[bytes]:
    return [row.tobytes() for row in np.packbits(challenges, axis=1)]


def modeling_attack(crps_train: CrpBatch, crps_test: CrpBatch,
                    config: Optional[AttackConfig] = None) -> ModelingAttackResult:
    """Fit one linear-threshold model per target response bit."""
    config = config if config is not None else AttackConfig()
    if len(crps_train) == 0 or len(crps_test) == 0:
        raise ValidationError("attack needs non-empty train and test sets")
    train_keys = set(_packed_rows(crps_train.challenges))
    if any(key in train_keys for key in _packed_rows(crps_test.challenges)):
        raise ValidationError("test challenges must be disjoint from training")

    x_train = parity_features(crps_train.challenges)
    x_test = parity_features(crps_test.challenges)
    status = "ok"
    per_bit: dict[int, float] = {}
    train_accs = []
    for b in config.target_bits:
        y_train = crps_train.bits[:, b].astype(np.float64)
        y_test = crps_test.bits[:, b].astype(np.float64)
        if y_train.min() == y_train.max():
            # single-class training set: trivial constant classifier
            status = "degenerate"
            const = y_train[0]
            per_bit[b] = float(np.mean(y_test == const))
            train_accs.append(1.0)
            continue
        w = fit_logistic(x_train, y_train, config.learning_rate, config.iterations)
        train_accs.append(float(np.mean((x_train @ w >= 0) == y_train)))
        per_bit[b] = float(np.mean((x_test @ w >= 0) == y_test))

    return ModelingAttackResult(
        train_size=len(crps_train),
        test_size=len(crps_test),
        model_kind="linear-threshold-parity",
        train_accuracy=float(np.mean(train_accs)),
        test_accuracy=float(np.mean(list(per_bit.values()))),
        per_bit_test_accuracy=per_bit,
        iterations=config.iterations,
        status=status,
    )
