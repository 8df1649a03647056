"""CRP harvesting and the linear-threshold modeling attack.

The attack is the classical one against arbiter-style PUFs: logistic
regression over the parity feature map, fitted by a fixed number of
Newton (IRLS) steps. It serves as the yardstick separating the linearly
separable arbiter baseline from the photonic model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import ValidationError
from ..puf import CrpBatch, PufInstance, parity_features


def harvest_crps(puf: PufInstance, n: int,
                 challenge_rng: np.random.Generator) -> CrpBatch:
    """Record n noiseless challenge-response pairs under uniform random
    challenges drawn from ``challenge_rng``."""
    if n < 1:
        raise ValidationError("harvest needs n >= 1")
    challenges = challenge_rng.integers(0, 2, size=(n, puf.challenge_len),
                                        dtype=np.uint8)
    return puf.evaluate_many(challenges)


# Newton steps per fit, from w = 0. On criterion 6's 5000 photonic CRPs
# with four response bits the largest mean gradient entry fell to 1e-3,
# 2e-6, 5e-12 and 2e-17 after steps 1-4, so six reach the maximum-
# likelihood fit with two to spare. Near-separable arbiter data has no
# finite optimum; there the fixed count bounds the weights (largest entry
# about 5.7 after six steps on criterion 6's arbiter device).
NEWTON_STEPS = 6


@dataclass
class AttackConfig:
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


def fit_logistic(features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Fit logistic loss by ``NEWTON_STEPS`` Newton steps; returns the weights.

    ``labels`` of shape (n, K) fit K independent models at once and give
    weights of shape (d, K); one target is a (n, 1) column. Each step forms
    the gradient x^T (sigmoid(x w) - y) of all K columns in one product,
    and each column's Hessian H = x^T diag(p (1 - p)) x as z^T z with
    z = x sqrt(p (1 - p)), a product of one array with its own transpose
    that BLAS forms in half the multiplies. At w = 0 every p (1 - p) is
    0.25, so the first step forms one Hessian for all columns. One
    Hermitian pseudo-inverse of the (K, d, d) stack then gives every
    column's step H^+ g, with small eigenvalues cut where
    ``np.linalg.lstsq(rcond=None)`` cuts singular values. The gradient lies
    in the row space of x, so on the singular Hessians of tiny or separable
    sets this minimum-norm solution is the Newton step in that space, and
    no ridge term is needed.
    """
    d = features.shape[1]
    w = np.zeros((d, labels.shape[1]))
    z = np.multiply(features, 0.5)
    hessians = np.empty((labels.shape[1], d, d))
    hessians[:] = z.T @ z
    cutoff = d * np.finfo(np.float64).eps
    for step in range(NEWTON_STEPS):
        p = _sigmoid(features @ w)
        if step:
            for k, scale in enumerate(np.sqrt(p * (1.0 - p)).T):
                np.multiply(features, scale[:, None], out=z)
                np.matmul(z.T, z, out=hessians[k])
        gradient = features.T @ (p - labels)
        steps = np.linalg.pinv(hessians, rcond=cutoff, hermitian=True) @ gradient.T[:, :, None]
        w -= steps[:, :, 0].T
    return w


def _packed_rows(challenges: np.ndarray) -> list[bytes]:
    return [row.tobytes() for row in np.packbits(challenges, axis=1)]


def modeling_attack(crps_train: CrpBatch, crps_test: CrpBatch,
                    config: Optional[AttackConfig] = None) -> ModelingAttackResult:
    """Fit one linear-threshold model per target response bit, all in one
    ``fit_logistic`` call."""
    config = config if config is not None else AttackConfig()
    if len(crps_train) == 0 or len(crps_test) == 0:
        raise ValidationError("attack needs non-empty train and test sets")
    train_keys = set(_packed_rows(crps_train.challenges))
    if any(key in train_keys for key in _packed_rows(crps_test.challenges)):
        raise ValidationError("test challenges must be disjoint from training")

    columns = list(config.target_bits)
    if not columns:
        raise ValidationError("target_bits must name at least one response bit")
    width = crps_train.bits.shape[1]
    for i, b in enumerate(columns):
        if isinstance(b, bool) or not isinstance(b, (int, np.integer)):
            raise ValidationError(f"target_bits entry {b!r} is not an integer")
        if not 0 <= b < width:
            raise ValidationError(
                f"target bit {b} is outside the response bits [0, {width})")
        if b in columns[:i]:
            raise ValidationError(f"target bit {b} is repeated")

    x_train = parity_features(crps_train.challenges)
    x_test = parity_features(crps_test.challenges)
    y_train = crps_train.bits[:, columns].astype(np.float64)
    y_test = crps_test.bits[:, columns].astype(np.float64)
    # a single-class training bit gets the trivial constant classifier
    constant = y_train.min(axis=0) == y_train.max(axis=0)
    guess_train = np.tile(y_train[0], (len(y_train), 1))
    guess_test = np.tile(y_train[0], (len(y_test), 1))
    w = fit_logistic(x_train, y_train[:, ~constant])
    guess_train[:, ~constant] = x_train @ w >= 0
    guess_test[:, ~constant] = x_test @ w >= 0
    train_accs = np.mean(guess_train == y_train, axis=0)
    per_bit = {b: float(acc) for b, acc in
               zip(columns, np.mean(guess_test == y_test, axis=0))}

    return ModelingAttackResult(
        train_size=len(crps_train),
        test_size=len(crps_test),
        model_kind="linear-threshold-parity",
        train_accuracy=float(np.mean(train_accs)),
        test_accuracy=float(np.mean(list(per_bit.values()))),
        per_bit_test_accuracy=per_bit,
        iterations=NEWTON_STEPS,
        status="degenerate" if constant.any() else "ok",
    )
