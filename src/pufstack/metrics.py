"""Population-level PUF quality metrics and the margin-band sweep."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError
from .puf.base import _bit_array


def bit_entropy(p: np.ndarray) -> np.ndarray:
    """Per-bit Shannon entropy of a Bernoulli(p) array, with H(0)=H(1)=0."""
    p = np.asarray(p, dtype=np.float64)
    out = np.zeros_like(p)
    inner = (p > 0) & (p < 1)
    q = p[inner]
    out[inner] = -q * np.log2(q) - (1 - q) * np.log2(1 - q)
    return out


@dataclass
class MetricsReport:
    uniformity: float
    uniqueness: float
    bit_alias_p: np.ndarray
    bit_alias_entropy: np.ndarray
    mean_alias_entropy: float
    reliability: Optional[float] = None
    far: Optional[float] = None
    frr: Optional[float] = None

    def to_kv(self) -> dict[str, str]:
        kv = {
            "uniformity": repr(self.uniformity),
            "uniqueness": repr(self.uniqueness),
            "mean_alias_entropy": repr(self.mean_alias_entropy),
        }
        if self.reliability is not None:
            kv["reliability"] = repr(self.reliability)
        if self.far is not None:
            kv["far"] = repr(self.far)
        if self.frr is not None:
            kv["frr"] = repr(self.frr)
        return kv

    def per_bit_rows(self):
        """Rows (bit_index, p_one, entropy) for the per-bit CSV."""
        for j, (p, h) in enumerate(zip(self.bit_alias_p, self.bit_alias_entropy)):
            yield j, float(p), float(h)


def pairwise_hd(matrix) -> np.ndarray:
    """(D, D) Hamming distances between the rows of a 0/1 matrix.

    Computed from inner products; every entry is an integer below 2**53, so
    the float result is exact.
    """
    fm = _bit_array(matrix, 2, "response matrix").astype(np.float64)
    gram = fm @ fm.T
    ones = fm.sum(axis=1)
    return ones[:, None] + ones[None, :] - 2 * gram


def compute_metrics(matrix, revaluations=None) -> MetricsReport:
    """Uniformity, uniqueness, bit-aliasing entropy, optional reliability.

    ``matrix`` is (devices, bits); ``revaluations`` is (repeats, devices, bits)
    noisy re-reads of the same cells, with the matrix as golden reference.
    """
    mat = _bit_array(matrix, 2, "response matrix")
    d = mat.shape[0]
    if mat.size == 0:
        raise ValidationError("response matrix must be non-empty")
    if d < 2:
        raise ValidationError("inter-device metrics need at least 2 devices")

    uniformity = float(mat.mean())

    hd = pairwise_hd(mat)
    iu = np.triu_indices(d, k=1)
    uniqueness = float(np.mean(hd[iu]) / mat.shape[1])

    p = mat.astype(np.float64).mean(axis=0)
    entropy = bit_entropy(p)

    reliability = None
    if revaluations is not None:
        rev = _bit_array(revaluations, 3, "revaluations")
        if rev.shape[1:] != mat.shape:
            raise ValidationError("revaluations must be (repeats, devices, bits)")
        if rev.shape[0] < 2:
            raise ValidationError("reliability needs at least 2 re-evaluations")
        ber = np.mean(rev != mat[None, :, :])
        reliability = float(1.0 - ber)

    return MetricsReport(
        uniformity=uniformity,
        uniqueness=uniqueness,
        bit_alias_p=p,
        bit_alias_entropy=entropy,
        mean_alias_entropy=float(entropy.mean()),
        reliability=reliability,
    )


@dataclass(frozen=True)
class FilterBand:
    """Margin band [delta_min, delta_max]: below is unreliable, above aliased."""

    delta_min: float
    delta_max: float

    def __post_init__(self):
        if not (0 <= self.delta_min < self.delta_max):
            raise ValidationError("band requires 0 <= delta_min < delta_max")

    def contains(self, margins: np.ndarray) -> np.ndarray:
        m = np.abs(np.asarray(margins, dtype=np.float64))
        return (m >= self.delta_min) & (m <= self.delta_max)


def population_responses(pufs, challenges, n_reevals: int = 0,
                         noise_rng: Optional[np.random.Generator] = None):
    """Evaluate a device population on shared challenges: an (N, L) bit
    matrix, or a list of challenges.

    Returns (golden, margins, reevals): golden and margins are (D, N) with
    N = challenges * bits, reevals is (R, D, N) noisy re-reads (or None
    when n_reevals == 0). Golden responses are noiseless.
    """
    if len(pufs) == 0 or len(challenges) == 0:
        raise ValidationError("population needs devices and challenges")
    challenges = _bit_array(challenges, 2, "challenge bits")
    batches = [puf.evaluate_many(challenges) for puf in pufs]
    golden = np.stack([b.bits.ravel() for b in batches])
    margins = np.stack([b.margins.ravel() for b in batches])
    reevals = None
    if n_reevals > 0:
        if noise_rng is None:
            raise ValidationError("re-evaluations need a noise rng")
        # a re-read adds detector noise to the golden pass's noiseless field
        reevals = np.stack([
            np.stack([puf.read_out(b.challenges, b.analog, noise_rng).bits.ravel()
                      for puf, b in zip(pufs, batches)])
            for _ in range(n_reevals)])
    return golden, margins, reevals


@dataclass
class BandSweepRow:
    band: FilterBand
    retention: float
    reliability: Optional[float]
    mean_alias_entropy: Optional[float]


def band_sweep(golden: np.ndarray, margins: np.ndarray,
               reevals: Optional[np.ndarray],
               bands: Sequence[FilterBand]) -> list[BandSweepRow]:
    """Empirical retention / reliability / aliasing-entropy trade-off table.

    For each band the keep-mask is per (device, bit) cell; reliability is
    measured on kept cells against the noisy re-reads, and aliasing entropy
    is computed per bit over the devices that kept it (needs >= 2).
    """
    if len(bands) == 0:
        raise ValidationError("band grid must be non-empty")
    golden = _bit_array(golden, 2, "golden responses")
    if golden.size == 0:
        raise ValidationError("golden responses must be non-empty")
    if np.shape(margins) != golden.shape:
        raise ValidationError("margins must be (devices, bits) like the golden responses")
    flips = None
    if reevals is not None:
        reevals = _bit_array(reevals, 3, "re-reads")
        if len(reevals) == 0 or reevals.shape[1:] != golden.shape:
            raise ValidationError("re-reads must be (repeats >= 1, devices, bits)")
        flips = reevals != golden
    rows = []
    for band in bands:
        mask = band.contains(margins)
        retention = float(mask.mean())
        if not mask.any():
            rows.append(BandSweepRow(band, 0.0, None, None))
            continue
        reliability = None
        if flips is not None:
            reliability = float(1.0 - (flips & mask).sum() / (mask.sum() * len(flips)))
        counts = mask.sum(axis=0)
        usable = counts >= 2
        entropy = None
        if usable.any():
            p = np.where(usable, (golden * mask).sum(axis=0) / np.maximum(counts, 1), 0.0)
            entropy = float(np.mean(bit_entropy(p[usable])))
        rows.append(BandSweepRow(band, retention, reliability, entropy))
    return rows


def decision_rates(genuine_distances, impostor_distances,
                   hd_threshold: float) -> tuple[float, float]:
    """(FAR, FRR) at a fractional-Hamming-distance accept threshold."""
    gen = np.asarray(genuine_distances, dtype=np.float64)
    imp = np.asarray(impostor_distances, dtype=np.float64)
    if gen.size == 0 or imp.size == 0:
        raise ValidationError("both distance samples must be non-empty")
    if not 0.0 <= hd_threshold <= 1.0:
        raise ValidationError("hd_threshold must lie in [0, 1]")
    far = float(np.mean(imp <= hd_threshold))
    frr = float(np.mean(gen > hd_threshold))
    return far, frr
