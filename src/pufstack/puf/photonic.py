"""Coherent photonic strong-PUF model.

A challenge drives an input field sequence through a cascade of passive,
device-unique scattering stages. A resonant memory term mixes each stage's
field with the decayed state left by earlier bits, and a Kerr-style
intensity-dependent phase supplies the in-loop nonlinearity that lets a
single flipped challenge bit scramble the whole output trace. Detection is
intensity-only (photodiode model): M taps read |field|^2 projections, and
bits are quantized against per-tap calibrated thresholds.

Fixed-point definition
----------------------
The model is chaotic, so it is defined in exact integer arithmetic: a device
gives the same bits on every machine, BLAS build and memory layout.

* Grid. Every fabricated entry is a complex128 value whose real and
  imaginary parts are multiples of q = 2^-20 with magnitude <= 1. A field
  over P paths is a complex128 array whose parts are integers (counts of
  q). ``floor`` acts on the real and on the imaginary part.
* Phase table. C[k] + i*S[k] = round(2^20 * exp(2*pi*i*k/N)) for N = 4096,
  computed once from Machin's formula for pi and Taylor series in Python
  integers (no libm).
* Fabrication. Integer draws from ``derive_rng(seed, "photonic-fabrication")``
  (each a sum of four uniforms, a Gaussian stand-in, drawn for the real and
  then the imaginary part of an entry) are orthonormalized by complex
  two-pass Gram-Schmidt in integers: one unitary S_t per stage, column
  norms <= 1 by truncation, and every stage operator norm is checked
  against 1 + 2^-8. Then two unit injection vectors u_0, u_1, and a
  detection matrix D (M x P) normalized to Frobenius norm <= 1, so it is
  passive. The device stores them as ``scatter`` (L, P, P), where row k of
  ``scatter[t]`` is column k of S_t (so f @ scatter[t] = S_t f),
  ``inject`` (2, P) with rows u_0 and u_1, and ``detect`` (M, P) = D.
* Device integers. A = round(mem_decay / q) and
  X = round(kerr_coeff * N / (2*pi) * 2^8).
  The memory table is (Ca[k], Sa[k]) = floor(A * (C[k], S[k]) * q).
* Cascade, challenge bits c_1..c_L, m_0 = 0, per path j:

      y_t = floor(S_t (u_{c_t} + m_{t-1}))
      k_t = floor(floor(|y_t|^2 * 2^16) * X * 2^-24)              (mod N)
      m_t = floor(y_t * (Ca[k_t] + i*Sa[k_t]) * q)    # resonant memory
      s_t = floor(y_t * (C[k_t] + i*S[k_t]) * q)      # field at the detector

  with |y_t|^2 and floor(.) in units of q. Detection reads
  raw = |floor(D s_L)|^2 per tap.
* Prefix table. m_k depends only on c_1..c_k, so fabrication, before
  calibration, tabulates m_k for all 2^k prefixes of k = ``PREFIX_BITS``
  bits, and a read starts the cascade there. The table holds the values
  the cascade above forms, so the documented definition is unchanged.

The arrays hold integers (or multiples of q) far below 2^53, so every product
and every partial sum of a matmul is exact in float64 whatever the summation
order; ``validate`` rejects parameters for which that bound could fail. A
complex multiply or matmul forms the same real products, and each of its
partial sums is a partial sum of the same real dot product, bounded like it,
so it is exact too, whether the real and imaginary parts accumulate apart or
through fused multiply-adds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ValidationError
from ..xof import derive_rng
from .base import Challenge, PufInstance

GRID_BITS = 20                 # fabricated values are multiples of 2^-20
TABLE_BITS = 12                # phase table of N = 4096 entries per turn
POWER_BITS = 16                # fractional bits of |y|^2 fed to the Kerr index
KERR_BITS = 8                  # fractional table steps resolved by kerr_coeff
NORM_BOUND = 1.0 + 2.0 ** -8   # checked upper bound on each stage operator norm
EXACT_LIMIT = 2.0 ** 53        # float64 holds every integer below this exactly
CALIB_SAMPLES = 256            # challenges used for creation-time calibration
# Mean photocurrent after gain calibration. Not a parameter: the gain
# scales the analog values and the median thresholds alike, so up to
# rounding the bits depend only on noise_sigma / TARGET_MEAN, and margins
# are in units of TARGET_MEAN.
TARGET_MEAN = 0.2
# Rows per _propagate call, fixed rather than a setting: a 6000-row batch
# propagated about 1.5x faster in 512-row tiles than whole (512 to 1024
# measured alike), and its (B, P) temporaries stay tile-sized.
PROPAGATE_TILE = 512
# Leading challenge bits whose memory state m_k is tabulated at fabrication,
# for all 2^PREFIX_BITS prefixes: 128 KB at P = 32. Each further bit doubles
# the table and its build: 12 slowed fabrication by 4-7 ms, and 10 would save
# 2 more of 56 stages, a gain within the measured noise.
PREFIX_BITS = 8

_Q = 1 << GRID_BITS
_GRID = 2.0 ** -GRID_BITS
_N = 1 << TABLE_BITS
_PREFIX_WEIGHTS = 1 << np.arange(PREFIX_BITS - 1, -1, -1)


@dataclass
class PhotonicParams:
    n_paths: int = 32           # optical paths P
    detect_count: int = 128     # photodiode taps M
    mem_decay: float = 0.6      # resonant state coefficient a, in [0, 1), see validate
    kerr_coeff: float = 40.0    # intensity-to-phase coefficient of the nonlinearity

    def validate(self):
        if self.n_paths < 2:
            raise ValidationError("n_paths P must be >= 2")
        if self.detect_count < 1:
            raise ValidationError("detect_count M must be >= 1")
        if not 0.0 <= self.mem_decay < 1.0:
            raise ValidationError("mem_decay a must lie in [0, 1)")
        if worst_intermediate(self) >= EXACT_LIMIT:
            raise ValidationError(
                "n_paths, mem_decay and kerr_coeff let cascade intermediates "
                "reach 2^53, beyond exact float64 integers")

    def memory_steps(self) -> int:
        """A: mem_decay on the 2^-20 grid."""
        return round(self.mem_decay * _Q)

    def kerr_steps(self) -> int:
        """X: phase-table steps per unit |y|^2, in units of 2^-KERR_BITS."""
        return round(self.kerr_coeff * _N * 2 ** KERR_BITS / (2 * math.pi))


def cascade_bounds(params: PhotonicParams) -> tuple[float, float]:
    """Upper bounds on |y_t| and |s_t| (2-norms over paths, in field units).

    Each floor() moves a P-path vector by less than sqrt(2P) q; the stage
    matrices have norm <= NORM_BOUND, the injections norm <= 1 and the
    memory table entries magnitude <= a (1 + q) + 2q. Returns inf when the
    resonant loop gain reaches 1.
    """
    slack = math.sqrt(2 * params.n_paths) * _GRID
    loop = (params.memory_steps() * _GRID * (1 + _GRID) + 2 * _GRID) * NORM_BOUND
    if loop >= 1.0:
        return math.inf, math.inf
    field = (1 + slack + loop / NORM_BOUND * slack) / (1 - loop)
    stage = NORM_BOUND * field + slack
    return stage, (1 + _GRID) * stage + slack


def worst_intermediate(params: PhotonicParams) -> float:
    """Largest integer (in counts of q) that fabrication or the cascade can
    form. A matmul partial sum is bounded by Cauchy-Schwarz: |f| times the
    norm of the matrix column."""
    stage, state = cascade_bounds(params)
    if math.isinf(stage):
        return math.inf
    detected = state + math.sqrt(2 * params.detect_count) * _GRID
    q2 = float(_Q) ** 2
    return max(
        2 * params.n_paths * NORM_BOUND ** 2 * q2,            # Gram row sums
        2 * params.detect_count * params.n_paths * 2.0 ** 32,  # |D|^2 of draws
        NORM_BOUND * stage * q2,                              # S_t (u + m)
        2 * stage * stage * q2,                               # |y_t|^2
        stage * stage * 2 ** POWER_BITS * abs(params.kerr_steps()),
        2 * stage * _Q * (_Q + 1),                            # y_t * table entry
        state * q2,                                           # D s_L
        2 * detected * detected * q2,                         # raw intensity
    )


# -- exact phase table ------------------------------------------------------

def _arctan_inverse(x: int, one: int) -> int:
    """one * arctan(1/x) from its alternating series, in integers."""
    total = term = one // x
    n, sign = 1, 1
    while term:
        term //= x * x
        n += 2
        sign = -sign
        total += sign * (term // n)
    return total


@functools.lru_cache(maxsize=1)
def phase_table() -> np.ndarray:
    """(N, 2) int64: round(2^20 cos(2 pi k / N)), round(2^20 sin(2 pi k / N)).

    Integer arithmetic with 40 guard bits: pi from Machin's formula, cos
    and sin from their Taylor series on the first octant, the rest of the
    circle by symmetry.
    """
    guard = GRID_BITS + 40
    one = 1 << guard
    pi = 4 * (4 * _arctan_inverse(5, one) - _arctan_inverse(239, one))
    half = 1 << (guard - GRID_BITS - 1)
    octant = []
    for k in range(_N // 8 + 1):
        x = 2 * pi * k // _N
        sums = [0, 0, 0, 0]          # x^i / i! accumulated by i mod 4
        term, i = one, 0
        while term:
            sums[i % 4] += term
            i += 1
            term = term * x // (one * i)
        octant.append(((sums[0] - sums[2] + half) >> (guard - GRID_BITS),
                       (sums[1] - sums[3] + half) >> (guard - GRID_BITS)))
    quarter = octant + [(s, c) for c, s in reversed(octant[1:-1])]
    table = np.array(quarter, dtype=np.int64)
    c, s = table[:, 0], table[:, 1]
    table = np.concatenate([table, np.stack([-s, c], 1),
                            np.stack([-c, -s], 1), np.stack([s, -c], 1)])
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=16)
def _rotations(scale: int) -> np.ndarray:
    """(N,) complex rotations (c + i s) * q with
    (c, s) = floor(scale * table[k] * q)."""
    cs = ((scale * phase_table()) >> GRID_BITS) * _GRID
    rot = cs.view(np.complex128).reshape(-1)
    rot.flags.writeable = False
    return rot


# -- fabrication ------------------------------------------------------------

def _gaussian_counts(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Integer stand-in for a Gaussian draw: sum of four uniforms, |x| <= 2^16."""
    draws = rng.integers(-(1 << 14), 1 << 14, size=(4,) + shape, dtype=np.int64)
    return draws.sum(axis=0).astype(np.float64)


def _truncated_unit(v: np.ndarray, sumsq: np.ndarray) -> np.ndarray:
    """trunc(v * 2^20 / ceil(sqrt(sumsq))): norm <= 2^20 when sumsq >= |v|^2.

    Exact although it divides in float64: the numerator is below 2^53, so
    the correctly rounded quotient never crosses an integer.
    """
    root = np.floor(np.sqrt(sumsq))
    root -= root * root > sumsq
    root += root * root < sumsq
    return np.trunc(v * _Q / root[..., None])


def _floor(z: np.ndarray) -> np.ndarray:
    """floor of the real and the imaginary part of z, in place."""
    parts = z.view(np.float64)
    np.floor(parts, out=parts)
    return z


def _power(z: np.ndarray) -> np.ndarray:
    """|z|^2 per entry, as a contiguous float64 array: arithmetic on the
    strided ``.real`` view of the complex product is slower than copying it
    out once."""
    return (z * z.conj()).real.copy()


def _stage_matrices(rng: np.random.Generator, stages: int, p: int) -> np.ndarray:
    """(stages, P, P) grid values of random unitaries; row k of a stage is
    column k of S_t.

    Classical Gram-Schmidt, run twice per column with a renormalization
    after each pass, so a small residual still keeps full grid precision.

    The coefficients conj(B) v are formed as conj(B conj(v)): conjugating
    the (P,) vector is cheaper than a copy of the (stages, j, P) basis per
    pass. Both forms take the same real products and partial sums, with
    signs flipped, of integers below 2^53 (``worst_intermediate``), so
    they are exact and equal.
    """
    draws = _gaussian_counts(rng, (stages, p, 2 * p)).view(np.complex128)
    rows = np.zeros((stages, p, p), dtype=np.complex128)
    for j in range(p):
        v = draws[:, j]
        basis = rows[:, :j]
        for _ in range(2):
            coef = _floor((basis @ v.conj()[..., None]).conj() * _GRID)
            v = v - _floor((coef.transpose(0, 2, 1) @ basis)[:, 0] * _GRID)
            parts = v.view(np.float64)
            v = _truncated_unit(parts, np.sum(parts * parts, axis=1)).view(np.complex128)
        rows[:, j] = v
    gram = (rows @ rows.conj().transpose(0, 2, 1)).view(np.float64)
    if np.abs(gram).sum(axis=2).max() > NORM_BOUND * NORM_BOUND * _Q * _Q:
        raise ValidationError("fabricated stage matrix exceeds the passivity bound")
    return rows * _GRID


class PhotonicPuf(PufInstance):
    kind = "photonic"

    def __init__(self, device_seed: bytes, challenge_len: int = 64,
                 params: Optional[PhotonicParams] = None,
                 noise_sigma: float = 0.02):
        params = params if params is not None else PhotonicParams()
        params.validate()
        super().__init__(device_seed, challenge_len, params.detect_count, noise_sigma)
        self.params = params
        p = params.n_paths

        rng = derive_rng(device_seed, "photonic-fabrication")
        # One unitary per challenge-bit stage, so the cascade is passive
        # without per-stage power loss; all arrays lie on the 2^-20 grid.
        self.scatter = _stage_matrices(rng, challenge_len, p)
        inj = _gaussian_counts(rng, (2, 2 * p))
        self.inject = (_truncated_unit(inj, np.sum(inj * inj, axis=1))
                       * _GRID).view(np.complex128)
        det = _gaussian_counts(rng, (params.detect_count, 2 * p))
        self.detect = (_truncated_unit(det.ravel(), np.sum(det * det)).reshape(det.shape)
                       * _GRID).view(np.complex128)

        self.prefix_states = self._prefix_table()
        self.gain = 1.0
        self._thresholds = np.zeros(params.detect_count)
        self.calibrate(CALIB_SAMPLES)

    # -- propagation ------------------------------------------------------

    def _stage_body(self):
        """The cascade stage, with this device's constants bound.

        ``stage(t, bits, mem, detect, remember)`` runs stage t on a batch:
        ``bits`` holds each row's c_t, ``mem`` its m_{t-1}. It returns the
        raw intensities of s_t if ``detect`` and m_t if ``remember``, each
        else None.
        """
        unit = _rotations(_Q)
        memory = _rotations(self.params.memory_steps())
        kerr = self.params.kerr_steps() * 2.0 ** -(POWER_BITS + KERR_BITS)
        level = 2.0 ** (POWER_BITS - 2 * GRID_BITS)
        inject = self.inject * _Q

        def stage(t, bits, mem, detect, remember):
            y = _floor((inject.take(bits, axis=0) + mem) @ self.scatter[t])
            power = np.floor(_power(y) * level)
            steps = np.floor(power * kerr).astype(np.intp)
            raw = (_power(_floor(_floor(y * unit.take(steps, mode="wrap")) @ self.detect.T))
                   if detect else None)
            return raw, _floor(y * memory.take(steps, mode="wrap")) if remember else None
        return stage

    def _prefix_table(self) -> np.ndarray:
        """(2^PREFIX_BITS, P) read-only m_PREFIX_BITS, in counts of q, for
        every challenge prefix; row i is the prefix whose bits, first bit
        most significant, spell i.

        Built as a tree: each stage extends every prefix by 0 and by 1, so
        row 2i + c of the next level continues row i with bit c.
        """
        stage = self._stage_body()
        mem = np.zeros((1, self.params.n_paths), dtype=np.complex128)
        for t in range(PREFIX_BITS):
            _, mem = stage(t, np.tile([0, 1], len(mem)), np.repeat(mem, 2, axis=0),
                           False, True)
        mem.flags.writeable = False
        return mem

    def _propagate(self, bits_matrix: np.ndarray, trace: bool = False) -> np.ndarray:
        """Run the stage cascade and detect: the raw intensities of s_L
        (B, M) in counts of q^2, or with ``trace`` those of every s_t
        (B, L, M). ``bits_matrix`` must already be a validated (B, L)
        matrix of 0/1.

        Without ``trace`` the cascade starts from the tabulated
        m_PREFIX_BITS and runs the remaining stages only; the last stage
        forms s_L and no m_L.
        """
        stage = self._stage_body()
        order = np.ascontiguousarray(bits_matrix.T, dtype=np.intp)
        last = self.challenge_len - 1
        if trace:
            first, mem = 0, 0.0
        else:
            first = PREFIX_BITS
            mem = self.prefix_states.take(_PREFIX_WEIGHTS @ order[:PREFIX_BITS], axis=0)
        stages = []
        for t in range(first, self.challenge_len):
            raw, mem = stage(t, order[t], mem, trace or t == last, t < last)
            if raw is not None:
                stages.append(raw)
        return np.stack(stages, axis=1) if trace else stages[0]

    def _raw(self, bits_matrix: np.ndarray) -> np.ndarray:
        """``raw_intensities`` of an already validated matrix, in a fresh
        (B, M) array that the caller may scale in place.

        The rows are propagated in consecutive tiles of at most
        ``PROPAGATE_TILE``, each written into its rows of the one result.
        Each row propagates on its own in exact integers, so tiling moves
        no value.
        """
        out = np.empty((len(bits_matrix), len(self.detect)))
        for i in range(0, len(bits_matrix), PROPAGATE_TILE):
            np.multiply(self._propagate(bits_matrix[i:i + PROPAGATE_TILE]), _GRID ** 2,
                        out=out[i:i + PROPAGATE_TILE])
        return out

    def raw_intensities(self, bits_matrix) -> np.ndarray:
        """Noiseless detected intensities in raw (pre-gain) units, (B, M)."""
        return self._raw(self._challenge_rows(bits_matrix))

    def stage_trace(self, challenge: Challenge) -> np.ndarray:
        """Per-stage noiseless intensities (L, M); used to probe the memory term."""
        trace = self._propagate(self._challenge_rows(challenge.bits[None, :]), trace=True)
        return trace[0] * _GRID ** 2

    def evaluate_analog(self, bits_matrix: np.ndarray) -> np.ndarray:
        analog = self._raw(bits_matrix)
        analog *= self.gain
        return analog

    @property
    def thresholds(self) -> np.ndarray:
        return self._thresholds

    # -- calibration ------------------------------------------------------

    def calibrate(self, n_samples: int) -> np.ndarray:
        """Set gain and per-tap thresholds from noiseless medians.

        The gain normalizes the mean photocurrent to ``TARGET_MEAN`` so the
        additive noise sigma is meaningful in normalized units; thresholds
        are per-tap medians, which forces balanced quantization.

        The mean's sum is exact, so the gain is the same on every machine:
        ``raw`` holds integer counts of 2^-40 below 2^53, whose high and low
        26-bit halves sum in int64 without overflow for fewer than 2^36
        entries. ``float`` of the combined Python int rounds correctly, so
        the total equals ``math.fsum(raw)`` bit for bit.
        """
        if n_samples < 100:
            raise ValidationError("calibration needs n_samples >= 100")
        raw = self._raw(self.random_challenges("calibration-challenges", n_samples))
        counts = (raw * _Q ** 2).astype(np.int64)
        total = (int(np.sum(counts >> 26)) << 26) + int(np.sum(counts & ((1 << 26) - 1)))
        self.gain = (TARGET_MEAN * raw.size
                     / math.ldexp(float(total), -2 * GRID_BITS))
        self._thresholds = np.median(self.gain * raw, axis=0)
        return self._thresholds
