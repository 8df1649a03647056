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
  raw = |floor(D s_L)|^2 per tap. The library forms k_t in int64 by right
  shifts, ((|y_t|^2 >> 24) * X) >> 24 with |y_t|^2 in counts of q^2; an
  arithmetic shift floors, so the definition is unchanged.
* Folded injection. ``stages`` (L, P + 2, P) holds ``scatter[t]`` in rows
  :P of stage t, 2^20 S_t u_0 in row P and 2^20 S_t (u_1 - u_0) in row
  P + 1; ``scatter`` is the view ``stages[:, :P]``. A read keeps the
  field-major state [m_{t-1}; 1; c_t], so one product with stage t forms
  S_t (u_{c_t} + m_{t-1}) in counts of q. Its terms are grid values of
  S_t times the integers of m_{t-1}, plus the folded rows, which are sums
  of grid values of S_t times the integers of 2^20 u_0 and
  2^20 (u_1 - u_0). Every term and every partial sum is an integer count
  of q^2 below 2^53 (``worst_intermediate``), so the product is exactly
  the real number S_t (2^20 u_{c_t} + m_{t-1}), in any summation order.
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

Compiled kernel
---------------
``_cascade.c`` runs the same cascade, one row after another, for the reads
of ``_raw`` in tiles of fewer than ``KERNEL_ROWS`` rows, where numpy's
per-call overhead, not the arithmetic, sets a stage's cost. Wider tiles,
the prefix-table build, calibration and ``stage_trace`` run in numpy. The
kernel forms the same values, so a read is bit for bit the same with it
and without it:

* every product and every partial sum it forms is an integer count below
  2^53, in any summation order and whether or not the compiler contracts a
  multiply and an add into a fused multiply-add, for the reasons above: a
  partial sum of any subset of a dot product's real terms is bounded like
  the whole, and the kernel sums the terms of Re(m) and of Im(m) apart. So
  it needs no reassociation and is compiled without -ffast-math, which
  could also set flush-to-zero for the whole process;
* |y_t|^2 is a non-negative integer below 2^53, and the int64 conversion
  of a non-negative double below 2^63 truncates exactly, so it is the floor;
* ``k & (N - 1)`` equals ``take``'s "wrap" index k mod N, negative k too,
  because N = 2^12 and int64 is two's complement;
* ``>>`` on a negative int64 is an arithmetic shift, a floor, on GCC and
  Clang, as numpy's shift is; the pinned kerr = -25 device forms negative
  Kerr products.

It is built when this module is imported, with the C compiler Python was
built with and tuned to the host CPU, into this package's ``__pycache__``,
and loaded with ctypes (``_load_kernel``). Where no compiler is found, the
host CPU cannot be identified, the cache cannot be written, or the build or
the load fails, every read runs in numpy.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import math
import os
import shlex
import shutil
import subprocess
import sysconfig
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ..errors import ValidationError, require_int
from ..xof import derive_rng
from .base import PufInstance

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
# Rows per tile that _raw propagates at once, fixed rather than a setting: a
# 6000-row batch propagated about 1.5x faster in 512-row tiles than whole
# (512 to 1024 measured alike), and its (B, P) temporaries stay tile-sized.
PROPAGATE_TILE = 512
# Leading challenge bits whose memory state m_k is tabulated at fabrication,
# for all 2^PREFIX_BITS prefixes: 128 KB at P = 32. Each further bit doubles
# the table and its build: 12 slowed fabrication by 4-7 ms, and 10 would save
# 2 more of 56 stages, a gain within the measured noise.
PREFIX_BITS = 8
# Tiles of fewer rows are read by the compiled kernel, wider ones by the
# numpy loop, whose BLAS product shares each stage among the tile's rows.
# Per row, numpy over the host-tuned kernel ran 6.7-6.8x at 1 row, 1.4x at
# 16, 1.0-1.1x at 32 and 0.8x at 64 (BENCH_33.json).
KERNEL_ROWS = 32

_Q = 1 << GRID_BITS
_GRID = 2.0 ** -GRID_BITS
_N = 1 << TABLE_BITS
_PREFIX_WEIGHTS = 1 << np.arange(PREFIX_BITS - 1, -1, -1)
# Kerr index shifts: |y|^2 in counts of q^2 to counts of 2^-POWER_BITS, and
# the product with X to table steps
_LEVEL = np.array(2 * GRID_BITS - POWER_BITS, dtype=np.int64)
_SCALE = np.array(POWER_BITS + KERR_BITS, dtype=np.int64)


@dataclass
class PhotonicParams:
    n_paths: int = 32           # optical paths P
    detect_count: int = 128     # photodiode taps M
    mem_decay: float = 0.6      # resonant state coefficient a, in [0, 1), see validate
    kerr_coeff: float = 40.0    # intensity-to-phase coefficient of the nonlinearity

    def validate(self):
        require_int(self.n_paths, "n_paths P", 2)
        require_int(self.detect_count, "detect_count M", 1)
        if not 0.0 <= self.mem_decay < 1.0:
            raise ValidationError("mem_decay a must lie in [0, 1)")
        if not math.isfinite(self.kerr_coeff):
            raise ValidationError("kerr_coeff must be finite")
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
        (stage + 2 * NORM_BOUND) * q2,                        # S_t m + folded rows
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


def _stage_matrices(rng: np.random.Generator, stages: int, p: int) -> np.ndarray:
    """(stages, P + 2, P): rows :P of a stage are the grid values of a
    random unitary, row k column k of S_t; rows P and P + 1 are zero, left
    for ``_fold_injection``.

    Classical Gram-Schmidt, run twice per column with a renormalization
    after each pass, so a small residual still keeps full grid precision.

    The coefficients conj(B) v are formed as conj(B conj(v)): conjugating
    the (P,) vector is cheaper than a copy of the (stages, j, P) basis per
    pass. Both forms take the same real products and partial sums, with
    signs flipped, of integers below 2^53 (``worst_intermediate``), so
    they are exact and equal.
    """
    draws = _gaussian_counts(rng, (stages, p, 2 * p)).view(np.complex128)
    rows = np.zeros((stages, p + 2, p), dtype=np.complex128)
    for j in range(p):
        v = draws[:, j]
        basis = rows[:, :j]
        for _ in range(2):
            coef = _floor((basis @ v.conj()[..., None]).conj() * _GRID)
            v = v - _floor((coef.transpose(0, 2, 1) @ basis)[:, 0] * _GRID)
            parts = v.view(np.float64)
            v = _truncated_unit(parts, np.sum(parts * parts, axis=1)).view(np.complex128)
        rows[:, j] = v
    unitary = rows[:, :p]
    gram = (unitary @ unitary.conj().transpose(0, 2, 1)).view(np.float64)
    if np.abs(gram).sum(axis=2).max() > NORM_BOUND * NORM_BOUND * _Q * _Q:
        raise ValidationError("fabricated stage matrix exceeds the passivity bound")
    unitary *= _GRID
    return rows


def _fold_injection(stages: np.ndarray, inject: np.ndarray) -> np.ndarray:
    """Fold the injection into the (L, P + 2, P) ``stages``, whose rows :P
    of stage t hold ``scatter[t]``, and return them: row P becomes
    2^20 S_t u_0 and row P + 1 2^20 S_t (u_1 - u_0), so
    [m, 1, c] @ stages[t] = S_t (2^20 u_c + m).

    The rows are sums of grid values times integers of at most 2^21,
    exact below 2^53 (``worst_intermediate``). Filling them in place keeps
    a device at one stage array, never a second copy.
    """
    p = stages.shape[2]
    stages[:, p:] = (np.stack([inject[0], inject[1] - inject[0]]) * _Q) @ stages[:, :p]
    return stages


# -- compiled kernel ---------------------------------------------------------

# /proc/cpuinfo lines that fix what a -march=native build may use
_CPU_KEYS = ("vendor_id", "cpu family", "model", "model name", "flags",
             "CPU implementer", "CPU architecture", "CPU variant", "CPU part",
             "Features")


def _host_cpu() -> Optional[str]:
    """The host CPU's identity and feature lines, or None where they cannot
    be read; then no kernel is built."""
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return None
    return "\n".join(sorted({line for line in lines
                              if line.split(":")[0].strip() in _CPU_KEYS})) or None


def _load_kernel(package: Path = Path(__file__).parent):
    """``_cascade.c``'s ``cascade`` in ``package`` as a ctypes function, or
    None.

    The shared library is built with the C compiler Python was built with,
    tuned to the host (-O3 -march=native), and cached in the package's
    ``__pycache__`` under a name that carries the SHA-256 of the source, the
    compiler (its path, size and mtime, and its arguments), the flags and
    the host's CPU lines. So a later import loads it without running the
    compiler, an edit or another compiler builds anew, and the build never
    loads on another CPU, where it could stop the process on an illegal
    instruction. It is compiled to a temporary name and moved into place, so
    a concurrent import never loads a partial file. Without a compiler, a
    host CPU that cannot be identified, a cache directory that cannot be
    written (then the compiler is not started), or a failed build or load,
    this returns None and every read runs in numpy.
    """
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    found = shutil.which(compiler[0]) if compiler else None
    cpu = _host_cpu()
    if found is None or cpu is None:
        return None
    source_path = package / "_cascade.c"
    cache = package / "__pycache__"
    flags = ["-O3", "-march=native"]
    try:
        found = os.path.realpath(found)
        stat = os.stat(found)
        source = source_path.read_bytes()
    except OSError:
        return None
    digest = hashlib.sha256(repr((source, found, stat.st_size, stat.st_mtime_ns,
                                  compiler[1:], flags, cpu)).encode()).hexdigest()
    path = cache / f"_cascade.{digest}.so"
    if not path.exists():
        partial = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            cache.mkdir(exist_ok=True)
            if not os.access(cache, os.W_OK):
                return None
            subprocess.run([*compiler, *flags, "-shared", "-fPIC", "-o", str(partial),
                            str(source_path), "-lm"],
                           check=True, capture_output=True, timeout=300)
            os.replace(partial, path)
        except (OSError, subprocess.SubprocessError):
            with contextlib.suppress(OSError):
                partial.unlink(missing_ok=True)
            return None
    try:
        kernel = ctypes.CDLL(str(path)).cascade
    except (OSError, AttributeError):
        return None
    pointer, c_int, c_int64 = ctypes.c_void_p, ctypes.c_int, ctypes.c_int64
    kernel.argtypes = ([c_int] + [pointer] * 3 + [c_int] * 4 + [pointer] * 5
                       + [c_int64, c_int, c_int, c_int64, ctypes.c_double])
    kernel.restype = None
    return kernel


_compiled_cascade = _load_kernel()


def kernel_name() -> str:
    """"compiled" where tiles narrower than ``KERNEL_ROWS`` rows are read by
    the compiled kernel, "numpy" where every read runs in numpy."""
    return "numpy" if _compiled_cascade is None else "compiled"


class PhotonicPuf(PufInstance):
    kind = "photonic"
    # what ``_bind_kernel`` hands the compiled kernel, by address or value
    _KERNEL_INPUTS = frozenset({"challenge_len", "prefix_states", "stages", "detect",
                                "_memory", "_kerr"})

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
        stages = _stage_matrices(rng, challenge_len, p)
        inj = _gaussian_counts(rng, (2, 2 * p))
        self.inject = (_truncated_unit(inj, np.sum(inj * inj, axis=1))
                       * _GRID).view(np.complex128)
        det = _gaussian_counts(rng, (params.detect_count, 2 * p))
        self.detect = (_truncated_unit(det.ravel(), np.sum(det * det)).reshape(det.shape)
                       * _GRID).view(np.complex128)
        self.stages = _fold_injection(stages, self.inject)
        self.scatter = self.stages[:, :p]
        self._memory = _rotations(params.memory_steps())
        self._kerr = np.array(params.kerr_steps(), dtype=np.int64)

        self.prefix_states = self._prefix_table()
        self._kernel_args, self._kernel_arrays = self._bind_kernel()
        self.calibrate(CALIB_SAMPLES)

    # -- propagation ------------------------------------------------------

    def _cascade(self, state: np.ndarray, bit_rows, first: int,
                 trace: bool = False) -> list:
        """Run cascade stages first, first + 1, ... on a field-major
        (P + 2, B) ``state``, one stage per row of ``bit_rows``, which holds
        each column's c_t. Rows :P of ``state`` hold each column's m_{t-1}
        in counts of q and are overwritten by m_t; row P holds 1.

        Returns the raw intensities (B, M) of s_t, in counts of q^2, of the
        last stage L - 1 if it runs, or with ``trace`` of every stage. The
        last stage forms no m_L.

        Row P + 1 receives c_t, so one product with the folded ``stages[t]``
        forms y_t = S_t (2^20 u_{c_t} + m_{t-1}). The product is bound once
        from the state's width: ``ndarray.dot`` for one column, a
        single-challenge read, and ``matmul`` for more. At one column
        ``dot`` takes about 0.7 us a stage against 1.2 us for ``matmul``;
        at 512 columns it is about 6% slower (1 BLAS thread, 2-core VM).
        Both form the exact product (module docstring), so a row reads the
        same bits alone as in a batch. c_t is written through a view of row
        P + 1 bound before the loop, which costs about 0.26 us a stage
        against 0.38 us for indexing the state each time.

        y_t, y_t conj(y_t) and the memory rotation go into buffers that
        every stage reuses, each floor acts in place on the float64 view of
        a product, and ufunc outputs and the ``take`` mode are passed
        positionally: at batch 1 fresh arrays and keyword parsing cost as
        much as the arithmetic. The Kerr index is ((|y|^2 >> 24) * X) >> 24
        in int64: an arithmetic right shift floors, negative products of a
        negative X too. X and the shift counts are 0-d int64 arrays, because
        at batch 1 a ufunc call with a Python-scalar operand costs about
        0.4 us more.
        """
        p = len(state) - 2
        mem, bit_row = state[:p], state[p + 1]
        y, power, turn = np.empty((3, p, state.shape[1]), dtype=np.complex128)
        mem_parts, y_parts, power_real = mem.view(np.float64), y.view(np.float64), power.real
        folded = self.stages.transpose(0, 2, 1)
        product = np.ndarray.dot if state.shape[1] == 1 else np.matmul
        unit, memory, kerr = _rotations(_Q), self._memory, self._kerr
        last = self.challenge_len - 1
        raws = []
        for t, bits in enumerate(bit_rows, first):
            bit_row[...] = bits
            product(folded[t], state, y)
            np.floor(y_parts, y_parts)
            np.conjugate(y, power)
            np.multiply(y, power, power)
            steps = ((power_real.astype(np.int64) >> _LEVEL) * kerr) >> _SCALE
            if trace or t == last:
                s = y * unit.take(steps, None, None, "wrap")
                parts = s.view(np.float64)
                np.floor(parts, parts)
                z = s.T @ self.detect.T
                parts = z.view(np.float64)
                np.floor(parts, parts)
                raws.append((z * z.conj()).real)
            if t < last:
                memory.take(steps, None, turn, "wrap")
                np.multiply(y, turn, mem)
                np.floor(mem_parts, mem_parts)
        return raws

    def _prefix_table(self) -> np.ndarray:
        """(2^PREFIX_BITS, P) read-only m_PREFIX_BITS, in counts of q, for
        every challenge prefix; row i is the prefix whose bits, first bit
        most significant, spell i.

        Built as a tree: each stage extends every prefix by 0 and by 1, so
        column 2i + c of the next level continues column i with bit c.

        The table is stored as the read-only C-contiguous (P, 2^PREFIX_BITS)
        array the tree leaves, and returned as its transpose, so that
        ``_raw``'s ``take`` of prefix columns reads the stored array in
        place: on the transposed F-ordered layout ``take`` first copies the
        whole 128 KB table, about 12 us per tile, against 0.3 us.
        """
        p = self.params.n_paths
        state = np.zeros((p + 2, 1), dtype=np.complex128)
        state[p] = 1
        for t in range(PREFIX_BITS):
            state = np.repeat(state, 2, axis=1)
            self._cascade(state, [np.tile([0, 1], state.shape[1] // 2)], t)
        table = state[:p].copy()
        table.flags.writeable = False
        return table.T

    def _bind_kernel(self) -> tuple:
        """The compiled kernel's arguments that describe this device: its
        sizes, the addresses of its C-ordered tables and the cascade's
        integer constants, and the arrays they point into. The device holds
        these until it is freed or one of ``_KERNEL_INPUTS`` is assigned,
        which binds anew, so every address stays valid and a read of any
        width reads the device's current arrays."""
        arrays = tuple(np.ascontiguousarray(a) for a in (
            self.prefix_states.T, self.stages, self.detect, _rotations(_Q), self._memory))
        args = (self.challenge_len, PREFIX_BITS, self.stages.shape[2], len(self.detect),
                *(a.ctypes.data for a in arrays),
                int(self._kerr), int(_LEVEL), int(_SCALE), _N - 1, _GRID ** 2)
        return args, arrays

    def __setattr__(self, name: str, value) -> None:
        super().__setattr__(name, value)
        if name in self._KERNEL_INPUTS and "_kernel_args" in self.__dict__:
            self._kernel_args, self._kernel_arrays = self._bind_kernel()

    def __getstate__(self) -> dict:
        # addresses are valid only in this process and for these arrays, so
        # a pickled or deep-copied device binds its own
        state = self.__dict__.copy()
        del state["_kernel_args"], state["_kernel_arrays"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._kernel_args, self._kernel_arrays = self._bind_kernel()

    def _raw(self, bits_matrix: np.ndarray) -> np.ndarray:
        """``raw_intensities`` of an already validated matrix, in a fresh
        (B, M) array that the caller may scale in place.

        The rows are propagated in consecutive tiles of at most
        ``PROPAGATE_TILE``, each written into its rows of the one result.
        Each row propagates on its own in exact integers, so tiling moves
        no value. A tile starts from its tabulated m_PREFIX_BITS and runs
        the remaining stages only: a tile of fewer than ``KERNEL_ROWS`` rows
        in one call of the compiled kernel, where it is loaded, and any
        other tile in ``_cascade``.
        """
        p = self.params.n_paths
        out = np.empty((len(bits_matrix), len(self.detect)))
        for i in range(0, len(bits_matrix), PROPAGATE_TILE):
            tile = bits_matrix[i:i + PROPAGATE_TILE]
            if len(tile) < KERNEL_ROWS and _compiled_cascade is not None:
                rows = np.ascontiguousarray(tile, np.uint8)
                scratch = np.empty(6 * p)
                _compiled_cascade(len(rows), rows.ctypes.data, scratch.ctypes.data,
                                  out[i:].ctypes.data, *self._kernel_args)
                continue
            order = tile.T
            state = np.empty((p + 2, order.shape[1]), dtype=np.complex128)
            state[p] = 1
            prefix = _PREFIX_WEIGHTS @ order[:PREFIX_BITS]
            self.prefix_states.T.take(prefix, 1, state[:p], "clip")
            raw = self._cascade(state, order[PREFIX_BITS:], PREFIX_BITS)[0]
            np.multiply(raw, _GRID ** 2, out=out[i:i + PROPAGATE_TILE])
        return out

    def raw_intensities(self, bits_matrix) -> np.ndarray:
        """Noiseless detected intensities in raw (pre-gain) units, (B, M)."""
        return self._raw(self._challenge_rows(bits_matrix))

    def stage_trace(self, challenge) -> np.ndarray:
        """Per-stage noiseless intensities (L, M) of one (L,) challenge row:
        the full cascade from m_0 = 0."""
        order = self._challenge_rows(np.asarray(challenge)[None]).T
        p = self.params.n_paths
        state = np.zeros((p + 2, 1), dtype=np.complex128)
        state[p] = 1
        return np.concatenate(self._cascade(state, order, 0, trace=True)) * _GRID ** 2

    def evaluate_analog(self, bits_matrix: np.ndarray) -> np.ndarray:
        analog = self._raw(bits_matrix)
        analog *= self.gain
        return analog

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
        self.thresholds = np.median(self.gain * raw, axis=0)
        self.thresholds.flags.writeable = False
        return self.thresholds
