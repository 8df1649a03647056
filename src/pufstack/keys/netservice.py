"""Encrypted configuration/data service for a toy accelerator.

The accelerator stand-in is a stack of matrix-vector layers with an
elementwise ReLU. Network configs, inputs, and outputs cross the service
boundary only as AEAD blobs.

Plaintext buffers and their lifetimes:
  - A plaintext about to be sealed (an encoded network, input or output)
    is wiped as soon as it is sealed.
  - An opened input or output is wiped as soon as it is decoded:
    ``decode_vector`` copies the values out.
  - An opened network config becomes the accelerator's weight storage.
    ``decode_network`` converts its weight blocks to native byte order in
    place and returns them as views, so the weights exist once. The whole
    buffer, header bytes included, is wiped when a reload replaces it and
    on ``close()``.
  - A plaintext that fails authentication or decoding is wiped before the
    error propagates; a rejected reload leaves the loaded network in place.

Plaintext schemas (all big-endian):
  network: u32 layer_count, then per layer u32 rows, u32 cols,
           rows*cols f64 weights in row-major order
  vector:  u32 length, then length f64 values

Both put their float64 data at offsets that are 4 (mod 8). The buffers
that ``encode_network`` and ``AeadBox.open`` return place byte 4 on an
8-byte boundary (``aead.empty_buffer``), so a weight block decoded in
place is an aligned, C-contiguous array and ``w @ x`` keeps the BLAS path.
"""

from __future__ import annotations

import struct
import sys

import numpy as np

from ..errors import FormatError, ProtocolStateError
from .aead import AeadBox, CipheredBlob, empty_buffer, wipe
from .fuzzy import SecretKey

_NET_AAD = b"toy-network-config"
_IN_AAD = b"toy-network-input"
_OUT_AAD = b"toy-network-output"


def _put_f8(buf, offset: int, values: np.ndarray) -> int:
    """Write ``values`` into the writable buffer ``buf`` at ``offset`` as
    big-endian float64, in one pass; return the offset just past them."""
    np.frombuffer(buf, ">f8", values.size, offset).reshape(values.shape)[...] = values
    return offset + 8 * values.size


def encode_network(layers: list[np.ndarray]) -> memoryview:
    """The network config, in a new writable buffer (``empty_buffer``) that
    the caller owns and wipes."""
    if not layers:
        raise FormatError("network needs at least one layer")
    layers = [np.asarray(w, dtype=np.float64) for w in layers]
    if any(w.ndim != 2 for w in layers):
        raise FormatError("layer weights must be 2-D")
    if any(w.size == 0 for w in layers):
        raise FormatError("layer has no rows or no columns")
    buf = empty_buffer(4 + sum(8 + 8 * w.size for w in layers))
    struct.pack_into(">I", buf, 0, len(layers))
    offset = 4
    for w in layers:
        struct.pack_into(">II", buf, offset, *w.shape)
        offset = _put_f8(buf, offset + 8, w)
    return buf


def decode_network(raw) -> list[np.ndarray]:
    """The layers of a network config, decoded in place.

    ``raw`` must be a writable buffer. Once the config is checked, each
    weight block is converted to native byte order in place, and the
    layers returned are C-contiguous float64 views of ``raw``: they hold
    the weights for as long as ``raw`` does, and wiping ``raw`` wipes them.
    """
    try:
        (count,) = struct.unpack_from(">I", raw, 0)
        if count == 0:
            raise FormatError("network needs at least one layer")
        offset = 4
        layers = []
        for _ in range(count):
            rows, cols = struct.unpack_from(">II", raw, offset)
            offset += 8
            if rows == 0 or cols == 0:
                raise FormatError("layer has no rows or no columns")
            n = rows * cols * 8
            if len(raw) - offset < n:
                raise FormatError("truncated weight block")
            w = np.frombuffer(raw, dtype=np.float64, count=rows * cols, offset=offset)
            layers.append(w.reshape(rows, cols))
            offset += n
        if offset != len(raw):
            raise FormatError("trailing bytes after network config")
    except struct.error as exc:
        raise FormatError("malformed network config") from exc
    for prev, nxt in zip(layers, layers[1:]):
        if nxt.shape[1] != prev.shape[0]:
            raise FormatError("layer dimensions do not chain")
    if sys.byteorder == "little":       # the schema is big-endian
        for w in layers:
            w.byteswap(inplace=True)
    return layers


def encode_vector(values: np.ndarray) -> bytearray:
    v = np.asarray(values, dtype=np.float64).ravel()
    buf = bytearray(4 + 8 * v.size)
    struct.pack_into(">I", buf, 0, v.size)
    _put_f8(buf, 4, v)
    return buf


def decode_vector(raw: bytes) -> np.ndarray:
    try:
        (n,) = struct.unpack_from(">I", raw, 0)
    except struct.error as exc:
        raise FormatError("malformed vector") from exc
    if len(raw) - 4 != 8 * n:
        raise FormatError("vector length field inconsistent")
    return np.frombuffer(raw, dtype=">f8", offset=4).astype(np.float64)


def reference_forward(layers: list[np.ndarray], v: np.ndarray) -> np.ndarray:
    """Plaintext evaluator; the encrypted path must match this bit-exactly."""
    x = np.asarray(v, dtype=np.float64)
    for w in layers:
        x = np.maximum(w @ x, 0.0)
    return x


class SecureAccelerator:
    """Single-owner handle: load one network, execute sealed inputs."""

    def __init__(self, key: SecretKey):
        self._box = AeadBox(key)
        self._weights: memoryview | None = None    # the opened config
        self._layers: list[np.ndarray] | None = None   # views of _weights

    def load_network(self, ciphered_network: CipheredBlob) -> None:
        """Replace the loaded network. The opened config becomes the weight
        storage. The old one is wiped whole only once the new config has
        authenticated and decoded; a rejected load leaves the current
        network in place."""
        plain = self._box.open(ciphered_network, aad=_NET_AAD)
        try:
            layers = decode_network(plain)
        except BaseException:
            wipe(plain)
            raise
        self._unload()
        self._weights, self._layers = plain, layers

    def execute_network(self, ciphered_input: CipheredBlob) -> CipheredBlob:
        if self._layers is None:
            raise ProtocolStateError("no network loaded")
        v = self._open_vector(ciphered_input, _IN_AAD)
        if v.size != self._layers[0].shape[1]:
            raise FormatError("input dimension does not match first layer")
        out = reference_forward(self._layers, v)
        return self._seal(encode_vector(out), _OUT_AAD)

    def seal_network(self, layers: list[np.ndarray]) -> CipheredBlob:
        """Provisioning-side helper: encrypt a config under this handle's key."""
        return self._seal(encode_network(layers), _NET_AAD)

    def seal_input(self, values: np.ndarray) -> CipheredBlob:
        return self._seal(encode_vector(values), _IN_AAD)

    def open_output(self, blob: CipheredBlob) -> np.ndarray:
        return self._open_vector(blob, _OUT_AAD)

    def _seal(self, plain, aad: bytes) -> CipheredBlob:
        try:
            return self._box.seal(plain, aad=aad)
        finally:
            wipe(plain)

    def _open_vector(self, blob: CipheredBlob, aad: bytes) -> np.ndarray:
        plain = self._box.open(blob, aad=aad)
        try:
            return decode_vector(plain)
        finally:
            wipe(plain)

    def _unload(self) -> None:
        if self._weights is not None:
            wipe(self._weights)
            self._weights = self._layers = None

    def close(self):
        self._unload()
        self._box.close()
