"""Encrypted configuration/data service for a toy accelerator.

The accelerator stand-in is a stack of matrix-vector layers with an
elementwise ReLU. Network configs, inputs, and outputs cross the service
boundary only as AEAD blobs.

Plaintext buffers and their lifetimes:
  - A network config is sealed straight from its layers: ``seal_network``
    streams the headers and each layer's own float64 memory through one
    AES-GCM context, so no plaintext copy of the network is made. A layer
    that is not C-contiguous little-endian float64 is sealed from a
    conversion copy, which is wiped once the blob is sealed; so are the
    headers. The caller's layers are read, never written.
  - An encoded input or output is wiped as soon as it is sealed.
  - An opened input or output is wiped as soon as it is decoded:
    ``decode_vector`` copies the values out.
  - An opened network config becomes the accelerator's weight storage.
    ``decode_network`` returns its weight blocks as views, so the weights
    exist once. The whole buffer, header bytes included, is wiped when a
    reload replaces it and on ``close()``.
  - A plaintext that fails authentication or decoding is wiped before the
    error propagates; a rejected reload leaves the loaded network in place.

Plaintext schemas (all little-endian, so that on a little-endian host a
float64 array's memory is its schema bytes, in both directions):
  network: u32 layer_count, then per layer u32 rows, u32 cols,
           rows*cols f64 weights in row-major order
  vector:  u32 length, then length f64 values

Both put their float64 data at offsets that are 4 (mod 8). The buffers
that ``encode_network`` and ``AeadBox.open`` return place byte 4 on an
8-byte boundary (``aead.empty_buffer``), so a weight block decoded in
place is an aligned, C-contiguous array and ``w @ x`` keeps the BLAS path.
The blob wire layout around a sealed schema stays big-endian
(``aead.CipheredBlob``).
"""

from __future__ import annotations

import struct
import sys
from contextlib import contextmanager

import numpy as np

from ..errors import FormatError, ProtocolStateError
from .aead import AeadBox, CipheredBlob, empty_buffer, wipe
from .fuzzy import SecretKey

_NET_AAD = b"toy-network-config"
_IN_AAD = b"toy-network-input"
_OUT_AAD = b"toy-network-output"


@contextmanager
def _network_parts(layers):
    """The network config as a list of buffers whose concatenation is the
    schema: the layer count, then each layer's shape and its weights.

    A layer that already is a C-contiguous little-endian float64 array is
    its own part, so its bytes are never copied. Every other buffer in the
    list was made here: the headers, and a conversion copy of each other
    layer (an int, transposed, Fortran-order or float32 one, or any layer
    on a big-endian host). Each of those is wiped on exit, and no caller
    array is written.
    """
    if not layers:
        raise FormatError("network needs at least one layer")
    count = bytearray(struct.pack("<I", len(layers)))
    made, parts = [count], [count]
    try:
        for w in layers:
            block = np.ascontiguousarray(w, dtype="<f8")
            if not (isinstance(w, np.ndarray) and np.may_share_memory(block, w)):
                made.append(block)
            if block.ndim != 2:
                raise FormatError("layer weights must be 2-D")
            if block.size == 0:
                raise FormatError("layer has no rows or no columns")
            made.append(bytearray(struct.pack("<II", *block.shape)))
            parts += (made[-1], block)
        yield parts
    finally:
        for buf in made:
            wipe(buf)


def encode_network(layers: list[np.ndarray]) -> memoryview:
    """The network config, in a new writable buffer (``empty_buffer``) that
    the caller owns and wipes."""
    with _network_parts(layers) as parts:
        parts = [memoryview(part).cast("B") for part in parts]
        buf = empty_buffer(sum(map(len, parts)))
        offset = 0
        for part in parts:
            buf[offset:offset + len(part)] = part
            offset += len(part)
        return buf


def decode_network(raw) -> list[np.ndarray]:
    """The layers of a network config, decoded in place.

    ``raw`` must be a writable buffer. The layers returned are C-contiguous
    float64 views of ``raw``, with no conversion pass on a little-endian
    host (on a big-endian one each weight block is byte-swapped in place
    once the config is checked): they hold the weights for as long as
    ``raw`` does, and wiping ``raw`` wipes them.
    """
    try:
        (count,) = struct.unpack_from("<I", raw, 0)
        if count == 0:
            raise FormatError("network needs at least one layer")
        offset = 4
        layers = []
        for _ in range(count):
            rows, cols = struct.unpack_from("<II", raw, offset)
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
    if sys.byteorder == "big":          # the schema is little-endian
        for w in layers:
            w.byteswap(inplace=True)
    return layers


def encode_vector(values: np.ndarray) -> bytearray:
    v = np.asarray(values, dtype=np.float64).ravel()
    buf = bytearray(4 + 8 * v.size)
    struct.pack_into("<I", buf, 0, v.size)
    np.frombuffer(buf, "<f8", v.size, 4)[...] = v
    return buf


def decode_vector(raw: bytes) -> np.ndarray:
    try:
        (n,) = struct.unpack_from("<I", raw, 0)
    except struct.error as exc:
        raise FormatError("malformed vector") from exc
    if len(raw) - 4 != 8 * n:
        raise FormatError("vector length field inconsistent")
    return np.frombuffer(raw, dtype="<f8", offset=4).astype(np.float64)


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
        """Provisioning-side helper: encrypt a config under this handle's
        key, streamed from the layers themselves (``_network_parts``)."""
        with _network_parts(layers) as parts:
            return self._box.seal(parts, aad=_NET_AAD)

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
