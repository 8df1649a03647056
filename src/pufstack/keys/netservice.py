"""Encrypted configuration/data service for a toy accelerator.

The accelerator stand-in is a stack of matrix-vector layers with an
elementwise ReLU. Network configs, inputs, and outputs cross the service
boundary only as AEAD blobs; plaintext weights live inside this module and
are zeroized on ``close()`` and when a reload replaces them. The encoded
plaintext that a seal reads and the decrypted plaintext that an open writes
are zeroized as soon as they are sealed or decoded, and also when the blob
fails authentication or decoding.

Plaintext schemas (all big-endian):
  network: u32 layer_count, then per layer u32 rows, u32 cols,
           rows*cols f64 weights in row-major order
  vector:  u32 length, then length f64 values
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import FormatError, ProtocolStateError
from .aead import AeadBox, CipheredBlob, wipe
from .fuzzy import SecretKey

_NET_AAD = b"toy-network-config"
_IN_AAD = b"toy-network-input"
_OUT_AAD = b"toy-network-output"


def _put_f8(buf: bytearray, offset: int, values: np.ndarray) -> int:
    """Write ``values`` into ``buf`` at ``offset`` as big-endian float64, in
    one pass; return the offset just past them."""
    np.frombuffer(buf, ">f8", values.size, offset).reshape(values.shape)[...] = values
    return offset + 8 * values.size


def encode_network(layers: list[np.ndarray]) -> bytearray:
    if not layers:
        raise FormatError("network needs at least one layer")
    layers = [np.asarray(w, dtype=np.float64) for w in layers]
    if any(w.ndim != 2 for w in layers):
        raise FormatError("layer weights must be 2-D")
    buf = bytearray(4 + sum(8 + 8 * w.size for w in layers))
    struct.pack_into(">I", buf, 0, len(layers))
    offset = 4
    for w in layers:
        struct.pack_into(">II", buf, offset, *w.shape)
        offset = _put_f8(buf, offset + 8, w)
    return buf


def decode_network(raw: bytes) -> list[np.ndarray]:
    try:
        (count,) = struct.unpack_from(">I", raw, 0)
        if count == 0:
            raise FormatError("network needs at least one layer")
        offset = 4
        layers = []
        for _ in range(count):
            rows, cols = struct.unpack_from(">II", raw, offset)
            offset += 8
            n = rows * cols * 8
            if len(raw) - offset < n:
                raise FormatError("truncated weight block")
            w = np.frombuffer(raw, dtype=">f8", count=rows * cols, offset=offset)
            layers.append(w.reshape(rows, cols).astype(np.float64))
            offset += n
        if offset != len(raw):
            raise FormatError("trailing bytes after network config")
    except struct.error as exc:
        raise FormatError("malformed network config") from exc
    for prev, nxt in zip(layers, layers[1:]):
        if nxt.shape[1] != prev.shape[0]:
            raise FormatError("layer dimensions do not chain")
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
        self._layers: list[np.ndarray] | None = None

    def load_network(self, ciphered_network: CipheredBlob) -> None:
        """Replace the loaded network. The old weights are wiped only once
        the new config has authenticated and decoded; a rejected load
        leaves the current network in place."""
        layers = self._open(ciphered_network, _NET_AAD, decode_network)
        self._wipe_layers()
        self._layers = layers

    def execute_network(self, ciphered_input: CipheredBlob) -> CipheredBlob:
        if self._layers is None:
            raise ProtocolStateError("no network loaded")
        v = self._open(ciphered_input, _IN_AAD, decode_vector)
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
        return self._open(blob, _OUT_AAD, decode_vector)

    def _seal(self, plain: bytearray, aad: bytes) -> CipheredBlob:
        try:
            return self._box.seal(plain, aad=aad)
        finally:
            wipe(plain)

    def _open(self, blob: CipheredBlob, aad: bytes, decode):
        plain = self._box.open(blob, aad=aad)
        try:
            return decode(plain)
        finally:
            wipe(plain)

    def _wipe_layers(self) -> None:
        if self._layers is not None:
            for w in self._layers:
                w.fill(0.0)
            self._layers = None

    def close(self):
        self._wipe_layers()
        self._box.close()
