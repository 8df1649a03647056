"""Encrypted configuration/data service for a toy accelerator.

The accelerator stand-in is a stack of matrix-vector layers with an
elementwise ReLU. Network configs, inputs, and outputs cross the service
boundary only as AEAD blobs; plaintext weights live inside this module and
are zeroized when the handle is dropped.

Plaintext schemas (all big-endian):
  network: u32 layer_count, then per layer u32 rows, u32 cols,
           rows*cols f64 weights in row-major order
  vector:  u32 length, then length f64 values
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import FormatError, ProtocolStateError
from .aead import AeadBox, CipheredBlob
from .fuzzy import SecretKey

_NET_AAD = b"toy-network-config"
_IN_AAD = b"toy-network-input"
_OUT_AAD = b"toy-network-output"


def encode_network(layers: list[np.ndarray]) -> bytes:
    if not layers:
        raise FormatError("network needs at least one layer")
    out = [struct.pack(">I", len(layers))]
    for w in layers:
        w = np.asarray(w, dtype=np.float64)
        if w.ndim != 2:
            raise FormatError("layer weights must be 2-D")
        out.append(struct.pack(">II", w.shape[0], w.shape[1]))
        out.append(w.astype(">f8").tobytes())
    return b"".join(out)


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


def encode_vector(values: np.ndarray) -> bytes:
    v = np.asarray(values, dtype=np.float64).ravel()
    return struct.pack(">I", v.size) + v.astype(">f8").tobytes()


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
        plaintext = self._box.open(ciphered_network, aad=_NET_AAD)
        self._layers = decode_network(plaintext)

    def execute_network(self, ciphered_input: CipheredBlob) -> CipheredBlob:
        if self._layers is None:
            raise ProtocolStateError("no network loaded")
        v = decode_vector(self._box.open(ciphered_input, aad=_IN_AAD))
        if v.size != self._layers[0].shape[1]:
            raise FormatError("input dimension does not match first layer")
        out = reference_forward(self._layers, v)
        return self._box.seal(encode_vector(out), aad=_OUT_AAD)

    def seal_network(self, layers: list[np.ndarray]) -> CipheredBlob:
        """Provisioning-side helper: encrypt a config under this handle's key."""
        return self._box.seal(encode_network(layers), aad=_NET_AAD)

    def seal_input(self, values: np.ndarray) -> CipheredBlob:
        return self._box.seal(encode_vector(values), aad=_IN_AAD)

    def open_output(self, blob: CipheredBlob) -> np.ndarray:
        return decode_vector(self._box.open(blob, aad=_OUT_AAD))

    def close(self):
        if self._layers is not None:
            for w in self._layers:
                w.fill(0.0)
            self._layers = None
        self._box.close()
