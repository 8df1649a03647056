import hashlib
import itertools
import struct

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given, settings
from hypothesis import strategies as st

from pufstack.errors import FormatError, ProtocolStateError, TamperError
from pufstack.keys.aead import NONCE_BYTES, TAG_BYTES, AeadBox, CipheredBlob
from pufstack.keys.fuzzy import SecretKey
from pufstack.keys.netservice import (_IN_AAD, _NET_AAD, SecureAccelerator,
                                      decode_network, decode_vector,
                                      encode_network, encode_vector,
                                      reference_forward)

KEY = SecretKey(bytes(range(16)))


def fresh_box():
    return AeadBox(SecretKey(bytes(range(16))))


class TestAeadBox:
    def test_roundtrip(self):
        box = fresh_box()
        blob = box.seal(b"hello accelerator", aad=b"ctx")
        assert box.open(blob, aad=b"ctx") == b"hello accelerator"

    def test_wire_layout(self):
        box = fresh_box()
        blob = box.seal(b"abc")
        raw = blob.to_bytes()
        assert len(raw) == 12 + 4 + 3 + 16
        assert raw[:12] == blob.nonce
        assert int.from_bytes(raw[12:16], "big") == 3
        parsed = CipheredBlob.from_bytes(raw)
        assert parsed == blob

    def test_from_bytes_rejects_garbage(self):
        with pytest.raises(FormatError):
            CipheredBlob.from_bytes(b"\x00" * 10)
        box = fresh_box()
        raw = bytearray(box.seal(b"abcd").to_bytes())
        raw[12:16] = (99).to_bytes(4, "big")  # inconsistent length field
        with pytest.raises(FormatError):
            CipheredBlob.from_bytes(bytes(raw))

    def test_nonces_never_repeat(self):
        box = fresh_box()
        nonces = {box.seal(b"x").nonce for _ in range(100)}
        assert len(nonces) == 100

    def test_wrong_aad_rejected(self):
        box = fresh_box()
        blob = box.seal(b"data", aad=b"right")
        with pytest.raises(TamperError):
            box.open(blob, aad=b"wrong")

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=(12 + 4 + 5 + 16) * 8 - 1))
    def test_any_single_bit_flip_detected(self, pos):
        box = fresh_box()
        raw = bytearray(box.seal(b"abcde").to_bytes())
        raw[pos // 8] ^= 1 << (7 - pos % 8)
        try:
            blob = CipheredBlob.from_bytes(bytes(raw))
        except FormatError:
            return  # flip landed in the length field
        with pytest.raises(TamperError):
            box.open(blob)

    def test_close_zeroizes_key(self):
        key = SecretKey(bytes(range(16)))
        box = AeadBox(key)
        box.close()
        assert key._reveal() == b"\x00" * 16

    def test_blob_shorter_than_tag_rejected(self):
        with pytest.raises(FormatError):
            CipheredBlob(b"\x00" * 12, b"\x00" * 15)

    @pytest.mark.parametrize("length", [0, 8, 11, 13, 16])
    def test_nonce_length_checked(self, length):
        # AES-GCM takes nonces of 8 to 128 bytes and hashes every one that
        # is not 12 bytes into its IV; the wire layout has exactly 12
        with pytest.raises(FormatError, match="nonce"):
            CipheredBlob(b"\x00" * length, b"\x00" * 16)

    def test_zeroized_key_rejected(self):
        key = SecretKey(bytes(range(16)))
        key.zeroize()
        with pytest.raises(ProtocolStateError):
            AeadBox(key)

    def test_closed_box_refuses_work(self):
        box = fresh_box()
        blob = box.seal(b"payload")
        box.close()
        with pytest.raises(ProtocolStateError):
            box.seal(b"payload")
        with pytest.raises(ProtocolStateError):
            box.open(blob)

    def test_sibling_box_refuses_work_after_key_zeroized(self):
        key = SecretKey(bytes(range(16)))
        box, sibling = AeadBox(key), AeadBox(key)
        blob = sibling.seal(b"payload")
        box.close()
        with pytest.raises(ProtocolStateError):
            sibling.seal(b"payload")
        with pytest.raises(ProtocolStateError):
            sibling.open(blob)


class TestNetworkCodec:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        layers = [rng.normal(size=(4, 6)), rng.normal(size=(3, 4))]
        back = decode_network(encode_network(layers))
        assert len(back) == 2
        for a, b in zip(layers, back):
            assert np.array_equal(a, b)

    def test_vector_roundtrip(self):
        v = np.random.default_rng(1).normal(size=17)
        assert np.array_equal(decode_vector(encode_vector(v)), v)

    def test_malformed_rejected(self):
        with pytest.raises(FormatError):
            decode_network(b"")
        with pytest.raises(FormatError):
            decode_network(bytes(encode_network([np.eye(3)])) + b"\x00")
        with pytest.raises(FormatError):
            decode_network((1).to_bytes(4, "big") + (2).to_bytes(4, "big")
                           + (2).to_bytes(4, "big") + b"\x00" * 8)  # truncated
        with pytest.raises(FormatError):
            encode_network([])
        with pytest.raises(FormatError):
            encode_network([np.zeros(3)])  # 1-D layer
        with pytest.raises(FormatError):
            decode_vector(b"\x00")
        with pytest.raises(FormatError):
            # layer shapes that cannot chain: (2,3) then (2,4)
            decode_network(encode_network([np.zeros((2, 3)), np.zeros((2, 4))]))
        # layers with no rows or no columns: they chain, and would answer
        # [] or [0, 0] to every input
        for shapes in ([(0, 3)], [(0, 3), (2, 0)]):
            with pytest.raises(FormatError, match="no rows or no columns"):
                encode_network([np.ones(shape) for shape in shapes])
            header = struct.pack(">I", len(shapes))
            with pytest.raises(FormatError, match="no rows or no columns"):
                decode_network(bytearray(header + b"".join(
                    struct.pack(">II", *shape) for shape in shapes)))

    def test_partial_float_rejected(self):
        # a float64 block cut to a length that is not a multiple of 8 bytes
        with pytest.raises(FormatError):
            decode_vector((1).to_bytes(4, "big") + b"\x00" * 5)
        with pytest.raises(FormatError):
            decode_network((1).to_bytes(4, "big") + (1).to_bytes(4, "big")
                           + (2).to_bytes(4, "big") + b"\x00" * 12)


class TestSecureAccelerator:
    def _accel(self):
        return SecureAccelerator(SecretKey(bytes(range(16))))

    def test_identity_network(self):
        accel = self._accel()
        accel.load_network(accel.seal_network([np.eye(4)]))
        x = np.array([1.0, -2.0, 3.0, 0.5])
        out = accel.open_output(accel.execute_network(accel.seal_input(x)))
        assert np.array_equal(out, np.maximum(x, 0.0))

    def test_matches_plaintext_oracle_bit_exact(self):
        rng = np.random.default_rng(2)
        layers = [rng.normal(size=(8, 6)), rng.normal(size=(4, 8))]
        accel = self._accel()
        accel.load_network(accel.seal_network(layers))
        for _ in range(20):
            x = rng.normal(size=6)
            out = accel.open_output(accel.execute_network(accel.seal_input(x)))
            assert np.array_equal(out, reference_forward(layers, x))

    def test_execute_without_network(self):
        accel = self._accel()
        with pytest.raises(ProtocolStateError):
            accel.execute_network(accel.seal_input(np.zeros(4)))

    def test_input_dimension_checked(self):
        accel = self._accel()
        accel.load_network(accel.seal_network([np.eye(4)]))
        with pytest.raises(FormatError):
            accel.execute_network(accel.seal_input(np.zeros(5)))

    def test_tampered_config_rejected(self):
        accel = self._accel()
        blob = accel.seal_network([np.eye(4)])
        raw = bytearray(blob.to_bytes())
        raw[-1] ^= 0x01
        with pytest.raises(TamperError):
            accel.load_network(CipheredBlob.from_bytes(bytes(raw)))

    def test_aad_domains_separated(self):
        # a sealed input must not be accepted as a network config
        accel = self._accel()
        blob = accel.seal_input(np.zeros(4))
        with pytest.raises(TamperError):
            accel.load_network(blob)

    def test_close_wipes_weights(self):
        accel = self._accel()
        layers = [np.ones((2, 2))]
        accel.load_network(accel.seal_network(layers))
        held = accel._layers[0]
        accel.close()
        assert np.all(held == 0.0)
        with pytest.raises(ProtocolStateError):
            accel.execute_network(CipheredBlob(b"\x00" * 12, b"\x00" * 16))

    def test_reload_wipes_previous_weights(self):
        accel = self._accel()
        accel.load_network(accel.seal_network([np.full((2, 2), 3.0)]))
        held = accel._layers[0]
        accel.load_network(accel.seal_network([np.eye(2)]))
        assert np.all(held == 0.0)
        x = np.array([1.0, 2.0])
        out = accel.open_output(accel.execute_network(accel.seal_input(x)))
        assert np.array_equal(out, x)

    def test_rejected_reload_keeps_network(self):
        accel = self._accel()
        layers = [np.full((2, 2), 3.0)]
        accel.load_network(accel.seal_network(layers))
        raw = bytearray(accel.seal_network([np.eye(2)]).to_bytes())
        raw[-1] ^= 0x01
        with pytest.raises(TamperError):
            accel.load_network(CipheredBlob.from_bytes(bytes(raw)))
        x = np.array([1.0, 2.0])
        out = accel.open_output(accel.execute_network(accel.seal_input(x)))
        assert np.array_equal(out, reference_forward(layers, x))

    def test_nonces_unique_across_handles(self):
        # as in key-service: a new provisioning handle per op on the enrolled
        # key, and a device handle on an equal key reproduced from a read
        enrolled = SecretKey(bytes(range(16)))
        device = SecureAccelerator(SecretKey(bytes(range(16))))
        blobs = []
        for _ in range(2):
            provisioning = SecureAccelerator(enrolled)
            blobs.append(provisioning.seal_network([np.eye(4)]))
            device.load_network(blobs[-1])
            for x in np.eye(4):
                blobs.append(provisioning.seal_input(x))
                blobs.append(device.execute_network(blobs[-1]))
        nonces = [blob.nonce for blob in blobs]
        assert len(set(nonces)) == len(nonces) == 18

    def test_plaintext_buffers_wiped(self, monkeypatch):
        opened, sealed = [], []
        real_open, real_seal = AeadBox.open, AeadBox.seal

        def recording_open(box, blob, aad=b""):
            opened.append(real_open(box, blob, aad))
            return opened[-1]

        def recording_seal(box, plaintext, aad=b""):
            sealed.append(plaintext)
            return real_seal(box, plaintext, aad)

        monkeypatch.setattr(AeadBox, "open", recording_open)
        monkeypatch.setattr(AeadBox, "seal", recording_seal)
        accel = self._accel()
        accel.load_network(accel.seal_network([np.full((2, 2), 3.0)]))
        out = accel.open_output(accel.execute_network(accel.seal_input(np.ones(2))))
        assert np.array_equal(out, [6.0, 6.0])
        assert len(opened) == 3 and len(sealed) == 3
        # the opened network is the weight storage: each layer is an
        # aligned, native, C-contiguous view of it until close()
        network = opened[0]
        for w in accel._layers:
            assert np.shares_memory(w, np.frombuffer(network, dtype=np.uint8))
            assert w.flags.aligned and w.flags.c_contiguous and w.dtype.isnative
        for buf in opened[1:] + sealed:
            assert buf == bytes(len(buf))
        # a config that authenticates but does not decode (a trailing
        # float after its one 1 x 1 layer) is wiped too
        config = struct.pack(">III2d", 1, 1, 1, 3.0, 3.0)
        with pytest.raises(FormatError):
            accel.load_network(accel._box.seal(config, aad=_NET_AAD))
        assert opened[-1] == bytes(len(opened[-1]))
        assert network != bytes(len(network))
        accel.close()
        assert network == bytes(len(network))

    def test_reload_wipes_whole_previous_buffer(self, monkeypatch):
        opened = []
        real_open = AeadBox.open

        def recording_open(box, blob, aad=b""):
            opened.append(real_open(box, blob, aad))
            return opened[-1]

        monkeypatch.setattr(AeadBox, "open", recording_open)
        accel = self._accel()
        accel.load_network(accel.seal_network([np.full((2, 3), 3.0), np.eye(2)]))
        previous = opened[0]
        assert previous[:4] == struct.pack(">I", 2)
        accel.load_network(accel.seal_network([np.eye(3)]))
        assert previous == bytes(len(previous))
        assert opened[1] != bytes(len(opened[1]))

    def test_unauthenticated_plaintext_wiped(self):
        box = fresh_box()
        raw = bytearray(box.seal(b"secret weights").to_bytes())
        raw[-1] ^= 0x01
        written = []

        class RecordingCipher:
            def __init__(self, cipher):
                self.cipher = cipher

            def decrypt_into(self, nonce, data, aad, buf):
                written.append(buf)
                self.cipher.decrypt_into(nonce, data, aad, buf)

        box._cipher = RecordingCipher(box._cipher)
        with pytest.raises(TamperError):
            box.open(CipheredBlob.from_bytes(bytes(raw)))
        assert written == [bytearray(14)]


def _pinned_layers():
    a = np.arange(24, dtype=np.float64).reshape(4, 6) / 7.0 - 1.5
    a[0, 0] = -0.0
    b = (np.arange(12).reshape(4, 3) - 5).T       # integer, transposed view
    return [a, b]


_PINNED_VECTOR = np.linspace(-2.0, 3.0, 9)


def _sha(raw) -> str:
    return hashlib.sha256(raw).hexdigest()


class TestWireFormatPinned:
    """SHA-256 pins of the plaintext schemas and of the sealed-blob wire
    layout under a fixed key and fixed nonces."""

    def test_encode_network_frozen(self):
        assert _sha(encode_network(_pinned_layers())) == (
            "6aca3a9a5b628e2fd067421059fbcf3a2fcb10d02c4089be99cf4fa44b2aa890")

    def test_encode_vector_frozen(self):
        assert _sha(encode_vector(_PINNED_VECTOR)) == (
            "7699e640b34d6843bd85fd55d794f290e9bdeac7af624ef932955275003b0623")

    def test_sealed_blobs_frozen(self, monkeypatch):
        # nonces are random; pin the layout under nonces 0, 1, ...
        counter = itertools.count()
        monkeypatch.setattr(AeadBox, "_next_nonce",
                            lambda box: next(counter).to_bytes(NONCE_BYTES, "big"))
        accel = SecureAccelerator(SecretKey(bytes(range(16))))
        network = accel.seal_network(_pinned_layers()).to_bytes()
        vector = accel.seal_input(_PINNED_VECTOR).to_bytes()
        assert _sha(network) == (
            "6dfaccb484780d3f8783c2051aa4d026be99b2c43a72220408bb2b7358b79015")
        assert _sha(vector) == (
            "3068d3d647ebb84565df05e3a214f5ee95db7dd99e65378d990e400678c301c3")
        cipher = AESGCM(bytes(range(16)))
        for i, (raw, plain, aad) in enumerate((
                (network, encode_network(_pinned_layers()), _NET_AAD),
                (vector, encode_vector(_PINNED_VECTOR), _IN_AAD))):
            nonce = i.to_bytes(NONCE_BYTES, "big")
            assert raw == (nonce + struct.pack(">I", len(plain))
                           + cipher.encrypt(nonce, bytes(plain), aad))

    def test_large_network_wire_roundtrip(self):
        # three 256 x 256 layers: about 1.5 MB sealed
        rng = np.random.default_rng(5)
        layers = [rng.integers(-8, 9, size=(256, 256)) / 16.0 for _ in range(3)]
        sealer = SecureAccelerator(SecretKey(bytes(range(16))))
        raw = sealer.seal_network(layers).to_bytes()
        assert len(raw) == 12 + 4 + 4 + 3 * (8 + 8 * 256 * 256) + 16
        blob = CipheredBlob.from_bytes(raw)
        assert blob.to_bytes() == raw
        device = SecureAccelerator(SecretKey(bytes(range(16))))
        device.load_network(blob)
        for a, b in zip(layers, device._layers):
            assert np.array_equal(a, b)
        flipped = bytearray(raw)
        flipped[-TAG_BYTES - 1] ^= 0x01           # last ciphertext byte
        with pytest.raises(TamperError):
            device.load_network(CipheredBlob.from_bytes(bytes(flipped)))
