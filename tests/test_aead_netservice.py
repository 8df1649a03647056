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

    @pytest.mark.parametrize("nonce, sealed", [
        ("n" * NONCE_BYTES, b"\x00" * TAG_BYTES),
        (list(range(NONCE_BYTES)), b"\x00" * TAG_BYTES),
        (b"\x00" * NONCE_BYTES, "t" * TAG_BYTES),
        (b"\x00" * NONCE_BYTES, None),
    ], ids=["str-nonce", "list-nonce", "str-payload", "no-payload"])
    def test_blob_parts_must_be_bytes_like(self, nonce, sealed):
        # a 12-character str nonce was accepted and failed only in to_bytes
        with pytest.raises(FormatError, match="bytes-like"):
            CipheredBlob(nonce, sealed)

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


def _three_layer_parts():
    # the 1.5 MB network of the key-service workload, as seal_network
    # streams it: a count header, then each layer's shape and weights
    rng = np.random.default_rng(7)
    layers = [rng.normal(size=(256, 256)) for _ in range(3)]
    parts = [struct.pack("<I", 3)]
    for w in layers:
        parts += [struct.pack("<II", *w.shape), w]
    return parts


class TestStreamedSeal:
    """A list plaintext is sealed as the concatenation of its parts."""

    @pytest.mark.parametrize("parts", [
        [],
        [b""],
        [b"", b"", b""],
        [b"a"],
        [b"a", b"b", b"c"],
        [b"", b"x" * 17, b"", b"y"],
        [b"x" * 15, b"y" * 16, b"z" * 31, b"w" * 33],
        [bytearray(b"q" * 100), memoryview(b"r" * 7), np.arange(5, dtype=np.float64)],
        "network",
    ], ids=["none", "empty", "empties", "one-byte", "one-byte-each", "mixed",
            "not-multiple-of-16", "buffer-types", "network"])
    def test_parts_seal_as_joined(self, parts, monkeypatch):
        if parts == "network":
            parts = _three_layer_parts()
        joined = b"".join(memoryview(part).cast("B") for part in parts)
        monkeypatch.setattr(AeadBox, "_next_nonce", lambda box: b"\x07" * NONCE_BYTES)
        box = fresh_box()
        streamed = box.seal(parts, aad=b"ctx")
        one_shot = box.seal(joined, aad=b"ctx")
        assert streamed == one_shot
        assert bytes(streamed.sealed) == AESGCM(bytes(range(16))).encrypt(
            b"\x07" * NONCE_BYTES, joined, b"ctx")
        assert box.open(streamed, aad=b"ctx") == joined
        box.close()
        with pytest.raises(ProtocolStateError):
            box.seal(parts)

    def test_parts_nonce_random_per_seal(self):
        box = fresh_box()
        nonces = {box.seal([b"ab", b"cd"]).nonce for _ in range(50)}
        assert len(nonces) == 50

    def test_sibling_zeroized_key_refuses_parts(self):
        key = SecretKey(bytes(range(16)))
        box, sibling = AeadBox(key), AeadBox(key)
        sibling.seal([b"payload"])
        box.close()
        with pytest.raises(ProtocolStateError):
            sibling.seal([b"payload"])


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
            decode_network((1).to_bytes(4, "little") + (2).to_bytes(4, "little")
                           + (2).to_bytes(4, "little") + b"\x00" * 8)  # truncated
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
            header = struct.pack("<I", len(shapes))
            with pytest.raises(FormatError, match="no rows or no columns"):
                decode_network(bytearray(header + b"".join(
                    struct.pack("<II", *shape) for shape in shapes)))

    def test_partial_float_rejected(self):
        # a float64 block cut to a length that is not a multiple of 8 bytes
        with pytest.raises(FormatError):
            decode_vector((1).to_bytes(4, "little") + b"\x00" * 5)
        with pytest.raises(FormatError):
            decode_network((1).to_bytes(4, "little") + (1).to_bytes(4, "little")
                           + (2).to_bytes(4, "little") + b"\x00" * 12)


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
        layer = np.full((2, 2), 3.0)
        accel.load_network(accel.seal_network([layer]))
        out = accel.open_output(accel.execute_network(accel.seal_input(np.ones(2))))
        assert np.array_equal(out, [6.0, 6.0])
        assert len(opened) == 3 and len(sealed) == 3
        # the opened network is the weight storage: each layer is an
        # aligned, native, C-contiguous view of it until close()
        network = opened[0]
        for w in accel._layers:
            assert np.shares_memory(w, np.frombuffer(network, dtype=np.uint8))
            assert w.flags.aligned and w.flags.c_contiguous and w.dtype.isnative
        # the network was sealed from its parts: the caller's float64 layer
        # itself, untouched, and headers that are wiped once it is sealed
        header, shape, block = sealed[0]
        assert block is layer and np.all(layer == 3.0)
        for buf in [header, shape] + opened[1:] + sealed[1:]:
            assert buf == bytes(len(buf))
        # a config that authenticates but does not decode (a trailing
        # float after its one 1 x 1 layer) is wiped too
        config = struct.pack("<III2d", 1, 1, 1, 3.0, 3.0)
        with pytest.raises(FormatError, match="trailing"):
            accel.load_network(accel._box.seal(config, aad=_NET_AAD))
        assert opened[-1] == bytes(len(opened[-1]))
        assert network != bytes(len(network))
        accel.close()
        assert network == bytes(len(network))

    @pytest.mark.parametrize("make", [
        lambda rng: rng.normal(size=(5, 3)),                        # float64, C
        lambda rng: rng.integers(-8, 9, size=(5, 3)),                # int64
        lambda rng: rng.normal(size=(3, 5)).T,                       # transposed
        lambda rng: np.asfortranarray(rng.normal(size=(5, 3))),      # Fortran
        lambda rng: rng.normal(size=(5, 3)).astype(np.float32),      # float32
        lambda rng: rng.normal(size=(5, 3)).astype(">f8"),           # big-endian
    ], ids=["f8", "int", "transposed", "fortran", "f4", "be-f8"])
    def test_caller_layers_never_written(self, make, monkeypatch):
        rng = np.random.default_rng(6)
        layers = [make(rng), rng.normal(size=(2, 5))]
        before = [w.copy() for w in layers]
        sealed = []
        real_seal = AeadBox.seal

        def recording_seal(box, plaintext, aad=b""):
            sealed.append(plaintext)
            return real_seal(box, plaintext, aad)

        monkeypatch.setattr(AeadBox, "seal", recording_seal)
        accel = self._accel()
        blob = accel.seal_network(layers)
        for w, b in zip(layers, before):
            assert w.dtype == b.dtype and w.tobytes() == b.tobytes()
        # every part is a caller layer streamed as it is, or a buffer made
        # for the seal (a header or a conversion copy), which is wiped
        (parts,) = sealed
        assert len(parts) == 1 + 2 * len(layers)
        streamed = [part for part in parts if any(part is w for w in layers)]
        assert len(streamed) == (2 if layers[0].dtype == "<f8"
                                 and layers[0].flags.c_contiguous else 1)
        for part in parts:
            if not any(part is w for w in layers):
                assert np.all(np.frombuffer(part, dtype=np.uint8) == 0)
        accel.load_network(blob)
        for w, b in zip(accel._layers, before):
            assert np.array_equal(w, b)

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
        assert previous[:4] == struct.pack("<I", 2)
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
            "5e0a5859d042433f26bf9e3160ba999123cb4cf5d8045b67a8cc41171854a1c4")

    def test_encode_vector_frozen(self):
        assert _sha(encode_vector(_PINNED_VECTOR)) == (
            "a67ceb4340add97874379b1c6192db4b10140ec905cda8e450ff801ebb1a35dd")

    def test_sealed_blobs_frozen(self, monkeypatch):
        # nonces are random; pin the layout under nonces 0, 1, ...
        counter = itertools.count()
        monkeypatch.setattr(AeadBox, "_next_nonce",
                            lambda box: next(counter).to_bytes(NONCE_BYTES, "big"))
        accel = SecureAccelerator(SecretKey(bytes(range(16))))
        network = accel.seal_network(_pinned_layers()).to_bytes()
        vector = accel.seal_input(_PINNED_VECTOR).to_bytes()
        assert _sha(network) == (
            "d6452e7dc46fe873896a6df6db4c4aaa7a41772f5b60d5c85d214d685ac37947")
        assert _sha(vector) == (
            "91171284e06c4bea6b5f964452ea8a01eec35673e7a9aa54fa8a647953907056")
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
