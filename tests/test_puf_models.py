import copy
import gc
import hashlib
import math
import os
import pickle
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pufstack
from pufstack.config import load_puf, puf_from_kv, puf_to_kv, save_puf
from pufstack.errors import ChallengeShapeError, ValidationError
from pufstack.harness.attack import harvest_crps
from pufstack.metrics import population_responses
from pufstack.protocols.attest import _response_to_challenge
from pufstack.protocols.auth import (AuthRequest, DeviceSession, derive_next_challenge,
                                     enroll_secret)
from pufstack.puf import (SUPPORTED_CHALLENGE_LENGTHS, ArbiterPuf, Challenge,
                          PhotonicParams, PhotonicPuf, coerce_seed, create_puf,
                          parity_features, stabilized_response)
from pufstack.puf import photonic as photonic_module
from pufstack.puf.photonic import (KERNEL_ROWS, PREFIX_BITS, TARGET_MEAN, _fold_injection,
                                   cascade_bounds, phase_table)
from pufstack.xof import bytes_to_bits, derive_rng


def photonic(seed=1, **cfg):
    return create_puf("photonic", seed, cfg)


def rand_challenges(n, length=64, seed=0):
    rng = np.random.default_rng(seed)
    return [Challenge(rng.integers(0, 2, length, dtype=np.uint8)) for _ in range(n)]


class TestCreation:
    def test_noiseless_determinism_across_instances(self):
        c = rand_challenges(1)[0]
        r1 = photonic().evaluate(c)
        r2 = photonic().evaluate(c)
        assert np.array_equal(r1.bits, r2.bits)
        assert np.array_equal(r1.analog, r2.analog)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            create_puf("photonic", 1, {"L": 48})
        with pytest.raises(ValidationError):
            create_puf("photonic", 1, {"P": 1})
        with pytest.raises(ValidationError):
            create_puf("photonic", 1, {"M": 0})
        with pytest.raises(ValidationError):
            create_puf("photonic", 1, {"a": 1.0})
        with pytest.raises(ValidationError):
            create_puf("nonsense", 1)
        with pytest.raises(ValidationError):
            create_puf("photonic", 1, {"bogus_key": 3})
        for seed in (-1, 1 << 256, "zz" * 32):
            with pytest.raises(ValidationError):
                create_puf("arbiter", seed)

    def test_rejects_fractional_and_bool_config_values(self):
        # int() used to truncate these to P = 8, L = 32, M = 16 and M = 1
        for kind, cfg in [("photonic", {"P": 8.7}), ("photonic", {"L": 32.9}),
                          ("photonic", {"M": 16.5}), ("arbiter", {"M": True}),
                          ("arbiter", {"M": np.True_}), ("photonic", {"kerr": True}),
                          ("arbiter", {"noise_sigma": False})]:
            key = next(iter(cfg))
            with pytest.raises(ValidationError, match=f"config value {key} "):
                create_puf(kind, 1, cfg)
        puf = create_puf("photonic", 1, {"P": 16.0, "L": "64", "M": np.int64(16)})
        assert (puf.params.n_paths, puf.challenge_len, puf.response_len) == (16, 64, 16)

    def test_rejects_bool_and_fractional_seeds(self):
        # coerce_seed(True) used to give device seed 1
        for seed in (True, np.True_, 1.0, 1.5):
            with pytest.raises(ValidationError):
                create_puf("arbiter", seed)
        assert coerce_seed(np.uint64(7)) == coerce_seed(7) == (7).to_bytes(32, "big")

    def test_rejects_non_finite_device_parameters(self):
        # an infinite sigma used to build a device that failed only at its
        # first noisy read, and a non-finite kerr_coeff failed inside round()
        seed = bytes(32)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValidationError):
                PhotonicPuf(seed, noise_sigma=bad)
            with pytest.raises(ValidationError):
                ArbiterPuf(seed, noise_sigma=bad)
            with pytest.raises(ValidationError):
                ArbiterPuf(seed, replica_sigma=bad)
            with pytest.raises(ValidationError):
                PhotonicParams(kerr_coeff=bad).validate()

    @pytest.mark.parametrize("build", [
        lambda: PhotonicPuf(bytes(32), params=PhotonicParams(n_paths=8.0)),
        lambda: PhotonicPuf(bytes(32), params=PhotonicParams(detect_count=4.5)),
        lambda: PhotonicPuf(bytes(32), challenge_len=64.0),
        lambda: PhotonicPuf(bytes(32), noise_sigma=True),
        lambda: PhotonicPuf("ab" * 16),
    ], ids=["n_paths-8.0", "detect_count-4.5", "challenge_len-64.0", "noise_sigma-True",
            "str-seed"])
    def test_rejects_non_integer_sizes_and_non_bytes_seeds(self, build):
        # the sizes become C ints of the compiled kernel; each of these used
        # to raise a bare TypeError, and noise_sigma=True read as 1.0
        with pytest.raises(ValidationError):
            build()

    def test_seed_forms_equivalent(self):
        seed_int = 0xDEADBEEF
        seed_bytes = seed_int.to_bytes(32, "big")
        a = create_puf("arbiter", seed_int)
        b = create_puf("arbiter", seed_bytes)
        c = create_puf("arbiter", seed_bytes.hex())
        assert np.array_equal(a.base_weights, b.base_weights)
        assert np.array_equal(a.base_weights, c.base_weights)

    def test_inter_device_distance_near_half(self):
        # different fabrication seeds -> responses ~M/2 apart
        chals = rand_challenges(8)
        hds = []
        for pair in range(20):
            a = photonic(seed=1000 + 2 * pair)
            b = photonic(seed=1001 + 2 * pair)
            for c in chals:
                hds.append(np.mean(a.evaluate(c).bits != b.evaluate(c).bits))
        assert 0.45 < np.mean(hds) < 0.55

    def test_arbiter_weights_reproducible_from_seed(self):
        puf = create_puf("arbiter", 5, {"L": 64})
        assert puf.base_weights.shape == (65,)
        expected = derive_rng(puf.device_seed, "arbiter-fabrication").standard_normal(65)
        assert np.array_equal(puf.base_weights, expected)


class TestEvaluate:
    def test_noiseless_repeatable(self):
        puf = photonic()
        c = rand_challenges(1)[0]
        assert np.array_equal(puf.evaluate(c).bits, puf.evaluate(c).bits)

    def test_challenge_shape_error(self):
        puf = photonic()
        with pytest.raises(ChallengeShapeError):
            puf.evaluate(Challenge(np.zeros(32, dtype=np.uint8)))
        with pytest.raises(ChallengeShapeError):
            puf.evaluate_many(np.zeros((3, 32), dtype=np.uint8))
        short = Challenge(np.zeros(32, dtype=np.uint8))
        for probe in (puf.stage_trace,
                      lambda c: puf.raw_intensities(c.bits[None, :])):
            with pytest.raises(ChallengeShapeError):
                probe(short)
        bits = np.zeros((3, 64), dtype=np.uint8)
        bits[1, 5] = 2
        with pytest.raises(ValidationError):
            puf.evaluate_many(bits)
        with pytest.raises(ValidationError):
            Challenge(bits[1])
        # values are checked before the cast to uint8, so none wraps or truncates
        for wrong in (np.array([256, 1, 1]), np.array([0.7, 1.0, 0.0]), [256, 1, 1]):
            with pytest.raises(ValidationError):
                Challenge(wrong)
        wide = np.zeros((3, 64), dtype=np.int64)
        wide[2, 9] = 256
        with pytest.raises(ValidationError):
            puf.evaluate_many(wide)
        # challenges of unequal length do not stack into one matrix
        arbiter = create_puf("arbiter", 7, {"L": 64})
        ragged = [Challenge(np.zeros(64, dtype=np.uint8)),
                  Challenge(np.zeros(32, dtype=np.uint8))]
        with pytest.raises(ChallengeShapeError):
            arbiter.evaluate_many(ragged)

    @pytest.mark.parametrize("kind", ["photonic", "arbiter"])
    def test_row_reads_as_its_challenge(self, kind):
        # a read takes one challenge as a bare (L,) row or as a Challenge
        puf = create_puf(kind, 71)
        c = rand_challenges(1, seed=71)[0]
        pairs = [(puf.evaluate(c), puf.evaluate(c.bits))]
        for votes in (1, 9):
            rng, ref_rng = np.random.default_rng(votes), np.random.default_rng(votes)
            pairs.append((stabilized_response(puf, c, ref_rng, votes),
                          stabilized_response(puf, c.bits, rng, votes)))
            assert rng.bytes(8) == ref_rng.bytes(8)
        for wrapped, row in pairs:
            for name in ("challenges", "bits", "analog", "margins"):
                assert np.array_equal(getattr(wrapped, name), getattr(row, name))
        if kind == "photonic":
            assert np.array_equal(puf.stage_trace(c), puf.stage_trace(c.bits))

    def test_raw_bit_error_rate_in_band(self):
        # regression bound: 2-8% intra-device BER at default noise
        puf = photonic(seed=3)
        nd = derive_rng(puf.device_seed, "env-noise")
        c = rand_challenges(1)[0]
        ref = puf.evaluate(c).bits
        bers = [np.mean(puf.evaluate(c, nd).bits != ref) for _ in range(100)]
        assert 0.02 <= np.mean(bers) <= 0.08

    def test_arbiter_all_zero_challenge_is_weight_sum_sign(self):
        puf = create_puf("arbiter", 7, {"L": 64})
        c = Challenge(np.zeros(64, dtype=np.uint8))
        feats = parity_features(c.bits[None, :])
        assert np.array_equal(feats, np.ones((1, 65)))
        bits = puf.evaluate(c).bits
        expected = (puf.weights.sum(axis=1) >= 0).astype(np.uint8)
        assert np.array_equal(bits, expected)

    def test_evaluate_many_matches_single(self):
        puf = photonic()
        chals = rand_challenges(5)
        batch = puf.evaluate_many(np.stack([c.bits for c in chals]))
        assert len(batch) == 5
        for i, c in enumerate(chals):
            r = puf.evaluate(c)
            assert np.array_equal(batch.challenges[i], c.bits)
            assert np.array_equal(batch.bits[i], r.bits)
            assert np.array_equal(batch.analog[i], r.analog)
            assert np.array_equal(batch.margins[i], np.abs(r.analog - puf.thresholds))

    def test_harvest_keeps_no_margins(self):
        # a batch stores challenges, bits and analog rows and derives the
        # margins from the device's thresholds: a noiseless 6000-row harvest
        # once also kept a 5.9 MB float64 margins array alive
        puf = photonic()
        rng = np.random.default_rng(26)
        tracemalloc.start()
        try:
            batch = harvest_crps(puf, 6000, rng)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stored = batch.analog.nbytes + batch.bits.nbytes + batch.challenges.nbytes
        assert retained <= stored + 512 * 1024
        for rows in (3, slice(10, 20)):
            assert np.array_equal(batch[rows].margins,
                                  np.abs(batch.analog[rows] - puf.thresholds))


class TestCalibration:
    def test_uniformity_near_half_after_calibration(self):
        puf = photonic(seed=11)
        ones = puf.evaluate_many(rand_challenges(1000)).bits.mean()
        assert 0.45 <= ones <= 0.55

    def test_recalibration_deterministic(self):
        a = photonic(seed=13)
        b = photonic(seed=13)
        assert np.array_equal(a.calibrate(200), b.calibrate(200))

    def test_min_samples_enforced(self):
        with pytest.raises(ValidationError):
            photonic().calibrate(99)

    def test_degenerate_tap_ties_to_one(self):
        # zero detection row -> constant zero photocurrent -> threshold 0,
        # and the >= tie rule quantizes it to 1
        puf = photonic(seed=17)
        puf.detect[5, :] = 0
        puf.calibrate(100)
        assert puf.thresholds[5] == 0.0
        for c in rand_challenges(3):
            assert puf.evaluate(c).bits[5] == 1


    @pytest.mark.parametrize("kind", ["photonic", "arbiter"])
    def test_thresholds_are_read_only(self, kind):
        # a write used to move a photonic device's bits: a row with 52
        # one-bits read none after thresholds[:] = 1e9
        puf = create_puf(kind, 19)
        row = puf.random_challenges("read-only", 1)
        before = puf.evaluate_many(row).bits
        with pytest.raises(ValueError):
            puf.thresholds[:] = 1e9
        assert np.array_equal(puf.evaluate_many(row).bits, before)


class TestInvariants:
    def test_passivity(self):
        puf = photonic(seed=31)
        # every element has operator norm <= 1, so the noiseless detected
        # power stays below the unit-norm field injected at each stage
        for c in rand_challenges(5):
            detected = float(np.sum(puf.raw_intensities(c.bits[None, :])))
            assert detected <= float(puf.challenge_len)

    def test_temporal_memory_gating(self):
        # with a=0 a flipped bit only moves its own stage's photocurrents;
        # with a>0 the change propagates to later stages via the state term
        c = rand_challenges(1)[0]
        flipped = c.bits.copy()
        flipped[20] ^= 1
        cf = Challenge(flipped)
        memless = photonic(seed=33, a=0.0)
        t0, t1 = memless.stage_trace(c), memless.stage_trace(cf)
        diff = np.abs(t0 - t1).max(axis=1)
        assert diff[20] > 0
        assert np.all(diff[:20] == 0) and np.all(diff[21:] == 0)

        resonant = photonic(seed=33, a=0.6)
        t0, t1 = resonant.stage_trace(c), resonant.stage_trace(cf)
        diff = np.abs(t0 - t1).max(axis=1)
        assert np.all(diff[:20] == 0)
        assert np.all(diff[20:] > 0)

    def test_stage_trace_pinned(self):
        puf = create_puf("photonic", 1, {"noise_sigma": 0.0})
        c = Challenge(puf.random_challenges("stage-trace", 1)[0])
        trace = puf.stage_trace(c)
        assert trace.shape == (64, 128)
        assert hashlib.sha256(trace.astype("<f8").tobytes()).hexdigest() == \
            "7a112c27f1f617428497b95664d2a5c860bf7f4e34481f2decd81025be20d772"
        assert np.array_equal(trace[-1], puf.raw_intensities(c.bits[None, :])[0])

    def test_tiled_batch_pinned(self):
        # 1100 rows run as two full propagation tiles and a partial one
        puf = create_puf("photonic", 1, {"noise_sigma": 0.0})
        bits = puf.random_challenges("tiles", 1100)
        raw = puf.raw_intensities(bits)
        assert hashlib.sha256(raw.astype("<f8").tobytes()).hexdigest() == \
            "fa3e54f2df9b00be2db8032442016e7c55f8dcfb604df846fb5e0af68d0b54e2"
        for row in (0, 511, 512, 1023, 1024, 1099):
            assert np.array_equal(raw[row], puf.raw_intensities(bits[row:row + 1])[0])

    def test_prefix_table_shape(self):
        assert PREFIX_BITS < min(SUPPORTED_CHALLENGE_LENGTHS)
        for cfg in ({}, {"L": 32, "P": 8}):
            puf = create_puf("photonic", 1, {**cfg, "noise_sigma": 0.0})
            assert puf.prefix_states.shape == (2 ** PREFIX_BITS, puf.params.n_paths)
            assert not puf.prefix_states.flags.writeable
            with pytest.raises(ValueError):
                puf.prefix_states[0, 0] = 1.0
            # it is the transpose of a read-only C-ordered (P, 2^k) table,
            # so a read takes prefix columns from it without a copy
            stored = puf.prefix_states.base
            assert stored is not None and not stored.flags.writeable
            assert puf.prefix_states.T.flags.c_contiguous

    @pytest.mark.parametrize("cfg", [{"L": 32}, {"P": 16, "M": 64}, {"L": 128, "P": 8},
                                     {"a": 0.3, "kerr": -25.0}, {"a": 0.0}],
                             ids=["L32", "P16-M64", "L128-P8", "a0.3-kerr-25", "a0"])
    def test_one_row_read_equals_its_row_in_a_batch(self, cfg):
        # a one-row read, and the one-row tail tile of 513 rows, take the
        # one-column stage product; the wider tiles take the other
        puf = create_puf("photonic", 1, {**cfg, "noise_sigma": 0.0})
        bits = puf.random_challenges("width-split", 513)
        batches = {n: puf.raw_intensities(bits[:n]) for n in (2, 512, 513)}
        for row in (0, 1, 511, 512):
            one = puf.raw_intensities(bits[row:row + 1])[0]
            for n, raw in batches.items():
                if row < n:
                    assert raw[row].tobytes() == one.tobytes(), (n, row)
        for row in (0, 512):
            one = puf.raw_intensities(bits[row:row + 1])[0]
            assert puf.stage_trace(bits[row])[-1].tobytes() == one.tobytes()

    @pytest.mark.parametrize("length", [32, 64, 128])
    @pytest.mark.parametrize("paths", [8, 32])
    def test_prefix_table_matches_full_cascade(self, length, paths):
        # stage_trace runs every stage from m_0 = 0; raw_intensities starts
        # from the tabulated m_PREFIX_BITS. Rows 0-3 and 511-512 hold the
        # all-zero and all-one prefixes, whole or followed by random bits,
        # on both sides of the 512-row tile boundary.
        puf = create_puf("photonic", 9, {"L": length, "P": paths, "M": 16,
                                         "noise_sigma": 0.0})
        bits = puf.random_challenges("prefix-table", 513)
        bits[[0, 511], :PREFIX_BITS] = 0
        bits[[1, 512], :PREFIX_BITS] = 1
        bits[2], bits[3] = 0, 1
        checked = (0, 1, 2, 3, 255, 256, 510, 511, 512)
        full = {row: puf.stage_trace(Challenge(bits[row]))[-1] for row in checked}
        for batch in (0, 1, 2, 257, 512, 513):
            raw = puf.raw_intensities(bits[:batch])
            assert raw.shape == (batch, 16)
            for row in checked:
                if row < batch:
                    assert np.array_equal(raw[row], full[row]), (batch, row)

    def test_avalanche_bound(self):
        # regression bound: one flipped challenge bit flips >= 0.3*M bits
        puf = photonic(seed=37)
        rng = np.random.default_rng(5)
        fracs = []
        for c in rand_challenges(10):
            ref = puf.evaluate(c).bits
            pos = int(rng.integers(0, 64))
            bits = c.bits.copy()
            bits[pos] ^= 1
            fracs.append(np.mean(puf.evaluate(Challenge(bits)).bits != ref))
        assert np.mean(fracs) >= 0.3

    def test_arbiter_linearly_separable(self):
        puf = create_puf("arbiter", 41)
        chals = rand_challenges(300)
        feats = parity_features(np.stack([c.bits for c in chals]))
        labels = np.array([puf.evaluate(c).bits[0] for c in chals])
        # its own weight vector must already separate the data
        pred = (feats @ puf.weights[0] >= 0).astype(np.uint8)
        assert np.array_equal(pred, labels)

    def test_no_persistent_state_between_interrogations(self):
        puf = photonic(seed=43)
        before = dict(vars(puf))
        puf.evaluate(rand_challenges(1)[0])
        after = vars(puf)
        assert before.keys() == after.keys()
        for key, value in before.items():
            assert after[key] is value

    def test_stabilized_response_denoises(self):
        # voting cannot rescue taps sitting right on their threshold, so
        # compare against the single-read error rate instead of zero. The
        # expected ratio is about 0.3; 60 challenges keep the spread of a
        # single noisy read well inside the 0.5 margin
        puf = photonic(seed=47)
        nd = derive_rng(puf.device_seed, "env-noise")
        chals = rand_challenges(60)
        raw, stab = [], []
        for c in chals:
            ref = puf.evaluate(c).bits
            raw.append(np.mean(puf.evaluate(c, nd).bits != ref))
            stab.append(np.mean(stabilized_response(puf, c, nd, votes=15).bits != ref))
        assert np.mean(stab) < 0.5 * np.mean(raw)

    @pytest.mark.parametrize("votes", [1, 3, 9])
    @pytest.mark.parametrize("kind,cfg", [("photonic", {}), ("arbiter", {}),
                                          ("arbiter", {"L": 32}),
                                          ("photonic", {"noise_sigma": 0.0})])
    def test_stabilized_response_matches_per_vote_reads(self, kind, cfg, votes):
        # reference: one full evaluation per vote, then majority and mean
        puf = create_puf(kind, 61, cfg)
        ref_rng, rng = np.random.default_rng(8), np.random.default_rng(8)
        for c in rand_challenges(3, puf.challenge_len, seed=votes):
            reads = [puf.evaluate(c, ref_rng) for _ in range(votes)]
            stack = np.stack([r.bits for r in reads])
            bits = (stack.sum(axis=0) * 2 > votes).astype(np.uint8)
            analog = np.mean(np.stack([r.analog for r in reads]), axis=0)
            got = stabilized_response(puf, c, rng, votes)
            assert np.array_equal(got.bits, bits)
            assert np.array_equal(got.analog, analog)
        assert rng.bytes(8) == ref_rng.bytes(8)

    # The photonic field is integer-exact at any batch size. The arbiter's
    # is a float matmul whose rounding depends on the batch shape, so its
    # analog values agree with one-row reads to rounding only.
    @pytest.mark.parametrize("votes", [1, 3, 9])
    @pytest.mark.parametrize("kind,cfg,atol", [("photonic", {}, 0.0),
                                               ("arbiter", {"M": 12}, 1e-12)])
    def test_evaluate_many_votes_row_after_row(self, kind, cfg, atol, votes):
        # B rows voted in one read equal B one-row stabilized reads in turn
        puf = create_puf(kind, 67, cfg)
        rows = puf.random_challenges("votes", 4)
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        batch = puf.evaluate_many(rows, rng, votes)
        singles = [stabilized_response(puf, Challenge(row), ref_rng, votes)
                   for row in rows]
        assert np.array_equal(batch.challenges, rows)
        assert np.array_equal(batch.bits, np.stack([s.bits for s in singles]))
        for name in ("analog", "margins"):
            np.testing.assert_allclose(getattr(batch, name),
                                       np.stack([getattr(s, name) for s in singles]),
                                       rtol=0, atol=atol)
        assert np.array_equal(batch.margins, np.abs(batch.analog - puf.thresholds))
        assert rng.bytes(8) == ref_rng.bytes(8)
        # M = 12 pads each row to 2 bytes
        assert batch.to_bytes() == b"".join(s.to_bytes() for s in singles)
        assert len(batch.to_bytes()) == len(rows) * -(-puf.response_len // 8)

    def test_votes_must_be_odd_and_positive(self):
        puf = create_puf("arbiter", 67)
        rows = puf.random_challenges("votes", 2)
        for votes in (0, 2, -1):
            with pytest.raises(ValidationError):
                puf.evaluate_many(rows, np.random.default_rng(0), votes)
            with pytest.raises(ValidationError):
                puf.evaluate_many(rows, votes=votes)

    @pytest.mark.parametrize("votes", [True, 3.0, "3"])
    def test_votes_must_be_an_integer(self, votes):
        # True used to read as one vote, and 3.0 failed inside np.repeat
        puf = create_puf("arbiter", 67)
        rows = puf.random_challenges("votes", 2)
        noise = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            puf.evaluate_many(rows, noise, votes)
        with pytest.raises(ValidationError):
            stabilized_response(puf, rows[0], noise, votes)
        with pytest.raises(ValidationError):
            enroll_secret(puf, noise, votes)
        device = DeviceSession(puf, bytes(16), nonce_rng=np.random.default_rng(1),
                               noise_rng=noise, stabilize_votes=votes)
        with pytest.raises(ValidationError):
            device.respond(AuthRequest())
        assert np.array_equal(puf.evaluate_many(rows, noise, np.int64(3)).bits,
                              puf.evaluate_many(rows, np.random.default_rng(0), 3).bits)

    def test_one_propagation_per_read(self, monkeypatch):
        # votes and population re-reads add detector noise to one noiseless
        # field: a stabilized read propagates 1 row, and D devices x N
        # challenges with R re-reads propagate D x N rows, not D x N x (R + 1)
        pufs = [photonic(seed=6300 + i) for i in range(3)]
        rows = []
        propagate = PhotonicPuf.evaluate_analog

        def counting(self, bits_matrix):
            rows.append(len(bits_matrix))
            return propagate(self, bits_matrix)
        monkeypatch.setattr(PhotonicPuf, "evaluate_analog", counting)
        stabilized_response(pufs[0], rand_challenges(1)[0],
                            derive_rng(pufs[0].device_seed, "env-noise"), votes=9)
        assert sum(rows) == 1
        rows.clear()
        population_responses(pufs, rand_challenges(5, seed=14), n_reevals=4,
                             noise_rng=np.random.default_rng(15))
        assert sum(rows) == 3 * 5


class TestConfigFile:
    @pytest.mark.parametrize("kind, cfg", [
        ("photonic", {"a": 0.5, "noise_sigma": 0.03}),
        ("arbiter", {"L": 32, "replica_sigma": 0.1}),
    ], ids=["photonic", "arbiter"])
    def test_roundtrip_identical_device(self, tmp_path, kind, cfg):
        puf = create_puf(kind, 51, cfg)
        path = tmp_path / "dev.cfg"
        save_puf(path, puf)
        clone = load_puf(path)
        c = rand_challenges(8, length=puf.challenge_len)
        assert np.array_equal(clone.evaluate_many(c).bits, puf.evaluate_many(c).bits)
        assert puf_to_kv(clone) == puf_to_kv(puf)
        assert clone.noise_sigma == cfg.get("noise_sigma", 0.02)

    def test_kv_rejects_unknown_keys(self):
        kv = puf_to_kv(photonic())
        kv["mystery"] = "1"
        with pytest.raises(ValidationError):
            puf_from_kv(kv)


class TestExactRange:
    def test_defaults_validate(self):
        PhotonicParams().validate()

    @pytest.mark.parametrize("field, value", [
        ("kerr_coeff", 2e5), ("mem_decay", 0.999), ("n_paths", 4096)])
    def test_rejects_parameters_beyond_exact_integers(self, field, value):
        # kerr: floor(|y|^2 2^16) * X; a: the resonant loop gain reaches 1;
        # P: the fabrication Gram-matrix row sums of 2P terms of up to 2^40
        with pytest.raises(ValidationError):
            PhotonicParams(**{field: value}).validate()

    def test_kerr_limit_sits_between_accepted_and_rejected(self):
        PhotonicParams(kerr_coeff=1e5).validate()
        PhotonicParams(kerr_coeff=-1e5).validate()
        with pytest.raises(ValidationError):
            PhotonicParams(kerr_coeff=-2e5).validate()

    # verdicts pinned before the challenge-bit injection was folded into
    # the stage matrices, which added the folded rows' partial sums to
    # worst_intermediate; '+' accepts, one entry per kerr in _VERDICT_KERRS
    _VERDICT_KERRS = (-1e6, -1e5, -40.0, -25.0, 25.0, 40.0, 1e5, 1e6)
    _VERDICTS = {0.0: "-++++++-", 0.3: "-++++++-", 0.6: "-++++++-",
                 0.95: "--++++--", 0.99: "--------"}

    @pytest.mark.parametrize("paths", [2, 8, 32, 64])
    def test_validate_verdicts_pinned(self, paths):
        for a, verdicts in self._VERDICTS.items():
            got = ""
            for kerr in self._VERDICT_KERRS:
                try:
                    PhotonicParams(n_paths=paths, mem_decay=a, kerr_coeff=kerr).validate()
                    got += "+"
                except ValidationError:
                    got += "-"
            assert got == verdicts, (paths, a)

    @pytest.mark.parametrize("a", [0.0, 0.6, 0.95])
    def test_detected_power_within_state_bound(self, a):
        # ||D|| <= 1, so the total detected power is at most |s_L|^2
        puf = photonic(seed=61, a=a)
        bits = np.stack([c.bits for c in rand_challenges(300, seed=3)])
        _, state = cascade_bounds(puf.params)
        assert puf.raw_intensities(bits).sum(axis=1).max() <= state ** 2


# -- independent integer oracle for the documented cascade -----------------

def _oracle_phase_table(n=4096, bits=20):
    """round(2^bits exp(2 pi i k / n)) for every k, in plain integers.

    Deliberately another route than the library's: pi from Euler's
    arctan(1/2) + arctan(1/3), and the circle by repeated multiplication
    with exp(2 pi i / n) at 100 guard bits.
    """
    extra = 100
    one = 1 << (bits + extra)

    def arctan_inv(x):
        total, power, k = 0, one // x, 0
        while power:
            total += (-1) ** k * (power // (2 * k + 1))
            power //= x * x
            k += 1
        return total

    pi = 4 * (arctan_inv(2) + arctan_inv(3))
    angle = 2 * pi // n
    c = s = 0
    term, i = one, 0
    while term:
        if i % 4 == 0:
            c += term
        elif i % 4 == 1:
            s += term
        elif i % 4 == 2:
            c -= term
        else:
            s -= term
        i += 1
        term = term * angle // (one * i)
    table, wr, wi = [], one, 0
    half = 1 << (extra - 1)
    for _ in range(n):
        table.append(((wr + half) >> extra, (wi + half) >> extra))
        wr, wi = (wr * c - wi * s) // one, (wr * s + wi * c) // one
    return table


def _counts(values):
    """Grid values (multiples of 2^-20) as Python integers."""
    out = [int(v) for v in np.asarray(values).ravel() * 2 ** 20]
    assert np.array_equal(np.asarray(out, dtype=float) * 2.0 ** -20,
                          np.asarray(values).ravel())
    return out


def _pairs(flat):
    return [(flat[2 * k], flat[2 * k + 1]) for k in range(len(flat) // 2)]


def _oracle_intensities(puf, challenge_bits, table):
    """raw_m = |floor(D s_L)|^2 in counts of 2^-40, following the cascade in
    the photonic module docstring with loops over stages and paths."""
    p, n = puf.params.n_paths, len(table)
    a = round(puf.params.mem_decay * 2 ** 20)
    x = round(puf.params.kerr_coeff * n * 2 ** 8 / (2 * math.pi))
    memory = [((a * c) >> 20, (a * s) >> 20) for c, s in table]
    inject = [_pairs(_counts(u.view(np.float64))) for u in puf.inject]
    detect = [_pairs(_counts(row.view(np.float64))) for row in puf.detect]
    m = [(0, 0)] * p
    for t, bit in enumerate(challenge_bits):
        # row k of a stage holds column k of S_t
        block = [_counts(row.view(np.float64)) for row in puf.scatter[t]]
        f = [(u[0] + v[0], u[1] + v[1]) for u, v in zip(inject[bit], m)]
        y = []
        for j in range(p):
            re = im = 0
            for k in range(p):
                sr, si = block[k][2 * j], block[k][2 * j + 1]
                re += sr * f[k][0] - si * f[k][1]
                im += sr * f[k][1] + si * f[k][0]
            y.append((re >> 20, im >> 20))
        s, m = [], []
        for yr, yi in y:
            step = (((yr * yr + yi * yi) >> 24) * x >> 24) % n
            c, sn = table[step]
            ca, sa = memory[step]
            s.append(((yr * c - yi * sn) >> 20, (yr * sn + yi * c) >> 20))
            m.append(((yr * ca - yi * sa) >> 20, (yr * sa + yi * ca) >> 20))
    raw = []
    for row in detect:
        zr = zi = 0
        for (dr, di), (sr, si) in zip(row, s):
            zr += dr * sr - di * si
            zi += dr * si + di * sr
        zr >>= 20
        zi >>= 20
        raw.append(zr * zr + zi * zi)
    return raw


class TestIntegerOracle:
    def test_oracle_table_matches_library(self):
        assert phase_table().tolist() == [list(e) for e in _oracle_phase_table()]

    def test_seed_1_agrees_bit_for_bit(self):
        # the device behind the pinned auth and attestation goldens
        puf = create_puf("photonic", 1, {"noise_sigma": 0.0})
        enrollment = Challenge(puf.random_challenges("provisioning", 1)[0])
        secret = enroll_secret(puf)
        first_auth = Challenge(bytes_to_bits(derive_next_challenge(secret, 64), 64))
        attest = Challenge(np.array([i % 2 for i in range(64)], dtype=np.uint8))
        challenges = [enrollment, first_auth, attest]
        r = puf.evaluate(attest).to_bytes()
        for _ in range(3):  # links 2..4 of the 4-chunk attestation chain
            challenges.append(Challenge(_response_to_challenge(r, 64)))
            r = puf.evaluate(challenges[-1]).to_bytes()

        table = _oracle_phase_table()
        oracle_bytes = []
        for c in challenges:
            raw = _oracle_intensities(puf, c.bits.tolist(), table)
            lib = puf.raw_intensities(c.bits[None, :])[0]
            assert lib.tolist() == [v * 2.0 ** -40 for v in raw]
            analog = [puf.gain * (v * 2.0 ** -40) for v in raw]
            bits = [int(v >= t) for v, t in zip(analog, puf.thresholds)]
            assert puf.evaluate(c).bits.tolist() == bits
            oracle_bytes.append(np.packbits(bits).tobytes())
        # the pinned enrolled and rolled-over secrets of tests/test_auth.py
        assert oracle_bytes[0] == secret
        assert oracle_bytes[0].hex() == "6b7edb9e76a1bf4b8ff62ad57ff82dbf"
        assert oracle_bytes[1].hex() == "a342d412379cc233cde9209c8d6d530e"

    # a negative kerr gives negative Kerr products to floor; |kerr| = 1e5 at
    # a = 0.6 comes near the largest product validate admits (validate
    # rejects |kerr| = 1e5 at a = 0.95)
    @pytest.mark.parametrize("a, kerr", [
        (0.3, -25.0), (0.3, -1e5), (0.3, 1e5), (0.95, -25.0), (0.6, -1e5), (0.6, 1e5)])
    def test_small_devices_agree_bit_for_bit(self, a, kerr):
        puf = create_puf("photonic", 7, {"L": 32, "P": 8, "M": 16, "a": a, "kerr": kerr,
                                         "noise_sigma": 0.0})
        bits = puf.random_challenges("oracle", 4)
        table = _oracle_phase_table()
        oracle = [[v * 2.0 ** -40 for v in _oracle_intensities(puf, row.tolist(), table)]
                  for row in bits]
        assert puf.raw_intensities(bits).tolist() == oracle
        for row, expected in zip(bits, oracle):
            assert puf.raw_intensities(row[None, :])[0].tolist() == expected


# -- independent integer oracle for the documented fabrication -------------

def _oracle_draws(rng, shape):
    """Sums of four uniform integer draws, as nested lists of Python ints."""
    draws = rng.integers(-(1 << 14), 1 << 14, size=(4,) + shape, dtype=np.int64)
    return (draws[0].astype(object) + draws[1] + draws[2] + draws[3]).tolist()


def _oracle_unit(v, sumsq):
    """trunc(v * 2^20 / ceil(sqrt(sumsq))) per entry, in Python ints."""
    root = math.isqrt(sumsq)
    root += root * root < sumsq
    return [(abs(x) << 20) // root * (1 if x >= 0 else -1) for x in v]


def _oracle_stage(draws):
    """Two-pass complex Gram-Schmidt of one stage's draws, rows interleaved
    (re, im) in counts of 2^-20: coef_k = floor(conj(b_k) . v q), then
    v -= floor(sum_k coef_k b_k q), then renormalize; twice per row."""
    rows = []
    for flat in draws:
        v = _pairs(flat)
        for _ in range(2):
            coefs = []
            for b in rows:
                re = sum(br * vr + bi * vi for (br, bi), (vr, vi) in zip(b, v))
                im = sum(br * vi - bi * vr for (br, bi), (vr, vi) in zip(b, v))
                coefs.append((re >> 20, im >> 20))
            projected = []
            for i, (vr, vi) in enumerate(v):
                re = sum(cr * b[i][0] - ci * b[i][1] for (cr, ci), b in zip(coefs, rows))
                im = sum(cr * b[i][1] + ci * b[i][0] for (cr, ci), b in zip(coefs, rows))
                projected += [vr - (re >> 20), vi - (im >> 20)]
            v = _pairs(_oracle_unit(projected, sum(x * x for x in projected)))
        rows.append(v)
    return [[x for pair in row for x in pair] for row in rows]


def _oracle_fabrication(device_seed, stages, p, m, keep=None):
    """(scatter, inject, detect) of the documented construction as lists of
    interleaved counts; ``keep`` limits the stages orthonormalized."""
    rng = derive_rng(device_seed, "photonic-fabrication")
    stage_draws = _oracle_draws(rng, (stages, p, 2 * p))
    scatter = [_oracle_stage(d) for d in stage_draws[:keep]]
    inject = [_oracle_unit(u, sum(x * x for x in u)) for u in _oracle_draws(rng, (2, 2 * p))]
    det = _oracle_draws(rng, (m, 2 * p))
    flat = _oracle_unit([x for row in det for x in row], sum(x * x for row in det for x in row))
    detect = [flat[k * 2 * p:(k + 1) * 2 * p] for k in range(m)]
    return scatter, inject, detect


def _library_counts(arr):
    return [_counts(row.view(np.float64)) for row in arr]


class TestFabricationOracle:
    def test_small_device_agrees_bit_for_bit(self):
        puf = create_puf("photonic", 5, {"L": 32, "P": 8, "M": 16, "noise_sigma": 0.0})
        scatter, inject, detect = _oracle_fabrication(puf.device_seed, 32, 8, 16)
        assert [_library_counts(s) for s in puf.scatter] == scatter
        assert _library_counts(puf.inject) == inject
        assert _library_counts(puf.detect) == detect

    def test_seed_1_first_stages_agree_bit_for_bit(self):
        # the default device behind the pinned goldens; two stages keep the
        # pure-Python Gram-Schmidt short
        puf = create_puf("photonic", 1, {"noise_sigma": 0.0})
        scatter, inject, detect = _oracle_fabrication(puf.device_seed, 64, 32, 128, keep=2)
        assert [_library_counts(s) for s in puf.scatter[:2]] == scatter
        assert _library_counts(puf.inject) == inject
        assert _library_counts(puf.detect) == detect


def test_fabrication_pinned():
    # the seed-1 device's grid values, parts interleaved, in counts of 2^-20
    puf = create_puf("photonic", 1, {"noise_sigma": 0.0})
    assert puf.scatter.shape == (64, 32, 32) and puf.inject.shape == (2, 32)
    assert puf.detect.shape == (128, 32)
    digest = hashlib.sha256()
    for arr in (puf.scatter, puf.inject, puf.detect):
        digest.update(np.rint(arr.view(np.float64) * 2.0 ** 20).astype("<i8").tobytes())
    assert digest.hexdigest() == \
        "0701b9e5ed17715b3d4860fd8da7b90ceb50d94044ca26bba3ed031ce3073541"


def _sha256(*arrays):
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("cfg, device, gain, thresholds", [
    ({"L": 32},
     "18f62cfbc5e5b1425ee634c302287b0e6c0694d783f0287060a9149b56f08295",
     "0x1.06d6ed877da90p+9",
     "3c58634cdf8fdeec36d8fe0baf5860f77dd9d2df39e3e9b261e2e6988af76d51"),
    ({"P": 16, "M": 64},
     "6258b652f526877e5d621d504cc90c65125eedfbf7297a2b312b28abcd56dd28",
     "0x1.069614bcf2e83p+7",
     "e3fe2b8cfc0ea61b229081493e9c98ee5dcc42c3e15bcb5dab63c5224e1e714e"),
    ({"L": 128, "P": 8},
     "e383efb50665ba1e1fc62ab8c04a8772dbf0635247686d1755b393f988c7a830",
     "0x1.0383e91846abbp+7",
     "20f194cb4ba8b23d5faa6d538785ec9dcdf82850cfc101fc18c56d5c52d36a8c"),
    ({"a": 0.3, "kerr": -25.0},
     "34ff2444f4baa904370ca590fe7ee032d12ae431542103ca0f9dad71e9e6a4b9",
     "0x1.80d087e40cb51p+9",
     "6d625393a966d4e843f24cb207637d519f34911ee14b0f5ad120f28b9ce85b23"),
], ids=["L32", "P16-M64", "L128-P8", "a0.3-kerr-25"])
def test_device_shapes_pinned(cfg, device, gain, thresholds):
    # every bit of the stored arrays, signed zeros included, and the calibration
    puf = create_puf("photonic", 1, {**cfg, "noise_sigma": 0.0})
    assert _sha256(puf.scatter.astype("<c16"), puf.inject.astype("<c16"),
                   puf.detect.astype("<c16")) == device
    assert puf.gain.hex() == gain
    assert _sha256(puf.thresholds.astype("<f8")) == thresholds


@pytest.mark.parametrize("seed, zero_tap", [(1, None), (17, 5)])
def test_gain_is_correctly_rounded_mean(seed, zero_tap):
    # 700 rows span two propagation tiles; fsum is the reference total
    puf = create_puf("photonic", seed, {"noise_sigma": 0.0})
    if zero_tap is not None:
        puf.detect[zero_tap, :] = 0
    puf.calibrate(700)
    raw = puf.raw_intensities(puf.random_challenges("calibration-challenges", 700))
    assert puf.gain == TARGET_MEAN * raw.size / math.fsum(raw.ravel())


# -- platform independence -------------------------------------------------

_PROBE = """
import hashlib
import numpy as np
from pufstack.protocols.auth import enroll_secret
from pufstack.puf import create_puf
puf = create_puf("photonic", 1, {"noise_sigma": 0.0})
digest = hashlib.sha256()
for arr in (puf.scatter, puf.inject, puf.detect):
    digest.update(np.rint(arr.view(np.float64) * 2.0 ** 20).astype("<i8").tobytes())
thresholds = hashlib.sha256(puf.thresholds.astype("<f8").tobytes()).hexdigest()
print(enroll_secret(puf).hex(), digest.hexdigest(), puf.gain.hex(), thresholds)
"""

# OpenBLAS kernels with different dgemm reduction orders, and numpy without
# its AVX2/AVX-512 loops; both libraries ignore a setting that does not apply
_ENVIRONMENTS = [{"OPENBLAS_CORETYPE": core}
                 for core in ("Prescott", "Sandybridge", "Haswell")] \
    + [{"NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR,X86_V3"}]


def _strided(a):
    """Same values, non-unit strides."""
    wide = np.zeros(a.shape + (2,), dtype=a.dtype)
    wide[..., 0] = a
    return wide[..., 0]


def test_device_identity_is_platform_and_layout_independent():
    src = str(Path(pufstack.__file__).resolve().parents[1])
    local = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True,
                           text=True, check=True,
                           env={**os.environ, "PYTHONPATH": src}).stdout
    puf = create_puf("photonic", 1, {"noise_sigma": 0.0})
    assert local.split()[0] == enroll_secret(puf).hex()
    for extra in _ENVIRONMENTS:
        env = {**os.environ, "PYTHONPATH": src, **extra}
        out = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True,
                             text=True, check=True, env=env).stdout
        assert out == local, extra

    bits = np.stack([c.bits for c in rand_challenges(200)])
    ref = puf.raw_intensities(bits)
    copy = create_puf("photonic", 1, {"noise_sigma": 0.0})
    # the folded stages rebuilt in a transposed layout from a copy of
    # scatter and a strided injection, and a strided detector
    length, paths = puf.scatter.shape[:2]
    stages = np.swapaxes(np.zeros((length, paths, paths + 2), dtype=np.complex128), 1, 2)
    stages[:, :paths] = puf.scatter
    inject = _strided(puf.inject)
    assert not (stages.flags.c_contiguous or inject.flags.c_contiguous)
    copy.stages = _fold_injection(stages, inject)
    copy.detect = _strided(puf.detect)
    assert not copy.detect.flags.c_contiguous
    # the prefix stages too, which a read takes from the fabrication table
    copy.prefix_states = copy._prefix_table()
    assert np.array_equal(copy.raw_intensities(bits), ref)
    # and a strided copy of the folded stages, so that every product of a
    # read, the prefix table's included, has a strided operand
    copy.stages = _strided(puf.stages)
    copy.prefix_states = copy._prefix_table()
    assert np.array_equal(copy.raw_intensities(bits), ref)
    # and tiles narrow enough for the compiled kernel, which reads the
    # reassigned arrays
    for width in (1, KERNEL_ROWS - 1):
        assert np.array_equal(copy.raw_intensities(bits[:width]), ref[:width]), width

    # a relative 1e-12 change of a and kerr flips < 0.1% of the bits
    moved = create_puf("photonic", 1, {"noise_sigma": 0.0, "a": 0.6 * (1 + 1e-12),
                                       "kerr": 40.0 * (1 + 1e-12)})
    def quantized(device):
        return device.evaluate_analog(bits) >= device.thresholds

    assert np.mean(quantized(moved) != quantized(puf)) < 1e-3


# -- compiled kernel ----------------------------------------------------------

def test_kernel_loads_where_a_compiler_is_found():
    compiler = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(compiler):
        assert photonic_module.kernel_name() == "compiled"


@pytest.mark.parametrize("cfg", [{}, {"L": 32}, {"P": 16, "M": 64}, {"L": 128, "P": 8},
                                 {"a": 0.3, "kerr": -25.0}, {"a": 0.0}, {"L": 32, "P": 96}],
                         ids=["default", "L32", "P16-M64", "L128-P8", "a0.3-kerr-25", "a0",
                              "L32-P96"])
def test_kernel_reads_as_the_numpy_loop(cfg, monkeypatch):
    # every width the kernel takes, the first the numpy loop takes, and 513
    # rows, whose one-row tail tile is the kernel's; P = 96 is past any
    # fixed scratch size of 64 paths
    puf = create_puf("photonic", 1, {**cfg, "noise_sigma": 0.0})
    bits = puf.random_challenges("kernel", 513)
    with monkeypatch.context() as numpy_only:
        numpy_only.setattr(photonic_module, "_compiled_cascade", None)
        assert photonic_module.kernel_name() == "numpy"
        ref = puf.raw_intensities(bits)
    for width in range(1, KERNEL_ROWS + 2):
        start = 7 * width
        assert puf.raw_intensities(bits[start:start + width]).tobytes() == \
            ref[start:start + width].tobytes(), width
    assert puf.raw_intensities(bits).tobytes() == ref.tobytes()


def test_copied_device_reads_from_its_own_arrays():
    # the kernel takes the device's arrays by address; a pickled or
    # deep-copied device must not keep the original's addresses
    puf = create_puf("photonic", 1, {"noise_sigma": 0.0})
    bits = puf.random_challenges("copies", 3)
    ref = puf.raw_intensities(bits)
    copies = [pickle.loads(pickle.dumps(puf)), copy.deepcopy(puf)]
    del puf
    gc.collect()
    for twin in copies:
        assert twin.raw_intensities(bits).tobytes() == ref.tobytes()
        assert twin.raw_intensities(bits[:1]).tobytes() == ref[:1].tobytes()


def test_reassigned_arrays_reach_the_kernel():
    # the kernel holds the device's arrays by address; assigning new ones
    # rebinds it, so a narrow read reads the same device as a wide one
    puf = create_puf("photonic", 1, {"noise_sigma": 0.0})
    other = create_puf("photonic", 2, {"noise_sigma": 0.0})
    bits = puf.random_challenges("reassigned", KERNEL_ROWS)
    for name in ("stages", "detect", "prefix_states"):
        setattr(puf, name, getattr(other, name))
    ref = other.raw_intensities(bits)
    assert puf.raw_intensities(bits).tobytes() == ref.tobytes()
    assert puf.raw_intensities(bits[:1]).tobytes() == ref[:1].tobytes()


@pytest.mark.parametrize("case", ["read-only cache", "unknown CPU"])
def test_kernel_build_that_cannot_succeed_starts_no_compiler(case, tmp_path, monkeypatch):
    # a cache the process cannot write (a site-packages install owned by
    # another user), or a CPU that a host-tuned build cannot be checked
    # against, reads in numpy without starting the compiler
    shutil.copy(Path(photonic_module.__file__).with_name("_cascade.c"), tmp_path)
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    cache.chmod(0o555)
    def refuse(*args, **kwargs):
        raise AssertionError("the compiler ran")
    monkeypatch.setattr(photonic_module.subprocess, "run", refuse)
    if case == "read-only cache":
        # root may write anywhere, so the answer another user gets stands in
        access = os.access
        monkeypatch.setattr(os, "access", lambda path, mode, **kw:
                            False if Path(path) == cache else access(path, mode, **kw))
    else:
        monkeypatch.setattr(photonic_module, "_host_cpu", lambda: None)
    try:
        assert photonic_module._load_kernel(tmp_path) is None
    finally:
        cache.chmod(0o755)
    assert list(cache.iterdir()) == []


_KERNEL_PROBE = """
import subprocess
def refuse(*args, **kwargs):
    raise AssertionError("the compiler ran")
subprocess.run = subprocess.Popen = refuse
from pufstack.puf import photonic
print(photonic.kernel_name())
"""


def test_second_import_reuses_the_cached_build():
    # this process's import built or loaded the kernel, so a new one loads
    # the same cached file without starting a process
    src = str(Path(pufstack.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _KERNEL_PROBE], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == [photonic_module.kernel_name()]


_NO_COMPILER = """
import sys
import pytest
from pufstack.puf import photonic
assert photonic.kernel_name() == "numpy"
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", sys.argv[1]]))
"""


def test_without_a_compiler_every_read_runs_in_numpy(tmp_path):
    # no compiler on PATH: the import succeeds, and the pinned outputs of
    # every subcommand come out of the numpy loop unchanged
    root = Path(__file__).resolve().parent
    src = str(Path(pufstack.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _NO_COMPILER, f"{root / 'test_cli.py'}::TestOutputsPinned"],
        capture_output=True, text=True, cwd=root.parent,
        env={**os.environ, "PYTHONPATH": src, "PATH": str(tmp_path)})
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert " passed" in proc.stdout and "skipped" not in proc.stdout


def test_scatter_is_a_view_of_the_folded_stages():
    # the folded injection costs 2 rows per stage, not a second stage array
    puf = create_puf("photonic", 1, {"noise_sigma": 0.0})
    length, paths = puf.challenge_len, puf.params.n_paths
    assert np.shares_memory(puf.scatter, puf.stages)
    assert puf.stages.size - puf.scatter.size == 2 * length * paths
    assert puf.scatter.shape == (length, paths, paths)
    assert np.array_equal(puf.stages[:, paths], (puf.inject[0] * 2 ** 20) @ puf.scatter)
    assert np.array_equal(puf.stages[:, paths + 1],
                          ((puf.inject[1] - puf.inject[0]) * 2 ** 20) @ puf.scatter)


_BATCH_PROBE = """
import hashlib
from pufstack.puf import create_puf
for cfg in ({}, {"a": 0.3, "kerr": -25.0}):
    puf = create_puf("photonic", 1, {**cfg, "noise_sigma": 0.0})
    raw = puf.raw_intensities(puf.random_challenges("batch", 256))
    print(hashlib.sha256(raw.astype("<f8").tobytes()).hexdigest())
"""


def test_batched_intensities_are_platform_independent():
    # batch-256 products may take other BLAS kernels than the batch-1 reads
    # of _PROBE; the negative-kerr device runs numpy's integer shift and
    # multiply loops on negative Kerr products
    src = str(Path(pufstack.__file__).resolve().parents[1])
    for extra in [{}] + _ENVIRONMENTS:
        env = {**os.environ, "PYTHONPATH": src, **extra}
        out = subprocess.run([sys.executable, "-c", _BATCH_PROBE], capture_output=True,
                             text=True, check=True, env=env).stdout
        assert out.split() == [
            "b8d3b84ee43fd772581eb2dae9b7fc6b481cf1aeb2c1ff8c2f8cd355b278b66a",
            "cc0a420e4ca975dec50f5c64e30e4d2abfa2d4c6046c4cc26bb34a16ace0296f"], extra
