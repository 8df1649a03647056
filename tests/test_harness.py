import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pufstack.errors import ValidationError
from pufstack.harness import (AdversaryPolicy, AttackConfig, Channel,
                              ScenarioConfig, harvest_crps, modeling_attack,
                              run_scenario)
from pufstack.harness.attack import NEWTON_STEPS, fit_logistic
from pufstack.puf import create_puf, parity_features
from pufstack.xof import derive_rng, expand


class TestChannel:
    def test_passive_is_identity(self):
        chan = Channel(AdversaryPolicy())
        for payload in (b"", b"\x01", b"hello" * 50):
            out = chan.transmit(payload, "device")
            assert len(out) == 1
            assert out[0].payload == payload
            assert not out[0].adversarial
        assert chan.log == []
        assert chan.harvested == []

    def test_replay_mode_harvests(self):
        chan = Channel(AdversaryPolicy(mode="replay"))
        chan.transmit(b"msg-a", "device")
        chan.transmit(b"msg-b", "verifier")
        assert chan.harvested == [b"msg-a", b"msg-b"]

    def test_drop_all(self):
        chan = Channel(AdversaryPolicy(mode="drop", p=1.0),
                       rng=np.random.default_rng(0))
        assert chan.transmit(b"payload", "device") == []
        assert chan.log[0]["action"] == "drop"

    def test_bitflip_changes_exactly_one_bit(self):
        chan = Channel(AdversaryPolicy(mode="bitflip", p=1.0),
                       rng=np.random.default_rng(1))
        payload = bytes(range(32))
        for _ in range(50):
            out = chan.transmit(payload, "device")[0]
            assert out.adversarial
            diff = [a ^ b for a, b in zip(out.payload, payload)]
            assert sum(bin(d).count("1") for d in diff) == 1

    @settings(max_examples=50, deadline=None)
    @given(st.binary(min_size=1, max_size=64), st.integers(0, 2 ** 16))
    def test_every_alteration_is_logged(self, payload, seed):
        # audit property: a delivered payload differs from the sent one
        # only if the log records an adversarial action for it
        chan = Channel(AdversaryPolicy(mode="bitflip", p=0.5),
                       rng=np.random.default_rng(seed))
        before = len(chan.log)
        out = chan.transmit(payload, "device")
        altered = bool(out) and out[0].payload != payload
        assert altered == (len(chan.log) > before)

    def test_inject_marks_adversary(self):
        chan = Channel(AdversaryPolicy(mode="replay"))
        msg = chan.inject(b"old")
        assert msg.adversarial
        assert msg.sender == "adversary"
        assert chan.log[-1]["action"] == "inject"

    @pytest.mark.parametrize("mode", ["drop", "bitflip"])
    def test_acting_mode_needs_rng(self, mode):
        # without an rng the adversary never acted, so the message went through
        with pytest.raises(ValidationError, match="rng"):
            Channel(AdversaryPolicy(mode=mode, p=1.0))
        for passive in ("passive", "replay"):
            Channel(AdversaryPolicy(mode=passive))

    def test_policy_validation(self):
        with pytest.raises(ValidationError):
            AdversaryPolicy(mode="jam")
        with pytest.raises(ValidationError):
            AdversaryPolicy(mode="drop", p=1.5)
        with pytest.raises(ValidationError):
            AdversaryPolicy(mode="modify")


class TestHarvest:
    def test_reproducible(self):
        puf = create_puf("arbiter", 5)
        a = harvest_crps(puf, 20, challenge_rng=np.random.default_rng(3))
        b = harvest_crps(puf, 20, challenge_rng=np.random.default_rng(3))
        assert len(a) == len(b) == 20
        assert np.array_equal(a.challenges, b.challenges)
        assert np.array_equal(a.bits, b.bits)
        assert np.array_equal(a.margins, b.margins)

    def test_label_balance(self):
        # a single device carries a few percent of natural bias from its
        # weight draw, so average across a handful of fabrication seeds
        ps = []
        for seed in range(5, 10):
            puf = create_puf("arbiter", seed)
            crps = harvest_crps(puf, 800, challenge_rng=np.random.default_rng(2))
            ps.append(crps.bits.mean())
        assert 0.45 <= np.mean(ps) <= 0.55

    def test_pinned(self):
        # exact integer device arithmetic: these digests hold on every machine
        crps = harvest_crps(create_puf("photonic", 7100), 40,
                            challenge_rng=np.random.default_rng(14))
        assert [hashlib.sha256(a.tobytes()).hexdigest() for a in
                (crps.challenges, crps.bits, crps.margins)] == [
            "6f683574785441b135733a8cfb8fbc2422f08cc69e08da715b998dd0350082f0",
            "310237d515dbab20230a9cd0889c09ece54793ada5b5588b169a7ae43a76592a",
            "f8a1e6fe71adf550eb434e0c1c7e3f68b1ae9adb9b7a1de782fb965bb7722fbc"]

    def test_needs_positive_n(self):
        with pytest.raises(ValidationError):
            harvest_crps(create_puf("arbiter", 5), 0, np.random.default_rng(0))


def _lstsq_newton(x, y):
    """The Newton fit of one label column, each step a least-squares solve."""
    w = np.zeros(x.shape[1])
    for _ in range(NEWTON_STEPS):
        p = 0.5 * (1.0 + np.tanh(0.5 * (x @ w)))
        hessian = x.T @ (x * (p * (1.0 - p))[:, None])
        w -= np.linalg.lstsq(hessian, x.T @ (p - y), rcond=None)[0]
    return w


class TestModelingAttack:
    def test_arbiter_is_learnable(self):
        puf = create_puf("arbiter", 7)
        crng = np.random.default_rng(3)
        crps = harvest_crps(puf, 1800, challenge_rng=crng)
        result = modeling_attack(crps[:1500], crps[1500:])
        assert result.status == "ok"
        assert result.test_accuracy >= 0.9

    def test_coin_flip_labels_stay_at_chance(self):
        # labels decoupled from the challenges: no model can beat 50%
        puf = create_puf("arbiter", 8)
        crng = np.random.default_rng(4)
        crps = harvest_crps(puf, 1500, challenge_rng=crng)
        flip = np.random.default_rng(5)
        crps.bits[:, 0] = flip.integers(0, 2, size=len(crps))
        result = modeling_attack(crps[:1000], crps[1000:])
        assert 0.4 <= result.test_accuracy <= 0.6

    def test_degenerate_single_class(self):
        puf = create_puf("arbiter", 9)
        crps = harvest_crps(puf, 40, challenge_rng=np.random.default_rng(6))
        crps.bits[:, 0] = 1
        result = modeling_attack(crps[:30], crps[30:])
        assert result.status == "degenerate"
        assert result.test_accuracy == 1.0

    def test_disjointness_enforced(self):
        crps = harvest_crps(create_puf("arbiter", 9), 10,
                            challenge_rng=np.random.default_rng(11))
        with pytest.raises(ValidationError):
            modeling_attack(crps, crps)
        with pytest.raises(ValidationError):
            modeling_attack(crps[:9], crps[8:])
        modeling_attack(crps[:8], crps[8:])

    @pytest.mark.parametrize("device, crps, per_bit, train", [
        # the criterion-6 photonic device and CRPs
        (expand(b"\x0a" * 32, "c6-photonic", 32),
         derive_rng(b"\x0a" * 32, "c6-crps-photonic"),
         {0: 0.566, 1: 0.532, 2: 0.477, 3: 0.495}, 0.5561),
        # a device attacked as in one population-batch round
        (b"\x00" * 32, np.random.default_rng(0),
         {0: 0.522, 1: 0.544, 2: 0.493, 3: 0.529}, 0.5572),
    ], ids=["criterion-6", "population-batch"])
    def test_photonic_attack_pinned(self, device, crps, per_bit, train):
        crps = harvest_crps(create_puf("photonic", device), 6000, challenge_rng=crps)
        result = modeling_attack(crps[:5000], crps[5000:],
                                 AttackConfig(target_bits=(0, 1, 2, 3)))
        assert result.status == "ok"
        assert result.per_bit_test_accuracy == per_bit
        assert result.train_accuracy == train

    def test_fit_logistic_recovers_separator(self):
        rng = np.random.default_rng(7)
        w_true = rng.normal(size=5)
        x = parity_features(rng.integers(0, 2, size=(400, 4), dtype=np.uint8))
        y = (x @ w_true >= 0).astype(np.float64)
        w = fit_logistic(x, y[:, None])[:, 0]
        assert np.mean((x @ w >= 0) == y) >= 0.95

    def test_fit_logistic_fits_label_columns_at_once(self):
        # the reference is a whole-batch Newton loop on one column at a time
        rng = np.random.default_rng(11)
        x = parity_features(rng.integers(0, 2, size=(2500, 8), dtype=np.uint8))
        y = (x @ rng.normal(size=(9, 3)) + rng.normal(size=(2500, 3)) >= 0).astype(np.float64)
        w = fit_logistic(x, y)
        assert w.shape == (9, 3)
        for k in range(3):
            reference = _lstsq_newton(x, y[:, k])
            single = fit_logistic(x, y[:, k, None])[:, 0]
            for fitted in (w[:, k], single):
                assert np.allclose(fitted, reference, rtol=0, atol=1e-12)
                assert np.array_equal(x @ fitted >= 0, x @ reference >= 0)

    @pytest.mark.parametrize("rows, length", [(30, 64), (10, 8)])
    def test_fit_logistic_min_norm_step_on_singular_hessians(self, rows, length):
        # 30 rows of 65 features have rank <= 30; with challenge bit 0 held
        # at 0, features 0 and 1 are equal, so 10 rows of 9 have rank <= 8.
        # Labels in (0.1, 0.9) give a finite optimum in the row space, so
        # the comparison measures the step and not the conditioning of a
        # separable fit that has no optimum.
        rng = np.random.default_rng(rows)
        challenges = rng.integers(0, 2, size=(rows, length), dtype=np.uint8)
        challenges[:, 0] = 0
        x = parity_features(challenges)
        y = rng.uniform(0.1, 0.9, size=(rows, 3))
        assert np.linalg.matrix_rank(x) < x.shape[1]
        w = fit_logistic(x, y)
        for k in range(3):
            reference = _lstsq_newton(x, y[:, k])
            scale = max(1.0, np.abs(reference).max())
            assert np.abs(w[:, k] - reference).max() <= 1e-12 * scale
            assert np.array_equal(x @ w[:, k] >= 0, x @ reference >= 0)

    def test_fit_logistic_reaches_stationary_point(self):
        # photonic taps are not linearly separable, so the logistic loss has
        # a finite minimum, and the fit must end on it
        crps = harvest_crps(create_puf("photonic", 21), 2000,
                            challenge_rng=np.random.default_rng(22))
        x = parity_features(crps.challenges)
        y = crps.bits[:, :4].astype(np.float64)
        w = fit_logistic(x, y)
        p = 0.5 * (1.0 + np.tanh(0.5 * (x @ w)))
        assert np.abs(x.T @ (p - y)).max() / len(x) < 1e-10

    @pytest.mark.parametrize("bits", [(), (True,), (1.0,), (0, False)])
    def test_target_bits_must_be_integers(self, bits):
        # () once gave test_accuracy nan, (True,) and (1.0,) an IndexError
        crps = harvest_crps(create_puf("arbiter", 13), 60,
                            challenge_rng=np.random.default_rng(10))
        with pytest.raises(ValidationError, match="target_bits"):
            modeling_attack(crps[:50], crps[50:], AttackConfig(target_bits=bits))

    def test_numpy_integer_target_bits_accepted(self):
        crps = harvest_crps(create_puf("arbiter", 13), 60,
                            challenge_rng=np.random.default_rng(10))
        plain = modeling_attack(crps[:50], crps[50:], AttackConfig(target_bits=(1,)))
        wide = modeling_attack(crps[:50], crps[50:],
                            AttackConfig(target_bits=(np.int64(1),)))
        assert wide == plain

    def test_repeated_target_bit_rejected(self):
        crps = harvest_crps(create_puf("arbiter", 13), 60,
                            challenge_rng=np.random.default_rng(10))
        with pytest.raises(ValidationError, match="target bit 1 is repeated"):
            modeling_attack(crps[:50], crps[50:], AttackConfig(target_bits=(1, 0, 1)))

    def test_degenerate_bit_beside_fitted_bit(self):
        crps = harvest_crps(create_puf("arbiter", 12), 1200,
                            challenge_rng=np.random.default_rng(9))
        crps.bits[:, 0] = 0
        both = modeling_attack(crps[:1000], crps[1000:], AttackConfig(target_bits=(0, 1)))
        alone = modeling_attack(crps[:1000], crps[1000:], AttackConfig(target_bits=(1,)))
        assert both.status == "degenerate" and alone.status == "ok"
        assert both.per_bit_test_accuracy[0] == 1.0
        assert both.per_bit_test_accuracy[1] == alone.per_bit_test_accuracy[1]

    def test_result_kv_serialization(self):
        crps = harvest_crps(create_puf("arbiter", 10), 120,
                            challenge_rng=np.random.default_rng(8))
        result = modeling_attack(crps[:100], crps[100:],
                                 AttackConfig(target_bits=(0, 1)))
        kv = result.to_kv()
        assert kv["model_kind"] == "linear-threshold-parity"
        assert "bit_0_test_accuracy" in kv and "bit_1_test_accuracy" in kv


class TestScenarios:
    def test_config_validation(self):
        with pytest.raises(ValidationError):
            ScenarioConfig(protocol="handshake").validate()
        with pytest.raises(ValidationError):
            ScenarioConfig(protocol="auth", adversary="tamper").validate()
        with pytest.raises(ValidationError):
            ScenarioConfig(protocol="attest", adversary="replay").validate()
        with pytest.raises(ValidationError):
            ScenarioConfig(trials=0).validate()

    def test_config_kv_roundtrip(self):
        cfg = ScenarioConfig(protocol="attest", adversary="tamper", trials=7,
                             run_seed=3, chunk_bytes=2048)
        back = ScenarioConfig.from_kv(cfg.to_kv())
        assert back == cfg
        with pytest.raises(ValidationError):
            ScenarioConfig.from_kv({"bogus": "1"})

    def test_honest_auth_accepts_all(self):
        report = run_scenario(ScenarioConfig(trials=20))
        assert report.accepts == 20
        assert report.adversary_successes == 0
        assert report.secrets_in_sync

    def test_deterministic_given_seed(self):
        cfg = dict(protocol="auth", adversary="drop", adversary_p=0.3,
                   trials=15, run_seed=11)
        a = run_scenario(ScenarioConfig(**cfg))
        b = run_scenario(ScenarioConfig(**cfg))
        assert a.to_kv() == b.to_kv()
        assert a.trial_rows == b.trial_rows

    def test_replay_scenario_never_succeeds(self):
        report = run_scenario(ScenarioConfig(adversary="replay", trials=25))
        assert report.adversary_attempts == 25
        assert report.adversary_successes == 0
        assert report.rejects.get("ReplayRejected", 0) == 25

    def test_drop_scenario_recovers(self):
        report = run_scenario(ScenarioConfig(adversary="drop", adversary_p=0.4,
                                             trials=30, run_seed=2))
        assert report.rejects.get("Drop", 0) > 0
        assert report.accepts > 0
        assert report.secrets_in_sync

    def test_bitflip_scenario_rejected_cleanly(self):
        report = run_scenario(ScenarioConfig(adversary="bitflip",
                                             adversary_p=1.0, trials=15))
        assert report.adversary_successes == 0
        assert report.accepts == 0

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_bitflip_scenario_succeeds_never(self, seed):
        # every flipped message is rejected, so no session that the
        # adversary touched is accepted; a flip in the request's session
        # number once went through and counted as a success
        report = run_scenario(ScenarioConfig(adversary="bitflip", adversary_p=0.5,
                                             trials=40, run_seed=seed))
        assert report.adversary_successes == 0

    def test_attest_honest_and_tamper(self):
        honest = run_scenario(ScenarioConfig(protocol="attest", adversary="none",
                                             trials=5, memory_bytes=4096))
        assert honest.accepts == 5
        tampered = run_scenario(ScenarioConfig(protocol="attest",
                                               adversary="tamper", trials=5,
                                               memory_bytes=4096))
        assert tampered.accepts == 0
        assert tampered.rejects.get("HashMismatch", 0) == 5

    def test_attest_relocation_times_out(self):
        report = run_scenario(ScenarioConfig(protocol="attest",
                                             adversary="relocate", trials=3,
                                             memory_bytes=4096))
        assert report.accepts == 0
        assert report.rejects.get("Timeout", 0) == 3
