import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pufstack.errors import ChallengeShapeError, ValidationError
from pufstack.metrics import (FilterBand, band_sweep, bit_entropy,
                              compute_metrics, decision_rates, pairwise_hd,
                              population_responses)
from pufstack.puf import Challenge, create_puf


def naive_metrics(mat):
    """Loop-based oracle for uniformity / uniqueness / aliasing entropy."""
    mat = np.asarray(mat)
    d, m = mat.shape
    uniformity = sum(int(b) for row in mat for b in row) / (d * m)
    hds = []
    for i, j in itertools.combinations(range(d), 2):
        hds.append(sum(int(a != b) for a, b in zip(mat[i], mat[j])) / m)
    entropies = []
    for col in range(m):
        p = sum(int(mat[i][col]) for i in range(d)) / d
        if p in (0.0, 1.0):
            entropies.append(0.0)
        else:
            entropies.append(-p * np.log2(p) - (1 - p) * np.log2(1 - p))
    return uniformity, float(np.mean(hds)), entropies


class TestComputeMetrics:
    def test_trivial_matrices(self):
        rep = compute_metrics(np.array([[0, 0], [1, 1]], dtype=np.uint8))
        assert rep.uniformity == 0.5
        assert rep.uniqueness == 1.0
        assert rep.mean_alias_entropy == 1.0

        rep = compute_metrics(np.array([[1, 1], [1, 1]], dtype=np.uint8))
        assert rep.uniformity == 1.0
        assert rep.uniqueness == 0.0
        assert rep.mean_alias_entropy == 0.0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        for d, m in [(2, 4), (3, 8), (5, 12), (6, 16)]:
            mat = rng.integers(0, 2, size=(d, m), dtype=np.uint8)
            rep = compute_metrics(mat)
            uni, uniq, ents = naive_metrics(mat)
            assert rep.uniformity == pytest.approx(uni)
            assert rep.uniqueness == pytest.approx(uniq)
            assert rep.bit_alias_entropy == pytest.approx(ents)
            assert rep.mean_alias_entropy == pytest.approx(np.mean(ents))

    def test_reliability_counts_flips(self):
        mat = np.zeros((2, 8), dtype=np.uint8)
        rev = np.zeros((3, 2, 8), dtype=np.uint8)
        rev[0, 0, 0] = 1
        rev[2, 1, 3] = 1
        rep = compute_metrics(mat, rev)
        assert rep.reliability == pytest.approx(1.0 - 2 / 48)

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            compute_metrics(np.zeros((1, 8), dtype=np.uint8))
        with pytest.raises(ValidationError):
            compute_metrics(np.zeros((0, 8), dtype=np.uint8))
        with pytest.raises(ValidationError):
            compute_metrics(np.zeros((2, 8), dtype=np.uint8),
                            np.zeros((1, 2, 8), dtype=np.uint8))
        with pytest.raises(ValidationError):
            compute_metrics(np.zeros((2, 8), dtype=np.uint8),
                            np.zeros((2, 2, 9), dtype=np.uint8))


# a 2 once counted as a one in uniformity (0.75) and gave a pairwise
# distance of -4; an int64 256 wrapped to 0 in the uint8 cast
@pytest.mark.parametrize("entry", [2, 256, 0.5, -1])
def test_non_bit_responses_rejected(entry):
    bits = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    bad = np.array([[0, entry], [1, 0]])
    rev = np.stack([bits, bad])
    margins, band = np.zeros((2, 2)), [FilterBand(0, 1)]
    for call in (lambda: compute_metrics(bad), lambda: pairwise_hd(bad),
                 lambda: band_sweep(bad, margins, None, band),
                 lambda: compute_metrics(bits, rev),
                 lambda: band_sweep(bits, margins, rev, band)):
        with pytest.raises(ValidationError, match="0/1"):
            call()


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_bit_entropy_bounds(p):
    h = float(bit_entropy(np.array([p]))[0])
    assert 0.0 <= h <= 1.0
    assert h == pytest.approx(float(bit_entropy(np.array([1.0 - p]))[0]))


def test_bit_entropy_peak_at_half():
    assert float(bit_entropy(np.array([0.5]))[0]) == 1.0
    assert float(bit_entropy(np.array([0.0]))[0]) == 0.0
    assert float(bit_entropy(np.array([1.0]))[0]) == 0.0


class TestFilterBand:
    def test_band_validation(self):
        with pytest.raises(ValidationError):
            FilterBand(0.3, 0.2)
        with pytest.raises(ValidationError):
            FilterBand(-0.1, 0.2)
        FilterBand(0.0, float("inf"))

    def test_contains_is_inclusive(self):
        band = FilterBand(0.1, 0.3)
        mask = band.contains(np.array([0.05, 0.1, 0.2, 0.3, 0.31, -0.2]))
        assert mask.tolist() == [False, True, True, True, False, True]

    def test_aliasing_needs_shared_challenges(self):
        # two devices answering the same challenge with opposite bits
        margins = np.full((2, 2), 0.2)
        rows = band_sweep(np.array([[0, 1], [1, 0]]), margins, None,
                          [FilterBand(0.1, 0.3)])
        assert rows[0].mean_alias_entropy == pytest.approx(1.0)

        rows = band_sweep(np.array([[0, 1]]), margins[:1], None,
                          [FilterBand(0.1, 0.3)])
        assert rows[0].mean_alias_entropy is None


class TestBandSweep:
    def _population(self):
        pufs = [create_puf("photonic", 6000 + i, {"noise_sigma": 0.02})
                for i in range(4)]
        rng = np.random.default_rng(3)
        chals = [Challenge.random(rng, 64) for _ in range(8)]
        return population_responses(pufs, chals, n_reevals=3,
                                    noise_rng=np.random.default_rng(4))

    def test_retention_shrinks_with_delta_min(self):
        golden, margins, reevals = self._population()
        bands = [FilterBand(d, float("inf")) for d in (0.0, 0.02, 0.05, 0.1)]
        rows = band_sweep(golden, margins, reevals, bands)
        rets = [r.retention for r in rows]
        assert rets[0] == 1.0
        assert all(a >= b for a, b in zip(rets, rets[1:]))

    def test_reliability_improves_with_delta_min(self):
        golden, margins, reevals = self._population()
        rows = band_sweep(golden, margins, reevals,
                          [FilterBand(0.0, float("inf")),
                           FilterBand(0.05, float("inf"))])
        assert rows[1].reliability >= rows[0].reliability

    def test_empty_band_row(self):
        golden, margins, reevals = self._population()
        rows = band_sweep(golden, margins, reevals, [FilterBand(50.0, 60.0)])
        assert rows[0].retention == 0.0
        assert rows[0].reliability is None
        assert rows[0].mean_alias_entropy is None

    # margins[:1] once read reliability -1.0, and re-reads of one device
    # broadcast over all four
    @pytest.mark.parametrize("cut", [
        lambda m, r: (m[:1], r), lambda m, r: (m[:, :-1], r),
        lambda m, r: (m[..., None], r), lambda m, r: (m, r[:, :1]),
        lambda m, r: (m, r[:, :, :-1]), lambda m, r: (m, r[:0])],
        ids=["one-device-margins", "short-margins", "3d-margins",
             "one-device-re-reads", "short-re-reads", "no-re-reads"])
    def test_rejects_mismatched_shapes(self, cut):
        golden, margins, reevals = self._population()
        margins, reevals = cut(margins, reevals)
        with pytest.raises(ValidationError, match="margins|re-reads"):
            band_sweep(golden, margins, reevals, [FilterBand(0.0, float("inf"))])

    def test_rejects_empty_grid(self):
        golden, margins, reevals = self._population()
        with pytest.raises(ValidationError):
            band_sweep(golden, margins, reevals, [])


class TestDecisionRates:
    def test_exact_counts(self):
        far, frr = decision_rates([0.1, 0.2, 0.4], [0.3, 0.5, 0.6, 0.7], 0.25)
        assert far == 0.0
        assert frr == pytest.approx(1 / 3)
        far, frr = decision_rates([0.1], [0.2, 0.9], 0.5)
        assert far == 0.5
        assert frr == 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            decision_rates([], [0.5], 0.25)
        with pytest.raises(ValidationError):
            decision_rates([0.1], [0.5], 1.5)


def test_population_responses_shapes():
    pufs = [create_puf("photonic", 6100 + i) for i in range(3)]
    rng = np.random.default_rng(9)
    chals = [Challenge.random(rng, 64) for _ in range(2)]
    golden, margins, reevals = population_responses(
        pufs, chals, n_reevals=2, noise_rng=np.random.default_rng(10))
    assert golden.shape == (3, 256)
    assert margins.shape == (3, 256)
    assert reevals.shape == (2, 3, 256)
    matrix = np.stack([c.bits for c in chals])
    assert np.array_equal(population_responses(pufs, matrix)[0], golden)
    with pytest.raises(ValidationError):
        population_responses(pufs, chals, n_reevals=2, noise_rng=None)
    with pytest.raises(ValidationError):
        population_responses([], chals)
    # challenges of unequal length do not stack into one matrix
    ragged = [Challenge(np.zeros(64, dtype=np.uint8)),
              Challenge(np.zeros(32, dtype=np.uint8))]
    with pytest.raises(ChallengeShapeError):
        population_responses([create_puf("arbiter", 6200, {"L": 64})], ragged)


def test_population_responses_pinned():
    # exact integer device arithmetic: these digests hold on every machine
    pufs = [create_puf("photonic", 7100 + i) for i in range(3)]
    rng = np.random.default_rng(12)
    chals = [Challenge.random(rng, 64) for _ in range(6)]
    golden, margins, reevals = population_responses(
        pufs, chals, n_reevals=2, noise_rng=np.random.default_rng(13))
    digests = [hashlib.sha256(a.tobytes()).hexdigest()
               for a in (golden, margins, reevals)]
    assert digests == [
        "48c0a613d2ed7b52dafffc55dab428d8952e17872ade44b575ce197fae387b9f",
        "1f6b25285d2880d7e3adaf6f345d95bf2b3b07ff1aa54240a888b923e6c9bd59",
        "f4d691c8d79a0778d36c579c17dd1f78a8d1c8294f2e19184153b6c4cebee8b5",
    ]
