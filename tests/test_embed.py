import math

import numpy as np
import pytest
import scipy.linalg

from conftest import random_tall
from lpsens.core import RandomSource
from lpsens.embed import (
    SamplingEmbedding,
    inclusion_probabilities,
    linf_embedding,
    lp_embedding,
)
from lpsens.lewis import LewisConfig, lewis_weights


class TestInclusionProbabilities:
    def test_formula_and_cap(self):
        w = np.array([1e-6, 0.5, 1.0])
        probs = inclusion_probabilities(w, d=3, eps=0.5)
        log_d = math.log(3)
        expected_small = 4.0 * 0.25**-1 * 1e-6 * log_d**2 * math.log(3 / 0.5)
        assert probs[0] == pytest.approx(expected_small, rel=1e-12)
        assert probs[1] == 1.0 and probs[2] == 1.0

    def test_log_factors_floored_for_tiny_d(self):
        # d = 1 would zero every log factor; the floor keeps probabilities alive
        probs = inclusion_probabilities(np.array([0.01]), d=1, eps=0.5)
        assert probs[0] > 0

    def test_monotone_in_eps(self):
        w = np.full(5, 0.001)
        loose = inclusion_probabilities(w, d=4, eps=0.9)
        tight = inclusion_probabilities(w, d=4, eps=0.1)
        assert np.all(tight >= loose)


class TestLpEmbedding:
    def test_identity_kept_whole(self):
        a = np.eye(4)
        emb = lp_embedding(a, 1, 0.5, RandomSource(0))
        assert len(emb) == 4
        np.testing.assert_array_equal(np.sort(emb.source_rows), np.arange(4))
        np.testing.assert_allclose(emb.scales, 1.0)
        np.testing.assert_array_equal(emb.materialize(a), np.eye(4))

    def test_norm_preserved_on_grid(self, np_rng):
        a = random_tall(np_rng, 400, 4, scale_rows=True)
        for p in (1.0, 2.0):
            emb = lp_embedding(a, p, 0.5, RandomSource(11))
            sa = emb.materialize(a)
            xs = np_rng.standard_normal((200, 4))
            num = np.sum(np.abs(xs @ sa.T) ** p, axis=1) ** (1.0 / p)
            den = np.sum(np.abs(xs @ a.T) ** p, axis=1) ** (1.0 / p)
            ratio = num / den
            assert ratio.max() <= 1.5 and ratio.min() >= 0.5

    def test_embedded_matrix_keeps_rank(self, np_rng):
        a = random_tall(np_rng, 300, 5)
        emb = lp_embedding(a, 1, 0.9, RandomSource(2))
        sa = emb.materialize(a)
        assert np.linalg.matrix_rank(sa) == 5

    def test_scales_follow_probability_power(self, np_rng):
        a = random_tall(np_rng, 200, 3, scale_rows=True)
        p = 2.5
        w = lewis_weights(a, LewisConfig(p=p)).values
        emb = lp_embedding(a, p, 0.5, RandomSource(5), weights=w)
        probs = inclusion_probabilities(w, 3, 0.5)
        np.testing.assert_allclose(
            emb.scales, probs[emb.source_rows] ** (-1.0 / p), rtol=1e-12
        )

    def test_deterministic(self, np_rng):
        a = random_tall(np_rng, 150, 3)
        e1 = lp_embedding(a, 1, 0.5, RandomSource(9))
        e2 = lp_embedding(a, 1, 0.5, RandomSource(9))
        np.testing.assert_array_equal(e1.source_rows, e2.source_rows)
        np.testing.assert_array_equal(e1.scales, e2.scales)

    def test_rejects_bad_eps(self, np_rng):
        a = random_tall(np_rng, 20, 2)
        with pytest.raises(ValueError):
            lp_embedding(a, 1, 0.0, RandomSource(0))
        with pytest.raises(ValueError):
            lp_embedding(a, 1, 1.0, RandomSource(0))

    @pytest.mark.parametrize("eps", [0.0, 1.0, 1.5, float("nan")])
    def test_bad_eps_rejected_before_rank_gate(self, np_rng, eps):
        a = random_tall(np_rng, 50, 4)
        a[:, 3] = a[:, 0] - a[:, 1]
        with pytest.raises(ValueError, match="eps must be in"):
            lp_embedding(a, 1, eps, RandomSource(0))

    def test_rejects_weights_of_the_wrong_length(self, np_rng):
        a = random_tall(np_rng, 20, 2)
        with pytest.raises(ValueError, match="weights length must match the row count"):
            lp_embedding(a, 1, 0.5, RandomSource(0), weights=np.full(19, 0.1))

    def test_sampling_embedding_needs_one_scale_per_row(self):
        with pytest.raises(ValueError, match="source_rows and scales must have equal length"):
            SamplingEmbedding(source_rows=[0, 2], scales=[1.0], p=1.0, target_distortion=0.5)


class TestLinfEmbedding:
    def test_spanner_coefficients_bounded(self, np_rng):
        a = random_tall(np_rng, 120, 4, scale_rows=True)
        emb = linf_embedding(a)
        basis = a[np.array(emb.source_rows)]
        coeff = np.linalg.solve(basis.T, a.T).T
        assert np.max(np.abs(coeff)) <= 2.0 + 1e-7

    def test_linf_distortion_bound(self, np_rng):
        a = random_tall(np_rng, 200, 3, scale_rows=True)
        emb = linf_embedding(a)
        basis = a[np.array(emb.source_rows)]
        xs = np_rng.standard_normal((300, 3))
        full = np.max(np.abs(xs @ a.T), axis=1)
        small = np.max(np.abs(xs @ basis.T), axis=1)
        assert np.all(small <= full + 1e-12)
        assert np.all(full <= 2 * 3 * small + 1e-12)
        assert emb.target_distortion == pytest.approx(6.0)

    def test_identity_spanner_is_all_rows(self):
        emb = linf_embedding(np.eye(3))
        assert tuple(emb.source_rows) == (0, 1, 2)

    def test_matches_max_determinant_on_small_instance(self, np_rng):
        from itertools import combinations

        a = random_tall(np_rng, 8, 2, scale_rows=True)
        emb = linf_embedding(a)
        got = abs(np.linalg.det(a[np.array(emb.source_rows)]))
        best = max(abs(np.linalg.det(a[list(c)])) for c in combinations(range(8), 2))
        # a 2-approximate spanner reaches at least best / 2^d
        assert got >= best / 4 - 1e-12

    def test_swaps_until_every_coefficient_is_at_most_two(self):
        # column-scaled Gaussian rows whose pivoted-QR start is not yet a
        # 2-approximate spanner: a row has a coefficient of 2.35 on it
        g = np.random.default_rng(1350)
        a = g.standard_normal((8, 5)) * np.exp(g.uniform(-3, 3, 5))
        perm = scipy.linalg.qr(a.T, mode="economic", pivoting=True)[2]
        start = np.sort(perm[:5])
        assert np.abs(np.linalg.solve(a[start].T, a.T)).max() > 2.2
        emb = linf_embedding(a)
        rows = np.array(emb.source_rows)
        assert not np.array_equal(rows, start)
        assert np.abs(np.linalg.solve(a[rows].T, a.T)).max() <= 2.0 + 1e-9

    def test_duplicate_rows_fine(self, np_rng):
        base = random_tall(np_rng, 6, 2)
        a = np.vstack([base, base, base])
        emb = linf_embedding(a)
        assert len(emb.source_rows) == 2
