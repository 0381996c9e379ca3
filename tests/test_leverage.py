import tracemalloc

import numpy as np
import pytest

from conftest import leverage_svd_oracle, random_tall
from lpsens.core import RandomSource, RankDeficientError
from lpsens.leverage import leverage_approx, leverage_exact


class TestExact:
    def test_matches_svd_oracle(self, np_rng):
        for n, d in ((10, 2), (40, 5), (100, 8)):
            a = random_tall(np_rng, n, d, scale_rows=True)
            np.testing.assert_allclose(
                leverage_exact(a).values, leverage_svd_oracle(a), atol=1e-10
            )

    def test_sum_equals_rank(self, np_rng):
        a = random_tall(np_rng, 50, 6)
        assert leverage_exact(a).values.sum() == pytest.approx(6.0, abs=1e-9)
        a[:, 5] = 3 * a[:, 2]
        assert leverage_exact(a).values.sum() == pytest.approx(5.0, abs=1e-9)

    def test_range_and_kind(self, np_rng):
        a = random_tall(np_rng, 30, 4, scale_rows=True)
        w = leverage_exact(a)
        assert w.kind == "leverage" and w.p == 2.0
        assert np.all(w.values >= 0) and np.all(w.values <= 1)

    def test_orthonormal_rows_give_exact_values(self):
        a = np.vstack([np.eye(3), np.zeros((2, 3))])
        np.testing.assert_allclose(
            leverage_exact(a).values, [1, 1, 1, 0, 0], atol=1e-14
        )

    def test_invariant_to_column_transform(self, np_rng):
        a = random_tall(np_rng, 40, 4)
        t = np_rng.standard_normal((4, 4)) + 4 * np.eye(4)
        np.testing.assert_allclose(
            leverage_exact(a @ t).values, leverage_exact(a).values, atol=1e-8
        )


class TestApprox:
    def test_close_to_exact_at_moderate_eps(self, np_rng):
        a = random_tall(np_rng, 300, 4, scale_rows=True)
        exact = leverage_exact(a).values
        approx = leverage_approx(a, eps=0.3, rng=RandomSource(7)).values
        mask = exact > 1e-8
        ratio = approx[mask] / exact[mask]
        assert ratio.max() < 1.8 and ratio.min() > 0.55

    def test_deterministic_via_source(self, np_rng):
        a = random_tall(np_rng, 120, 3)
        x = leverage_approx(a, eps=0.5, rng=RandomSource(3)).values
        y = leverage_approx(a, eps=0.5, rng=RandomSource(3)).values
        np.testing.assert_array_equal(x, y)

    def test_values_clipped_to_unit_interval(self, np_rng):
        a = random_tall(np_rng, 60, 3, scale_rows=True)
        vals = leverage_approx(a, eps=0.9, rng=RandomSource(1)).values
        assert np.all(vals >= 0) and np.all(vals <= 1)

    @pytest.mark.parametrize("eps", [0.5, 0.3])
    def test_window_on_coherent_rows(self, eps):
        # 10 * I_8 hidden among tiny rows: eight scores near 1, the rest near 0
        lo, hi = 1.0 / (1.0 + eps) ** 2, 1.0 / (1.0 - eps) ** 2
        for seed in range(20):
            gen = np.random.default_rng(seed)
            a = np.vstack([0.01 * gen.standard_normal((2000, 8)), 10.0 * np.eye(8)])
            a = a[gen.permutation(a.shape[0])]
            ratio = leverage_approx(a, eps, RandomSource(seed)).values / leverage_exact(a).values
            assert lo <= ratio.min() and ratio.max() <= hi, (seed, ratio.min(), ratio.max())

    @pytest.mark.parametrize("eps", [0.5, 0.3])
    def test_window_when_sketch_outnumbers_rows(self, eps):
        # 112 rows, while the sketch has 152 rows at eps = 0.5 and 680 at 0.3
        lo, hi = 1.0 / (1.0 + eps) ** 2, 1.0 / (1.0 - eps) ** 2
        for seed in range(20):
            a = random_tall(np.random.default_rng(seed), 112, 4, scale_rows=True)
            ratio = leverage_approx(a, eps, RandomSource(seed)).values / leverage_exact(a).values
            assert lo <= ratio.min() and ratio.max() <= hi, (seed, ratio.min(), ratio.max())

    def test_rank_deficient_raises(self, np_rng):
        a = random_tall(np_rng, 50, 4)
        a[:, 3] = a[:, 0] - a[:, 1]
        with pytest.raises(RankDeficientError):
            leverage_approx(a, 0.5, RandomSource(0))

    @pytest.mark.parametrize("eps", [0.0, 1.0, 1.5, float("nan")])
    def test_bad_eps_rejected_before_rank_gate(self, np_rng, eps):
        a = random_tall(np_rng, 50, 4)
        a[:, 3] = a[:, 0] - a[:, 1]
        with pytest.raises(ValueError, match="eps must be in"):
            leverage_approx(a, eps, RandomSource(0))

    def test_working_memory_is_linear_in_rows(self):
        # an r x n dense sketch here peaks near 41 a.nbytes; the sparse one near 3
        a = np.random.default_rng(5).standard_normal((20000, 8))
        leverage_approx(a, 0.5, RandomSource(1))
        tracemalloc.start()
        try:
            leverage_approx(a, 0.5, RandomSource(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * a.nbytes, peak / a.nbytes
