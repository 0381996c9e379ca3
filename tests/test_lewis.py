import numpy as np
import pytest

from conftest import leverage_svd_oracle, random_tall
from lpsens.core import NonConvergenceError
from lpsens.leverage import leverage_exact
from lpsens.lewis import LewisConfig, lewis_weights


def lewis_reference(a, p, iters=100000):
    """Independent reference: undamped classic recurrence for p < 4.

    w <- (a_i^T (A^T W^(1-2/p) A)^(-1) a_i)^(p/2), iterated to stagnation.
    """
    n, d = a.shape
    w = np.full(n, d / n)
    for _ in range(iters):
        g = a.T @ (w[:, None] ** (1.0 - 2.0 / p) * a)
        q = np.einsum("ij,jk,ik->i", a, np.linalg.inv(g), a)
        w_new = q ** (p / 2.0)
        if np.max(np.abs(w_new - w)) < 1e-14:
            return w_new
        w = w_new
    return w


class TestFixedPoint:
    def test_p2_equals_leverage(self, np_rng):
        a = random_tall(np_rng, 40, 4, scale_rows=True)
        np.testing.assert_allclose(
            lewis_weights(a, LewisConfig(p=2)).values,
            leverage_exact(a).values,
            atol=1e-8,
        )

    def test_defining_equation_holds_at_return(self, np_rng):
        ps = (1.0, 1.5, 2.5, 3.0, 5.0)
        for p in ps:
            a = random_tall(np_rng, 35, 4)
            w = lewis_weights(a, LewisConfig(p=p)).values
            tau = leverage_svd_oracle(a * np.maximum(w, 1e-12)[:, None] ** (0.5 - 1.0 / p))
            residual = np.max(np.abs(w - tau) / np.maximum(w, 1e-12))
            assert residual <= 1e-6
        # column scales 1 ... 1e-7, mixed by a rotation, give cond(A) ~ 1e7: a
        # Cholesky of the scaled A^T A itself (cond ~ 1e14) cannot converge here.
        # Scores are judged on the left singular vectors of A (same scores, same
        # column space): an SVD of the scaled A itself errs by ~5e-6 relative
        # on its ~1e-11 scores at p = 5
        for p in ps:
            rot = np.linalg.qr(np_rng.standard_normal((4, 4)))[0]
            a = random_tall(np_rng, 35, 4, scale_rows=True) * np.logspace(0, -7, 4) @ rot
            assert np.linalg.cond(a) > 1e6
            w = lewis_weights(a, LewisConfig(p=p)).values
            u = np.linalg.svd(a, full_matrices=False)[0]
            tau = leverage_svd_oracle(u * np.maximum(w, 1e-12)[:, None] ** (0.5 - 1.0 / p))
            residual = np.max(np.abs(w - tau) / np.maximum(w, 1e-12))
            assert residual <= 1e-6

    def test_sum_equals_dimension(self, np_rng):
        for p in (1, 1.5, 2, 2.5, 3):
            a = random_tall(np_rng, 60, 5, scale_rows=True)
            total = lewis_weights(a, LewisConfig(p=p)).values.sum()
            assert total == pytest.approx(5.0, abs=1e-4)

    def test_large_p_converges_on_moderate_matrices(self, np_rng):
        # no contraction guarantee past p = 4; beta = 1/2 handles mild inputs,
        # and harder ones surface NonConvergenceError instead of bad output
        for p in (4, 7):
            a = random_tall(np_rng, 60, 5)
            total = lewis_weights(a, LewisConfig(p=p)).values.sum()
            assert total == pytest.approx(5.0, abs=1e-4)

    def test_identity_matrix_all_ones(self):
        for p in (1, 2.5, 4):
            np.testing.assert_allclose(
                lewis_weights(np.eye(4), LewisConfig(p=p)).values, 1.0, atol=1e-8
            )

    def test_small_matrix_matches_undamped_reference(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        for p in (1.0, 1.5, 3.0):
            ref = lewis_reference(a, p)
            got = lewis_weights(a, LewisConfig(p=p)).values
            np.testing.assert_allclose(got, ref, atol=1e-5)

    def test_symmetric_3x2_exact_value(self):
        # rows play symmetric roles, so each weight is d/n = 2/3
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(
            lewis_weights(a, LewisConfig(p=1)).values, [2 / 3] * 3, atol=1e-6
        )

    def test_invariant_to_column_transform(self, np_rng):
        a = random_tall(np_rng, 30, 3)
        t = np_rng.standard_normal((3, 3)) + 3 * np.eye(3)
        w1 = lewis_weights(a, LewisConfig(p=1)).values
        w2 = lewis_weights(a @ t, LewisConfig(p=1)).values
        np.testing.assert_allclose(w1, w2, atol=1e-5)

    def test_zero_rows_get_zero_weight(self):
        a = np.vstack([np.eye(2), np.zeros((2, 2)), [[1.0, 1.0]]])
        w = lewis_weights(a, LewisConfig(p=1)).values
        assert w[2] == 0.0 and w[3] == 0.0
        assert w.sum() == pytest.approx(2.0, abs=1e-5)
        live = np.array([True, True, False, False, True])
        np.testing.assert_array_equal(w[live], lewis_weights(a[live], LewisConfig(p=1)).values)

    def test_scores_below_the_floor_do_not_pin_the_residual(self):
        # rows scaled by 10^U(-3, 3) (p >= 3) or 10^U(-6, 6) (every p) get
        # scores under the 1e-12 floor while their weights sit clamped at it
        g = np.random.default_rng(3000)
        for spread in (3.0, 6.0):
            a = g.standard_normal((3000, 6)) * 10.0 ** g.uniform(-spread, spread, 3000)[:, None]
            for p in (1.0, 1.5, 3.0, 5.0):
                w = lewis_weights(a, LewisConfig(p=p)).values
                assert np.all(w >= 1e-12) and w.sum() == pytest.approx(6.0, abs=1e-4)
                tau = leverage_svd_oracle(a * w[:, None] ** (0.5 - 1.0 / p))
                if spread == 6.0 or p >= 3.0:
                    assert np.any(tau < 1e-12)  # the case this test is about arises
                # the oracle's SVD of a matrix with row norms 1e12 apart is itself
                # off by up to ~1e-5 relative on its smallest scores
                np.testing.assert_allclose(np.maximum(tau, 1e-12), w, rtol=1e-4)

    def test_heavy_tailed_rows_converge(self, np_rng):
        a = random_tall(np_rng, 177, 14, scale_rows=True)
        for p in (1.0, 2.5, 3.0):
            w = lewis_weights(a, LewisConfig(p=p)).values
            assert np.all(w >= 0) and w.sum() == pytest.approx(14.0, abs=1e-3)


class TestConfig:
    def test_default_beta_schedule(self):
        assert LewisConfig(p=1).beta == pytest.approx(0.5)
        assert LewisConfig(p=1.5).beta == pytest.approx(0.75)
        assert LewisConfig(p=2).beta == 1.0
        assert LewisConfig(p=3.9).beta == 1.0
        assert LewisConfig(p=4).beta == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            LewisConfig(p=0.5)
        with pytest.raises(ValueError):
            LewisConfig(p=np.inf)

    def test_nonconvergence_carries_residual(self, np_rng, monkeypatch):
        import lpsens.lewis as lewis

        monkeypatch.setattr(lewis, "_MAX_ITERS", 1)
        monkeypatch.setattr(lewis, "_TOL", 1e-12)
        a = random_tall(np_rng, 40, 4, scale_rows=True)
        with pytest.raises(NonConvergenceError) as exc:
            lewis_weights(a, LewisConfig(p=1))
        assert exc.value.residual > 0
