import numpy as np
import pytest

from lpsens.core import (
    RandomSource,
    RankDeficientError,
    WeightVector,
    as_matrix,
    as_vector,
    lp_norm,
    matrix_rank,
    pivoted_qr,
    pseudoinverse_gram,
    require_tall_full_rank,
)


class TestLpNorm:
    def test_frozen_fractional_exponent_value(self):
        # reference computed with 50-digit arithmetic: (1 + 2^1.5 + 0.5^1.5)^(2/3)
        assert lp_norm(np.array([1.0, -2.0, 0.5]), 1.5) == pytest.approx(
            2.5957010334043913, abs=1e-14
        )

    def test_matches_numpy_for_standard_exponents(self):
        x = np.array([3.0, -4.0, 12.0])
        assert lp_norm(x, 1) == pytest.approx(19.0, abs=1e-12)
        assert lp_norm(x, 2) == pytest.approx(13.0, abs=1e-12)
        assert lp_norm(x, np.inf) == pytest.approx(12.0, abs=1e-12)

    def test_scale_homogeneous(self):
        x = np.array([0.3, -1.7, 2.2, 0.0])
        for p in (1, 1.5, 2, 3):
            assert lp_norm(7.5 * x, p) == pytest.approx(7.5 * lp_norm(x, p), rel=1e-12)

    def test_huge_entries_do_not_overflow(self):
        x = np.array([1e300, -1e300])
        assert np.isfinite(lp_norm(x, 3))
        assert lp_norm(x, 3) == pytest.approx(2 ** (1 / 3) * 1e300, rel=1e-12)

    def test_zero_vector(self):
        assert lp_norm(np.zeros(4), 1.5) == 0.0

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            lp_norm(np.ones(3), 0.5)


class TestConversions:
    def test_as_matrix_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            as_matrix(np.ones(3))
        with pytest.raises(ValueError):
            as_matrix(np.ones((0, 2)))
        with pytest.raises(ValueError):
            as_matrix([[1.0, np.nan]])

    def test_as_matrix_is_c_contiguous_float64(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.float64 and m.flags.c_contiguous

    def test_as_vector(self):
        v = as_vector([1, 2, 3])
        assert v.shape == (3,) and v.dtype == np.float64
        with pytest.raises(ValueError):
            as_vector([[1, 2]])


class TestRank:
    def test_rank_of_constructed_matrices(self, np_rng):
        a = np_rng.standard_normal((30, 5))
        assert matrix_rank(a) == 5
        a[:, 4] = a[:, 0] + 2 * a[:, 1]
        assert matrix_rank(a) == 4

    def test_pivoted_qr_shapes_and_reconstruction(self, np_rng):
        a = np_rng.standard_normal((20, 4))
        res = pivoted_qr(a)
        assert res.rank == 4
        assert res.q.shape == (20, 4)
        np.testing.assert_allclose(res.q.T @ res.q, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(res.q @ (res.q.T @ a), a, atol=1e-10)

    def test_require_tall_full_rank(self, np_rng):
        with pytest.raises(RankDeficientError):
            require_tall_full_rank(np.ones((5, 2)))
        with pytest.raises(RankDeficientError):
            require_tall_full_rank(np_rng.standard_normal((3, 5)))
        a = np_rng.standard_normal((5, 3))
        out = require_tall_full_rank(a)
        assert out.a.shape == (5, 3)
        assert require_tall_full_rank(out) is out

    def test_pseudoinverse_gram_vs_numpy(self, np_rng):
        a = np_rng.standard_normal((25, 4))
        np.testing.assert_allclose(
            pseudoinverse_gram(a), np.linalg.pinv(a.T @ a), atol=1e-10
        )
        a[:, 3] = a[:, 0]
        np.testing.assert_allclose(
            pseudoinverse_gram(a), np.linalg.pinv(a.T @ a), atol=1e-8
        )


class TestRandomSource:
    def test_same_seed_same_stream(self):
        x = RandomSource(5).generator().standard_normal(8)
        y = RandomSource(5).generator().standard_normal(8)
        np.testing.assert_array_equal(x, y)

    def test_child_keys_give_distinct_streams(self):
        base = RandomSource(5)
        a = base.child("embed").generator().standard_normal(8)
        b = base.child("sample").generator().standard_normal(8)
        c = base.child("embed", 1).generator().standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_child_is_deterministic_across_constructions(self):
        a = RandomSource(9).child("x", 3).generator().integers(0, 1000, 5)
        b = RandomSource(9).child("x", 3).generator().integers(0, 1000, 5)
        np.testing.assert_array_equal(a, b)

    def test_string_and_int_keys_are_both_accepted(self):
        src = RandomSource(1).child("alpha", 10, "rep", 0)
        assert src.generator().random() == src.generator().random()


class TestWeightVector:
    def test_total_and_len(self):
        w = WeightVector(values=np.array([0.25, 0.75, 0.5]), kind="leverage", p=2.0)
        assert len(w) == 3
        assert w.total == pytest.approx(1.5)
